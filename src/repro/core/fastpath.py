"""Resolution of the ``RouterConfig.backend`` knob.

The single-layer searches have one implementation, the scalar kernel in
:mod:`repro.core.single_layer`, so every accepted spelling resolves to
``"python"``.  The knob stays so configurations, the CLI's ``--backend``
flag and run records keep working.  The vectorized numpy backend was
removed: against the scalar kernel with its per-search *Vias* memo it
took 1.0x to 1.2x the time on kdj11_2l in both search modes, so it
bought nothing for a second copy of every kernel.
"""

from __future__ import annotations

#: The recognised spellings of ``RouterConfig.backend``.
BACKENDS = ("auto", "python")


def resolve_backend(requested: str) -> str:
    """Map a ``RouterConfig.backend`` value to the backend to run.

    ``"numpy"`` raises with a note on its removal; any other unknown
    value raises as unknown.
    """
    if requested == "numpy":
        raise ValueError(
            "backend='numpy' was removed: the scalar search kernel is "
            "the only backend; use backend='auto' or 'python'"
        )
    if requested not in BACKENDS:
        raise ValueError(
            f"unknown backend {requested!r}; choose from {BACKENDS}"
        )
    return "python"
