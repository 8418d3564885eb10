"""The native search kernel: build, load, and ``RouterConfig.backend``.

The §7 *Trace* and *Vias* depth-first searches have two
implementations with one contract: the scalar loops in
:mod:`repro.core.single_layer` (``_trace_dfs``, ``_vias_dfs``) and a
bit-for-bit C port of them in ``_kernel.c``, a plain CPython C-API
extension.  This module builds the C port on import and picks between
the two per router:

* **Build cache.**  The shared object lives in this package's
  ``__pycache__`` under a name keyed by the sha256 of ``_kernel.c`` and
  the interpreter's extension suffix, so an edited source or another
  interpreter rebuilds and every other import just loads it.  The
  compiler is ``$CC`` if set, else :mod:`sysconfig`'s ``CC``, run in a
  subprocess (importing setuptools in-process would double a small
  run's resident memory).  Output goes to a temp file that is then
  ``os.replace``-d into place, so concurrent importers and pool workers
  never load a half-written file.
* **Fallback.**  Any failure (no compiler, no ``Python.h``, a read-only
  package directory, a load error) leaves :data:`KERNEL` None and
  :data:`REASON` saying why; the scalar kernel then runs everywhere.
* **Backends.**  ``auto`` runs native when the kernel loaded, else
  ``python``; ``python`` forces the scalar kernel; ``native`` raises
  :class:`BackendUnavailable` (with :data:`REASON`) when the kernel did
  not load.  A router resolves its backend once and applies it to its
  workspace's layers (:func:`use_backend`) at the start of each
  ``route()``.
"""

from __future__ import annotations

import hashlib
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path
from types import ModuleType
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.channels.workspace import RoutingWorkspace

#: The recognised spellings of ``RouterConfig.backend``.
BACKENDS = ("auto", "native", "python")

#: The kernel's C source and the directory its builds are cached in.
SOURCE = Path(__file__).with_name("_kernel.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")

#: Seconds a kernel build may take before it counts as failed.
BUILD_TIMEOUT = 120


class BackendUnavailable(ValueError):
    """``backend="native"`` was asked for but the kernel did not load."""


def load_kernel(
    source: Path = SOURCE, cache_dir: Path = CACHE_DIR
) -> Tuple[Optional[ModuleType], str]:
    """Build (if not cached) and load the kernel in ``source``.

    Returns ``(module, "")`` on success and ``(None, reason)`` on any
    failure; never raises.
    """
    try:
        code = source.read_bytes()
    except OSError as exc:
        return None, f"cannot read {source.name}: {exc}"
    digest = hashlib.sha256(code).hexdigest()[:16]
    target = cache_dir / f"_kernel_{digest}{EXTENSION_SUFFIXES[0]}"
    if not target.exists():
        reason = _build(source, target)
        if reason:
            return None, reason
    try:
        module = _load(target)
    except ImportError as exc:
        return None, f"cannot load {target.name}: {exc}"
    from repro.channels.via_map import MIXED
    from repro.core.budget import SEARCH_CHECK_MASK
    from repro.grid.coords import ViaPoint

    module.configure(SEARCH_CHECK_MASK, MIXED, ViaPoint)
    return module, ""


def _build(source: Path, target: Path) -> str:
    """Compile ``source`` to ``target``; an error message, or ``""``."""
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    cc = os.environ.get("CC") or sysconfig.get_config_var("CC")
    if not cc:
        return "no C compiler configured (sysconfig CC is empty)"
    include = sysconfig.get_paths()["include"]
    if not os.path.exists(os.path.join(include, "Python.h")):
        return f"Python.h not found in {include}"
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            prefix=f"{target.stem}.", suffix=".tmp", dir=target.parent
        )
        os.close(fd)
    except OSError as exc:
        return f"cannot write the build cache {target.parent}: {exc}"
    command = [
        *shlex.split(cc),
        *shlex.split(sysconfig.get_config_var("CCSHARED") or ""),
        "-shared", "-O2", "-DNDEBUG", "-I", include,
        str(source), "-o", tmp,
    ]
    if sys.platform == "darwin":
        command += ["-undefined", "dynamic_lookup"]
    try:
        try:
            done = subprocess.run(
                command, capture_output=True, text=True,
                timeout=BUILD_TIMEOUT,
            )
        except (OSError, subprocess.SubprocessError) as exc:
            return f"C compiler {command[0]!r} did not run: {exc}"
        if done.returncode != 0:
            detail = (done.stderr or done.stdout).strip().splitlines()
            first = detail[0] if detail else "no output"
            return (
                f"C compiler {command[0]!r} exited {done.returncode}: "
                f"{first}"
            )
        os.replace(tmp, target)
        return ""
    except OSError as exc:
        return f"cannot install {target.name}: {exc}"
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load(path: Path) -> ModuleType:
    from importlib.util import module_from_spec, spec_from_file_location

    spec = spec_from_file_location("repro.core._kernel", path)
    if spec is None or spec.loader is None:
        raise ImportError(f"no extension loader for {path}")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: The loaded native kernel, or None when it could not be built/loaded.
#: :data:`REASON` says why it is None ("" when it loaded).
KERNEL, REASON = load_kernel()


def resolve_backend(requested: str) -> str:
    """Map a ``RouterConfig.backend`` value to ``"native"`` or ``"python"``.

    ``"native"`` without a loaded kernel raises
    :class:`BackendUnavailable` naming the build failure; ``"numpy"``
    raises with a note on its removal; any other unknown value raises as
    unknown.
    """
    if requested == "python":
        return "python"
    if requested == "auto":
        return "python" if KERNEL is None else "native"
    if requested == "native":
        if KERNEL is None:
            raise BackendUnavailable(
                f"backend 'native' is unavailable: {REASON}"
            )
        return "native"
    if requested == "numpy":
        raise ValueError(
            "backend='numpy' was removed: use backend='auto', 'native' "
            "or 'python'"
        )
    raise ValueError(f"unknown backend {requested!r}; choose from {BACKENDS}")


def backend_reason(selected: str) -> str:
    """Why a resolved backend runs: ``""`` for native, else what
    :data:`REASON` says kept the native kernel out (or ``"requested"``
    when it loaded and ``python`` was asked for)."""
    if selected == "native":
        return ""
    return REASON or "requested"


def use_backend(workspace: "RoutingWorkspace", backend: str) -> None:
    """Run the workspace's *Trace*/*Vias* searches on ``backend``.

    ``backend`` is a resolved name (:func:`resolve_backend`).
    """
    kernel = KERNEL if backend == "native" else None
    for layer in workspace.layers:
        layer.kernel = kernel
