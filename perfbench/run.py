"""End-to-end routing benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload congested --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the router is imported from
``src/`` beside this directory and nowhere else.  The run sets up its
inputs, then repeats the workload's batch until ``--seconds`` have
passed, and at least twice.  Every input that runs more than once must
reach the same routed state and work counters (``eco_edit`` draws new
edit streams per batch and replays its first stream for this check).  With ``--trace 1`` batches alternate
untraced/traced; the traced ones give the per-layer metrics and the
difference gives the tracing overhead.

Prints one line per metric (name, value, unit), a provenance line, and
last one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Exits 1 when any output fails a check or a repeat
disagrees, 2 when the router source cannot be found.  Results and spans
are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Environment switches that change router defaults (CI matrix legs).
#: Cleared so every run measures the documented defaults.
CLEARED_ENV = ("GRR_SEARCH", "GRR_BACKEND", "GRR_AUDIT", "GRR_FAULT")

#: Batches every run makes at the least, time permitting or not.
MIN_BATCHES = 2


def _import_router():
    """Import ``repro`` from this checkout's ``src/``; exit 2 if absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no router source under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.stderr.write(f"perfbench: imported repro from {repro.__file__}\n")
        sys.exit(2)


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _git_sha():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
            # A checkout that is not a repository must not report the
            # sha of some repository above it.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest() -> str:
    """sha256 over the router's source files (identity without git)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, workload, cleared) -> dict:
    from repro.core import fastpath

    config = workload.config
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "cpu_count": os.cpu_count(),
        "cpus_available": _cpus(),
        "python": platform.python_version(),
        "backend": fastpath.resolve_backend(config.backend),
        "search": config.search,
        "workers": config.workers,
        "cleared_env": cleared,
    }


def _determinism(batches) -> list:
    """Inputs whose fingerprint differs between two of the batches."""
    first: dict = {}
    differing = set()
    for batch in batches:
        for label, signature in batch.signature.items():
            if first.setdefault(label, signature) != signature:
                differing.add(label)
    return sorted(differing)


def _units(section: str) -> dict:
    """Metric name -> unit for one section of ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
        return {m["name"]: m["unit"] for m in json.load(stream)[section]}


def _format(value) -> str:
    if value is None:
        return "not measured"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cleared = sorted(k for k in CLEARED_ENV if os.environ.pop(k, None) is not None)
    _import_router()
    import metrics
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workdir = OUT / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, str(workdir), _cpus())

    workload.setup()
    tracer = Tracer()
    batches = []
    started = time.perf_counter()
    while (
        len(batches) < MIN_BATCHES
        or time.perf_counter() - started < args.seconds
    ):
        # Traced runs pair each traced batch with the untraced one before
        # it on the same inputs, so the overhead compares equal work.
        traced = bool(args.trace) and len(batches) % 2 == 1
        index = len(batches) // 2 if args.trace else len(batches)
        first_span = len(tracer)
        outcomes = tracer.outcomes.copy()
        batch = workload.batch(index, tracer if traced else None)
        if traced:
            batch.traced = True
            batch.span_range = (first_span, len(tracer))
            batch.outcomes = tracer.outcomes - outcomes
        batches.append(batch)

    replay = workload.replay()
    checked = batches + ([replay] if replay is not None else [])
    failures = [f for batch in checked for f in batch.failures]
    mismatched = _determinism(checked)
    failures += [f"{label}: repeat differs from the first" for label in mismatched]
    attempted = sum(batch.requests for batch in batches)
    failed = sum(batch.failed for batch in checked) + len(mismatched)

    if args.trace:
        values = metrics.per_layer(args.workload, batches, tracer)
        units = _units("per_layer")
    else:
        values = metrics.end_to_end(batches, workload.setup_times)
        units = _units("end_to_end")
    info = provenance(args, workload, cleared)
    info["batch_flow_s"] = [round(batch.flow_s, 4) for batch in batches]
    info["batch_traced"] = [batch.traced for batch in batches]
    if args.trace:
        info["latency_samples"] = metrics.sample_counts(batches)
        info["route_attribution"] = metrics.route_attribution(batches, tracer)

    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(f"{stem}.spans.jsonl.gz")
    record = {
        "provenance": info,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
        "failures": failures,
    }
    with open(f"{stem}.json", "w", encoding="utf-8") as stream:
        json.dump(record, stream, indent=1)

    for failure in failures:
        print(f"FAIL {failure}")
    for name, unit in units.items():
        print(f"{name:28s} {_format(values[name]):>14s} {unit}")
    for name, share in info.get("route_attribution", {}).items():
        print(f"route() self time in {name:22s} {share:8.1%}")
    print("provenance " + json.dumps(info, sort_keys=True))
    correct = not failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
