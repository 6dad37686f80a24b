"""fwnmpc benchmark: closed-loop scenarios and a sysid fit, end to end and
layer by layer.

Usage, from the repository root:

    python3 bench/run.py --workload helix --seed 1 --seconds 45 --trace 0

Workloads: helix, dubins_wind, motor_failure, sysid (see bench/README.md).
With --trace 0 the end-to-end metrics are reported; with --trace 1 the
per-layer metrics of a separately traced run. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it are a readable report and a DETAIL line with
the environment, the determinism record and the correctness checks.

BLAS and OpenMP are pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def source_digest(directory: Path) -> str:
    """sha256 over the Python files under `directory`, in path order."""
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(str(path.relative_to(directory)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    """HEAD of the checkout's own git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": cfg.get("name"), "version": cfg.get("version")}
    except (TypeError, KeyError):  # numpy without the dict form of its config
        blas = {"name": None, "version": None}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "source_sha256": source_digest(SRC / "fwnmpc"),
        "bench_sha256": source_digest(Path(__file__).resolve().parent),
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "fwnmpc" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC.name}/fwnmpc", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment()
    t0 = time.perf_counter()
    result = wl.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                             BUILD / "tmp")
    run_wall = time.perf_counter() - t0

    failed = result.failed
    correct = failed == 0 and all(c.ok for c in result.checks)

    names = wl.PER_LAYER if args.trace else wl.END_TO_END
    metrics = {name: {"value": float(result.metrics[name]), "unit": unit}
               for name, unit in names}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"run {run_wall:.1f} s  threads pinned to 1")
    for name, unit in names:
        print(f"  {name:28s} {_fmt(metrics[name]['value']):>12s} {unit}")
    d = result.detail
    for name, unit in wl.UNGATED:
        print(f"  {name:28s} {_fmt(d[name]):>12s} {unit}  (not gated)")
    if "t_iter_ms" in d:
        print(f"  feedback p90 vs controller period t_iter {d['t_iter_ms']:g} ms over "
              f"{d['feedback_samples']} warm periods: {d['feedback_over_t_iter']} over t_iter")
    for check in result.checks:
        print(f"  check {check.name}: {_fmt(check.value)} (limit {_fmt(check.limit)}) "
              f"{'ok' if check.ok else 'MISS'}")
    print(f"  determinism: {result.detail['repeats']}")
    print(f"  operations: {failed} failed of {result.attempted} attempted")
    ungated = {name: {"value": float(result.detail[name]), "unit": unit}
               for name, unit in wl.UNGATED}
    detail = {"environment": env, "run_wall_s": run_wall, **result.detail, "ungated": ungated,
              "checks": [{"name": c.name, "value": c.value, "limit": c.limit, "ok": c.ok}
                         for c in result.checks]}
    print("DETAIL " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": bool(correct), "attempted": int(result.attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
