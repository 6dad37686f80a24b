"""Run the benchmark over several seeds and summarize each metric.

Usage, from the repository root:

    python3 bench/sweep.py --workloads helix,sysid --seeds 1-10 --seconds 60 \
        --trace 0 --out sweep.json

For every workload and metric it reports the values, their median and
quartiles (`statistics.quantiles(values, n=4)`), and the spread, the
quartile distance as a share of the median. It also keeps each run's
determinism record (output hash and exact counts) and reports whether runs
of the same seed printed the same one; `--seeds 1-3,1-3` runs each seed
twice. Runs are sequential, one
process at a time, so they do not compete for the processor.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "values": values}


def summarize_metrics(results: list, key: str, note: str = "") -> dict:
    out = {}
    for name, first in results[0][key].items():
        out[name] = {"unit": first["unit"],
                     **summarize([r[key][name]["value"] for r in results])}
        print(f"  {name:28s} median {out[name]['median']:.6g}  "
              f"spread {out[name]['spread']:.3f}{note}", flush=True)
    return out


def records_repeat(records: dict) -> bool:
    return all(r == rs[0] for rs in records.values() for r in rs)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    """The result object, the determinism record and the wall time of one run."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2][len("DETAIL "):])
    record = {k: detail[k] for k in ("csv_sha256", "params_sha256") if k in detail}
    record.update(detail["counts"])
    result = json.loads(lines[-1])
    result["ungated"] = detail["ungated"]
    return result, record, time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    summary = {}
    for workload in args.workloads.split(","):
        results, walls, records = [], [], {}
        for seed in _seeds(args.seeds):
            result, record, wall = run_once(workload, seed, args.seconds, args.trace)
            results.append(result)
            walls.append(wall)
            records.setdefault(str(seed), []).append(record)
            print(f"{workload} seed {seed}: {wall:.1f} s, correct {result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        print(f"  runs of the same seed printed the same record: "
              f"{records_repeat(records)}", flush=True)
        metrics = summarize_metrics(results, "metrics")
        ungated = summarize_metrics(results, "ungated", "  (not gated)")
        summary[workload] = {
            "runs": len(results),
            "all_correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "run_wall_s": summarize(walls),
            "records": records,
            "records_repeat": records_repeat(records),
            "metrics": metrics,
            "ungated": ungated,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
