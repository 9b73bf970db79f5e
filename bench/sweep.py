"""Run the benchmark untraced over several seeds, one run at a time, and
summarise the end-to-end metrics.

    python3 bench/sweep.py --seeds 1-10 [--workloads decode,gen]
        [--out .bench_run/sweep.json]

For each workload and end-to-end metric it reports the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread, which is
the interquartile distance as a share of the median, next to the metric's
bound from `BENCHMARK.json`; `bench/baseline.json`'s `end_to_end` section
holds this summary for the seed commit.  A run that exits non-zero or
reports `correct: false` stops the sweep.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError("quartiles need at least two seeds")
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=seed_list, required=True,
                   help="a range such as 1-10 (at least two seeds)")
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--out", type=Path, default=ROOT / ".bench_run" / "sweep.json")
    args = p.parse_args(argv)

    runs: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds",
                   str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                sys.stderr.write(proc.stdout + proc.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            runs.setdefault(workload, []).append(
                {k: v["value"] for k, v in result["metrics"].items()})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for workload, rows in runs.items():
        summary[workload] = {}
        for metric in rows[0]:
            values = [r[metric] for r in rows]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            summary[workload][metric] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds.get(metric), "runs": len(values),
                "values": values}
            print(f"{workload:12} {metric:44} median {median:<12.6g} "
                  f"spread {spread:.4f} bound {bounds.get(metric)}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
