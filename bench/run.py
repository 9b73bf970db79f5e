"""Run one benchmark workload once and print its metrics.

    python3 bench/run.py --workload decode --seed 1 --seconds 8 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  `BENCHMARK.json` lists the workloads, why each exists, and the
metrics; `bench/baseline.json` names the end-to-end metric each per-layer
metric should move and holds the seed commit's numbers.  Each run:

1. sets up: generates its inputs from the seed (several times, median) and,
   for `decode`, trains the checkpoint it decodes with; on `train-*`, where
   set-up takes ~20 ms, further set-ups run between the untraced rounds;
2. repeats closed-loop rounds of the workload until `--seconds` are spent,
   stopping only after a whole pass over the inputs (one round; on
   `decode`, one round per problem), so every input counts equally;
3. with `--trace 1`, repeats the rounds for as long again with every module
   traced, and reports the per-layer metrics and the tracing overhead
   (traced round minus untraced round, medians at reference speed);
4. checks the outputs outside the timed region.

End-to-end metrics, the same on every workload:
  items_per_s   work items per second over all rounds; an item is a
                training example, a decoded or generated problem, or an
                adjudicated candidate (see each workload's `item`)
  setup_s       set-up time: medians of the repeated parts, plus the parts
                done once (the checkpoint training on `decode`, the
                candidate beams on `adjudicate`)
  peak_rss_mb   peak resident memory of the run's own process; the
                checkpoint training on `decode` and the problem generation
                on `adjudicate` run in a child process and do not count
  useful_share  share of operations with the useful outcome: steps with a
                finite loss, problems whose rank-0 candidate is correct
                (top-1), generated problems the oracle confirms

Both times are at reference speed (`workloads.timed`).  On a shared host,
neighbours slow a run by 1.3-2x for seconds at a time, which spread the raw
figures by 10-35% between runs of one commit.  A fixed reference kernel of
a few milliseconds is timed just before and after each timed call, and the
call's time is scaled as if the kernel had taken `REFERENCE_S`.  The kernel
belongs to the benchmark, so a faster program shows in full; raw round
times stay in the record.  Per-layer metrics are raw.

The last stdout line is one JSON object: `correct`, `attempted`, `failed`,
`metrics`.  Earlier lines give each metric with its unit and direction, the
machine and the inputs' digest; `.bench_run/records/` keeps the full record
and, when traced, the spans.  Exit codes: 0 ok, 2 usage or missing source
tree, 3 an output check failed (each failed check counts as one failed
operation and is named on stderr).

`--heldout-seed N` draws the inputs from a stream disjoint from every
`--seed`, for confirming a claim on problems not used while writing it.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".bench_run"
BLAS_THREADS = 1  # one process, one BLAS thread: steadier on a shared box
HELDOUT_BASE = 2 ** 31


def parse_args(argv, spec: dict):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--heldout-seed", type=int, default=None)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    for seed in (args.seed, args.heldout_seed):
        if seed is not None and not 0 <= seed < HELDOUT_BASE:
            p.error(f"seeds must lie in [0, 2**31), got {seed}")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def blas_record() -> dict:
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": info.get("name"), "version": info.get("version"),
              "threads_requested": BLAS_THREADS, "threads": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                record["threads"] = int(getattr(handle, sym)())
                return record
    return record


def source_record() -> dict:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    record = {"src_sha256": h.hexdigest(), "commit": None, "dirty": None}
    try:
        head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return record
    lines = head.stdout.split()
    # a checkout that is not itself a repository may sit inside another one
    if head.returncode == 0 and status.returncode == 0 and Path(lines[0]) == ROOT:
        record["commit"] = lines[1]
        record["dirty"] = bool(status.stdout.strip())
    return record


def run_tag(args) -> str:
    if args.heldout_seed is None:
        return f"seed{args.seed}"
    return f"heldout{args.heldout_seed}"


def run_rounds(wl, seconds: float, between=None) -> list:
    """Closed loop: rounds back to back until `seconds` are spent, in whole
    passes of `wl.pass_rounds` rounds, at least one pass.  `between`, if
    given, runs after each round, outside its timing and the `seconds`."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or len(rounds) % wl.pass_rounds or time.perf_counter() < deadline:
        rounds.append(wl.round())
        if between is not None:
            t0 = time.perf_counter()
            between()
            deadline += time.perf_counter() - t0
    return rounds


def execute(args, work: Path) -> dict:
    import numpy as np

    import micro
    import tracer as tracing
    import workloads

    input_seed = args.seed if args.heldout_seed is None else HELDOUT_BASE + args.heldout_seed
    wl = workloads.make(args.workload, work, input_seed)
    digest = wl.setup()
    # untraced rounds only: traced ones would count the set-up's spans
    rounds = run_rounds(wl, args.seconds, getattr(wl, "resample_setup", None))
    items = sum(r.items for r in rounds)
    record = {
        "workload": args.workload, "seed": args.seed,
        "heldout_seed": args.heldout_seed, "input_seed": input_seed,
        "inputs_sha256": digest, "item": wl.item,
        "round_seconds": [r.seconds for r in rounds],
        "round_scaled_s": [r.scaled_s for r in rounds],
        "raw_items_per_s": items / sum(r.seconds for r in rounds),
    }
    metrics = {"items_per_s": items / sum(r.scaled_s for r in rounds),
               "setup_s": wl.setup_s}
    attempted = sum(r.ops for r in rounds)
    spans_path = None
    if args.trace:
        tr = tracing.Tracer()
        tr.install()
        try:
            traced = run_rounds(wl, args.seconds)
        finally:
            tr.uninstall()
        attempted += sum(r.ops for r in traced)
        ops = sum(r.ops for r in traced)
        problems = ops if args.workload == "decode" else 0
        layer = tracing.layer_metrics(tr, ops, problems)
        untraced_s = statistics.median(r.scaled_s for r in rounds)
        traced_s = statistics.median(r.scaled_s for r in traced)
        layer["trace.overhead_s"] = traced_s - untraced_s
        layer["trace.overhead_share"] = traced_s / untraced_s - 1.0
        if wl.uses_tensorcore:
            layer.update(micro.op_micro())
        else:
            layer.update({f"tensorcore.{op}.{d}": 0.0 for op in tracing.OPS
                          for d in ("fwd_us", "bwd_us")})
        records = RUN_DIR / "records"
        records.mkdir(parents=True, exist_ok=True)
        spans_path = records / f"spans-{args.workload}-{run_tag(args)}.npz"
        tr.save(spans_path)
        record["traced_round_seconds"] = [r.seconds for r in traced]
        record["traced_round_scaled_s"] = [r.scaled_s for r in traced]
        metrics.update(layer)
    checked = wl.check()
    metrics["useful_share"] = checked.useful / checked.useful_of
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record.update({
        "checks": checked.details, "failures": checked.failures,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "blas": blas_record(),
                    "platform": platform.platform()},
        "source": source_record(),
        "spans": None if spans_path is None else spans_path.relative_to(ROOT).as_posix(),
    })
    failed = min(attempted, len(checked.failures))
    return {"record": record, "metrics": metrics, "attempted": attempted,
            "failed": failed}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, spec)
    if not (ROOT / "src" / "geoformal" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    RUN_DIR.mkdir(exist_ok=True)
    with open(RUN_DIR / "lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # workloads run one at a time
        work = RUN_DIR / "work" / f"{args.workload}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            result = execute(args, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    record = result["record"]
    shown = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    record.update({"metrics": metrics, "attempted": result["attempted"],
                   "failed": result["failed"]})
    out = RUN_DIR / "records" / f"{args.workload}-{run_tag(args)}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  item: {record['item']}  "
          f"rounds {len(record['round_seconds'])}  inputs sha256 {record['inputs_sha256'][:16]}")
    for m in wanted:
        print(f"  {m['name']:<44} {metrics[m['name']]:>14.6g} {m['unit']:<10} "
              f"{m['better']} is better")
    print(f"  operations attempted {result['attempted']}  failed {result['failed']}")
    for failure in record["failures"]:
        print(f"FAILED: {args.workload} seed {args.seed}: {failure}", file=sys.stderr)
    print(f"  checks {json.dumps(record['checks'], sort_keys=True)}")
    print(f"  machine {json.dumps(record['machine'], sort_keys=True)}")
    print(f"  source {json.dumps(record['source'], sort_keys=True)}")
    correct = not record["failures"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": shown}))
    return 0 if correct else 3


if __name__ == "__main__":
    sys.exit(main())
