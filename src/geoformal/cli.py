"""Command-line entry point.

stdout carries exactly one machine-readable JSON summary per invocation;
human logs go to stderr.  Exit codes: 0 success, 1 usage error, 2 data or
schema error, 3 verification failure (gradcheck / selftest).  The seed falls
back to the GEOFORMAL_SEED environment variable, then to 0.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import diagram_synth as ds
from . import eval_harness as eh
from . import formal_lang as fl
from . import selfcheck
from . import solver
from . import train as tr

log = logging.getLogger("geoformal")

USAGE_ERROR, DATA_ERROR, VERIFY_ERROR = 1, 2, 3

# every other error the package raises on bad input, and JSONDecodeError,
# is a ValueError
DATA_ERRORS = (ds.RetryExhaustedError, OSError, KeyError, ValueError)


def _default_seed(value: int | None) -> int:
    if value is not None:
        return value
    return int(os.environ.get("GEOFORMAL_SEED", "0"))


def _emit(payload: dict) -> None:
    sys.stdout.write(solver.json_line(payload) + "\n")


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------

def _cmd_gen_data(args) -> int:
    seed = _default_seed(args.seed)
    out = Path(args.out)
    cfg = ds.SynthConfig(image_size=(args.image_size, args.image_size))
    problems = ds.generate_dataset(args.n, seed, out, cfg)
    snapshot = {
        "schema": 1, "command": "gen-data", "n": args.n, "seed": seed,
        "image_size": args.image_size,
    }
    (out / "gen-config.json").write_text(
        json.dumps(snapshot, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )
    _emit({"problems": len(problems), "out": str(out), "seed": seed})
    return 0


def _cmd_train_toy(args) -> int:
    seed = _default_seed(args.seed)
    if args.stage != "sft" and args.encoder_ckpt is not None:
        raise ValueError("--encoder-ckpt applies only to --stage sft")
    data = tr.load_dataset(args.data, patch=args.patch)
    base = tr.default_run_config(len(data.vocab), data.n_patches, data.patch_dim)
    file_config = None
    if args.config is not None:
        file_config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    flags = {"steps": args.steps, "lr": args.lr, "batch": args.batch,
             "freeze_encoder": args.freeze_encoder}
    config = tr.resolve_run_config(base, file_config, {
        f"{args.stage}.{name}": value for name, value in flags.items()
        if value is not None})
    log.info("stage %s: %s steps, batch %s, lr %s", args.stage,
             config.stages[args.stage].steps, config.stages[args.stage].batch,
             config.stages[args.stage].lr)
    summary = tr.run_stage(
        args.stage, data, config, seed, args.out, encoder_ckpt=args.encoder_ckpt
    )
    summary.update({"out": str(args.out), "seed": seed})
    _emit(summary)
    return 0


def _cmd_decode(args) -> int:
    data = tr.load_dataset(args.problems, patch=tr.checkpoint_patch(args.ckpt))
    results = tr.decode_problems(
        args.ckpt, data, beam=args.beam, max_len=args.max_len
    )
    eh.save_candidates(results, args.out)
    _emit({"problems": len(results), "beam": args.beam, "out": str(args.out)})
    return 0


def _cmd_solve(args) -> int:
    numbers = [float(x) for x in args.numbers.split(",")] if args.numbers else []
    lines = [
        line for line in Path(args.program).read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    if not lines:
        raise ValueError(f"no program in {args.program}")
    answers = [solver.execute_program(fl.parse_program(line), numbers) for line in lines]
    payload = {"answers": answers}
    if len(answers) == 1:
        payload["answer"] = answers[0]
    _emit(payload)
    return 0


def _cmd_eval(args) -> int:
    tol = eh.Tolerance(abs=args.tol_abs, rel=args.tol_rel)
    problems = solver.load_problems(args.problems)
    candidates = eh.load_candidates(args.candidates)
    pairs = tr.adjudicate(problems, candidates, args.beam, tol)  # checks --beam first
    known = {rec.id for rec in problems}
    stray = [i for i in candidates if i not in known]
    if not candidates or stray:
        raise ValueError(f"candidates id {stray[0]!r} is not in {args.problems}"
                         if stray else f"no candidates in {args.candidates}")
    report = eh.build_report(pairs, tol)
    if args.out:
        eh.write_report(report, args.out)
    _emit({"n_problems": report.n_problems, "out": args.out,
           **{name: getattr(report, name) for name in eh.METRICS}})
    return 0


def _cmd_gradcheck(args) -> int:
    seed = _default_seed(args.seed)
    result = selfcheck.gradcheck(seed, points=args.points)
    _emit(result)
    return 0 if result["ok"] else VERIFY_ERROR


def _cmd_selftest(args) -> int:
    seed = _default_seed(args.seed)
    result = selfcheck.selftest(seed)
    _emit(result)
    return 0 if result["ok"] else VERIFY_ERROR


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="geoformal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--image-size", type=int, default=64)
    p.set_defaults(handler=_cmd_gen_data)

    p = sub.add_parser("train-toy", help="run one training stage")
    p.add_argument("--stage", choices=tr.STAGES, required=True)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--config", default=None, help="config JSON (schema 1)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="checkpoint prefix")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--patch", type=int, default=8)
    p.add_argument("--encoder-ckpt", default=None,
                   help="sft: init encoder from this align checkpoint")
    p.add_argument("--freeze-encoder", action="store_true", default=None)
    p.set_defaults(handler=_cmd_train_toy)

    p = sub.add_parser("decode", help="beam-decode programs for every problem")
    p.add_argument("--ckpt", required=True,
                   help="sft checkpoint prefix; its snapshot fixes the patch size")
    p.add_argument("--problems", required=True,
                   help="problems file, or a dataset directory; diagrams are "
                        "read next to it")
    p.add_argument("--beam", type=int, default=10)
    p.add_argument("--max-len", type=int, default=24)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_decode)

    p = sub.add_parser("solve", help="execute program file against numbers")
    p.add_argument("--program", required=True)
    p.add_argument("--numbers", default="")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("eval", help="run candidates through the solver and "
                                    "score them; --out adds per-problem rows")
    p.add_argument("--problems", required=True,
                   help="problems file, or a dataset directory")
    p.add_argument("--candidates", required=True)
    p.add_argument("--beam", type=int, default=10)
    p.add_argument("--tol-abs", type=float, default=1e-2)
    p.add_argument("--tol-rel", type=float, default=1e-3)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--points", type=int, default=50)
    p.set_defaults(handler=_cmd_gradcheck)

    p = sub.add_parser("selftest", help="run every module invariant suite")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=_cmd_selftest)
    return parser


def dispatch(argv: list[str]) -> int:
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(message)s"
    )
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    try:
        return args.handler(args)
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
