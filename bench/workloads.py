"""The benchmark's workloads: set-up, one timed round, and output checks.

Every workload drives the package through the calls a user makes: the CLI
handlers for `gen-data`, `train-toy` and `eval`, and `train.decode_problems`
for decoding.  A round is one closed-loop unit of work, and `pass_rounds`
rounds cover the inputs once; `run.py` repeats rounds until the run's seconds
are spent and stops only after a whole pass.  Set-up work that is heavier
than the rounds (checkpoint training, thousands of generated problems) runs
in a child process, so the run's peak memory is that of the rounds.  Checks
run outside the timed region and report each failure with a reason.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from geoformal import cli
from geoformal import eval_harness as eh
from geoformal import formal_lang as fl
from geoformal import selfcheck
from geoformal import solver
from geoformal import train as tr
from geoformal.tensorcore import Rng

clock = time.perf_counter

# Time of `reference_s()`'s kernel on an idle 2-vCPU x86-64 VM; see `timed`.
REFERENCE_S = 0.0035
TOL = eh.Tolerance()  # the CLI's default eval tolerance
ORACLE_TOL = 1e-9
CHILD_TIMEOUT_S = 150
N_PROBLEMS = 16  # training inputs (ROADMAP's quick variant)


@dataclass
class Round:
    items: int       # work items completed (examples, problems or candidates)
    ops: int         # operations attempted (steps or problems)
    seconds: float   # wall time
    scaled_s: float  # wall time at reference speed (see `timed`)


@dataclass
class Checked:
    """Outcome of a workload's output checks."""

    useful: int = 0
    useful_of: int = 0
    failures: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failures.append(message)


def quiet_cli(argv: list[str]) -> int:
    """Run one CLI invocation in-process, its JSON summary discarded; return
    the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.dispatch(argv)


def child_cli(argv: list[str], log: Path) -> float:
    """Run one CLI invocation in a child process and wait for it; return its
    wall time at reference speed.  Its memory stays out of this process's
    peak RSS, its stdout is discarded and its stderr goes to `log`.

    Unlike `timed`, the reference kernel also runs every quarter second
    while the child does (on the other core; the child uses one), so a
    neighbour's slowdown during a child of many seconds is measured, not
    only at its ends."""
    src = Path(cli.__file__).resolve().parent.parent
    refs = [reference_s()]
    with open(log, "wb") as err:
        t0 = clock()
        proc = subprocess.Popen([sys.executable, "-m", "geoformal.cli", *argv],
                                env=dict(os.environ, PYTHONPATH=str(src)),
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            while True:
                try:
                    proc.wait(timeout=0.25)
                    break
                except subprocess.TimeoutExpired:
                    pass
                if clock() - t0 > CHILD_TIMEOUT_S:
                    raise RuntimeError(f"{argv[0]} ran over {CHILD_TIMEOUT_S} s")
                refs.append(reference_s())
            seconds = clock() - t0
        finally:
            proc.kill()
            proc.wait()
    refs.append(reference_s())
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited {proc.returncode}: "
                           + log.read_text(errors="replace")[-2000:])
    return seconds * REFERENCE_S / statistics.mean(refs)


def gen_data_args(out: Path, n: int, seed: int) -> list[str]:
    return ["gen-data", "--n", str(n), "--seed", str(seed), "--out", str(out)]


def gen_data(out: Path, n: int, seed: int) -> None:
    code = quiet_cli(gen_data_args(out, n, seed))
    if code != 0:
        raise RuntimeError(f"gen-data exited {code}")


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def oracle_matches(program: str, numbers: list[float], value: float) -> bool:
    """Independent recursive evaluation agrees within 1e-9 (relative above 1)."""
    try:
        expected = selfcheck.recursive_eval(program, numbers)
    except (ArithmeticError, ValueError, KeyError, IndexError):
        return False
    return abs(expected - value) <= ORACLE_TOL * max(1.0, abs(expected))


def reference_s() -> float:
    """Best of three runs of a fixed kernel: an interpreter loop and small
    matrix products, the mix the package spends its time in."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((40, 128)), rng.standard_normal((128, 128))
    best = float("inf")
    for _ in range(3):
        t0 = clock()
        acc = 0
        for i in range(30_000):
            acc += i * i
        x = a
        for _ in range(30):
            x = np.tanh(x @ b)
        best = min(best, clock() - t0)
    return best


def timed(fn):
    """Call `fn`; return its result, its wall time, and that time at
    reference speed.

    On a shared host, neighbours slow a process by 1.3-2x for seconds at a
    time.  The reference kernel is timed just before and after the call, and
    the wall time is scaled as if the kernel had taken REFERENCE_S.  The
    kernel belongs to the benchmark, so no commit under test changes it.
    """
    before = reference_s()
    t0 = clock()
    out = fn()
    seconds = clock() - t0
    ref = (before + reference_s()) / 2
    return out, seconds, seconds * REFERENCE_S / ref


def timed_setup(groups: int, reps: int, build, times=None) -> tuple[float, str]:
    """Run `build` (which returns an inputs digest) `reps` times in each of
    `groups` timed calls; return the median over groups of the time per
    build at reference speed, and the digest, which every build must
    reproduce.  A group of short builds makes one call long enough that the
    reference kernel around it costs little next to it.  Given `times`, the
    groups' times are appended to it and the median is over all of it."""
    times = [] if times is None else times
    digests = set()
    for _ in range(groups):
        group, _, scaled_s = timed(lambda: [build() for _ in range(reps)])
        digests.update(group)
        times.append(scaled_s / reps)
    if len(digests) != 1:
        raise RuntimeError(f"inputs differ between set-up repetitions: {digests}")
    return statistics.median(times), digests.pop()


# ---------------------------------------------------------------------------
# train-<stage>: repeated `train-toy` invocations of one stage
# ---------------------------------------------------------------------------

# Steps per invocation: about one second of work each at the seed commit.
STAGE_STEPS = {"mae": 6, "lm": 20, "align": 8, "sft": 5}
SETUP_GROUPS, SETUP_REPS = 3, 4  # before the rounds; then one group per round
LOSS_KEYS = ("loss", "loss_mean", "l_total")


class TrainStage:
    item = "training example"
    uses_tensorcore = True
    pass_rounds = 1

    def __init__(self, stage: str, work: Path, seed: int):
        self.stage = stage
        self.seed = seed
        self.data = work / "data"
        self.prefix = work / f"ck_{stage}"
        self.logs: list[bytes] = []
        self.setup_times: list[float] = []

    def _build(self) -> str:
        gen_data(self.data, N_PROBLEMS, self.seed)
        tr.load_dataset(self.data)
        return tree_digest(self.data)

    def setup(self) -> str:
        self.setup_s, self.digest = timed_setup(
            SETUP_GROUPS, SETUP_REPS, self._build, self.setup_times)
        return self.digest

    def resample_setup(self) -> None:
        """One more group of set-up builds, between two timed rounds.

        The ~20 ms build runs at one of two speeds on a shared host, which
        switch every second or so and which the reference kernel does not
        follow; groups spread over the whole run give a median that does
        not depend on which speed the first second of the run drew."""
        self.setup_s, digest = timed_setup(1, SETUP_REPS, self._build,
                                           self.setup_times)
        if digest != self.digest:
            raise RuntimeError("set-up inputs changed between rounds")

    def round(self) -> Round:
        steps = STAGE_STEPS[self.stage]
        code, seconds, scaled_s = timed(lambda: quiet_cli([
            "train-toy", "--stage", self.stage, "--data", str(self.data),
            "--seed", str(self.seed), "--out", str(self.prefix),
            "--steps", str(steps),
        ]))
        if code != 0:
            raise RuntimeError(f"train-toy exited {code}")
        snapshot = json.loads(
            self.prefix.with_suffix(".config.json").read_text(encoding="utf-8"))
        batch = snapshot["stages"][self.stage]["batch"]
        self.logs.append(self.prefix.with_suffix(".log.jsonl").read_bytes())
        return Round(steps * batch, steps, seconds, scaled_s)

    def check(self) -> Checked:
        out = Checked()
        losses = []
        for line in self.logs[0].decode().splitlines():
            rec = json.loads(line)
            losses.append(next(rec[k] for k in LOSS_KEYS if k in rec))
        finite = [x for x in losses if math.isfinite(x)]
        out.useful, out.useful_of = len(finite), len(losses)
        if len(losses) != STAGE_STEPS[self.stage]:
            out.fail(f"step log has {len(losses)} steps")
        if len(finite) != len(losses):
            out.fail("non-finite step loss")
        elif losses[-1] >= losses[0]:
            out.fail(f"last loss {losses[-1]} is not below first {losses[0]}")
        for i, log in enumerate(self.logs[1:], 1):
            if log != self.logs[0]:
                a, b = self.logs[0].splitlines(), log.splitlines()
                step = next((s for s, (x, y) in enumerate(zip(a, b)) if x != y),
                            min(len(a), len(b)))
                out.fail(f"same seed gave different step logs: round {i} "
                         f"differs from round 0 at step {step}")
                break
        out.details = {"first_loss": losses[0], "last_loss": losses[-1]}
        return out


# ---------------------------------------------------------------------------
# decode: beam-decode every problem with a checkpoint trained in set-up
# ---------------------------------------------------------------------------

# Eight problems keep a run near half a minute; top-1 is 1.0 on seeds 1-10
# from 80 steps on (60 steps left one seed at 0.875).
N_DECODE = 8
SFT_STEPS = 80
BEAM = 10
MAX_LEN = 24


class Decode:
    """One problem per round; a run decodes every problem the same number
    of times, so throughput does not depend on which problems a partial
    pass would have covered."""

    item = "decoded problem"
    uses_tensorcore = True
    pass_rounds = N_DECODE

    def __init__(self, work: Path, seed: int):
        self.seed = seed
        self.data_dir = work / "data"
        self.ckpt = work / "sft"
        self.decoded: list[tuple] = []  # (record, (id, candidates), pair)

    def setup(self) -> str:
        def build():
            gen_data(self.data_dir, N_DECODE, self.seed)
            return tree_digest(self.data_dir)

        gen_s, digest = timed_setup(3, 1, build)
        train_s = child_cli([
            "train-toy", "--stage", "sft", "--data", str(self.data_dir),
            "--seed", str(self.seed), "--out", str(self.ckpt),
            "--steps", str(SFT_STEPS),
        ], self.ckpt.with_suffix(".stderr"))

        def load():
            self.data = tr.load_dataset(self.data_dir)
            return digest

        load_s, _ = timed_setup(3, 1, load)
        self.setup_s = gen_s + train_s + load_s
        return digest

    def _decode(self, rec):
        one = tr.Dataset(self.data.root, [rec], self.data.vocab, self.data.patches)
        return tr.decode_problems(self.ckpt, one, beam=BEAM, max_len=MAX_LEN)[0]

    def round(self) -> Round:
        problems = self.data.problems
        rec = problems[len(self.decoded) % len(problems)]

        def decode_and_adjudicate():
            result = self._decode(rec)
            (pair,) = tr.adjudicate([rec], dict([result]), BEAM, TOL)
            return result, pair

        (result, pair), seconds, scaled_s = timed(decode_and_adjudicate)
        self.decoded.append((rec, result, pair))
        return Round(1, 1, seconds, scaled_s)

    def check(self) -> Checked:
        out = Checked()
        n = len(self.data.problems)
        first = self.decoded[:n]
        for i, (rec, result, _) in enumerate(self.decoded[n:]):
            if result != first[i % n][1]:
                out.fail(f"{rec.id}: candidates differ between passes")
        rec, result, _ = first[0]
        if self._decode(rec) != result:
            out.fail(f"{rec.id}: re-decode differs")
        executed = 0
        for rec, (pid, texts), (_, outcome) in first:
            if len(texts) != BEAM:
                out.fail(f"{pid}: {len(texts)} candidates, expected {BEAM}")
            for cand in outcome.candidates:
                if cand.executed:
                    executed += 1
                    if not oracle_matches(cand.text, rec.numbers, cand.value):
                        out.fail(f"{rec.id}: oracle disagrees on {cand.text!r}")
        report = eh.build_report([pair for _, _, pair in first], TOL)
        out.useful = sum(1 for _, _, (_, o) in first if o.rank_of_first_correct == 0)
        out.useful_of = n
        out.details = {"top1": report.top1, "candidates": n * BEAM,
                       "executed": executed}
        return out


# ---------------------------------------------------------------------------
# gen: repeated `gen-data` invocations
# ---------------------------------------------------------------------------

N_GEN = 500


class Gen:
    item = "generated problem"
    uses_tensorcore = False
    pass_rounds = 1

    def __init__(self, work: Path, seed: int):
        self.seed = seed
        self.ref = work / "ref"
        self.out = work / "out"
        self.digests: list[str] = []

    def setup(self) -> str:
        def build():
            gen_data(self.ref, N_GEN, self.seed)
            return tree_digest(self.ref)

        self.setup_s, self.digest = timed_setup(9, 1, build)
        return self.digest

    def round(self) -> Round:
        _, seconds, scaled_s = timed(lambda: gen_data(self.out, N_GEN, self.seed))
        self.digests.append(tree_digest(self.out))
        return Round(N_GEN, N_GEN, seconds, scaled_s)

    def check(self) -> Checked:
        out = Checked()
        bad = sum(1 for d in self.digests if d != self.digest)
        if bad:
            out.fail(f"{bad} rounds did not reproduce the set-up inputs")
        problems = solver.load_problems(self.ref / "problems.jsonl")
        for rec in problems:
            ok = oracle_matches(rec.gt_program, rec.numbers, rec.answer)
            ok = ok and rec.choices is not None and rec.answer in rec.choices
            out.useful += ok
            if not ok:
                out.fail(f"{rec.id}: answer or choices disagree with the oracle")
        out.useful_of = len(problems)
        return out


# ---------------------------------------------------------------------------
# adjudicate: the `eval` path over thousands of 10-candidate beams
# ---------------------------------------------------------------------------

N_ADJ = 2000
GEN_REPS_ADJ = 5  # each generates N_ADJ problems in a child: about 4 s
EXTRA_EXECUTABLE = 0.133  # with a correct rank 0, 22% of candidates execute
MAX_WORDS = 12
_LITERALS = ("180.0", "180", "1800.0", "90.0", "2.0", "0.5")
_MALFORMED = ("180.0.0.0", "0.00.0", "80.0.0.0.", "1.8.0")


def _operand(rng: Rng, n_numbers: int, groups: int) -> str:
    kind = rng.integers(0, 3)
    if kind == 0:
        return f"N_{rng.integers(0, n_numbers)}"
    if kind == 1 and groups:
        return f"V_{rng.integers(0, groups)}"
    return _LITERALS[rng.integers(0, len(_LITERALS))]


def _candidate(gold: str, n_numbers: int, rng: Rng, arities: dict,
               executable: bool) -> str:
    """Gold program plus a continuation, the shape a trained decoder's lower
    ranks take (see a 16-problem decode): executable continuations append
    whole operator groups, the others break arity or a literal."""
    words = gold.split()
    groups = fl.parse_program(gold).n_groups()
    ops = sorted(arities)
    budget = MAX_WORDS - len(words)
    if executable:
        while True:
            op = ops[rng.integers(0, len(ops))]
            if 1 + arities[op] > budget:
                break
            words += [op] + [_operand(rng, n_numbers, groups)
                             for _ in range(arities[op])]
            groups += 1
            budget -= 1 + arities[op]
            if rng.integers(0, 2):
                break
        return " ".join(words)
    flaw = rng.integers(0, 3)
    if flaw == 0:  # operator cut short by the length limit
        op = ops[rng.integers(0, len(ops))]
        words += [op] + [_operand(rng, n_numbers, groups)
                         for _ in range(arities[op] - 1)]
    elif flaw == 1:  # operand where an operator belongs
        words += [_operand(rng, n_numbers, groups)
                  for _ in range(1 + rng.integers(0, 2))]
    else:  # malformed decimal from repeated digit pieces
        op = ops[rng.integers(0, len(ops))]
        words += [op, _MALFORMED[rng.integers(0, len(_MALFORMED))]]
    return " ".join(words[:MAX_WORDS])


def make_candidates(problems, seed: int) -> list[tuple[str, list[str]]]:
    root = Rng(seed).split("candidates")
    arities = solver.operator_arities()
    beams = []
    for rec in problems:
        rng = root.split(rec.id)
        texts = [rec.gt_program]
        for rank in range(1, BEAM):
            executable = float(rng.uniform(())) < EXTRA_EXECUTABLE
            texts.append(_candidate(rec.gt_program, len(rec.numbers), rng,
                                    arities, executable))
        beams.append((rec.id, texts))
    return beams


class Adjudicate:
    item = "adjudicated candidate"
    uses_tensorcore = False
    pass_rounds = 1

    def __init__(self, work: Path, seed: int):
        self.seed = seed
        self.data = work / "data"
        self.cands_path = work / "candidates.jsonl"
        self.report_path = work / "report.json"
        self.reports: list = []

    def setup(self) -> str:
        times, digests = [], set()
        for _ in range(GEN_REPS_ADJ):
            times.append(child_cli(gen_data_args(self.data, N_ADJ, self.seed),
                                   self.data.with_suffix(".stderr")))
            digests.add(tree_digest(self.data))
        if len(digests) != 1:
            raise RuntimeError(f"inputs differ between set-up repetitions: {digests}")

        def load():
            self.problems = solver.load_problems(self.data / "problems.jsonl")
            self.beams = make_candidates(self.problems, self.seed)
            h = hashlib.sha256(digests.pop().encode())
            h.update(json.dumps(self.beams).encode())
            return h.hexdigest()

        digest, _, load_s = timed(load)
        self.setup_s = statistics.median(times) + load_s
        return digest

    def round(self) -> Round:
        def write_eval_read():
            eh.save_candidates(self.beams, self.cands_path)
            code = quiet_cli([
                "eval", "--problems", str(self.data / "problems.jsonl"),
                "--candidates", str(self.cands_path), "--beam", str(BEAM),
                "--out", str(self.report_path),
            ])
            if code != 0:
                raise RuntimeError(f"eval exited {code}")
            return eh.read_report(self.report_path)

        report, seconds, scaled_s = timed(write_eval_read)
        self.reports.append(report)
        n = len(self.problems)
        return Round(n * BEAM, n, seconds, scaled_s)

    def check(self) -> Checked:
        out = Checked()
        pairs = tr.adjudicate(self.problems, dict(self.beams), BEAM, TOL)
        expected = eh.build_report(pairs, TOL)
        if any(r != expected for r in self.reports):
            out.fail("report read back differs from the in-memory report")
        n_cands = executed = rejected = correct = 0
        for rec, outcome in pairs:
            out.useful += outcome.rank_of_first_correct == 0
            for cand in outcome.candidates:
                n_cands += 1
                try:
                    fl.parse_program(cand.text)
                except fl.FormalLangError:
                    rejected += 1
                if cand.executed:
                    executed += 1
                    correct += TOL.passes(cand.value, rec.answer)
                    if not oracle_matches(cand.text, rec.numbers, cand.value):
                        out.fail(f"{rec.id}: oracle disagrees on {cand.text!r}")
        out.useful_of = len(pairs)
        if out.useful != len(pairs):
            out.fail(f"rank 0 wrong on {len(pairs) - out.useful} problems")
        out.details = {
            "candidates": n_cands,
            "executed_share": executed / n_cands,
            "parser_rejected_share": rejected / n_cands,
            "correct_share": correct / n_cands,
        }
        return out


def make(name: str, work: Path, seed: int):
    if name.startswith("train-"):
        return TrainStage(name.removeprefix("train-"), work, seed)
    return {"decode": Decode, "gen": Gen, "adjudicate": Adjudicate}[name](work, seed)

