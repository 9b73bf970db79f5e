"""Outside-in span tracing of the package's modules, and the per-layer metrics
computed from the spans.

`Tracer.install()` replaces each public function of the traced modules with a
wrapper that records a span (name, start, end, parent) in flat arrays, and
rebinds every name another module imported, so `solver.parse_program` is
traced as `formal_lang.parse_program`.  The decoder's `linear`, `mha`, `ffn`
and `norm`, which `pretrain` imports from `gsformer`, get spans of their own
named `pretrain.*`.  `Tensor.backward`, `Adam.step` and `Adam.zero_grad`
are wrapped on their classes.  A tensorcore function whose source builds a
tape node counts one node per call that returns a tensor requiring grad.
`uninstall()` restores the originals.  Nothing under the package is edited.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time
from array import array
from pathlib import Path

import numpy as np

MODULES = ("tensorcore", "gsformer", "pretrain", "train", "diagram_synth",
           "formal_lang", "solver", "eval_harness")
PRETRAIN_OWN = ("linear", "mha", "ffn", "norm")
METHODS = (("Tensor", "backward"), ("Adam", "step"), ("Adam", "zero_grad"))
OPS = ("gelu", "matmul", "masked_softmax", "softmax", "layer_norm", "narrow",
       "concat", "add", "mul", "cross_entropy", "embedding_lookup",
       "gumbel_softmax")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.sid = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.stack: list[int] = []
        self.grad_nodes = 0
        self.counts: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def _wrap(self, name: str, fn, builds_node: bool = False, on_return=None):
        nid = self._id(name)
        sid, start, end, parent = self.sid, self.start, self.end, self.parent
        stack = self.stack
        now = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(sid)
            sid.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(index)
            start.append(now())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[index] = now()
                stack.pop()
            if builds_node and getattr(out, "requires_grad", False):
                self.grad_nodes += 1
            if on_return is not None:
                on_return(self.counts, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"geoformal.{m}") for m in MODULES}
        hooks = {
            "pretrain.beam_decode": _count_beam,
            "solver.evaluate_beam": _count_beam_outcome,
            "diagram_synth.generate_dataset": _count_generated,
        }
        wrappers = {}
        for mname in MODULES:
            mod = mods[mname]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{mname}.{attr}"
                    builds = mname == "tensorcore" and "_node(" in inspect.getsource(obj)
                    wrappers[id(obj)] = self._wrap(name, obj, builds, hooks.get(name))
        for mname in MODULES:
            mod = mods[mname]
            for attr, obj in list(vars(mod).items()):
                if mname == "pretrain" and attr in PRETRAIN_OWN:
                    wrapper = self._wrap(f"pretrain.{attr}", obj)
                elif id(obj) in wrappers and inspect.isfunction(obj):
                    wrapper = wrappers[id(obj)]
                else:
                    continue
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrapper)
        tc = mods["tensorcore"]
        for cls_name, meth in METHODS:
            cls = getattr(tc, cls_name)
            original = cls.__dict__[meth]
            self._saved.append((cls, meth, original))
            setattr(cls, meth, self._wrap(f"tensorcore.{cls_name}.{meth}", original))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), name_id=np.array(self.sid),
                 start_ns=np.array(self.start), end_ns=np.array(self.end),
                 parent=np.array(self.parent))

    # -- aggregation -------------------------------------------------------

    def table(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, durations (s)."""
        sid = np.asarray(self.sid)
        start = np.asarray(self.start)
        end = np.asarray(self.end)
        dur = (end - start) / 1e9
        parent = np.asarray(self.parent)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        out = {}
        for name, nid in self.name_id.items():
            mask = sid == nid
            if mask.any():
                out[name] = {"calls": int(mask.sum()),
                             "total_s": float(dur[mask].sum()),
                             "self_s": float(self_time[mask].sum()),
                             "durations": dur[mask],
                             "starts": start[mask], "ends": end[mask]}
        return out


def _count_beam(counts, args, hyps) -> None:
    counts["beam_tokens"] = counts.get("beam_tokens", 0) + max(
        (len(h.token_ids) for h in hyps), default=0)


def _count_beam_outcome(counts, args, outcome) -> None:
    gt, tol = args[2], args[3]
    for cand in outcome.candidates:
        counts["candidates"] = counts.get("candidates", 0) + 1
        if cand.executed:
            counts["executed"] = counts.get("executed", 0) + 1
            counts["correct"] = counts.get("correct", 0) + tol.passes(cand.value, gt)


def _count_generated(counts, args, problems) -> None:
    counts["generated"] = counts.get("generated", 0) + len(problems)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _median_ms(table, name: str, scale: float = 1e3) -> float:
    row = table.get(name)
    return float(np.median(row["durations"])) * scale if row else 0.0


def _self_per_op(table, name: str, ops: int) -> float:
    row = table.get(name)
    return row["self_s"] / ops if row and ops else 0.0


def _calls_per_op(table, name: str, ops: int) -> float:
    row = table.get(name)
    return row["calls"] / ops if row and ops else 0.0


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int) -> float:
    """Highest listed percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= 10:
            return p
    return 50.0


def step_times(table) -> list[float]:
    """Optimizer steps: from `Adam.zero_grad` entry to `Adam.step` exit."""
    zero = table.get("tensorcore.Adam.zero_grad")
    step = table.get("tensorcore.Adam.step")
    if not zero or not step:
        return []
    ends = np.sort(step["ends"])
    times = []
    for s in np.sort(zero["starts"]):
        i = np.searchsorted(ends, s)
        if i < len(ends):
            times.append((ends[i] - s) / 1e6)
    return times


def layer_metrics(tracer: Tracer, ops: int, problems: int) -> dict[str, float]:
    """Every per-layer metric; zero where the workload does not reach it.

    Totals (self seconds, call counts, spans) are per operation of the
    workload: `ops` is the number of operations (steps or problems) in the
    traced rounds and `problems` the number of problems decoded in them.
    """
    t = tracer.table()
    c = tracer.counts
    m: dict[str, float] = {}
    m["tensorcore.nodes_per_step"] = _per(tracer.grad_nodes, ops)
    m["tensorcore.backward_ms"] = _median_ms(t, "tensorcore.Tensor.backward")
    m["tensorcore.adam_ms"] = _median_ms(t, "tensorcore.Adam.step")
    m["tensorcore.save_params_ms"] = _median_ms(t, "tensorcore.save_params")
    m["tensorcore.load_params_ms"] = _median_ms(t, "tensorcore.load_params")
    for op in OPS:
        name = f"tensorcore.{op}"
        m[f"tensorcore.op_self_s.{op}"] = _self_per_op(t, name, ops)
        m[f"tensorcore.op_calls.{op}"] = _calls_per_op(t, name, ops)

    m["gsformer.forward_ms"] = _median_ms(t, "gsformer.gs_former_forward")
    m["gsformer.pretrain_loss_ms"] = _median_ms(t, "gsformer.pretrain_loss")
    m["gsformer.mha_self_s"] = _self_per_op(t, "gsformer.mha", ops)
    m["gsformer.ffn_self_s"] = _self_per_op(t, "gsformer.ffn", ops)

    fwd = t.get("pretrain.decoder_forward")
    beam = t.get("pretrain.beam_decode")
    m["pretrain.decoder_forward_calls_per_problem"] = (
        _per(fwd["calls"], problems) if fwd and problems else 0.0)
    m["pretrain.decoder_forward_ms"] = _median_ms(t, "pretrain.decoder_forward")
    m["pretrain.beam_decode_ms_per_token"] = (
        _per(beam["total_s"] * 1e3, c.get("beam_tokens", 0)) if beam else 0.0)
    m["pretrain.instruction_loss_ms"] = _median_ms(t, "pretrain.instruction_loss")
    m["pretrain.lm_loss_ms"] = _median_ms(t, "pretrain.lm_loss")
    m["pretrain.mae_forward_ms"] = _median_ms(t, "pretrain.mae_forward")
    m["pretrain.mha_self_s"] = _self_per_op(t, "pretrain.mha", ops)
    m["pretrain.ffn_self_s"] = _self_per_op(t, "pretrain.ffn", ops)

    steps = step_times(t)
    tail = tail_percentile(len(steps))
    m["train.step_ms"] = statistics.median(steps) if steps else 0.0
    m["train.step_ms_tail"] = float(np.percentile(steps, tail)) if steps else 0.0
    m["train.step_samples"] = float(len(steps))
    m["train.load_dataset_ms"] = _median_ms(t, "train.load_dataset")

    gen = t.get("diagram_synth.generate_dataset")
    m["diagram_synth.ms_per_problem"] = (
        _per(gen["total_s"] * 1e3, c.get("generated", 0)) if gen else 0.0)
    m["diagram_synth.rasterize_self_s"] = _self_per_op(t, "diagram_synth.rasterize", ops)
    m["diagram_synth.write_pgm_self_s"] = _self_per_op(t, "diagram_synth.write_pgm", ops)

    m["formal_lang.parse_program_us"] = _median_ms(t, "formal_lang.parse_program", 1e6)
    m["formal_lang.parse_program_calls"] = _calls_per_op(t, "formal_lang.parse_program", ops)

    ev = t.get("solver.evaluate_beam")
    m["solver.execute_program_us"] = _median_ms(t, "solver.execute_program", 1e6)
    m["solver.evaluate_beam_us_per_candidate"] = (
        _per(ev["total_s"] * 1e6, c.get("candidates", 0)) if ev else 0.0)
    m["solver.executed_share"] = _per(c.get("executed", 0), c.get("candidates", 0))
    m["solver.correct_share"] = _per(c.get("correct", 0), c.get("candidates", 0))

    for fn in ("load_candidates", "build_report", "write_report", "read_report"):
        m[f"eval_harness.{fn}_ms"] = _median_ms(t, f"eval_harness.{fn}")

    m["trace.spans_per_op"] = _per(len(tracer.sid), ops)
    return m
