"""Toy training stages and decoding glue.

Each stage is deterministic given (seed, config, dataset): batches are drawn
from labeled Rng splits, every run writes a JSONL step log plus a resolved
config snapshot next to its checkpoint, and checkpoints are flat float64
binaries with a JSON sidecar (tensorcore.save_params).  The checkpoint's two
files and the snapshot are each written to a temporary file and moved into
place (tensorcore.replacing), so a failed save keeps the previous ones.

All four stages share one loop, `_run_loop`: it owns the optimizer, the
per-step Rng split `step{n}`, zero_grad/backward/step, the step log, the
checkpoint and the snapshot, and it stops the run on a non-finite loss.  A
stage supplies only its initial parameters, its prepared data and a
`step_loss(step, step_rng)` closure that draws the step's batch and returns
the loss with the fields to log.

Each step runs its whole batch as one tape: the drawn diagrams stack to
(B, N, d) patches, and token sequences are right-padded to the longest one
in the batch, never to a configured maximum.  The causal masks hide the
trailing pads from every real position.  The caption loss gives the pads
weight 0 (`gsformer`); the decoder's losses never compute a logit there:
pad positions, and in sft every position outside the target spans, skip the
last decoder block's feed-forward half, the final norm and the head
(`pretrain.decoder_forward`'s rows).  Only the Gumbel noise is drawn per
example, each from its own Rng label.

The instruction stage's model is one parameter tree, saved as one
checkpoint: the encoder under `gs.*`, the decoder under `dec.*` and the
projection linear `proj_w`/`proj_b`.  `visual_tokens` is its one path from
patches to the decoder's prefix, for training and for decoding alike.  It
trains end to end by default; --freeze-encoder makes the encoder's
parameters require no gradient, so the tape builds no node for them and
Adam leaves them as loaded.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import diagram_synth as ds
from . import eval_harness as eh
from . import formal_lang as fl
from . import gsformer as gsf
from . import pretrain as pt
from . import solver
from . import tensorcore as tc
from .tensorcore import Adam, Rng, Tensor

STAGES = ("mae", "lm", "align", "sft")
# the top-level keys of a config file; a snapshot adds its `seed` and `stage`
CONFIG_KEYS = ("schema", "gsformer", "decoder", "mae", "stages", "seed", "stage")


class NonFiniteLossError(ValueError):
    def __init__(self, stage: str, step: int, value: float):
        super().__init__(f"stage {stage}: loss is {value} at step {step}")


@dataclass
class StageConfig:
    steps: int
    batch: int
    lr: float
    freeze_encoder: bool = False

    def __post_init__(self):
        if self.batch < 1:
            raise ValueError(f"batch must be an integer >= 1, got {self.batch!r}")
        if self.steps < 0:
            raise ValueError(f"steps must be an integer >= 0, got {self.steps!r}")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr!r}")


DEFAULT_STAGES = {
    "mae": StageConfig(steps=500, batch=16, lr=1e-2),
    "lm": StageConfig(steps=300, batch=8, lr=3e-3),
    "align": StageConfig(steps=300, batch=8, lr=1e-3),
    "sft": StageConfig(steps=1500, batch=8, lr=1e-3),
}


@dataclass
class RunConfig:
    gsformer: gsf.GSFormerConfig
    decoder: pt.DecoderConfig
    mae: pt.MAEConfig
    stages: dict[str, StageConfig] = field(default_factory=dict)


def default_run_config(vocab_size: int, n_patches: int, patch_dim: int) -> RunConfig:
    return RunConfig(
        gsformer=gsf.GSFormerConfig(
            vocab_size=vocab_size, n_patches=n_patches, d_in=patch_dim,
        ),
        decoder=pt.DecoderConfig(vocab_size=vocab_size),
        mae=pt.MAEConfig(patch_dim=patch_dim, n_patches=n_patches),
        stages={k: replace(v) for k, v in DEFAULT_STAGES.items()},
    )


def resolve_run_config(
    base: RunConfig, file_config: dict | None, overrides: dict | None = None
) -> RunConfig:
    """Layer a config file, then flag overrides ({"stage.field": value}),
    over the dataset defaults.  The file's sections decode through
    `solver.json_fields`; each config is built once from its checked fields,
    so it validates with its final values.  A checkpoint's config snapshot
    also loads as a config: its `seed` and `stage` are checked and ignored."""
    if file_config is None:
        file_config = {"schema": 1}
    if solver.json_object("config", file_config, CONFIG_KEYS).get("schema") != 1:
        raise eh.SchemaError(f"unsupported config schema: {file_config.get('schema')!r}")
    if type(file_config.get("seed", 0)) is not int:
        raise eh.SchemaError(
            f"seed in config must be an integer, got {file_config['seed']!r}")
    if file_config.get("stage", STAGES[0]) not in STAGES:
        raise eh.SchemaError(f"stage in config must be one of {', '.join(STAGES)}, "
                             f"got {file_config['stage']!r}")
    models = {
        name: replace(getattr(base, name), **solver.json_fields(
            type(getattr(base, name)), f"config section {name!r}", file_config[name]))
        for name in ("gsformer", "decoder", "mae") if name in file_config
    }
    recs = {
        stage: solver.json_fields(StageConfig, f"config section 'stages.{stage}'", rec)
        for stage, rec in solver.json_object("config section 'stages'",
                                             file_config.get("stages", {}),
                                             STAGES).items()
    }
    for key, value in (overrides or {}).items():
        stage, _, name = key.partition(".")
        recs.setdefault(stage, {})[name] = value
    stages = {stage: replace(current, **recs.get(stage, {}))
              for stage, current in base.stages.items()}
    for stage, settings in stages.items():
        if stage != "sft" and settings.freeze_encoder:
            raise ValueError(f"stages.{stage}.freeze_encoder: --freeze-encoder "
                             "applies only to --stage sft")
    return replace(base, stages=stages, **models)


# ---------------------------------------------------------------------------
# Dataset access
# ---------------------------------------------------------------------------

@dataclass
class Dataset:
    root: Path
    problems: list[solver.ProblemRecord]
    vocab: fl.Vocab
    patches: dict[str, Tensor]

    @property
    def patch_dim(self) -> int:
        return next(iter(self.patches.values())).shape[1]

    @property
    def n_patches(self) -> int:
        return next(iter(self.patches.values())).shape[0]


def load_dataset(path: str | Path, patch: int = 8) -> Dataset:
    """The problems of `path`, a dataset directory (its problems.jsonl) or a
    problems file, with each diagram cut into patch x patch patches.

    Diagram paths and vocab.txt are read relative to the problems file's
    own directory.  Questions are tokenized with the package vocabulary
    (`diagram_synth.make_problem`), so a vocab.txt that differs is refused."""
    path = solver.problems_file(path)
    root = path.parent
    problems = solver.load_problems(path)
    if not problems:
        raise eh.SchemaError(f"{path} holds no problems")
    vocab, vocab_path = ds.default_vocab(), root / "vocab.txt"
    if vocab_path.exists():
        lines = vocab_path.read_text(encoding="utf-8").splitlines()
        for line, pair in enumerate(itertools.zip_longest(lines, vocab.tokens()), 1):
            if pair[0] != pair[1]:
                got, want = ("end of file" if t is None else repr(t) for t in pair)
                raise eh.SchemaError(f"{vocab_path} line {line} is {got}, the package "
                                     f"vocabulary's is {want}")
    patches: dict[str, Tensor] = {}
    for rec in problems:
        if rec.diagram is None:
            raise eh.SchemaError(f"problem {rec.id} has no diagram path")
        patches[rec.id] = ds.patchify(ds.read_pgm(root / rec.diagram), patch)
    return Dataset(root, problems, vocab, patches)


def _caption_ids(rec: solver.ProblemRecord, vocab: fl.Vocab) -> list[int]:
    flat = " ".join(rec.caption.split())
    return [fl.BOS_ID] + fl.tokenize(flat, vocab) + [fl.EOS_ID]


def _program_ids(rec: solver.ProblemRecord, vocab: fl.Vocab) -> list[int]:
    return fl.tokenize(rec.gt_program, vocab) + [fl.EOS_ID]


def _sample_indices(rng: Rng, n: int, batch: int) -> list[int]:
    return [int(i) for i in rng.integers(0, n, (min(batch, n),))]


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def _run_loop(
    stage: str,
    config: RunConfig,
    seed: int,
    out_prefix: str | Path,
    params: dict[str, Tensor],
    step_loss: Callable[[int, Rng], tuple[Tensor, dict]],
) -> dict:
    """Run Adam on the `params` that require a gradient for the stage's
    steps and write its files.

    `step_loss(step, step_rng)` returns the scalar to minimise and the fields
    logged for that step; step_rng is Rng(seed).split(f"step{step}").  Writes
    the step log, the checkpoint of all of `params` and the config snapshot,
    and returns the last step's logged fields ({} when the stage runs no
    steps).  A non-finite loss raises NonFiniteLossError before its backward
    pass; the log then holds only the steps before it and no checkpoint is
    written.
    """
    settings = config.stages[stage]
    rng = Rng(seed)
    opt = Adam({k: p for k, p in params.items() if p.requires_grad}, lr=settings.lr)
    last: dict = {}
    log_path = tc.checkpoint_path(out_prefix, ".log.jsonl")
    with open(log_path, "w", encoding="utf-8") as log:
        for step in range(settings.steps):
            opt.zero_grad()
            loss, last = step_loss(step, rng.split(f"step{step}"))
            if not math.isfinite(loss.item()):
                raise NonFiniteLossError(stage, step, loss.item())
            loss.backward()
            opt.step()
            log.write(solver.json_line({"step": step, **last}) + "\n")
    tc.save_params(params, out_prefix)
    snapshot = {"schema": 1, **asdict(config), "seed": seed, "stage": stage}
    with tc.replacing(tc.checkpoint_path(out_prefix, ".config.json")) as fh:
        fh.write(tc.json_bytes(snapshot))
    return last


def train_mae_stage(
    data: Dataset, config: RunConfig, seed: int, out_prefix: str | Path
) -> dict:
    """Fit the reconstruction objective on one seed-fixed mask per diagram
    (the desk-scale analogue of memorizing a repeated sequence)."""
    stage = config.stages["mae"]
    rng = Rng(seed)
    params = pt.init_mae_params(config.mae, rng.split("init"))
    order = sorted(data.patches)
    patches = np.stack([data.patches[pid].data for pid in order])
    masked = np.stack([
        pt.mae_mask(data.patches[pid], config.mae.mask_ratio,
                    rng.split(f"mask/{pid}")).masked
        for pid in order
    ])

    def loss_of(rows) -> Tensor:
        batch = pt.MAEBatch(Tensor(patches[rows]), masked[rows])
        return pt.mae_loss(pt.mae_forward(params, config.mae, batch),
                           batch.patches, batch)

    def dataset_loss() -> float:
        # batches of the stage's size bound the memory of the no-grad pass
        chunks = np.array_split(np.arange(len(order)),
                                math.ceil(len(order) / stage.batch))
        with tc.no_grad():
            total = sum(loss_of(rows).item() * len(rows) for rows in chunks)
        return total / len(order)

    def step_loss(step: int, step_rng: Rng):
        loss = loss_of(_sample_indices(step_rng.split("batch"), len(order),
                                       stage.batch))
        return loss, {"loss": loss.item()}

    init_loss = dataset_loss()
    last = _run_loop("mae", config, seed, out_prefix, params, step_loss)
    return {"stage": "mae", "steps": stage.steps, "init_loss": init_loss,
            "final_loss": dataset_loss(), "last_batch_loss": last.get("loss")}


def train_lm_stage(
    data: Dataset, config: RunConfig, seed: int, out_prefix: str | Path
) -> dict:
    stage = config.stages["lm"]
    params = pt.init_decoder_params(config.decoder, Rng(seed).split("init"))
    sequences = []
    for rec in data.problems:
        sequences.append(_caption_ids(rec, data.vocab))
        sequences.append([fl.BOS_ID] + _program_ids(rec, data.vocab))

    def step_loss(step: int, step_rng: Rng):
        # lm draws its batch from the step stream itself, not step{n}/batch
        picks = _sample_indices(step_rng, len(sequences), stage.batch)
        loss = pt.lm_loss(params, config.decoder, [sequences[i] for i in picks])
        return loss, {"loss": loss.item()}

    last = _run_loop("lm", config, seed, out_prefix, params, step_loss)
    return {"stage": "lm", "steps": stage.steps, "final_loss": last.get("loss")}


def train_align_stage(
    data: Dataset, config: RunConfig, seed: int, out_prefix: str | Path
) -> dict:
    stage = config.stages["align"]
    params = gsf.init_params(config.gsformer, Rng(seed).split("init"))
    patches = np.stack([data.patches[rec.id].data for rec in data.problems])
    captions = [_caption_ids(rec, data.vocab) for rec in data.problems]

    def step_loss(step: int, step_rng: Rng):
        picks = _sample_indices(step_rng.split("batch"), len(captions), stage.batch)
        step_cfg = replace(config.gsformer, tau=config.gsformer.tau_at(step, stage.steps))
        out = gsf.pretrain_loss(Tensor(patches[picks]), [captions[i] for i in picks],
                                step_cfg, params, step_rng.split("noise"), hard=False)
        return out.tensor, {"tau": step_cfg.tau, **out.to_json()}

    last = _run_loop("align", config, seed, out_prefix, params, step_loss)
    return {"stage": "align", "steps": stage.steps,
            "final_loss": last.get("l_total")}


def _join_sft_params(gs, dec):
    joined = {f"gs.{k}": v for k, v in gs.items()}
    joined.update({f"dec.{k}": v for k, v in dec.items()})
    return joined


def split_sft_params(joined: dict[str, Tensor]):
    """The encoder's and the decoder's parameters of a joined tree, (gs, dec);
    `proj_w`/`proj_b` stay in `joined`."""
    gs = {k[3:]: v for k, v in joined.items() if k.startswith("gs.")}
    dec = {k[4:]: v for k, v in joined.items() if k.startswith("dec.")}
    return gs, dec


def visual_tokens(
    params: dict[str, Tensor],
    gs_cfg: gsf.GSFormerConfig,
    patches: Tensor,
    rngs: Sequence[Rng] | None,
    hard: bool = False,
) -> Tensor:
    """(B, n_queries, d_lm) visual tokens of (B, N, d_in) patches: the
    caption-free encoder, then the `proj` linear; params joined as by
    `_join_sft_params`, with `proj_w`/`proj_b`."""
    gs, _ = split_sft_params(params)
    feats, _, _ = gsf.gs_former_forward(patches, [[]] * patches.shape[0], gs_cfg,
                                        gs, rngs, hard)
    return gsf.linear(params, "proj", feats.f_g)


def sft_loss(
    params: dict[str, Tensor],
    gs_cfg: gsf.GSFormerConfig,
    dec_cfg: pt.DecoderConfig,
    patches: Tensor,
    questions: Sequence[Sequence[int]],
    targets: Sequence[Sequence[int]],
    rngs: Sequence[Rng] | None,
) -> Tensor:
    """Summed target negative log-likelihood of one instruction batch:
    `visual_tokens` of the (B, N, d_in) patches, then the decoder and
    `instruction_loss`; example i draws its noise from rngs[i]."""
    _, dec = split_sft_params(params)
    t_g = visual_tokens(params, gs_cfg, patches, rngs)
    return pt.instruction_loss(dec, dec_cfg, t_g, questions, targets)


def train_sft_stage(
    data: Dataset,
    config: RunConfig,
    seed: int,
    out_prefix: str | Path,
    encoder_ckpt: str | Path | None = None,
) -> dict:
    """End-to-end instruction tuning: encoder -> projection -> decoder.  A
    frozen encoder's parameters require no gradient, so its forward builds
    no tape and Adam keeps no state for it."""
    stage = config.stages["sft"]
    rng = Rng(seed)
    if encoder_ckpt is not None:
        gs_params = load_encoder_checkpoint(encoder_ckpt, config.gsformer)
    else:
        gs_params = gsf.init_params(config.gsformer, rng.split("gs_init"))
    for p in gs_params.values():
        p.requires_grad = not stage.freeze_encoder
    params = _join_sft_params(
        gs_params, pt.init_decoder_params(config.decoder, rng.split("dec_init")))
    gsf._linear_init(params, "proj", rng.split("proj"), config.gsformer.d_model,
                     config.decoder.d_lm)
    patches = np.stack([data.patches[rec.id].data for rec in data.problems])
    questions = [rec.question_tokens for rec in data.problems]
    programs = [_program_ids(rec, data.vocab) for rec in data.problems]

    def step_loss(step: int, step_rng: Rng):
        picks = _sample_indices(step_rng.split("batch"), len(programs), stage.batch)
        targets = [programs[i] for i in picks]
        total = sft_loss(
            params, config.gsformer, config.decoder, Tensor(patches[picks]),
            [questions[i] for i in picks], targets,
            [step_rng.split(f"noise{slot}") for slot in range(len(picks))],
        )
        mean = tc.mul(total, Tensor(1.0 / sum(len(s) for s in targets)))
        return mean, {"loss_sum": total.item(), "loss_mean": mean.item()}

    last = _run_loop("sft", config, seed, out_prefix, params, step_loss)
    return {"stage": "sft", "steps": stage.steps,
            "final_loss_sum": last.get("loss_sum"),
            "final_loss_mean": last.get("loss_mean")}


def run_stage(
    stage: str,
    data: Dataset,
    config: RunConfig,
    seed: int,
    out_prefix: str | Path,
    encoder_ckpt: str | Path | None = None,
) -> dict:
    if stage == "mae":
        return train_mae_stage(data, config, seed, out_prefix)
    if stage == "lm":
        return train_lm_stage(data, config, seed, out_prefix)
    if stage == "align":
        return train_align_stage(data, config, seed, out_prefix)
    if stage == "sft":
        return train_sft_stage(data, config, seed, out_prefix, encoder_ckpt)
    raise ValueError(f"unknown stage {stage!r}")


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def _snapshot_configs(prefix: str | Path, stage: str):
    """(gs_cfg, dec_cfg) of a checkpoint's config snapshot, which must be of
    `stage`."""
    snapshot = solver.json_object("checkpoint snapshot", json.loads(
        tc.checkpoint_path(prefix, ".config.json").read_text()))
    if snapshot.get("stage") != stage:
        raise eh.SchemaError(f"checkpoint {prefix} is of stage "
                             f"{snapshot.get('stage')!r}, expected {stage!r}")
    return tuple(
        solver.json_record(cls, f"checkpoint snapshot section {name!r}",
                           snapshot.get(name))
        for name, cls in (("gsformer", gsf.GSFormerConfig),
                          ("decoder", pt.DecoderConfig)))


def load_encoder_checkpoint(prefix: str | Path, gs_cfg: gsf.GSFormerConfig):
    """The encoder parameters of an align checkpoint whose snapshot's
    gsformer section equals `gs_cfg` in every field but align's loss weights
    and temperature, which shape no encoder parameter."""
    saved, _ = _snapshot_configs(prefix, "align")
    for name in (f.name for f in fields(gs_cfg)):
        got, want = getattr(saved, name), getattr(gs_cfg, name)
        if name not in ("lam", "tau", "tau_final", "align_weights") and got != want:
            raise eh.SchemaError(f"checkpoint {prefix} has gsformer.{name} {got!r}, "
                                 f"this run {want!r}")
    return tc.load_params(prefix)


def checkpoint_patch(prefix: str | Path) -> int:
    """The patch size an sft checkpoint was trained at, read from its snapshot
    alone: `default_run_config` sets the encoder's d_in to patch * patch."""
    d_in = _snapshot_configs(prefix, "sft")[0].d_in
    if not (d_in >= 1 and math.isqrt(d_in) ** 2 == d_in):
        raise eh.SchemaError(
            f"checkpoint snapshot gsformer.d_in {d_in!r} is not a square patch size")
    return math.isqrt(d_in)


def load_sft_checkpoint(prefix: str | Path):
    """(gs_cfg, dec_cfg, params) of an sft checkpoint; its parameters require
    no gradient, so a forward over them builds no tape."""
    gs_cfg, dec_cfg = _snapshot_configs(prefix, "sft")
    return gs_cfg, dec_cfg, tc.load_params(prefix, requires_grad=False)


def decode_problems(
    ckpt_prefix: str | Path,
    data: Dataset,
    beam: int = 10,
    max_len: int = 24,
) -> list[tuple[str, list[str]]]:
    """Hard-mask, noise-free decoding of every problem; rng-free."""
    gs_cfg, dec_cfg, params = load_sft_checkpoint(ckpt_prefix)
    if data.n_patches != gs_cfg.n_patches:
        raise eh.SchemaError(f"checkpoint {ckpt_prefix} has gsformer.n_patches "
                             f"{gs_cfg.n_patches}, the dataset's diagrams {data.n_patches}")
    _, dec = split_sft_params(params)
    results = []
    for rec in data.problems:
        patches = data.patches[rec.id]
        t_g = visual_tokens(params, gs_cfg, tc.reshape(patches, (1,) + patches.shape),
                            None, hard=True)
        hyps = pt.beam_decode(dec, dec_cfg, t_g, rec.question_tokens,
                              beam=beam, max_len=max_len)
        results.append((rec.id, [fl.detokenize(h.token_ids, data.vocab) for h in hyps]))
    return results


def adjudicate(
    problems: list[solver.ProblemRecord],
    candidates: dict[str, list[str]],
    beam: int,
    tol: eh.Tolerance,
) -> list[eh.Pair]:
    """Each problem's first `beam` candidates through the solver; a problem
    without candidates scores as failed.  Texts name numbers by placeholder and
    recur across problems: one map per call parses each once (execution stays
    per problem); none outlives its call, so every `eval` costs the same."""
    if beam < 1:
        raise ValueError(f"beam must be >= 1, got {beam}")
    pairs: list[eh.Pair] = []
    parsed: dict = {}
    for rec in problems:
        texts = candidates.get(rec.id, [])[:beam]
        pairs.append((rec, solver.evaluate_beam(texts, rec.numbers, rec.answer, tol, parsed)))
    return pairs
