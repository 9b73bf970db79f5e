"""Synthetic scene generator: raster diagrams with ground-truth captions and
solver-consistent problems.

Scenes are built constructively so the geometric invariants hold exactly:
line members are placed at parametric positions on a sampled segment, circle
members exactly on the circle.  Line members are listed left to right (x,
then y); circle members clockwise in the rendered image, which with the
y-down raster flip means descending scene angle.  Rejection sampling keeps
all points at least `min_dist` apart.

Diagrams are plain pixel arrays of any size of at least 32x32; the patch
size is not a property of the data.  Training chooses it when it loads a
dataset, decoding reads it back from the checkpoint, and `patchify` checks
that it divides the image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
import numpy as np

from . import formal_lang as fl
from . import solver
from .formal_lang import FormalCaption, Relation, SolutionProgram, Vocab
from .solver import ProblemRecord, execute_program
from .tensorcore import Rng, ShapeMismatchError, Tensor


class RetryExhaustedError(RuntimeError):
    def __init__(self, tries: int):
        super().__init__(f"rejection sampling failed after {tries} tries")


class NoTemplateAppliesError(ValueError):
    def __init__(self, scene_desc: str):
        super().__init__(f"no problem template applies to scene: {scene_desc}")


# ---------------------------------------------------------------------------
# Scenes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Circle:
    center: str
    radius: float
    members: tuple[str, ...]


@dataclass
class SceneSpec:
    points: dict[str, tuple[float, float]]
    lines: list[tuple[str, ...]] = field(default_factory=list)
    circles: list[Circle] = field(default_factory=list)

    def check(self, tol: float = 1e-9) -> None:
        """Assert geometric consistency: collinearity and circle membership."""
        for line in self.lines:
            (x0, y0), (x1, y1) = self.points[line[0]], self.points[line[-1]]
            for label in line[1:-1]:
                x, y = self.points[label]
                cross = (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0)
                if abs(cross) > tol:
                    raise ValueError(f"{label} off line {line}: cross={cross}")
        for circle in self.circles:
            cx, cy = self.points[circle.center]
            for label in circle.members:
                x, y = self.points[label]
                if abs(math.hypot(x - cx, y - cy) - circle.radius) > tol:
                    raise ValueError(f"{label} off circle {circle.center}")


@dataclass
class SceneConfig:
    n_lines: tuple[int, int] = (1, 3)
    n_circles: tuple[int, int] = (0, 1)
    line_points: tuple[int, int] = (2, 3)
    circle_points: tuple[int, int] = (2, 3)
    min_dist: float = 0.08
    margin: float = 0.08
    max_tries: int = 1000


_LINE_LABELS = "ABCDEFGH"
_CENTER_LABEL = "O"


def sample_scene(rng: Rng, cfg: SceneConfig | None = None) -> SceneSpec:
    cfg = cfg or SceneConfig()
    for attempt in range(cfg.max_tries):
        scene = _try_scene(rng.split(f"try{attempt}"), cfg)
        if scene is not None:
            scene.check()
            return scene
    raise RetryExhaustedError(cfg.max_tries)


def _try_scene(rng: Rng, cfg: SceneConfig) -> SceneSpec | None:
    lo, hi = cfg.margin, 1.0 - cfg.margin
    points: dict[str, tuple[float, float]] = {}
    labels = list(_LINE_LABELS)
    lines: list[tuple[str, ...]] = []
    circles: list[Circle] = []

    n_circles = rng.integers(cfg.n_circles[0], cfg.n_circles[1] + 1)
    n_lines = rng.integers(cfg.n_lines[0], cfg.n_lines[1] + 1)

    if n_circles:
        m = rng.integers(cfg.circle_points[0], cfg.circle_points[1] + 1)
        cx = lo + 0.25 + rng.uniform(()) * (hi - lo - 0.5)
        cy = lo + 0.25 + rng.uniform(()) * (hi - lo - 0.5)
        radius = 0.14 + rng.uniform(()) * 0.1
        points[_CENTER_LABEL] = (float(cx), float(cy))
        angles = sorted(
            (float(a) for a in rng.uniform((m,)) * 2.0 * math.pi), reverse=True
        )
        members = []
        for theta in angles:  # descending angle: clockwise once rendered
            label = labels.pop(0)
            points[label] = (
                float(cx + radius * math.cos(theta)),
                float(cy + radius * math.sin(theta)),
            )
            members.append(label)
        circles.append(Circle(_CENTER_LABEL, float(radius), tuple(members)))

    for _ in range(n_lines):
        k = rng.integers(cfg.line_points[0], cfg.line_points[1] + 1)
        if len(labels) < k:
            break
        a = np.array([lo, lo]) + rng.uniform((2,)) * (hi - lo)
        b = np.array([lo, lo]) + rng.uniform((2,)) * (hi - lo)
        if np.hypot(*(b - a)) < 0.35:
            return None
        ts = [0.0] + sorted(
            0.15 + 0.7 * float(t) for t in rng.uniform((k - 2,))
        ) + [1.0]
        member_pts = []
        for t in ts:
            label = labels.pop(0)
            position = a + t * (b - a)
            points[label] = (float(position[0]), float(position[1]))
            member_pts.append(label)
        member_pts.sort(key=lambda name: points[name])  # left to right
        lines.append(tuple(member_pts))

    if not lines and not circles:
        return None
    coords = list(points.values())
    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            if math.dist(coords[i], coords[j]) < cfg.min_dist:
                return None
    if any(not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0) for x, y in coords):
        return None
    return SceneSpec(points, lines, circles)


def caption_of(scene: SceneSpec) -> FormalCaption:
    relations = [Relation(fl.COLLINEAR, line) for line in scene.lines]
    relations += [
        Relation(fl.CONCYCLIC, c.members, center=c.center) for c in scene.circles
    ]
    return FormalCaption(tuple(relations))


# ---------------------------------------------------------------------------
# Rasterization
# ---------------------------------------------------------------------------

def _to_px(p: tuple[float, float], h: int, w: int) -> tuple[int, int]:
    x, y = p
    return int(round(x * (w - 1))), int(round((1.0 - y) * (h - 1)))


def _bresenham(img: np.ndarray, x0: int, y0: int, x1: int, y1: int) -> None:
    dx = abs(x1 - x0)
    dy = -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    while True:
        img[y0, x0] = 1.0
        if x0 == x1 and y0 == y1:
            break
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x0 += sx
        if e2 <= dx:
            err += dx
            y0 += sy


def rasterize(scene: SceneSpec, h: int = 64, w: int = 64) -> np.ndarray:
    """(h, w) pixels in [0, 1]: 1-pixel strokes, 3x3 point dots, no
    anti-aliasing; deterministic."""
    if h < 32 or w < 32:
        raise ValueError("image must be at least 32x32")
    img = np.zeros((h, w))
    for line in scene.lines:
        x0, y0 = _to_px(scene.points[line[0]], h, w)
        x1, y1 = _to_px(scene.points[line[-1]], h, w)
        _bresenham(img, x0, y0, x1, y1)
    for circle in scene.circles:
        cx, cy = scene.points[circle.center]
        r_px = circle.radius * (min(h, w) - 1)
        steps = max(32, int(8 * r_px))
        for step in range(steps):
            theta = 2.0 * math.pi * step / steps
            px, py = _to_px(
                (cx + circle.radius * math.cos(theta),
                 cy + circle.radius * math.sin(theta)), h, w,
            )
            if 0 <= py < h and 0 <= px < w:
                img[py, px] = 1.0
    for p in scene.points.values():
        px, py = _to_px(p, h, w)
        img[max(0, py - 1): py + 2, max(0, px - 1): px + 2] = 1.0
    return img


def patchify(pixels: np.ndarray, p: int) -> Tensor:
    """Row-major (N, p*p) patches of (H, W) pixels; N = (H/p) * (W/p).  The
    patch size p must be >= 1 and divide both sides."""
    if p < 1:
        raise ValueError(f"patch must be >= 1, got {p}")
    h, w = pixels.shape
    if h % p or w % p:
        raise ShapeMismatchError("diagram/patch", (h, w), (p,))
    grid = pixels.reshape(h // p, p, w // p, p)
    return Tensor(grid.transpose(0, 2, 1, 3).reshape(-1, p * p))


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------

@dataclass
class SynthConfig:
    scene: SceneConfig = field(default_factory=SceneConfig)
    templates: tuple[str, ...] = (
        "pythag_hyp", "pythag_leg", "perimeter", "angle_third", "sum3",
        "circle_perimeter", "circle_area",
    )
    image_size: tuple[int, int] = (64, 64)


@dataclass
class SyntheticProblem:
    id: str
    scene: SceneSpec
    pixels: np.ndarray
    caption: FormalCaption
    question_text: str
    question_tokens: list[int]
    numbers: list[float]
    choices: list[float]
    answer: float
    gt_program: SolutionProgram
    template: str

    def to_record(self, diagram_path: str | None = None) -> ProblemRecord:
        return ProblemRecord(
            id=self.id,
            numbers=list(self.numbers),
            answer=self.answer,
            gt_program=fl.format_program(self.gt_program),
            caption=fl.format_caption(self.caption),
            question_tokens=list(self.question_tokens),
            choices=list(self.choices),
            diagram=diagram_path,
        )


def _r1(rng: Rng, lo: float, hi: float) -> float:
    return round(lo + float(rng.uniform(())) * (hi - lo), 1)


_CIRCLE_TEMPLATES = frozenset({"circle_perimeter", "circle_area"})


def _instantiate_template(name: str, scene: SceneSpec, rng: Rng):
    """Return (numbers, program_text, question_text)."""
    n = fl.format_number
    if name == "pythag_hyp":
        a, b = _r1(rng, 2.0, 12.0), _r1(rng, 2.0, 12.0)
        return ([a, b], "gougu_add N_0 N_1",
                f"find the hypotenuse of a right triangle with legs {n(a)} and {n(b)}")
    if name == "pythag_leg":
        c = _r1(rng, 5.0, 15.0)
        a = _r1(rng, 2.0, c - 1.0)
        return ([c, a], "gougu_minus N_0 N_1",
                f"find the leg of a right triangle with hypotenuse {n(c)} and leg {n(a)}")
    if name == "perimeter":
        side = _r1(rng, 2.0, 12.0)
        k = float(rng.integers(3, 9))
        return ([side, k], "PRK_Perim N_0 N_1",
                f"find the perimeter of a regular polygon with {n(k)} sides of length {n(side)}")
    if name == "angle_third":
        alpha = _r1(rng, 20.0, 90.0)
        beta = _r1(rng, 20.0, min(150.0 - alpha, 90.0))
        return ([alpha, beta], "g_add N_0 N_1 g_minus 180.0 V_0",
                f"find the third angle of a triangle with angles {n(alpha)} and {n(beta)}")
    if name == "sum3":
        vals = [_r1(rng, 1.0, 20.0) for _ in range(3)]
        text = " ".join(n(v) for v in vals[:2]) + f" and {n(vals[2])}"
        return (vals, "Sum N_0 N_1 N_2", f"find the sum of values {text}")
    if name == "circle_perimeter":
        r = _r1(rng, 2.0, 10.0)
        return ([r], "cal_circle_perimeter N_0",
                f"find the circumference of a circle with radius {n(r)}")
    if name == "circle_area":
        r = _r1(rng, 2.0, 10.0)
        return ([r], "cal_circle_area N_0",
                f"find the area of a circle with radius {n(r)}")
    raise NoTemplateAppliesError(name)


def _distractors(answer: float, rng: Rng) -> list[float]:
    values: list[float] = []
    factors = [0.5, 2.0, None]
    for factor in factors:
        for _ in range(100):
            f = factor
            if f is None:
                f = 0.7 + 0.6 * float(rng.uniform(()))
                if abs(f - 1.0) < 0.05:
                    continue
            candidate = round(answer * f, 1)
            gap = max(0.05, 1e-3 * abs(answer))
            if abs(candidate - answer) <= gap:
                continue
            if any(abs(candidate - v) <= 1e-9 for v in values):
                continue
            values.append(candidate)
            break
        else:
            # fall back to an additive offset; collisions here are impossible
            values.append(round(answer + 1.7 * (len(values) + 1), 1))
    return values


def make_problem(
    scene: SceneSpec, rng: Rng, cfg: SynthConfig | None = None,
    problem_id: str = "p0",
) -> SyntheticProblem:
    cfg = cfg or SynthConfig()
    applicable = [
        t for t in cfg.templates
        if t not in _CIRCLE_TEMPLATES or scene.circles
    ]
    if not applicable:
        raise NoTemplateAppliesError(
            f"{len(scene.lines)} lines, {len(scene.circles)} circles"
        )
    template = applicable[rng.integers(0, len(applicable))]
    numbers, program_text, question = _instantiate_template(template, scene, rng)
    program = fl.parse_program(program_text)
    answer = execute_program(program, numbers)

    pool = [answer] + _distractors(answer, rng)
    choices = [pool[i] for i in rng.permutation(4)]

    vocab = default_vocab()
    return SyntheticProblem(
        id=problem_id,
        scene=scene,
        pixels=rasterize(scene, *cfg.image_size),
        caption=caption_of(scene),
        question_text=question,
        question_tokens=fl.tokenize(question, vocab),
        numbers=numbers,
        choices=choices,
        answer=answer,
        gt_program=program,
        template=template,
    )


_VOCAB_CACHE: Vocab | None = None


def default_vocab() -> Vocab:
    global _VOCAB_CACHE
    if _VOCAB_CACHE is None:
        _VOCAB_CACHE = fl.build_default_vocab()
    return _VOCAB_CACHE


# ---------------------------------------------------------------------------
# Dataset files
# ---------------------------------------------------------------------------

def pgm_bytes(pixels: np.ndarray) -> bytes:
    """(h, w) pixels in [0, 1] as an 8-bit binary P5 graymap."""
    h, w = pixels.shape
    data = np.clip(np.round(pixels * 255.0), 0, 255).astype(np.uint8)
    return f"P5\n{w} {h}\n255\n".encode("ascii") + data.tobytes()


def read_pgm(path: str | Path) -> np.ndarray:
    """An 8-bit P5 graymap laid out as pgm_bytes writes it, scaled to [0, 1];
    a malformed header or pixel block raises ValueError naming the file."""
    parts = Path(path).read_bytes().split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5":
        raise ValueError(f"not a P5 graymap: {path}")
    try:
        w, h = (int(v) for v in parts[1].split())
        maxval = int(parts[2])
    except ValueError:
        raise ValueError(f"malformed P5 header in {path}") from None
    if w < 1 or h < 1:
        raise ValueError(f"{path}: width and height must be >= 1, got {w} x {h}")
    if not 1 <= maxval <= 255:
        raise ValueError(f"{path}: maxval must be in 1..255 (8-bit), got {maxval}")
    if len(parts[3]) != w * h:
        raise ValueError(f"{path}: {len(parts[3])} pixel bytes for a {w} x {h} image")
    return np.frombuffer(parts[3], dtype=np.uint8).reshape(h, w) / maxval


def generate_dataset(
    n: int, seed: int, out_dir: str | Path, cfg: SynthConfig | None = None
) -> list[ProblemRecord]:
    """Write problems.jsonl, captions.txt, vocab.txt, and PGM diagrams;
    return the records problems.jsonl holds.

    Each diagram is encoded to its 8-bit PGM bytes as soon as it is drawn,
    so a problem holds about 5 KB until the files are written after the
    drawing loop.  Byte-for-byte reproducible from (n, seed, cfg).  Refuses
    (ValueError, nothing written or deleted) a diagrams/ with stale files.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    cfg = cfg or SynthConfig()
    h, w = cfg.image_size
    if h < 32 or w < 32:
        raise ValueError(f"image must be at least 32x32, got {h}x{w}")
    out, ids = Path(out_dir), [f"p{i:05d}" for i in range(n)]
    stale = sorted({f.name for f in (out / "diagrams").glob("*")} - {f"{i}.pgm" for i in ids})
    if stale:
        raise ValueError(f"{out / 'diagrams'} holds {len(stale)} file(s) this run "
                         f"would not write, first {stale[0]}")
    root = Rng(seed)
    records, diagrams = [], []
    for i, pid in enumerate(ids):
        rng = root.split(f"problem{i}")
        scene = sample_scene(rng.split("scene"), cfg.scene)
        problem = make_problem(scene, rng.split("problem"), cfg, pid)
        records.append(problem.to_record(f"diagrams/{problem.id}.pgm"))
        diagrams.append(pgm_bytes(problem.pixels))

    (out / "diagrams").mkdir(parents=True, exist_ok=True)
    for record, data in zip(records, diagrams):
        (out / record.diagram).write_bytes(data)
    solver.save_problems(records, out / "problems.jsonl")
    (out / "captions.txt").write_text(
        "\n\n".join(r.caption for r in records) + "\n", encoding="utf-8"
    )
    default_vocab().save(out / "vocab.txt")
    return records
