import hashlib
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from geoformal import diagram_synth as ds
from geoformal import formal_lang as fl
from geoformal.diagram_synth import (
    Circle,
    NoTemplateAppliesError,
    RetryExhaustedError,
    SceneConfig,
    SceneSpec,
    SynthConfig,
    caption_of,
    generate_dataset,
    make_problem,
    patchify,
    pgm_bytes,
    rasterize,
    read_pgm,
    sample_scene,
)
from geoformal.solver import execute_program
from geoformal.tensorcore import Rng, ShapeMismatchError


# ---------------------------------------------------------------------------
# Scenes
# ---------------------------------------------------------------------------

def test_forced_line_scene_yields_one_line_relation():
    cfg = SceneConfig(n_lines=(1, 1), n_circles=(0, 0), line_points=(3, 3))
    scene = sample_scene(Rng(1), cfg)
    caption = caption_of(scene)
    assert len(caption.relations) == 1
    assert caption.relations[0].kind == fl.COLLINEAR
    assert len(caption.relations[0].points) == 3


def test_scene_sampling_deterministic():
    cfg = SceneConfig()
    a = sample_scene(Rng(7), cfg)
    b = sample_scene(Rng(7), cfg)
    assert a.points == b.points
    assert a.lines == b.lines
    assert a.circles == b.circles


def test_scene_invariants_over_many_samples():
    cfg = SceneConfig()
    rng = Rng(11)
    for i in range(300):
        scene = sample_scene(rng.split(str(i)), cfg)
        scene.check()  # collinear within 1e-9, members exactly on circles
        coords = list(scene.points.values())
        for a in range(len(coords)):
            for b in range(a + 1, len(coords)):
                assert math.dist(coords[a], coords[b]) >= cfg.min_dist
        for line in scene.lines:
            xs = [scene.points[p] for p in line]
            assert xs == sorted(xs)  # left to right
        for circle in scene.circles:
            cx, cy = scene.points[circle.center]
            angles = [
                math.atan2(scene.points[m][1] - cy, scene.points[m][0] - cx)
                for m in circle.members
            ]
            # clockwise circular order: the clockwise gaps close one full turn
            if len(angles) >= 3:
                gaps = [
                    (angles[j] - angles[(j + 1) % len(angles)]) % (2 * math.pi)
                    for j in range(len(angles))
                ]
                assert sum(gaps) == pytest.approx(2 * math.pi, abs=1e-9)


def test_retry_exhausted_on_impossible_config():
    cfg = SceneConfig(min_dist=0.9, max_tries=25)
    with pytest.raises(RetryExhaustedError):
        sample_scene(Rng(0), cfg)


def test_caption_of_hand_scene():
    scene = SceneSpec(
        points={"A": (0.1, 0.5), "B": (0.5, 0.5), "C": (0.9, 0.5)},
        lines=[("A", "B", "C")],
    )
    assert fl.format_caption(caption_of(scene)) == "Line A B C"


def test_caption_of_circle_scene():
    scene = SceneSpec(
        points={"O": (0.5, 0.5), "A": (0.8, 0.5), "B": (0.5, 0.8)},
        circles=[Circle("O", 0.3, ("B", "A"))],
    )
    assert fl.format_caption(caption_of(scene)) == "\\odot O lieson B A"


def test_caption_of_empty_scene():
    assert caption_of(SceneSpec(points={})) == fl.FormalCaption()


# ---------------------------------------------------------------------------
# Rasterizer
# ---------------------------------------------------------------------------

def test_rasterize_empty_scene_all_zero():
    img = rasterize(SceneSpec(points={}), 64, 64)
    assert img.shape == (64, 64)
    assert np.all(img == 0.0)


def test_rasterize_horizontal_line_single_row():
    scene = SceneSpec(
        points={"A": (0.2, 0.5), "B": (0.8, 0.5)},
        lines=[("A", "B")],
    )
    img = rasterize(scene, 64, 64)
    rows = np.flatnonzero(img.any(axis=1))
    expected = round((1.0 - 0.5) * 63)
    assert rows.min() >= expected - 1
    assert rows.max() <= expected + 1


def test_rasterize_deterministic():
    scene = sample_scene(Rng(3), SceneConfig())
    assert np.array_equal(rasterize(scene), rasterize(scene))


def test_rasterize_rejects_tiny_images():
    with pytest.raises(ValueError):
        rasterize(SceneSpec(points={}), 16, 16)


# ---------------------------------------------------------------------------
# Patches
# ---------------------------------------------------------------------------

def test_patchify_shape_and_inverse():
    rng = Rng(4)
    pixels = rng.uniform((64, 64))
    patches = patchify(pixels, 8)
    assert patches.shape == (64, 64)
    # inverse: patch (row, col) back to its 8 x 8 block of the image
    grid = patches.data.reshape(8, 8, 8, 8).transpose(0, 2, 1, 3).reshape(64, 64)
    assert np.array_equal(grid, pixels)


def test_patchify_zero_image():
    patches = patchify(np.zeros((32, 32)), 8)
    assert np.all(patches.data == 0.0)


def test_diagram_divisibility_enforced():
    with pytest.raises(ShapeMismatchError):
        patchify(np.zeros((30, 30)), 8)
    with pytest.raises(ShapeMismatchError):
        patchify(np.zeros((32, 36)), 8)
    with pytest.raises(ValueError, match="patch must be >= 1"):
        patchify(np.zeros((32, 32)), 0)


def test_any_image_size_rasterizes_and_patchifies_at_a_dividing_patch():
    scene = sample_scene(Rng(3), SceneConfig())
    pixels = rasterize(scene, 36, 36)
    assert pixels.shape == (36, 36)
    assert patchify(pixels, 4).shape == (81, 16)


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------

def test_right_triangle_template():
    scene = sample_scene(Rng(5), SceneConfig())
    cfg = SynthConfig(templates=("pythag_hyp",))
    problem = make_problem(scene, Rng(6), cfg)
    assert fl.format_program(problem.gt_program) == "gougu_add N_0 N_1"
    a, b = problem.numbers
    assert problem.answer == pytest.approx(math.hypot(a, b), abs=1e-12)


def test_circle_perimeter_template_analytic():
    cfg_scene = SceneConfig(n_circles=(1, 1))
    scene = sample_scene(Rng(8), cfg_scene)
    problem = make_problem(scene, Rng(9), SynthConfig(templates=("circle_perimeter",)))
    (r,) = problem.numbers
    assert problem.answer == pytest.approx(2.0 * math.pi * r, abs=1e-9)


def test_circle_templates_require_circle():
    cfg_scene = SceneConfig(n_circles=(0, 0))
    scene = sample_scene(Rng(10), cfg_scene)
    with pytest.raises(NoTemplateAppliesError):
        make_problem(scene, Rng(11), SynthConfig(templates=("circle_area",)))


def test_problems_are_solver_consistent_and_choices_unique():
    rng = Rng(12)
    cfg = SynthConfig()
    for i in range(300):
        scene = sample_scene(rng.split(f"s{i}"), cfg.scene)
        problem = make_problem(scene, rng.split(f"p{i}"), cfg, f"p{i}")
        result = execute_program(problem.gt_program, problem.numbers)
        assert abs(result - problem.answer) <= 1e-9 * max(1.0, abs(problem.answer))
        assert problem.choices is not None
        assert len(problem.choices) == 4
        assert sum(1 for c in problem.choices if c == problem.answer) == 1


def test_question_tokens_detokenize_to_question():
    scene = sample_scene(Rng(13), SceneConfig())
    problem = make_problem(scene, Rng(14), SynthConfig())
    vocab = ds.default_vocab()
    assert fl.detokenize(problem.question_tokens, vocab) == problem.question_text


def test_caption_roundtrips_through_language(tmp_path):
    rng = Rng(15)
    for i in range(50):
        scene = sample_scene(rng.split(str(i)), SceneConfig())
        text = fl.format_caption(caption_of(scene))
        assert fl.format_caption(fl.parse_caption(text)) == text


# ---------------------------------------------------------------------------
# Dataset files
# ---------------------------------------------------------------------------

def test_pgm_roundtrip(tmp_path):
    pixels = Rng(16).uniform((32, 48))
    path = tmp_path / "x.pgm"
    path.write_bytes(pgm_bytes(pixels))
    back = read_pgm(path)
    assert back.shape == (32, 48)
    assert np.abs(back - pixels).max() <= 0.5 / 255 + 1e-12


@pytest.mark.parametrize("header, pixels, message", [
    (b"P5\n0 4\n255\n", b"", "width and height must be >= 1, got 0 x 4"),
    (b"P5\n64 -64\n255\n", bytes(4096), "width and height must be >= 1, got 64 x -64"),
    (b"P5\n4 4\n0\n", bytes(16), "maxval must be in 1..255 (8-bit), got 0"),
    (b"P5\n4 4\n65535\n", bytes(32), "maxval must be in 1..255 (8-bit), got 65535"),
    (b"P5\n4 4\n255\n", bytes(15), "15 pixel bytes for a 4 x 4 image"),
    (b"P5\n4 4\n255\n", bytes(17), "17 pixel bytes for a 4 x 4 image"),
    (b"P5\n4 x\n255\n", bytes(16), "malformed P5 header"),
    (b"P5\n4 4\n", b"", "not a P5 graymap"),
    (b"P5\n4 4\n255", b"", "not a P5 graymap"),
], ids=["zero-width", "negative-height", "maxval-0", "maxval-16-bit", "short-block",
        "long-block", "non-integer-size", "truncated-header", "no-pixel-block"])
def test_read_pgm_refuses_a_malformed_graymap(tmp_path, header, pixels, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(header + pixels)
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        read_pgm(path)
    assert str(path) in str(info.value)


def test_generate_dataset_reproducible(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    generate_dataset(6, 42, out_a)
    generate_dataset(6, 42, out_b)
    for name in ("problems.jsonl", "captions.txt", "vocab.txt",
                 "diagrams/p00000.pgm", "diagrams/p00005.pgm"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_generate_dataset_contents(tmp_path):
    from geoformal.solver import load_problems

    out = tmp_path / "data"
    problems = generate_dataset(5, 1, out)
    records = load_problems(out / "problems.jsonl")
    assert len(records) == len(problems) == 5
    for rec in records:
        assert (out / rec.diagram).exists()
        img = read_pgm(out / rec.diagram)
        assert img.shape == (64, 64)
    vocab = fl.Vocab.load(out / "vocab.txt")
    assert len(vocab) == len(ds.default_vocab())
    blocks = (out / "captions.txt").read_text().strip().split("\n\n")
    assert len(blocks) == 5
    for block in blocks:
        fl.parse_caption(block)


def tree_sha256(root: Path) -> str:
    """sha256 over every file under root in sorted path order, each as its
    POSIX relative path, a NUL byte, then its bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("n, seed, size, digest", [
    (16, 1, 64, "61076c4ff35129334f9d1dd68cc00b2d87ee142ef18792b52ae70ba51e245f64"),
    (64, 2024, 64, "7931832f8b19ba1ec1eca305482a8b9d41e36b0eb1f3b6bb2e56a3a9080dbbe4"),
    (5, 3, 40, "4bde176db0f615f24a667ccd8bc5460e5842814013a1ce7c308668762e309109"),
])
def test_generate_dataset_writes_the_pinned_bytes(tmp_path, n, seed, size, digest):
    from geoformal.solver import load_problems

    out = tmp_path / "data"
    records = generate_dataset(n, seed, out, SynthConfig(image_size=(size, size)))
    assert tree_sha256(out) == digest
    assert records == load_problems(out / "problems.jsonl")


def test_generate_dataset_memory_per_problem(tmp_path):
    # a problem is held as its PGM bytes and record until the files are
    # written, not as its float image (32 KB at 64x64)
    ds.default_vocab()
    peaks = {}
    for n in (100, 300):
        tracemalloc.start()
        try:
            generate_dataset(n, 5, tmp_path / str(n))
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (peaks[300] - peaks[100]) / 200 <= 8 * 1024
