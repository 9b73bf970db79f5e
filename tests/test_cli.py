import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import geoformal
from geoformal import eval_harness as eh
from geoformal import selfcheck, solver
from geoformal.cli import _build_parser, dispatch
from oracles import shared_pool_beams

# the child interpreter imports the package from this checkout
CHILD_ENV = dict(os.environ,
                 PYTHONPATH=str(Path(geoformal.__file__).resolve().parent.parent))


def run_cli(capsys, *argv) -> tuple[int, dict | None]:
    code = dispatch(list(argv))
    out = capsys.readouterr().out.strip()
    payload = json.loads(out) if out else None
    return code, payload


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_pythagorean(tmp_path, capsys):
    program = tmp_path / "p.txt"
    program.write_text("gougu_add 3.0 4.0\n")
    code, payload = run_cli(capsys, "solve", "--program", str(program),
                            "--numbers", "3,4")
    assert code == 0
    assert payload["answer"] == 5.0


def test_solve_uses_problem_numbers(tmp_path, capsys):
    program = tmp_path / "p.txt"
    program.write_text("g_add N_0 N_1\ng_mul N_0 N_1\n")
    code, payload = run_cli(capsys, "solve", "--program", str(program),
                            "--numbers", "2.5,4")
    assert code == 0
    assert payload["answers"] == [6.5, 10.0]


def test_solve_bad_program_is_data_error(tmp_path, capsys):
    program = tmp_path / "p.txt"
    program.write_text("nosuch 1.0\n")
    code, _ = run_cli(capsys, "solve", "--program", str(program))
    assert code == 2


def test_solve_missing_file_is_data_error(tmp_path, capsys):
    code, _ = run_cli(capsys, "solve", "--program", str(tmp_path / "none.txt"))
    assert code == 2


@pytest.mark.parametrize("text", ["", "\n  \n\t\n"], ids=["empty", "blank-lines"])
def test_solve_without_a_program_is_data_error(tmp_path, capsys, text):
    program = tmp_path / "p.txt"
    program.write_text(text)
    err = assert_data_error(capsys, "solve", "--program", str(program))
    assert err == f"error: no program in {program}\n"


# ---------------------------------------------------------------------------
# usage and verification exit codes
# ---------------------------------------------------------------------------

def test_unknown_subcommand_is_usage_error(capsys):
    assert dispatch(["frobnicate"]) == 1


def test_missing_required_flag_is_usage_error(capsys):
    assert dispatch(["gen-data", "--n", "3"]) == 1


def test_selftest_passes(capsys):
    code, payload = run_cli(capsys, "selftest", "--seed", "0")
    assert code == 0
    assert payload["ok"] is True
    assert payload["failed"] == 0


def test_selftest_fails_on_wrong_operator_arithmetic(monkeypatch, capsys):
    # the solver oracle keeps its own operator table, so a registry entry
    # with the wrong arithmetic is a mismatch, not a pass
    bad = replace(solver._REGISTRY["g_add"], fn=lambda a, b: a + b + 1e-3)
    monkeypatch.setitem(solver._REGISTRY, "g_add", bad)
    monkeypatch.setattr(solver, "_OPERATORS", tuple(
        bad if spec.name == "g_add" else spec for spec in solver._OPERATORS))
    failed = [c["name"] for c in selfcheck.selftest(0)["checks"] if not c["ok"]]
    assert "solver_oracle" in failed
    assert run_cli(capsys, "selftest", "--seed", "0")[0] == 3


def test_gradcheck_passes_quick(capsys):
    code, payload = run_cli(capsys, "gradcheck", "--seed", "1", "--points", "3")
    assert code == 0
    assert payload["ok"] is True


# ---------------------------------------------------------------------------
# gen-data / eval
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_data")
    code = dispatch(["gen-data", "--n", "6", "--seed", "11", "--out", str(out)])
    assert code == 0
    return out


def test_gen_data_writes_snapshot(dataset):
    snapshot = json.loads((dataset / "gen-config.json").read_text())
    assert snapshot["schema"] == 1
    assert snapshot["seed"] == 11
    assert "patch" not in snapshot  # chosen when the data is loaded


def test_gen_data_has_no_patch_flag(tmp_path, capsys):
    out = tmp_path / "d"
    assert dispatch(["gen-data", "--n", "1", "--patch", "8", "--out", str(out)]) == 1
    assert not out.exists()


def test_adjudicate_and_eval_with_gt_programs(dataset, tmp_path, capsys):
    # candidate lists that are just the ground-truth program
    problems = [
        json.loads(line)
        for line in (dataset / "problems.jsonl").read_text().splitlines()
    ]
    cands = tmp_path / "cands.jsonl"
    with open(cands, "w") as fh:
        for rec in problems:
            fh.write(json.dumps(
                {"id": rec["id"], "candidates": [rec["gt_program"]]}
            ) + "\n")

    # eval is the one scoring command; its report holds the per-problem rows
    assert dispatch(["adjudicate", "--problems", str(dataset / "problems.jsonl"),
                     "--candidates", str(cands)]) == 1

    report_path = tmp_path / "report.json"
    code, payload = run_cli(
        capsys, "eval", "--problems", str(dataset / "problems.jsonl"),
        "--candidates", str(cands), "--beam", "10",
        "--out", str(report_path),
    )
    assert code == 0
    assert payload["top1"] == 1.0
    assert payload["choice"] == 1.0
    rows = json.loads(report_path.read_text())["rows"]
    assert [r["id"] for r in rows] == [rec["id"] for rec in problems]
    assert all(r["first_executed_rank"] == 0 for r in rows)
    assert all(r["first_correct_rank"] == 0 for r in rows)


def test_eval_reads_a_dataset_directory_as_decode_does(dataset, tmp_path, capsys):
    # --problems names a dataset directory (its problems.jsonl) or the file
    records = solver.load_problems(dataset / "problems.jsonl")
    eh.save_candidates([(rec.id, [rec.gt_program]) for rec in records],
                       tmp_path / "cands.jsonl")
    payloads = [run_cli(capsys, "eval", "--problems", str(problems),
                        "--candidates", str(tmp_path / "cands.jsonl"))
                for problems in (dataset, dataset / "problems.jsonl")]
    assert payloads[0] == payloads[1]
    code, payload = payloads[0]
    assert code == 0
    assert payload["n_problems"] == len(records) == 6
    assert payload["top1"] == 1.0


def test_eval_on_a_directory_without_problems_is_data_error(tmp_path, capsys):
    (tmp_path / "cands.jsonl").write_text('{"id": "p0", "candidates": ["g_equal 1.0"]}\n')
    err = assert_data_error(capsys, "eval", "--problems", str(tmp_path),
                            "--candidates", str(tmp_path / "cands.jsonl"))
    assert f"{tmp_path / 'problems.jsonl'}" in err


def test_eval_schema_error_exit_code(dataset, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n")
    code, _ = run_cli(
        capsys, "eval", "--problems", str(dataset / "problems.jsonl"),
        "--candidates", str(bad),
    )
    assert code == 2


# ---------------------------------------------------------------------------
# bad inputs: exit 2 with a message, never a traceback or a vacuous "ok"
# ---------------------------------------------------------------------------

def assert_data_error(capsys, *argv) -> str:
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: " in captured.err
    assert "Traceback" not in captured.err
    return captured.err


@pytest.mark.parametrize("flag, value, message", [
    ("--batch", "0", "batch must be"),
    ("--steps", "-1", "steps must be"),
    ("--lr", "nan", "lr must be"),
    ("--lr", "0", "lr must be"),
])
def test_train_rejects_bad_stage_flag(dataset, tmp_path, capsys, flag, value,
                                      message):
    err = assert_data_error(
        capsys, "train-toy", "--stage", "lm", "--data", str(dataset),
        "--out", str(tmp_path / "x"), flag, value,
    )
    assert message in err
    assert not (tmp_path / "x.log.jsonl").exists()


def test_train_rejects_bad_stage_value_in_config_file(dataset, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"schema": 1, "stages": {"sft": {"batch": 0}}}))
    err = assert_data_error(
        capsys, "train-toy", "--stage", "lm", "--data", str(dataset),
        "--config", str(config), "--out", str(tmp_path / "x"),
    )
    assert "batch must be" in err


@pytest.mark.parametrize("config, message", [
    ({"schema": 1, "stages": {"lm": {"bogus": 1}}},
     "unknown field 'bogus' in config section 'stages.lm'"),
    ({"schema": 1, "decoder": {"bogus": 1}},
     "unknown field 'bogus' in config section 'decoder'"),
    ([1, 2], "config must be a JSON object"),
    ({"schema": 1, "mae": [64]}, "config section 'mae' must be a JSON object"),
    ({"schema": 1, "stagse": {}}, "unknown field 'stagse' in config"),
    ({"schema": 1, "stage": {"lm": {"lr": "not a rate"}}},
     "stage in config must be one of mae, lm, align, sft, got {'lm'"),
    ({"schema": 1, "seed": "1"}, "seed in config must be an integer, got '1'"),
], ids=["stage-field", "decoder-field", "list", "non-object-section",
        "unknown-section", "misspelt-stages", "string-seed"])
def test_train_rejects_malformed_config_file(dataset, tmp_path, capsys, config,
                                             message):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    err = assert_data_error(
        capsys, "train-toy", "--stage", "lm", "--data", str(dataset),
        "--config", str(path), "--out", str(tmp_path / "x"),
    )
    assert message in err
    assert not (tmp_path / "x.log.jsonl").exists()


@pytest.mark.parametrize("section, message", [
    ({"gsformer": {"n_heads": 0}}, "n_heads 0 must be >= 1 and divide d_model 32"),
    ({"gsformer": {"n_queries": "8"}}, "n_queries in config section 'gsformer' "
                                       "must be an integer, got '8'"),
    ({"gsformer": {"sgs_layers": None}}, "sgs_layers in config section "
                                         "'gsformer' must be a list of integers"),
    ({"gsformer": {"sgs_layers": [1.5]}}, "must be a list of integers"),
    ({"gsformer": {"lam": "0.5"}}, "lam in config section 'gsformer' must be "
                                   "a number"),
    ({"gsformer": {"align_weights": [1.0, 1.0]}}, "must be a list of three numbers"),
    ({"gsformer": {"tau_final": "0.5"}}, "must be null or a number"),
    ({"gsformer": {"tau_final": float("inf")}}, "tau_final in config section "
                                                "'gsformer' must be null or a number, "
                                                "got inf"),
    ({"gsformer": {"align_weights": [1.0, float("nan"), 1.0]}},
     "align_weights in config section 'gsformer' must be a list of three numbers, "
     "got [1.0, nan, 1.0]"),
    ({"decoder": {"n_layers": 0}}, "n_layers and max_len must be >= 1"),
    ({"decoder": {"max_len": 0}}, "n_layers and max_len must be >= 1"),
    ({"decoder": {"n_layers": True}}, "n_layers in config section 'decoder' "
                                      "must be an integer, got True"),
    ({"decoder": {"d_lm": 30}}, "decoder n_heads 4 must be >= 1 and divide d_lm 30"),
    ({"mae": {"n_heads": 0}}, "mae n_heads 0 must be >= 1 and divide d_model 64"),
    ({"stages": {"lm": {"steps": True}}}, "must be an integer, got True"),
    ({"stages": {"lm": {"lr": "0.1"}}}, "lr in config section 'stages.lm' "
                                        "must be a number"),
    ({"stages": {"sft": {"freeze_encoder": 1}}},
     "freeze_encoder in config section 'stages.sft' must be a boolean"),
    ({"stages": {"mae": {"freeze_encoder": True}}},
     "--freeze-encoder applies only to --stage sft"),
], ids=["gs-zero-heads", "string-count", "null-sgs_layers", "float-sgs_layers",
        "string-rate", "two-align_weights", "string-tau_final", "inf-tau_final",
        "nan-align_weights", "zero-dec-layers",
        "zero-max_len", "bool-count", "indivisible-d_lm", "mae-zero-heads",
        "bool-steps", "string-lr", "int-freeze_encoder", "mae-freeze_encoder"])
def test_train_rejects_bad_config_value(dataset, tmp_path, capsys, section, message):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"schema": 1, **section}))
    err = assert_data_error(
        capsys, "train-toy", "--stage", "lm", "--data", str(dataset),
        "--config", str(path), "--steps", "1", "--out", str(tmp_path / "x"),
    )
    assert message in err
    assert list(tmp_path.iterdir()) == [path]


def problem_line(**fields) -> dict:
    return {"id": "p0", "answer": 5.0, **fields}


def candidates_line(candidates, id="p0") -> dict:
    return {"id": id, "candidates": candidates}


def write_eval_inputs(tmp_path, problems: list[dict], candidates: list[dict]) -> list[str]:
    """eval over one problems file and one candidates file, one JSON line per
    dict (NaN and Infinity written as json.loads reads them)."""
    paths = tmp_path / "problems.jsonl", tmp_path / "cands.jsonl"
    for path, lines in zip(paths, (problems, candidates)):
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return ["eval", "--problems", str(paths[0]), "--candidates", str(paths[1]),
            "--out", str(tmp_path / "report.json")]


# a refused value reads "<field> in line <n> of <file> must be <kind>, got <value>"
@pytest.mark.parametrize("problems, candidates, message", [
    ([problem_line(numbers=[3, 4], choices=[5, 6, 7, 8])],
     [candidates_line("gougu_add N_0 N_1")],
     "candidates in line 1 of cands.jsonl must be a list of strings, "
     "got 'gougu_add N_0 N_1'"),
    ([problem_line(numbers="34", choices=[5, 6, 7, 8])],
     [candidates_line(["gougu_add N_0 N_1"])],
     "numbers in line 1 of problems.jsonl must be a list of numbers, got '34'"),
    ([problem_line(numbers=[3, 4], choices="5678")],
     [candidates_line(["gougu_add N_0 N_1"])],
     "choices in line 1 of problems.jsonl must be null or a list of numbers, "
     "got '5678'"),
    ([problem_line(numbers=[3, 4], question_tokens="45")],
     [candidates_line(["gougu_add N_0 N_1"])],
     "question_tokens in line 1 of problems.jsonl must be a list of integers, "
     "got '45'"),
    ([problem_line(numbers=[{}])], [candidates_line([])],
     "numbers in line 1 of problems.jsonl must be a list of numbers, got [{}]"),
    ([problem_line(answer=None)], [candidates_line([])],
     "answer in line 1 of problems.jsonl must be a number, got None"),
    ([problem_line(numbers=[3, 4])], [candidates_line([["gougu_add"]])],
     "candidates in line 1 of cands.jsonl must be a list of strings, "
     "got [['gougu_add']]"),
    ([problem_line(caption=5)], [candidates_line([])],
     "caption in line 1 of problems.jsonl must be a string, got 5"),
    ([problem_line(numbers=["3.5", 4])], [candidates_line([])],
     "numbers in line 1 of problems.jsonl must be a list of numbers, got ['3.5', 4]"),
    ([problem_line(numbers=[3, True])], [candidates_line([])],
     "numbers in line 1 of problems.jsonl must be a list of numbers, got [3, True]"),
    ([problem_line(answer=float("nan"))], [candidates_line([])],
     "answer in line 1 of problems.jsonl must be a number, got nan"),
    ([problem_line(numbers=[float("inf")])], [candidates_line([])],
     "numbers in line 1 of problems.jsonl must be a list of numbers, got [inf]"),
    ([problem_line(numbers=[3, 4]), problem_line(numbers=[3, 4])],
     [candidates_line(["gougu_add N_0 N_1"])],
     "duplicate id 'p0' in line 2 of problems.jsonl"),
    ([problem_line(numbers=[3, 4])],
     [candidates_line(["gougu_add N_0 N_1"], id=7), candidates_line([], id="7")],
     "duplicate id '7' in line 2 of cands.jsonl"),
    ([problem_line(numbers=[3, 4]), problem_line(id="p1")],
     [candidates_line([], id="p1"), candidates_line([], id="q0"),
      candidates_line([], id="q1")],
     "candidates id 'q0' is not in problems.jsonl"),
    ([problem_line(numbers=[3, 4])], [], "no candidates in cands.jsonl"),
], ids=["string-candidates", "string-numbers", "string-choices",
        "string-question_tokens", "object-number", "null-answer", "nested-candidates",
        "int-caption", "string-number", "bool-number", "nan-answer", "inf-number",
        "duplicate-problem", "duplicate-candidates", "unknown-id", "empty-candidates"])
def test_eval_rejects_a_string_for_a_list_field(tmp_path, capsys, problems,
                                               candidates, message):
    err = assert_data_error(capsys, *write_eval_inputs(tmp_path, problems, candidates))
    assert err.replace(f"{tmp_path}/", "") == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cands.jsonl",
                                                          "problems.jsonl"]


def test_eval_scores_list_fields(tmp_path, capsys):
    code, payload = run_cli(capsys, *write_eval_inputs(
        tmp_path, [problem_line(numbers=[3, 4], choices=[5, 6, 7, 8])],
        [candidates_line(["gougu_add N_0 N_1"])]))
    assert code == 0
    assert payload["top1"] == 1.0 and payload["choice"] == 1.0


def test_eval_scores_an_oversized_index_as_failed(tmp_path, capsys):
    # int() refuses more than 4300 digits: one such candidate must not end eval
    argv = write_eval_inputs(
        tmp_path, [problem_line(numbers=[3, 4], choices=[5, 6, 7, 8])],
        [candidates_line(["g_equal N_" + "9" * 5000])])
    code, payload = run_cli(capsys, *argv)
    assert code == 0 and payload["top1"] == 0.0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["rows"][0]["first_executed_rank"] is None


def test_eval_writes_the_pinned_bytes(tmp_path, capsys, monkeypatch):
    # texts recur across problems and within beams, and every 25th problem
    # has no candidates line; relative paths keep the summary's "out" fixed
    monkeypatch.chdir(tmp_path)
    assert dispatch(["gen-data", "--n", "300", "--seed", "5", "--out", "data"]) == 0
    problems = solver.load_problems("data/problems.jsonl")
    beams = shared_pool_beams(problems, seed=5)
    eh.save_candidates([(rec.id, beams[rec.id]) for k, rec in enumerate(problems)
                        if k % 25 != 7], "cands.jsonl")
    capsys.readouterr()
    assert dispatch(["eval", "--problems", "data/problems.jsonl",
                     "--candidates", "cands.jsonl", "--out", "report.json"]) == 0
    summary = capsys.readouterr().out.encode()
    assert hashlib.sha256(summary).hexdigest() == (
        "453eb0f93a18cd3fbd2d654597e0f80e81bac57991ee2ded59b7a7f0184126a1")
    report = (tmp_path / "report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == (
        "58efe5342371bff5c023148ccf7fe5b466356f0c480f566f688c70f7e43b3d22")


def test_eval_summary_holds_the_report_metrics(tmp_path, capsys):
    # correct at rank 0; correct at rank 2 after a wrong option at rank 1;
    # nothing executes; no candidates line
    problems = [problem_line(id=f"p{i}", numbers=[3, 4], choices=[5, 6, 7, 8])
                for i in range(4)]
    code, payload = run_cli(capsys, *write_eval_inputs(tmp_path, problems, [
        candidates_line(["gougu_add N_0 N_1"], id="p0"),
        candidates_line(["nosuch", "g_add N_0 N_1", "gougu_add N_0 N_1"], id="p1"),
        candidates_line(["nosuch"], id="p2"),
    ]))
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(payload) == {"n_problems", "out", *eh.METRICS}
    assert {name: payload[name] for name in eh.METRICS} == report["metrics"] == {
        "top1": 0.25, "top3": 0.5, "top10": 0.5, "choice": 0.25,
        "adjusted_top1": 0.375}
    assert payload["n_problems"] == report["n_problems"] == 4
    assert payload["out"] == str(tmp_path / "report.json")


@pytest.mark.parametrize("flag, value", [
    ("--tol-abs", "nan"), ("--tol-abs", "inf"), ("--tol-rel", "nan"),
    ("--tol-rel", "inf"),
])
def test_eval_rejects_a_non_finite_tolerance(tmp_path, capsys, flag, value):
    # at nan the gold program would score wrong, at inf any program right
    argv = write_eval_inputs(tmp_path, [problem_line(numbers=[3, 4])],
                             [candidates_line(["gougu_add N_0 N_1"])])
    err = assert_data_error(capsys, *argv, flag, value)
    assert "tolerance needs finite abs >= 0 and rel >= 0" in err
    assert f" {value}" in err
    assert not (tmp_path / "report.json").exists()


def test_train_rejects_a_problem_of_the_wrong_type(dataset, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    lines = (data / "problems.jsonl").read_text().splitlines()
    lines[2] = json.dumps({**json.loads(lines[2]), "caption": 5})
    (data / "problems.jsonl").write_text("\n".join(lines) + "\n")
    err = assert_data_error(
        capsys, "train-toy", "--stage", "lm", "--data", str(data),
        "--steps", "1", "--out", str(tmp_path / "x"),
    )
    assert "caption in line 3 of " in err and "must be a string, got 5" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_stops_on_a_non_finite_loss(dataset, tmp_path, capsys):
    # lr 1e300 makes the first update overflow, so step 1's loss is NaN
    err = assert_data_error(
        capsys, "train-toy", "--stage", "lm", "--data", str(dataset),
        "--lr", "1e300", "--steps", "3", "--out", str(tmp_path / "x"),
    )
    assert "stage lm: loss is nan at step 1" in err
    log = (tmp_path / "x.log.jsonl").read_text().splitlines()
    assert [json.loads(line)["step"] for line in log] == [0]
    assert "NaN" not in log[0]
    assert not (tmp_path / "x.bin").exists()
    assert not (tmp_path / "x.config.json").exists()


def test_train_on_empty_dataset_is_data_error(tmp_path, capsys):
    data = tmp_path / "empty"
    code, payload = run_cli(capsys, "gen-data", "--n", "0", "--out", str(data))
    assert code == 0 and payload["problems"] == 0
    err = assert_data_error(
        capsys, "train-toy", "--stage", "mae", "--data", str(data),
        "--out", str(tmp_path / "x"),
    )
    assert "no problems" in err


@pytest.mark.parametrize("command", ["eval"])
def test_nonpositive_beam_is_data_error(dataset, tmp_path, capsys, command):
    cands = tmp_path / "c.jsonl"
    cands.write_text("")
    err = assert_data_error(
        capsys, command, "--problems", str(dataset / "problems.jsonl"),
        "--candidates", str(cands), "--beam", "-1",
    )
    assert "beam must be" in err


def test_gen_data_negative_count_is_data_error(tmp_path, capsys):
    err = assert_data_error(capsys, "gen-data", "--n", "-1",
                            "--out", str(tmp_path / "d"))
    assert "n must be >= 0" in err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("n", ["0", "2"])
def test_gen_data_small_image_is_data_error_before_writing(tmp_path, capsys, n):
    err = assert_data_error(capsys, "gen-data", "--n", n, "--seed", "1",
                            "--image-size", "31", "--out", str(tmp_path / "d"))
    assert "image must be at least 32x32" in err
    assert not (tmp_path / "d").exists()


def test_gen_data_into_a_used_directory_with_stale_diagrams_is_data_error(
        tmp_path, capsys):
    out = tmp_path / "d"
    assert run_cli(capsys, "gen-data", "--n", "4", "--seed", "1", "--out", str(out))[0] == 0
    before = {f: f.read_bytes() for f in out.rglob("*") if f.is_file()}
    err = assert_data_error(capsys, "gen-data", "--n", "2", "--seed", "1",
                            "--out", str(out))
    assert "p00002.pgm" in err
    # checked before anything is written, and nothing is deleted
    assert {f: f.read_bytes() for f in out.rglob("*") if f.is_file()} == before
    # the same or a larger run writes every file that is there
    for n in ("4", "5"):
        code, payload = run_cli(capsys, "gen-data", "--n", n, "--seed", "1",
                                "--out", str(out))
        assert code == 0 and payload["problems"] == int(n)
    assert len(list((out / "diagrams").iterdir())) == 5


def test_train_zero_patch_is_data_error(dataset, tmp_path, capsys):
    err = assert_data_error(
        capsys, "train-toy", "--stage", "lm", "--data", str(dataset),
        "--patch", "0", "--out", str(tmp_path / "x"),
    )
    assert "patch must be >= 1" in err
    assert not (tmp_path / "x.log.jsonl").exists()


def test_encoder_ckpt_on_another_stage_is_data_error(dataset, tmp_path, capsys):
    err = assert_data_error(
        capsys, "train-toy", "--stage", "mae", "--data", str(dataset),
        "--encoder-ckpt", str(tmp_path / "nonexistent"), "--steps", "1",
        "--out", str(tmp_path / "x"),
    )
    assert "--encoder-ckpt applies only to --stage sft" in err
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def checkpoints(dataset, tmp_path_factory):
    """Zero-step checkpoints: one per stage at the default config, `wide` an
    align encoder of 12 queries with a sampler at every layer, and `loss` an
    align encoder trained under other loss weights and temperatures."""
    root = tmp_path_factory.mktemp("ckpts")
    configs = {"wide": {"n_queries": 12, "sgs_layers": [1, 2, 3]},
               "loss": {"lam": 0.25, "tau": 0.5, "tau_final": 0.1,
                        "align_weights": [1.0, 2.0, 3.0]}}
    for name, stage in [("lm", "lm"), ("align", "align"), ("sft", "sft"),
                        ("wide", "align"), ("loss", "align")]:
        extra = []
        if name in configs:
            (root / f"{name}.run.json").write_text(
                json.dumps({"schema": 1, "gsformer": configs[name]}))
            extra = ["--config", str(root / f"{name}.run.json")]
        assert dispatch(["train-toy", "--stage", stage, "--data", str(dataset),
                         "--steps", "0", "--out", str(root / name), *extra]) == 0
    return root


@pytest.mark.parametrize("ckpt, message", [
    ("lm", "is of stage 'lm', expected 'align'"),
    ("sft", "is of stage 'sft', expected 'align'"),
    ("wide", "has gsformer.n_queries 12, this run 8"),
])
def test_sft_refuses_an_encoder_checkpoint_of_another_shape(
        dataset, checkpoints, tmp_path, capsys, ckpt, message):
    err = assert_data_error(
        capsys, "train-toy", "--stage", "sft", "--data", str(dataset),
        "--encoder-ckpt", str(checkpoints / ckpt), "--steps", "1",
        "--out", str(tmp_path / "x"),
    )
    assert err == f"error: checkpoint {checkpoints / ckpt} {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_sft_loads_an_encoder_trained_under_other_align_losses(
        dataset, checkpoints, tmp_path, capsys):
    code, payload = run_cli(
        capsys, "train-toy", "--stage", "sft", "--data", str(dataset),
        "--encoder-ckpt", str(checkpoints / "loss"), "--steps", "1",
        "--out", str(tmp_path / "x"),
    )
    assert code == 0 and payload["steps"] == 1


def _append_bytes(prefix, index):
    with open(prefix.with_suffix(".bin"), "ab") as fh:
        fh.write(bytes(8))


def _second_at_first(prefix, index):
    first, second = sorted(index, key=lambda name: index[name]["offset"])[:2]
    index[second]["offset"] = index[first]["offset"]


def _shift_last(prefix, index):
    index[max(index, key=lambda name: index[name]["offset"])]["offset"] += 8
    _append_bytes(prefix, index)


@pytest.mark.parametrize("edit, message", [
    (_append_bytes, "8 trailing bytes after its last parameter"),
    (_second_at_first, "overlaps params["),
    (_shift_last, "leaves bytes"),
], ids=["trailing", "overlap", "gap"])
@pytest.mark.parametrize("ckpt", ["sft", "align"])
def test_checkpoint_bytes_must_tile_the_bin(
        dataset, checkpoints, tmp_path, capsys, ckpt, edit, message):
    """`decode` and `--encoder-ckpt` refuse a sidecar whose byte ranges
    overlap, leave a gap or stop short of the `.bin`'s end."""
    prefix = tmp_path / ckpt
    for suffix in (".bin", ".json", ".config.json"):
        shutil.copy(checkpoints / f"{ckpt}{suffix}", tmp_path / f"{ckpt}{suffix}")
    sidecar = json.loads(prefix.with_suffix(".json").read_text())
    edit(prefix, sidecar["params"])
    prefix.with_suffix(".json").write_text(json.dumps(sidecar))
    if ckpt == "sft":
        argv = ["decode", "--ckpt", str(prefix), "--problems",
                str(dataset / "problems.jsonl"), "--out", str(tmp_path / "cands.jsonl")]
    else:
        argv = ["train-toy", "--stage", "sft", "--data", str(dataset), "--encoder-ckpt",
                str(prefix), "--steps", "1", "--out", str(tmp_path / "x")]
    assert message in assert_data_error(capsys, *argv)
    assert sorted(path.name for path in tmp_path.iterdir()) == \
        sorted(f"{ckpt}{suffix}" for suffix in (".bin", ".json", ".config.json"))


def test_decode_refuses_an_align_checkpoint(dataset, checkpoints, tmp_path, capsys):
    err = assert_data_error(
        capsys, "decode", "--ckpt", str(checkpoints / "align"),
        "--problems", str(dataset / "problems.jsonl"),
        "--out", str(tmp_path / "cands.jsonl"),
    )
    assert err == (f"error: checkpoint {checkpoints / 'align'} is of stage 'align', "
                   "expected 'sft'\n")
    assert not (tmp_path / "cands.jsonl").exists()


@pytest.mark.parametrize("image_size, n_patches", [(32, 16), (40, 25)])
def test_decode_refuses_diagrams_of_another_patch_grid(
        checkpoints, tmp_path, capsys, image_size, n_patches):
    data = tmp_path / "data"
    assert dispatch(["gen-data", "--n", "3", "--seed", "1", "--image-size",
                     str(image_size), "--out", str(data)]) == 0
    capsys.readouterr()
    err = assert_data_error(
        capsys, "decode", "--ckpt", str(checkpoints / "sft"), "--problems", str(data),
        "--out", str(tmp_path / "cands.jsonl"))
    assert err == (f"error: checkpoint {checkpoints / 'sft'} has gsformer.n_patches 64, "
                   f"the dataset's diagrams {n_patches}\n")
    assert not (tmp_path / "cands.jsonl").exists()


def swapped_vocab_copy(dataset, tmp_path) -> tuple[Path, str]:
    """A copy of `dataset` whose vocab.txt swaps the g_add and g_minus lines,
    and the error that refuses it."""
    copy = tmp_path / "swapped"
    shutil.copytree(dataset, copy)
    vocab = copy / "vocab.txt"
    lines = vocab.read_text().splitlines()
    i, j = lines.index("g_add"), lines.index("g_minus")
    lines[i], lines[j] = lines[j], lines[i]
    vocab.write_text("\n".join(lines) + "\n")
    return copy, (f"error: {vocab} line {min(i, j) + 1} is {lines[min(i, j)]!r}, "
                  f"the package vocabulary's is {lines[max(i, j)]!r}\n")


def test_train_refuses_a_vocab_file_that_is_not_the_package_vocabulary(
        dataset, tmp_path, capsys):
    copy, message = swapped_vocab_copy(dataset, tmp_path)
    err = assert_data_error(capsys, "train-toy", "--stage", "sft", "--data", str(copy),
                            "--steps", "1", "--out", str(tmp_path / "sft"))
    assert err == message
    assert not list(tmp_path.glob("sft*"))


def test_decode_refuses_a_vocab_file_that_is_not_the_package_vocabulary(
        dataset, checkpoints, tmp_path, capsys):
    copy, message = swapped_vocab_copy(dataset, tmp_path)
    err = assert_data_error(
        capsys, "decode", "--ckpt", str(checkpoints / "sft"), "--problems", str(copy),
        "--out", str(tmp_path / "cands.jsonl"))
    assert err == message
    assert not (tmp_path / "cands.jsonl").exists()


def test_freeze_encoder_on_another_stage_is_data_error(dataset, tmp_path, capsys):
    err = assert_data_error(
        capsys, "train-toy", "--stage", "lm", "--data", str(dataset),
        "--freeze-encoder", "--steps", "1", "--out", str(tmp_path / "x"),
    )
    assert "--freeze-encoder applies only to --stage sft" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, value, message", [
    ("--max-len", "0", "max_len must be >= 1"),
    ("--max-len", "-3", "max_len must be >= 1"),
])
def test_decode_rejects_bad_flag(dataset, tmp_path, capsys, flag, value, message):
    out = tmp_path / "sft"
    code, _ = run_cli(
        capsys, "train-toy", "--stage", "sft", "--data", str(dataset),
        "--seed", "1", "--out", str(out), "--steps", "0",
    )
    assert code == 0
    err = assert_data_error(
        capsys, "decode", "--ckpt", str(out),
        "--problems", str(dataset / "problems.jsonl"),
        "--out", str(tmp_path / "cands.jsonl"), flag, value,
    )
    assert message in err
    assert not (tmp_path / "cands.jsonl").exists()


def test_gradcheck_without_points_is_data_error(capsys):
    err = assert_data_error(capsys, "gradcheck", "--points", "0")
    assert "points must be" in err


# ---------------------------------------------------------------------------
# train-toy smoke (tiny budgets; the full pipeline runs in acceptance)
# ---------------------------------------------------------------------------

def test_train_mae_smoke(dataset, tmp_path, capsys):
    out = tmp_path / "mae"
    code, payload = run_cli(
        capsys, "train-toy", "--stage", "mae", "--data", str(dataset),
        "--seed", "1", "--out", str(out), "--steps", "3",
    )
    assert code == 0
    assert payload["stage"] == "mae"
    assert out.with_suffix(".bin").exists()
    assert out.with_suffix(".json").exists()
    assert out.with_suffix(".config.json").exists()
    log_lines = out.with_suffix(".log.jsonl").read_text().splitlines()
    assert len(log_lines) == 3


STEP_LOG_KEYS = {
    "mae": {"step", "loss"},
    "lm": {"step", "loss"},
    "align": {"step", "tau", "l_contrast", "l_match", "l_caption", "l_align",
              "l_spr", "l_total", "keep_rates"},
    "sft": {"step", "loss_sum", "loss_mean"},
}
SUMMARY_KEYS = {
    "mae": {"init_loss", "final_loss", "last_batch_loss"},
    "lm": {"final_loss"},
    "align": {"final_loss"},
    "sft": {"final_loss_sum", "final_loss_mean"},
}


@pytest.mark.parametrize("stage", ["mae", "lm", "align", "sft"])
def test_train_stage_summary_and_log_keys(dataset, tmp_path, capsys, stage):
    out = tmp_path / stage
    code, payload = run_cli(
        capsys, "train-toy", "--stage", stage, "--data", str(dataset),
        "--seed", "2", "--out", str(out), "--steps", "2", "--batch", "2",
    )
    assert code == 0
    assert set(payload) == {"stage", "steps", "out", "seed"} | SUMMARY_KEYS[stage]
    assert payload["stage"] == stage and payload["steps"] == 2
    records = [json.loads(line) for line in
               (tmp_path / f"{stage}.log.jsonl").read_text().splitlines()]
    assert [r["step"] for r in records] == [0, 1]
    assert all(set(r) == STEP_LOG_KEYS[stage] for r in records)
    snapshot = json.loads((tmp_path / f"{stage}.config.json").read_text())
    assert snapshot["stage"] == stage and snapshot["seed"] == 2


def test_dotted_prefixes_keep_separate_files(dataset, tmp_path, capsys):
    for seed, prefix in ((1, "ck.v1"), (2, "ck.v2")):
        code, _ = run_cli(
            capsys, "train-toy", "--stage", "lm", "--data", str(dataset),
            "--seed", str(seed), "--out", str(tmp_path / prefix), "--steps", "1",
        )
        assert code == 0
    for suffix in (".bin", ".json", ".config.json", ".log.jsonl"):
        assert (tmp_path / f"ck.v1{suffix}").exists(), suffix
        assert (tmp_path / f"ck.v2{suffix}").exists(), suffix
    assert (tmp_path / "ck.v1.bin").read_bytes() != \
        (tmp_path / "ck.v2.bin").read_bytes()
    assert not (tmp_path / "ck.bin").exists()


def test_train_sft_and_decode_smoke(dataset, tmp_path, capsys):
    out = tmp_path / "sft"
    code, _ = run_cli(
        capsys, "train-toy", "--stage", "sft", "--data", str(dataset),
        "--seed", "1", "--out", str(out), "--steps", "3",
    )
    assert code == 0
    cands = tmp_path / "cands.jsonl"
    code, payload = run_cli(
        capsys, "decode", "--ckpt", str(out),
        "--problems", str(dataset / "problems.jsonl"),
        "--beam", "2", "--max-len", "6", "--out", str(cands),
    )
    assert code == 0
    assert payload["problems"] == 6
    table = read_candidates(cands)
    assert len(table) == 6
    assert all(len(v) <= 2 for v in table.values())


def read_candidates(path) -> dict[str, list[str]]:
    records = [json.loads(line) for line in path.read_text().splitlines()]
    return {rec["id"]: rec["candidates"] for rec in records}


def test_decode_takes_the_patch_size_from_the_checkpoint(tmp_path, capsys):
    # 36 is no multiple of 8: the patch is chosen at training and only there
    data, out, cands = tmp_path / "d36", tmp_path / "sft", tmp_path / "cands.jsonl"
    code, _ = run_cli(capsys, "gen-data", "--n", "2", "--seed", "3",
                      "--image-size", "36", "--out", str(data))
    assert code == 0
    code, _ = run_cli(
        capsys, "train-toy", "--stage", "sft", "--data", str(data), "--seed", "1",
        "--patch", "4", "--steps", "2", "--out", str(out),
    )
    assert code == 0
    snapshot = json.loads(out.with_suffix(".config.json").read_text())
    assert snapshot["gsformer"]["d_in"] == 16
    code, payload = run_cli(
        capsys, "decode", "--ckpt", str(out),
        "--problems", str(data / "problems.jsonl"),
        "--beam", "2", "--max-len", "6", "--out", str(cands),
    )
    assert code == 0 and payload["problems"] == 2
    table = read_candidates(cands)
    assert sorted(table) == ["p00000", "p00001"]
    assert all(table.values())


def test_decode_and_train_refuse_a_malformed_diagram(dataset, tmp_path, capsys):
    out = tmp_path / "sft"
    code, _ = run_cli(
        capsys, "train-toy", "--stage", "sft", "--data", str(dataset),
        "--seed", "1", "--out", str(out), "--steps", "0",
    )
    assert code == 0
    # the first diagram says maxval 0: read as is, it would decode NaN pixels
    bad = tmp_path / "bad"
    shutil.copytree(dataset, bad)
    first = bad / json.loads((bad / "problems.jsonl").read_text().splitlines()[0])["diagram"]
    first.write_bytes(first.read_bytes().replace(b"\n255\n", b"\n0\n", 1))
    err = assert_data_error(
        capsys, "decode", "--ckpt", str(out), "--problems", str(bad),
        "--beam", "2", "--max-len", "4", "--out", str(tmp_path / "cands.jsonl"))
    assert str(first) in err and "maxval must be in 1..255" in err
    assert not (tmp_path / "cands.jsonl").exists()
    err = assert_data_error(
        capsys, "train-toy", "--stage", "align", "--data", str(bad),
        "--seed", "1", "--out", str(tmp_path / "align"), "--steps", "1")
    assert str(first) in err


def test_decode_has_no_patch_flag(dataset, tmp_path, capsys):
    assert dispatch([
        "decode", "--ckpt", str(tmp_path / "sft"),
        "--problems", str(dataset / "problems.jsonl"),
        "--patch", "8", "--out", str(tmp_path / "cands.jsonl"),
    ]) == 1
    assert not (tmp_path / "cands.jsonl").exists()


def test_decode_reads_a_problems_file_next_to_its_diagrams(dataset, tmp_path,
                                                           capsys):
    out = tmp_path / "sft"
    code, _ = run_cli(
        capsys, "train-toy", "--stage", "sft", "--data", str(dataset),
        "--seed", "1", "--out", str(out), "--steps", "0",
    )
    assert code == 0
    # a directory with the diagrams and a problems file, but no problems.jsonl
    subset = tmp_path / "subset"
    shutil.copytree(dataset / "diagrams", subset / "diagrams")
    lines = (dataset / "problems.jsonl").read_text().splitlines()
    (subset / "held_out.jsonl").write_text("\n".join(lines[4:]) + "\n")
    cands = tmp_path / "cands.jsonl"
    code, payload = run_cli(
        capsys, "decode", "--ckpt", str(out),
        "--problems", str(subset / "held_out.jsonl"),
        "--beam", "2", "--max-len", "4", "--out", str(cands),
    )
    assert code == 0 and payload["problems"] == 2
    assert sorted(read_candidates(cands)) == [json.loads(x)["id"] for x in lines[4:]]


@pytest.mark.parametrize("edit, message", [
    (lambda snap: snap["decoder"].update(bogus=1),
     "unknown field 'bogus' in checkpoint snapshot section 'decoder'"),
    (lambda snap: snap.update(decoder=[2, 128]),
     "checkpoint snapshot section 'decoder' must be a JSON object"),
    (lambda snap: snap["decoder"].update(n_vis=8),
     "unknown field 'n_vis' in checkpoint snapshot section 'decoder'"),
    (lambda snap: snap["gsformer"].update(d_in=63),
     "gsformer.d_in 63 is not a square patch size"),
    (lambda snap: snap["decoder"].update(n_layers=0),
     "decoder n_layers and max_len must be >= 1"),
], ids=["decoder-field", "decoder-list", "stale-n_vis", "non-square-d_in",
        "zero-decoder-layers"])
def test_decode_rejects_malformed_checkpoint_snapshot(dataset, tmp_path, capsys,
                                                      edit, message):
    out = tmp_path / "sft"
    code, _ = run_cli(
        capsys, "train-toy", "--stage", "sft", "--data", str(dataset),
        "--seed", "1", "--out", str(out), "--steps", "0",
    )
    assert code == 0
    path = out.with_suffix(".config.json")
    snapshot = json.loads(path.read_text())
    edit(snapshot)
    path.write_text(json.dumps(snapshot))
    err = assert_data_error(
        capsys, "decode", "--ckpt", str(out),
        "--problems", str(dataset / "problems.jsonl"),
        "--out", str(tmp_path / "cands.jsonl"),
    )
    assert message in err
    assert not (tmp_path / "cands.jsonl").exists()


def test_decode_rejects_non_object_checkpoint_sidecar(dataset, tmp_path, capsys):
    out = tmp_path / "sft"
    code, _ = run_cli(
        capsys, "train-toy", "--stage", "sft", "--data", str(dataset),
        "--seed", "1", "--out", str(out), "--steps", "0",
    )
    assert code == 0
    out.with_suffix(".json").write_text("[1]")
    err = assert_data_error(
        capsys, "decode", "--ckpt", str(out),
        "--problems", str(dataset / "problems.jsonl"),
        "--out", str(tmp_path / "cands.jsonl"),
    )
    assert "checkpoint sidecar must be a JSON object, got [1]" in err
    assert not (tmp_path / "cands.jsonl").exists()


def test_train_with_config_file(dataset, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "schema": 1,
        "gsformer": {"n_layers": 2, "sgs_layers": [1], "lam": 0.25,
                     "tau_final": 0.5},
        "stages": {"align": {"steps": 2, "batch": 4}},
    }))
    out = tmp_path / "align"
    code, payload = run_cli(
        capsys, "train-toy", "--stage", "align", "--data", str(dataset),
        "--config", str(config), "--seed", "1", "--out", str(out),
    )
    assert code == 0
    assert payload["steps"] == 2
    snapshot = json.loads(out.with_suffix(".config.json").read_text())
    assert snapshot["gsformer"]["n_layers"] == 2
    assert snapshot["gsformer"]["lam"] == 0.25
    assert snapshot["stages"]["align"]["batch"] == 4
    log_lines = out.with_suffix(".log.jsonl").read_text().splitlines()
    first, last = json.loads(log_lines[0]), json.loads(log_lines[-1])
    assert first["tau"] == 1.0
    assert last["tau"] == 0.5
    assert "keep_rates" in first


def test_checkpoint_snapshot_loads_as_config(dataset, tmp_path, capsys):
    runs = []
    for name, config in (("first", None), ("again", tmp_path / "first.config.json")):
        out = tmp_path / name
        code, _ = run_cli(
            capsys, "train-toy", "--stage", "lm", "--data", str(dataset),
            "--seed", "3", "--steps", "2", "--out", str(out),
            *(() if config is None else ("--config", str(config))),
        )
        assert code == 0
        runs.append([out.with_suffix(suffix).read_bytes()
                     for suffix in (".config.json", ".bin")])
    assert runs[0] == runs[1]


def test_train_rejects_bad_config_schema(dataset, tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"schema": 99}))
    code, _ = run_cli(
        capsys, "train-toy", "--stage", "align", "--data", str(dataset),
        "--config", str(config), "--seed", "1",
        "--out", str(tmp_path / "x"),
    )
    assert code == 2


def test_env_seed_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GEOFORMAL_SEED", "123")
    out = tmp_path / "env_data"
    code, payload = run_cli(capsys, "gen-data", "--n", "2", "--out", str(out))
    assert code == 0
    assert payload["seed"] == 123


def test_selftest_stdout_byte_identical():
    cmd = [sys.executable, "-m", "geoformal.cli", "selftest", "--seed", "0"]
    a = subprocess.run(cmd, capture_output=True, env=CHILD_ENV)
    b = subprocess.run(cmd, capture_output=True, env=CHILD_ENV)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_caption_fuzz_replays_under_any_hash_seed():
    # selftest's fuzz, and a failing test case, must replay from the seed in a
    # process whose string hash seed differs
    code = ("import random; from geoformal.selfcheck import random_caption_text; "
            "rng = random.Random(5); print([random_caption_text(rng) for _ in range(20)])")
    outs = {subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                           env=dict(CHILD_ENV, PYTHONHASHSEED=seed)).stdout for seed in "123"}
    assert len(outs) == 1


# ---------------------------------------------------------------------------
# docs: every CLI example in the README parses
# ---------------------------------------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    """argv of every `geoformal ...` line in the README's fenced blocks, with
    `\\` continuations joined and `#` comments dropped."""
    commands, in_block, pending = [], False, ""
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block, pending = not in_block, ""
            continue
        if not in_block:
            continue
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
            continue
        command, pending = pending + line, ""
        if command.startswith("geoformal "):
            commands.append(shlex.split(command, comments=True)[1:])
    return commands


def test_readme_cli_examples_parse():
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {
        "selftest", "gradcheck", "gen-data", "train-toy", "decode", "eval", "solve",
    }
    parser = _build_parser()
    for argv in commands:
        parser.parse_args(argv)
