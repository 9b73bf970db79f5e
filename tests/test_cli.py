import json
import subprocess
import sys

import pytest

from geoformal.cli import dispatch


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


def test_gradcheck_passes_quick(capsys):
    code, payload = run_cli(capsys, "gradcheck", "--seed", "1", "--points", "3")
    assert code == 0
    assert payload["ok"] is True


# ---------------------------------------------------------------------------
# gen-data / adjudicate / eval
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

    code, payload = run_cli(
        capsys, "adjudicate", "--problems", str(dataset / "problems.jsonl"),
        "--candidates", str(cands), "--beam", "10",
    )
    assert code == 0
    assert payload["executable_fraction"] == 1.0
    assert all(r["first_correct_rank"] == 0 for r in payload["rows"])

    report_path = tmp_path / "report.json"
    code, payload = run_cli(
        capsys, "eval", "--problems", str(dataset / "problems.jsonl"),
        "--candidates", str(cands), "--beam", "10",
        "--out", str(report_path),
    )
    assert code == 0
    assert payload["top1"] == 1.0
    assert payload["completion"] == 1.0
    assert payload["choice"] == 1.0
    assert report_path.exists()


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
], ids=["stage-field", "decoder-field", "list", "non-object-section"])
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


@pytest.mark.parametrize("command", ["eval", "adjudicate"])
def test_nonpositive_beam_is_data_error(dataset, tmp_path, capsys, command):
    cands = tmp_path / "c.jsonl"
    cands.write_text("")
    err = assert_data_error(
        capsys, command, "--problems", str(dataset / "problems.jsonl"),
        "--candidates", str(cands), "--beam", "-1",
    )
    assert "beam must be" in err


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
    table = {
        json.loads(line)["id"]: json.loads(line)["candidates"]
        for line in cands.read_text().splitlines()
    }
    assert len(table) == 6
    assert all(len(v) <= 2 for v in table.values())


@pytest.mark.parametrize("edit, message", [
    (lambda snap: snap["decoder"].update(bogus=1),
     "unknown field 'bogus' in checkpoint snapshot section 'decoder'"),
    (lambda snap: snap.update(decoder=[2, 128]),
     "checkpoint snapshot section 'decoder' must be a JSON object"),
    (lambda snap: snap["decoder"].update(n_vis=8),
     "unknown field 'n_vis' in checkpoint snapshot section 'decoder'"),
], ids=["decoder-field", "decoder-list", "stale-n_vis"])
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
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
