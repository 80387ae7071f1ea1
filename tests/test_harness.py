"""Scenario configs, report determinism, sweeps, and the CLI front end."""

import hashlib
import importlib
import json
import math
import pkgutil

import numpy as np
import pytest

import fedmask
from fedmask.cli import EXIT_ASSERTION, EXIT_CONFIG, EXIT_OK, main
from fedmask.harness import (
    ConfigError,
    DEFAULT_ALPHAS,
    ExperimentReport,
    clt_check,
    glyph_eval_set,
    load_scenario,
    masked_global_cell,
    pretrained_glyph_model,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
    write_atomic,
)
from fedmask.models import accuracy
from fedmask.numeric import ParameterError, Rng


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_default_config_valid():
    cfg = scenario_from_dict({})
    assert cfg.kind == "secagg_run"
    assert cfg.alphas == DEFAULT_ALPHAS


def test_unknown_key_rejected_by_name():
    with pytest.raises(ConfigError, match="alphaz"):
        scenario_from_dict({"alphaz": [0.1]})


@pytest.mark.parametrize(
    "data",
    [
        {"kind": "mystery"},
        {"n": 1},
        {"n": 3, "k": 4},
        {"k": 0},
        {"dim": 0},
        {"alpha": 2.0},
        {"alphas": []},
        {"alphas": [0.5, 1.5]},
        {"seeds": []},
        {"strategy": "bribe"},
        {"dropout_after": {"9": 1}},
        {"dropout_after": {"0": 7}},
        {"dropout_after": {"a": 1}},
        {"seeds": 5},
        {"k": 2.5},
        {"seeds": [-1]},
        {"seeds": [2**64]},
        {"kind": "clt_check", "n_mask_seeds": 1},
        {"kind": "fed_training", "n": 3, "aggregator": "nope"},
        {"kind": "fed_training", "n": 200},
        {"n": "3"},
        {"n": True},
        {"client_counts": [0]},
        {"retry_limit": 0},
        {"controlled_ids": [0, 0]},
        {"controlled_ids": [7]},
        {"round_size": -3},
        {"kind": "attack_demo", "strategy": "sybil_mitm", "sybil_count": -1},
        {"kind": "fed_training", "aggregator": "krum", "aggregator_params": {"delta": "x"}},
        {"kind": "fed_training", "aggregator": "trimmed_mean", "aggregator_params": {"bogus": 1}},
        {"kind": "fed_training", "n": 5, "aggregator": "trimmed_mean", "aggregator_params": {"zeta": 0.7}},
        {"kind": "fed_training", "n": 5, "aggregator": "centered_clip", "aggregator_params": {"v0": [0.0]}},
        {"kind": "fed_training", "n": 2, "aggregator": "krum"},
        {"kind": "fed_training", "aggregator": "krum", "aggregator_params": {"delta": math.nan}},
        {"kind": "fed_training", "aggregator": "krum", "aggregator_params": {"delta": -0.5}},
        {"kind": "fed_training", "aggregator": "centered_clip", "aggregator_params": {"tau": math.nan}},
        {"kind": "fed_training", "aggregator": "geometric_median", "aggregator_params": {"tol": math.nan}},
        {"aggregator": "krum", "aggregator_params": {"delta": math.nan}},
        {"kind": "fed_training", "n": 3, "aggregator": "bulyan", "aggregator_params": {"d": 0, "inner": "bogus"}},
    ],
)
def test_bad_config_rejected(data):
    field = list(data)[-1]  # every case's offending field is its last key
    with pytest.raises(ConfigError, match=f"^{field}:"):
        scenario_from_dict(data)


def test_clt_check_needs_two_seeds():
    # the rule the config applies to n_mask_seeds
    with pytest.raises(ParameterError, match="^need at least 2 seeds$"):
        clt_check(3, 0.5, dim=100, n_seeds=1, seed=0)


def test_config_accepts_a_client_that_never_advertises():
    # run_protocol takes round -1 ("never advertises"), so the config does too
    cfg = scenario_from_dict({"n": 3, "k": 2, "dropout_after": {"0": -1}})
    report = run_scenario(cfg)
    assert report.summary["aborts"] == 0
    assert report.summary["max_deviation"] < 2**-20


def test_config_rejects_a_bool_dropout_round():
    with pytest.raises(ConfigError, match="^dropout_after:"):
        scenario_from_dict({"dropout_after": {"0": True}})


def test_config_echo_round_trip():
    cfg = scenario_from_dict(
        {"kind": "attack_demo", "n": 5, "k": 3, "strategy": "share_compromise",
         "controlled_ids": [0, 1, 2], "seeds": [1, 2], "dropout_after": {"1": 2}}
    )
    assert scenario_from_dict(scenario_to_dict(cfg)) == cfg


def test_load_scenario_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_scenario(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_scenario(str(arr))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_report_body_deterministic_and_timestamp_isolated():
    report = ExperimentReport(
        config={"kind": "x"}, columns=("a", "b"), rows=[(1, 2.5)], summary={"s": 1}
    )
    assert report.body_json() == report.body_json()
    j1 = report.to_json(timestamp="2026-01-01T00:00:00")
    j2 = report.to_json(timestamp="2026-02-02T00:00:00")
    assert j1.splitlines()[1] == j2.splitlines()[1]  # bodies identical
    assert j1.splitlines()[0] != j2.splitlines()[0]  # only the header differs


def test_report_csv_schema_header():
    report = ExperimentReport(config={}, columns=("x", "y"), rows=[(1, 0.5)], summary={})
    lines = report.to_csv().splitlines()
    assert lines[0].startswith("# csv_schema=")
    assert lines[1] == "x,y"
    assert lines[2] == "1,0.5"


def test_write_atomic(tmp_path):
    path = tmp_path / "sub" / "out.txt"
    write_atomic(str(path), "hello")
    assert path.read_text() == "hello"
    write_atomic(str(path), "world")
    assert path.read_text() == "world"
    leftovers = [p for p in (tmp_path / "sub").iterdir() if p.name.startswith(".tmp-")]
    assert leftovers == []


# ---------------------------------------------------------------------------
# clt_check
# ---------------------------------------------------------------------------


def test_clt_check_matches_prediction():
    cell = clt_check(100, 0.5, dim=100, n_seeds=30, seed=0)
    assert cell["predicted_std"] == pytest.approx(0.5 / np.sqrt(300))
    assert cell["rel_err"] < 0.10


def test_clt_check_zero_alpha_degenerate():
    cell = clt_check(10, 0.0, dim=10, n_seeds=3, seed=0)
    assert cell["empirical_std"] == 0.0
    assert cell["rel_err"] == 0.0


def test_clt_report_rows():
    cfg = scenario_from_dict(
        {"kind": "clt_check", "client_counts": [10], "alphas": [0.0, 0.5], "dim": 50, "n_mask_seeds": 5}
    )
    report = run_scenario(cfg)
    assert len(report.rows) == 1  # alpha=0 skipped
    assert report.summary["max_rel_err"] >= 0


# ---------------------------------------------------------------------------
# Glyph baseline and sweep cells
# ---------------------------------------------------------------------------


def test_pretrained_glyph_model_accurate_and_cached():
    model = pretrained_glyph_model()
    inputs, labels = glyph_eval_set()
    assert accuracy(model, inputs, labels) >= 0.95
    assert pretrained_glyph_model() == model  # deterministic: same weights on every call


def test_no_module_holds_a_functools_cache():
    # a module-level cache would make a call's cost, and any state it keeps,
    # depend on what ran earlier in the process
    for info in pkgutil.iter_modules(fedmask.__path__):
        module = importlib.import_module(f"fedmask.{info.name}")
        cached = [name for name, value in vars(module).items() if hasattr(value, "cache_info")]
        assert not cached, (info.name, cached)


def test_masked_global_cell_alpha_zero_matches_baseline():
    model = pretrained_glyph_model()
    inputs, labels = glyph_eval_set()
    base = accuracy(model, inputs, labels)
    local, glob = masked_global_cell(model, 10, 0.0, inputs, labels, Rng(0).child("c"))
    assert local == pytest.approx(base)
    assert glob == pytest.approx(base)


def test_alpha_sweep_report_shape():
    cfg = scenario_from_dict(
        {"kind": "alpha_sweep", "client_counts": [10], "alphas": [0.0, 0.5], "seeds": [0]}
    )
    report = run_scenario(cfg)
    assert report.columns == ("n", "alpha", "mean_local_accuracy", "global_accuracy")
    assert len(report.rows) == 2
    assert "tolerance_by_n" in report.summary


def test_attack_battery_success_rate():
    cfg = scenario_from_dict(
        {"kind": "attack_demo", "n": 3, "k": 2, "dim": 4, "strategy": "honest_but_curious", "seeds": [0, 1]}
    )
    report = run_scenario(cfg)
    assert report.summary["success_rate"] == 0.0


def test_secagg_report_zero_deviation_modulo_quantization():
    cfg = scenario_from_dict({"kind": "secagg_run", "n": 3, "k": 2, "dim": 4, "seeds": [0]})
    report = run_scenario(cfg)
    assert report.summary["aborts"] == 0
    assert report.summary["max_deviation"] < 2**-18


def test_aborted_seed_report_is_strict_json():
    # an aborted seed has no deviation: the body holds null, the CSV an empty cell
    cfg = scenario_from_dict({"n": 4, "k": 4, "dropout_after": {"0": 1}, "seeds": [0, 1]})
    report = run_scenario(cfg)

    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")

    body = json.loads(report.body_json(), parse_constant=refuse)
    assert [row[1] for row in body["rows"]] == [True, True]
    assert [row[3] for row in body["rows"]] == [None, None]
    assert [line.split(",")[-1] for line in report.to_csv().splitlines()[2:]] == ["", ""]


def test_report_body_refuses_nan():
    report = ExperimentReport(config={}, columns=("x",), rows=[(math.nan,)], summary={})
    with pytest.raises(ValueError):
        report.body_json()


def test_run_scenario_writes_reports(tmp_path):
    cfg = scenario_from_dict(
        {"kind": "clt_check", "client_counts": [10], "alphas": [0.5], "dim": 20,
         "n_mask_seeds": 3, "output_dir": str(tmp_path)}
    )
    run_scenario(cfg)
    assert (tmp_path / "clt_check-report.json").exists()
    assert (tmp_path / "clt_check-report.csv").exists()
    body = (tmp_path / "clt_check-report.json").read_text().splitlines()[1]
    assert json.loads(body)["schema_version"] == 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_run_ok(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kind": "secagg_run", "n": 3, "k": 2, "dim": 4})
    assert main(["run", "--config", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert "# csv_schema=" in out


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kind": "nope"})
    assert main(["run", "--config", cfg]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_cli_missing_config_file(capsys):
    assert main(["run", "--config", "/nonexistent/cfg.json"]) == EXIT_CONFIG


def test_cli_clt_check_passes(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"kind": "clt_check", "client_counts": [100], "alphas": [0.5], "dim": 100, "n_mask_seeds": 30}
    )
    assert main(["clt-check", "--config", cfg]) == EXIT_OK


def test_cli_record_then_replay(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kind": "secagg_run", "n": 3, "k": 2, "dim": 4})
    transcript = str(tmp_path / "round.jsonl")
    assert main(["record", "--config", cfg, "--transcript", transcript]) == EXIT_OK
    assert main(["replay", "--config", cfg, "--transcript", transcript]) == EXIT_OK
    out = capsys.readouterr().out
    assert "replay ok" in out


def test_cli_replay_detects_tampering(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kind": "secagg_run", "n": 3, "k": 2, "dim": 4})
    transcript = str(tmp_path / "round.jsonl")
    assert main(["record", "--config", cfg, "--transcript", transcript]) == EXIT_OK
    with open(transcript, "a") as fh:
        fh.write("{\"type\": \"Forged\"}\n")
    assert main(["replay", "--config", cfg, "--transcript", transcript]) == EXIT_ASSERTION


def test_cli_seed_override(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kind": "secagg_run", "n": 3, "k": 2, "dim": 4, "seeds": [0, 1, 2]})
    assert main(["run", "--config", cfg, "--seed", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "\n5," in out  # only the overridden seed appears


@pytest.mark.parametrize("command", ["run", "record"])
def test_cli_config_file_not_utf8_exit_code(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff\xfe")
    transcript = str(tmp_path / "round.jsonl")
    args = [command, "--config", str(cfg)] + (["--transcript", transcript] if command == "record" else [])
    assert main(args) == EXIT_CONFIG
    assert "config file: not UTF-8" in capsys.readouterr().err


def test_cli_replay_transcript_not_utf8_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kind": "secagg_run", "n": 3, "k": 2, "dim": 4})
    transcript = tmp_path / "round.jsonl"
    transcript.write_bytes(b"\xff\xfe")
    assert main(["replay", "--config", cfg, "--transcript", str(transcript)]) == EXIT_CONFIG
    assert "can't decode" in capsys.readouterr().err


def test_cli_bad_config_value_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, {"seeds": 5})
    assert main(["run", "--config", cfg]) == EXIT_CONFIG
    assert "seeds:" in capsys.readouterr().err


def test_cli_bad_aggregator_parameter_exit_code(tmp_path, capsys):
    # JSON configs may spell NaN and Infinity; the rule's own range check
    # turns them into a config error instead of a traceback mid-run
    for params in ({"delta": math.nan}, {"delta": math.inf}):
        data = {"kind": "fed_training", "n": 3, "aggregator": "krum", "aggregator_params": params}
        assert main(["run", "--config", write_config(tmp_path, data)]) == EXIT_CONFIG
        assert "aggregator_params: delta must be finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Known answers: report bodies, CSVs, transcripts and CLI stdout, byte for byte
# ---------------------------------------------------------------------------

SECAGG_RUN = {"kind": "secagg_run", "n": 3, "k": 2, "dim": 4, "seeds": [0, 1]}
ATTACK_DEMO = {"kind": "attack_demo", "n": 5, "k": 3, "dim": 4, "strategy": "share_compromise",
               "controlled_ids": [0, 1, 2], "seeds": [0]}
FED_TRAINING = {"kind": "fed_training", "n": 2, "alpha": 0.1, "seeds": [0]}
ALPHA_SWEEP = {"kind": "alpha_sweep", "client_counts": [10], "alphas": [0.0, 0.5], "seeds": [0]}
CLT_CHECK = {"kind": "clt_check", "client_counts": [10], "alphas": [0.5], "dim": 50, "n_mask_seeds": 5}
CLT_CHECK_FAILING = {"client_counts": [3], "alphas": [0.5], "dim": 4, "n_mask_seeds": 2}


def without_kind(data):
    return {k: v for k, v in data.items() if k != "kind"}


@pytest.mark.parametrize(
    "source, data, exit_code, digest",
    [
        # run_scenario report body and CSV (exit code not applicable)
        ("body", SECAGG_RUN, None, "e4d8ed5f7baef0d7"),
        ("csv", SECAGG_RUN, None, "f885839e839b588f"),
        ("body", ATTACK_DEMO, None, "e016db58f1e27f10"),
        ("csv", ATTACK_DEMO, None, "8d5b09e119e99690"),
        ("body", FED_TRAINING, None, "df81940c88a01aef"),
        ("csv", FED_TRAINING, None, "a88cf1f9f3249d01"),
        ("body", ALPHA_SWEEP, None, "34d56c9a836b932d"),
        ("csv", ALPHA_SWEEP, None, "8a1ab8d6b6e6e144"),
        ("body", CLT_CHECK, None, "164c401a02d77d1b"),
        ("csv", CLT_CHECK, None, "afbfcfda052ccf96"),
        # the transcript file `fedmask record` writes
        ("record", {"kind": "secagg_run", "n": 3, "k": 2, "dim": 4}, EXIT_OK, "7d084990199b7c09"),
        # full stdout of a CLI subcommand
        ("sweep", without_kind(ALPHA_SWEEP), EXIT_OK, "89639a167d4e5c3c"),
        ("attack", without_kind(ATTACK_DEMO), EXIT_OK, "2385e51971e8b990"),
        ("clt-check", without_kind(CLT_CHECK), EXIT_OK, "c16a721ada72bfa8"),
        ("clt-check", CLT_CHECK_FAILING, EXIT_ASSERTION, "957d4254572bfbd0"),
        # `run` applies the same pass/fail check as its alias
        ("run", {"kind": "clt_check", **CLT_CHECK_FAILING}, EXIT_ASSERTION, "957d4254572bfbd0"),
    ],
)
def test_known_answer_digests(source, data, exit_code, digest, tmp_path, capsys):
    if source in ("body", "csv"):
        report = run_scenario(scenario_from_dict(data))
        text = report.body_json() if source == "body" else report.to_csv()
    elif source == "record":
        transcript = tmp_path / "round.jsonl"
        argv = ["record", "--config", write_config(tmp_path, data), "--transcript", str(transcript)]
        assert main(argv) == exit_code
        text = transcript.read_text()
    else:
        assert main([source, "--config", write_config(tmp_path, data)]) == exit_code
        text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
