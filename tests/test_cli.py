import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncdomains.cli import main
from ncdomains.config import (ConfigError, ExperimentConfig, default_tolerance,
                              parse_word)
from ncdomains.matio import dump_matrix, parse_matrix, read_matrix, write_matrix
from ncdomains.report import VerificationReport, parse_report


# ---------------------------------------------------------------------------
# matrix text format
# ---------------------------------------------------------------------------

def test_matrix_zero_roundtrip():
    text = dump_matrix(np.zeros((1, 1)))
    assert text == "1 1\n0.0 0.0\n"
    assert parse_matrix(text).shape == (1, 1)


def test_matrix_j2_roundtrip():
    j2 = np.array([[0.0, 1.0], [0.0, 0.0]])
    out = parse_matrix(dump_matrix(j2))
    assert np.array_equal(out, j2)


def test_matrix_nan_rejected():
    with pytest.raises(ValueError):
        parse_matrix("1 1\nnan 0\n")
    with pytest.raises(ValueError):
        dump_matrix(np.array([[np.nan]]))


def test_matrix_count_mismatch():
    with pytest.raises(ValueError):
        parse_matrix("2 2\n0 0\n")


@settings(max_examples=50)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**6))
def test_matrix_roundtrip_bit_exact(rows, cols, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    out = parse_matrix(dump_matrix(m))
    assert np.array_equal(out, m)


def test_matrix_file_io(tmp_path):
    path = str(tmp_path / "m.txt")
    m = np.array([[1.25 + 0.5j, -2.0], [0.0, 3.5j]])
    write_matrix(path, m)
    assert np.array_equal(read_matrix(path), m)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_minimal_config():
    cfg = ExperimentConfig.from_json(
        '{"f": {"n": 1, "coeffs": {"1": 1.0}}, "matrices": {"T1": [[[0]]]}}')
    assert cfg.f.n == 1 and cfg.T1.dim == 1


def test_unknown_field_named():
    with pytest.raises(ConfigError, match="bogus"):
        ExperimentConfig.from_json('{"f": {"n": 1, "coeffs": {"1": 1}}, "bogus": 1}')


def test_constant_term_cited():
    with pytest.raises(ConfigError, match="regular"):
        ExperimentConfig.from_json('{"f": {"n": 1, "coeffs": {"": 1, "1": 1}}}')


def test_json_error_located():
    with pytest.raises(ConfigError, match="line"):
        ExperimentConfig.from_json('{"f": }')


def test_parse_word():
    assert parse_word("") == ()
    assert parse_word("1,2") == (1, 2)
    with pytest.raises(ConfigError):
        parse_word("a,b")


def test_variety_spec_minpoly_coeffs():
    cfg = ExperimentConfig.from_json(
        '{"f": {"n": 1, "coeffs": {"1": 1}}, '
        '"variety": {"kind": "minpoly", "coeffs": [-0.5, 1]}}')
    assert cfg.variety is not None and cfg.variety[0][(1,)] == 1


def test_default_tolerance_env(monkeypatch):
    monkeypatch.delenv("NCDOMAINS_TOL", raising=False)
    assert default_tolerance() == 1e-9
    monkeypatch.setenv("NCDOMAINS_TOL", "1e-7")
    assert default_tolerance() == 1e-7
    monkeypatch.setenv("NCDOMAINS_TOL", "junk")
    with pytest.raises(ConfigError):
        default_tolerance()


# ---------------------------------------------------------------------------
# report format
# ---------------------------------------------------------------------------

def test_report_roundtrip():
    rep = VerificationReport("demo", environment={"N": "4"})
    rep.add_residual("alpha", 1e-12, 1e-9)
    rep.add_slack("beta", -1e-7, 1e-6)
    rep.add_flag("gamma", True)
    back = parse_report(rep.render())
    assert back.name == "demo"
    assert back.environment == {"N": "4"}
    assert [c.line() for c in back.checks] == [c.line() for c in rep.checks]
    assert back.render() == rep.render()


def test_report_verdict():
    rep = VerificationReport("demo")
    rep.add_residual("bad", 1.0, 1e-9)
    assert not rep.passed
    assert "FAIL" in rep.render_table()


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------

def scalar_config(tmp_path, **extra):
    obj = {
        "f": {"n": 1, "coeffs": {"1": 1.0}},
        "g": {"n": 1, "coeffs": {"1": 1.0}},
        "N": 5,
        "matrices": {
            "T1": [[[0, 0.5], [0, 0]]],
            "T2": [[[0, 0.25], [0, 0]]],
        },
    }
    obj.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_cli_check_model(tmp_path, capsys):
    rc = main(["--config", scalar_config(tmp_path), "check-model"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "summary pass=1" in out


def test_cli_dilate_and_verify(tmp_path, capsys):
    assert main(["--config", scalar_config(tmp_path), "dilate"]) == 0
    assert main(["--config", scalar_config(tmp_path), "verify"]) == 0
    out = capsys.readouterr().out
    assert "norm_slack" in out


def test_cli_swap_example_end_to_end(tmp_path, capsys):
    """Scalar zero pair: every residual vanishes within 1e-10."""
    cfg = scalar_config(tmp_path)
    obj = json.loads(open(cfg).read())
    obj["matrices"] = {"T1": [[[0]]], "T2": [[[0]]]}
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(obj))
    rc = main(["--config", str(path), "dilate"])
    out = capsys.readouterr().out
    assert rc == 0
    rep = parse_report(out)
    for c in rep.checks:
        if c.kind == "residual":
            assert c.value <= 1e-10, c.line()


def test_cli_battery_determinism(tmp_path, capsys):
    args = ["battery", "--count", "2", "--seed", "3", "--dims", "3"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "min slack" not in first  # structured lines only
    assert "summary pass=1" in first


def test_cli_report_rendering(tmp_path, capsys):
    assert main(["battery", "--count", "1", "--seed", "0", "--dims", "3"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "r.txt"
    path.write_text(text)
    assert main(["report", str(path)]) == 0
    table = capsys.readouterr().out
    assert "pass" in table


def test_cli_bad_config_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"f": {"n": 1, "coeffs": {"": 1.0, "1": 1.0}}}')
    assert main(["--config", str(path), "check-model"]) == 2
    err = capsys.readouterr().err
    assert "regular" in err


def test_cli_pipeline_error_becomes_failed_record(tmp_path, capsys):
    # T1 outside the domain: the dilate pipeline fails as a report, not a crash
    cfg = scalar_config(tmp_path)
    obj = json.loads(open(cfg).read())
    obj["matrices"]["T1"] = [[[0, 5.0], [0, 0]]]
    path = tmp_path / "outside.json"
    path.write_text(json.dumps(obj))
    rc = main(["--config", str(path), "dilate"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "pipeline_error" in out and "summary pass=0" in out


def test_cli_config_wins_over_flags(tmp_path, capsys):
    cfg = scalar_config(tmp_path, N=4)
    rc = main(["--config", cfg, "--level", "9", "check-model"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "warning: --level 9 ignored, config file sets N=4" in captured.err
    assert "kernel_N=4" in captured.out


def test_cli_config_default_value_still_wins(tmp_path, capsys):
    """A key the file sets wins even when it equals the built-in default."""
    cfg = scalar_config(tmp_path, tol=1e-9)
    rc = main(["--config", cfg, "--tol", "1e-3", "check-model"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "--tol 0.001 ignored" in captured.err and "tol=1e-09" in captured.err
    assert "env tol=1e-09" in captured.out


def test_cli_config_without_tol_uses_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NCDOMAINS_TOL", "1e-7")
    rc = main(["--config", scalar_config(tmp_path), "check-model"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "env tol=1e-07" in captured.out
    assert "warning" not in captured.err


@pytest.mark.parametrize("field, patch", [
    ("N", {"N": "x"}),
    ("tol", {"tol": "tight"}),
    ("seed", {"seed": [1]}),
    ("count", {"count": "many"}),
    ("dims[1]", {"dims": [3, "a"]}),
    ("f.n", {"f": {"n": "one", "coeffs": {"1": 1.0}}}),
    ("f.coeffs['1']", {"f": {"n": 1, "coeffs": {"1": "x"}}}),
])
def test_cli_malformed_scalar_exit_code(tmp_path, capsys, field, patch):
    rc = main(["--config", scalar_config(tmp_path, **patch), "check-model"])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"error: {field}:" in err


def test_cli_matrix_from_file(tmp_path, capsys):
    write_matrix(str(tmp_path / "t1.txt"), np.array([[0.0, 0.5], [0.0, 0.0]]))
    obj = {"f": {"n": 1, "coeffs": {"1": 1.0}},
           "matrices": {"T1": ["t1.txt"]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    assert main(["--config", str(path), "check-model"]) == 0
