import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ncdomains
from ncdomains.cli import main
from ncdomains.config import (ConfigError, ExperimentConfig, default_tolerance,
                              parse_word)
from ncdomains.matio import dump_matrix, parse_matrix, read_matrix
from ncdomains.report import VerificationReport, parse_report

from ncdomains.domain import RegularPolynomial
from ncdomains.harness import builtin_polys, random_commuting_pair

from conftest import power_pair_tuple

Z = RegularPolynomial.single_variable([1.0])


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


def write_matrix(path: str, mat: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(dump_matrix(mat))


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
    for raw in ("junk", "-1", "inf", "nan"):
        monkeypatch.setenv("NCDOMAINS_TOL", raw)
        with pytest.raises(ConfigError, match="NCDOMAINS_TOL"):
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


def test_verify_and_battery_check_the_same_polynomials(tmp_path, capsys):
    """``verify`` and ``battery`` check the built-in polynomials by the same names in
    the same order, those of ``harness.builtin_polys``."""
    def polynomial_names(out: str) -> list[str]:
        names = [m.group(1) for c in parse_report(out).checks
                 if (m := re.search(r"(?:norm|eig)_slack_(.+)$", c.name))]
        return list(dict.fromkeys(names))

    assert main(["--config", scalar_config(tmp_path), "verify"]) == 0
    verify = polynomial_names(capsys.readouterr().out)
    assert main(["battery", "--count", "1", "--seed", "0", "--dims", "3"]) == 0
    battery = polynomial_names(capsys.readouterr().out)
    assert verify == battery == [p.name for p in builtin_polys()]


def test_cli_import_loads_no_pool_modules():
    """Importing the CLI loads neither multiprocessing nor concurrent.futures, nor
    ncdomains.parallel: run_battery imports them, the first two only when it forks
    workers, so no other run pays for them."""
    code = ("import sys, ncdomains.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent') "
            "or m == 'ncdomains.parallel'))")
    src = str(Path(ncdomains.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out == "[]\n"


def test_cli_report_rendering(tmp_path, capsys):
    assert main(["battery", "--count", "1", "--seed", "0", "--dims", "3"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "r.txt"
    path.write_text(text)
    assert main(["report", str(path)]) == 0
    table = capsys.readouterr().out
    assert "pass" in table


@pytest.mark.parametrize("name", ["missing.txt", "a_directory", "not_utf8.txt"])
def test_cli_unreadable_report_file_exit_code(tmp_path, capsys, name):
    """A report path that cannot be read exits 2 naming the path, not a
    pipeline_error record."""
    (tmp_path / "a_directory").mkdir()
    (tmp_path / "not_utf8.txt").write_bytes(b"report x\n\xff\n")
    path = str(tmp_path / name)
    assert main(["report", path]) == 2
    captured = capsys.readouterr()
    assert f"error: report file {path!r}: " in captured.err
    assert "pipeline_error" not in captured.out


@pytest.mark.parametrize("bad, fault", [
    ("banner line", "unrecognized report line 'banner line'"),
    ("check c kind=residual value=x tol=1e-08 pass=1", "malformed check line"),
    ("check c kind=residual tol=1e-08 pass=1", "malformed check line"),
    ("check c kind=residual value=0.0 tol=1e-08 pass", "malformed check line"),
])
def test_cli_malformed_report_line_exit_code(tmp_path, capsys, bad, fault):
    """A malformed report line exits 2 naming the file, the line number and the line."""
    path = tmp_path / "r.txt"
    path.write_text(f"report x\nenv N=2\n{bad}\nsummary pass=1 checks=0 failed=0\n")
    assert main(["report", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"error: report file {str(path)!r}: line 3: " in err
    assert fault in err and repr(bad) in err


def test_cli_dilate_variety_without_level(tmp_path, capsys):
    """With N omitted, dilate builds the variety model at the truncation it
    picks: the report equals the one with that N given explicitly."""
    t1 = np.array([[0.3, 0.5], [0.0, -0.2]])
    t2 = 0.5 * t1 + 0.1 * np.eye(2)
    obj = {"f": {"n": 1, "coeffs": {"1": 1.0}}, "g": {"n": 1, "coeffs": {"1": 1.0}},
           "matrices": {"T1": [t1.tolist()], "T2": [t2.tolist()]},
           "variety": {"kind": "minpoly", "roots": [0.3, -0.2]}}
    (tmp_path / "auto.json").write_text(json.dumps(obj))
    assert main(["--config", str(tmp_path / "auto.json"), "dilate"]) == 0
    auto = capsys.readouterr().out
    N = int(parse_report(auto).environment["N"])
    (tmp_path / "given.json").write_text(json.dumps({**obj, "N": N}))
    assert main(["--config", str(tmp_path / "given.json"), "dilate"]) == 0
    assert capsys.readouterr().out == auto


def test_cli_variety_generator_miss_is_one_record_for_every_verb(tmp_path, capsys):
    """T1 misses the minpoly generator by 3e-7: dilate, verify and check-model all
    build the model at the same N and end in the same record."""
    obj = {"f": {"n": 1, "coeffs": {"1": 1.0}}, "g": {"n": 1, "coeffs": {"1": 1.0}}, "N": 40,
           "matrices": {"T1": [[[0.5, 0], [0, 0.200001]]], "T2": [[[0.1, 0], [0, 0.3]]]},
           "variety": {"kind": "minpoly", "roots": [0.5, 0.2]}}
    path = tmp_path / "miss.json"
    path.write_text(json.dumps(obj))
    for verb in ("dilate", "verify", "check-model"):
        assert main(["--config", str(path), verb]) == 1
        rep = parse_report(capsys.readouterr().out)
        assert [c.name for c in rep.checks] == ["pipeline_error"]
        assert rep.environment["error"] == ("tuple does not satisfy a generator "
                                            "(residual 3.000e-07)")


@pytest.mark.parametrize("seed", range(4))
def test_cli_verify_reads_the_variety_model(tmp_path, capsys, seed):
    """verify dilates on the model: each inequality slack is at most the one
    without the model (the dilation is compressed), and the report passes."""
    pair = random_commuting_pair(seed, 3, "upper-triangular-commuting", Z, Z)

    def entries(m):
        return [[[float(x.real), float(x.imag)] for x in row] for row in m]

    roots = np.linalg.eigvals(pair.T1.mats[0])
    obj = {"f": {"n": 1, "coeffs": {"1": 1.0}}, "g": {"n": 1, "coeffs": {"1": 1.0}},
           "matrices": {"T1": [entries(pair.T1.mats[0])], "T2": [entries(pair.T2.mats[0])]}}
    slacks = []
    for variety in (None, {"kind": "minpoly", "roots": [[r.real, r.imag] for r in roots]}):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(obj if variety is None else {**obj, "variety": variety}))
        assert main(["--config", str(path), "verify"]) == 0
        rep = parse_report(capsys.readouterr().out)
        slacks.append({c.name: c.value for c in rep.checks
                       if c.kind == "slack" and not c.name.startswith("dilation_")})
    plain, model = slacks
    assert plain.keys() == model.keys() and plain
    assert plain != model
    for name, value in model.items():
        assert value <= plain[name] + 1e-12, name


def test_cli_bad_config_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"f": {"n": 1, "coeffs": {"": 1.0, "1": 1.0}}}')
    assert main(["--config", str(path), "check-model"]) == 2
    err = capsys.readouterr().err
    assert "regular" in err


@pytest.mark.parametrize("name", ["missing.json", "a_directory", "not_utf8.json"])
def test_cli_unreadable_config_file_exit_code(tmp_path, capsys, name):
    """A config path that cannot be read exits 2 naming the path, not a traceback."""
    (tmp_path / "a_directory").mkdir()
    (tmp_path / "not_utf8.json").write_bytes(b"\xff{}")
    path = str(tmp_path / name)
    assert main(["--config", path, "check-model"]) == 2
    assert f"error: config file {path!r}: " in capsys.readouterr().err


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


def test_cli_oversized_chosen_truncation_is_a_failed_record(tmp_path, capsys):
    """With N omitted, a truncation past the word limit ends as pipeline_error."""
    f, T = power_pair_tuple()
    mats = [[[[float(x.real), float(x.imag)] for x in row] for row in m] for m in T.mats]
    obj = {"f": {"n": 2, "coeffs": {"1": 1.0, "2": 1.0}}, "g": {"n": 1, "coeffs": {"1": 1.0}},
           "matrices": {"T1": mats, "T2": mats[:1]}}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    for verb in ("dilate", "verify"):
        assert main(["--config", str(path), verb]) == 1
        rep = parse_report(capsys.readouterr().out)
        assert [c.name for c in rep.checks] == ["pipeline_error"]
        assert "524287 words" in rep.environment["error"]


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


def test_cli_malformed_env_tol_is_read_only_when_it_sets_the_tolerance(tmp_path, capsys,
                                                                      monkeypatch):
    """NCDOMAINS_TOL applies when neither the file nor --tol gives a tolerance; a
    malformed value is refused (exit 2, naming it) only then."""
    monkeypatch.setenv("NCDOMAINS_TOL", "abc")
    assert main(["--tol", "1e-6", "battery", "--count", "1", "--dims", "2"]) == 0
    assert "error" not in capsys.readouterr().err
    assert main(["--config", scalar_config(tmp_path, tol=1e-6), "check-model"]) == 0
    assert "env tol=1e-06" in capsys.readouterr().out
    assert main(["--config", scalar_config(tmp_path), "check-model"]) == 2
    assert "NCDOMAINS_TOL: expected float" in capsys.readouterr().err


@pytest.mark.parametrize("field, patch", [
    ("N", {"N": "x"}),
    ("tol", {"tol": "tight"}),
    ("seed", {"seed": [1]}),
    ("count", {"count": "many"}),
    ("dims[1]", {"dims": [3, "a"]}),
    ("f.n", {"f": {"n": "one", "coeffs": {"1": 1.0}}}),
    ("f.coeffs['1']", {"f": {"n": 1, "coeffs": {"1": "x"}}}),
    ("variety", {"variety": [1]}),
    ("variety", {"variety": "commutator"}),
    ("variety.generators[0]", {"variety": {"kind": "custom", "generators": [1]}}),
    ("variety.coeffs", {"variety": {"kind": "minpoly", "coeffs": 5}}),
    ("variety.roots", {"variety": {"kind": "minpoly", "roots": 7}}),
    ("dims", {"dims": []}),
    ("kinds[0]", {"kinds": ["bogus"]}),
    ("kinds", {"kinds": "abc"}),
    ("variety.generators[0]", {"variety": {"kind": "custom", "generators": [{"1": [1, None]}]}}),
    ("variety.coeffs", {"variety": {"kind": "minpoly", "coeffs": [[1, "x"], 1]}}),
    ("variety.generators[0]", {"variety": {"kind": "custom", "generators": [{"1,5": 1}]}}),
    ("variety.generators[0]", {"variety": {"kind": "custom", "generators": [{"": 1}]}}),
    ("matrices.T2", {"matrices": {"T1": [[[0, 0.5], [0, 0]]],
                                  "T2": [[[0, 0.25, 0], [0, 0, 0]]]}}),
    ("variety.coeffs", {"variety": {"kind": "minpoly", "coeffs": [1, 0]}}),
    ("matrices.T1", {"matrices": {"T1": [[[0, 0.5], [0, 0]], [[0, 0.5], [0, 0]]]}}),
    ("matrices.T1", {"matrices": {"T1": [[[0, 0.5, 0], [0, 0, 0]]]}}),
    ("matrices.T2", {"matrices": {"T1": [[[0, 0.5], [0, 0]]],
                                  "T2": [[[0, 0.25], [0, 0]], [[0, 0.25], [0, 0]]]}}),
])
def test_cli_malformed_scalar_exit_code(tmp_path, capsys, field, patch):
    rc = main(["--config", scalar_config(tmp_path, **patch), "check-model"])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"error: {field}:" in err


@pytest.mark.parametrize("verb", ["check-model", "dilate", "verify"])
def test_cli_zero_size_matrix_file_exit_code(tmp_path, capsys, verb):
    """A '0 0' matrix file, which parse_matrix reads, for T1 and T2 exits 2 naming
    matrices.T1[0], with no traceback and no pipeline_error."""
    (tmp_path / "empty.txt").write_text("0 0\n")
    mats = {"T1": ["empty.txt"], "T2": ["empty.txt"]}
    assert main(["--config", scalar_config(tmp_path, matrices=mats), verb]) == 2
    captured = capsys.readouterr()
    assert "error: matrices.T1[0]: expected at least one row and one column" in captured.err
    assert "Traceback" not in captured.err and "pipeline_error" not in captured.out


@pytest.mark.parametrize("verb", ["dilate", "verify"])
def test_cli_pair_shape_mismatch_exit_code(tmp_path, capsys, verb):
    """A 2x3 T2 against a 2x2 T1 exits 2 naming matrices.T2, not a pipeline_error."""
    mats = {"T1": [[[0, 0.5], [0, 0]]], "T2": [[[0, 0.25, 0], [0, 0, 0]]]}
    assert main(["--config", scalar_config(tmp_path, matrices=mats), verb]) == 2
    captured = capsys.readouterr()
    assert "error: matrices.T2: expected matrices of the shape of matrices.T1" in captured.err
    assert "pipeline_error" not in captured.out


@pytest.mark.parametrize("key, value, field", [
    ("count", 0, "count"),
    ("count", -1, "count"),
    ("dims", [0], "dims[0]"),
    ("dims", [3, -2], "dims[1]"),
    ("N", -1, "N"),
    ("seed", -1, "seed"),
    ("tol", -1.0, "tol"),
    ("tol", float("inf"), "tol"),
    ("tol", float("nan"), "tol"),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_cli_out_of_range_knob_exit_code(tmp_path, capsys, key, value, field, source):
    """One range rule for flags and config keys: exit 2, naming the field."""
    if source == "config":
        argv = ["--config", scalar_config(tmp_path, **{key: value}), "check-model"]
    else:
        option = "--level" if key == "N" else f"--{key}"
        values = value if isinstance(value, list) else [value]
        argv = ["--config", scalar_config(tmp_path), "check-model", option, *map(str, values)]
        field = option + field[len(key):]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert f"error: {field}: expected" in err


@pytest.mark.parametrize("field, patch", [
    ("count", {"count": 1.9}),
    ("dims[0]", {"dims": [3.7]}),
    ("seed", {"seed": True}),
    ("N", {"N": 5.5}),
    ("f.n", {"f": {"n": 1.5, "coeffs": {"1": 1.0}}}),
    ("g.n", {"g": {"n": True, "coeffs": {"1": 1.0}}}),
])
def test_cli_non_integral_int_value_exit_code(tmp_path, capsys, field, patch):
    """A boolean or a fractional number where an int is expected is rejected, naming the
    field, not truncated by int(v) (count 1.9 would run one pair)."""
    assert main(["--config", scalar_config(tmp_path, **patch), "check-model"]) == 2
    captured = capsys.readouterr()
    assert f"error: {field}: expected int, got " in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("field, patch, token", [
    ("N", {"N": "@"}, "Infinity"),
    ("count", {"count": "@"}, "1e400"),
    ("dims[0]", {"dims": ["@"]}, "Infinity"),
    ("f", {"f": {"n": 1, "coeffs": {"1": "@"}}}, "NaN"),
    ("g", {"g": {"n": 1, "coeffs": {"1": 1.0, "1,1": "@"}}}, "Infinity"),
    ("matrices.T1[0]", {"matrices": {"T1": [[[0, "@"], [0, 0]]]}}, "NaN"),
    ("matrices.T1[0]", {"matrices": {"T1": [[[0, [0.5, "@"]], [0, 0]]]}}, "Infinity"),
    ("variety.roots", {"variety": {"kind": "minpoly", "roots": ["@"]}}, "NaN"),
    ("variety.coeffs", {"variety": {"kind": "minpoly", "coeffs": [1, "@"]}}, "NaN"),
    ("variety.generators[0]", {"variety": {"kind": "custom", "generators": [{"1": "@"}]}},
     "Infinity"),
])
def test_cli_non_finite_config_value_exit_code(tmp_path, capsys, field, patch, token):
    """JSON's NaN, Infinity and overflowing literals (1e400) are config errors: exit 2
    naming the field, not an OverflowError traceback or value=nan checks."""
    path = tmp_path / "cfg.json"  # where scalar_config writes
    scalar_config(tmp_path, **patch)
    path.write_text(path.read_text().replace('"@"', token))
    assert main(["--config", str(path), "check-model"]) == 2
    captured = capsys.readouterr()
    assert f"error: {field}: " in captured.err
    assert captured.out == ""


def test_cli_help_text_is_pinned(monkeypatch, capsys):
    """The parser is generated from config.KNOBS; its help is the hand-written one's."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == HELP


HELP = """\
usage: ncdomains [-h] [--config CONFIG] [--tol TOL] [--seed SEED]
                 [--count COUNT] [--dims DIMS [DIMS ...]] [--level N]
                 [--output {text,table}]
                 {check-model,dilate,verify,battery,report} [args ...]

truncated dilation models on noncommutative polynomial domains

positional arguments:
  {check-model,dilate,verify,battery,report}
  args                  verb arguments (report: a file path)

options:
  -h, --help            show this help message and exit
  --config CONFIG       JSON experiment config
  --tol TOL             check tolerance
  --seed SEED           battery base seed
  --count COUNT         battery pair count
  --dims DIMS [DIMS ...]
                        battery dims
  --level N             Fock truncation level
  --output {text,table}
"""


def test_cli_matrix_from_file(tmp_path, capsys):
    write_matrix(str(tmp_path / "t1.txt"), np.array([[0.0, 0.5], [0.0, 0.0]]))
    obj = {"f": {"n": 1, "coeffs": {"1": 1.0}},
           "matrices": {"T1": ["t1.txt"]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    assert main(["--config", str(path), "check-model"]) == 0


@pytest.mark.parametrize("verb, floor", [("check-model", "1e-09"), ("verify", "1e-06"),
                                         ("battery", "1e-06")])
def test_cli_tolerance_floor_warns(tmp_path, capsys, monkeypatch, verb, floor):
    """A floor that replaces the user's tolerance is named on stderr, with the
    user's value; a tolerance the user did not give is floored silently."""
    monkeypatch.delenv("NCDOMAINS_TOL", raising=False)
    args = ["--config", scalar_config(tmp_path), "--dims", "3", "--count", "1", verb]
    warning = (f"warning: tol=1e-12 is below the floor {floor} of these checks; "
               f"they use tol={floor}")
    main(args)
    assert "warning" not in capsys.readouterr().err
    main(["--tol", "1e-12"] + args)
    assert warning in capsys.readouterr().err
    main(["--tol", "1e-3"] + args)
    assert "warning" not in capsys.readouterr().err
    main(["--config", scalar_config(tmp_path, tol=1e-12), "--dims", "3", "--count", "1", verb])
    assert warning in capsys.readouterr().err
    monkeypatch.setenv("NCDOMAINS_TOL", "1e-12")
    main(args)
    assert warning in capsys.readouterr().err
