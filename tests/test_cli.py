import argparse
import json
import math
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from tailagg import bivariate_lognormal, check_conditional, cond_mc_lognormal, exact_lognormal_pair
from tailagg.cli import _COMMANDS, _parse_count, build_parser, main
from tailagg.tables import make_table1, read_csv_rows


def phibar(z):
    return float(ndtr(-z))


@pytest.fixture()
def bivln_cfg(tmp_path):
    path = tmp_path / "joint.json"
    path.write_text(json.dumps({"kind": "bivariate_lognormal", "mu": 0.0, "sigma": 1.0, "rho": 0.0}))
    return str(path)


@pytest.fixture()
def como_cfg(tmp_path):
    path = tmp_path / "como.json"
    path.write_text(json.dumps({"kind": "comonotone_inverse", "marginal": {"family": "exponential", "rate": 1.0}}))
    return str(path)


def _run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_approx_command(capsys, bivln_cfg):
    rc, payload = _run_json(capsys, ["approx", "--joint", bivln_cfg, "--coeffs", "3,2", "--threshold", "30"])
    assert rc == 0
    assert payload["value"] == pytest.approx(phibar(math.log(10.0)), rel=1e-12)
    assert payload["recipe"]["m_d"] == 3.0 and payload["recipe"]["N_d"] == 1.0
    assert payload["log10_value"] == pytest.approx(math.log10(payload["value"]), rel=1e-12)


def test_exact_command(capsys):
    rc, payload = _run_json(capsys, ["exact", "--threshold", "10"])
    assert rc == 0
    assert round(payload["estimate"], 4) == 0.0219
    assert round(payload["ratio"], 4) == 1.0272


def test_simulate_command_plain(capsys, bivln_cfg):
    rc, payload = _run_json(
        capsys,
        ["simulate", "--joint", bivln_cfg, "--coeffs", "1,1", "--threshold", "10",
         "--n", "1e5", "--seed", "42", "--method", "plain"],
    )
    assert rc == 0
    assert payload["method"] == "plain_mc" and payload["n"] == 100_000
    assert abs(payload["estimate"] - 0.0338) < 5e-3
    assert payload["ratio_vs_asymptotic"]["asymptotic_value"] == pytest.approx(2 * phibar(math.log(10.0)), rel=1e-12)


def test_simulate_command_cond(capsys, bivln_cfg):
    rc, payload = _run_json(
        capsys,
        ["simulate", "--joint", bivln_cfg, "--coeffs", "1,1", "--threshold", "100",
         "--n", "2e5", "--seed", "42"],
    )
    assert rc == 0
    assert payload["method"] == "cond_mc"
    assert payload["ratio_vs_asymptotic"]["ratio"] == pytest.approx(1.0927, abs=0.01)
    assert payload["half_width95"] == pytest.approx(1.96 * payload["std_error"], rel=1e-12)


@pytest.mark.parametrize("method", ["cond", "plain"])
def test_simulate_rejects_a_negative_seed_naming_it(capsys, bivln_cfg, method):
    rc = main(["simulate", "--joint", bivln_cfg, "--coeffs", "1,1", "--threshold", "10", "--n", "1e4",
               "--seed", "-1", "--method", method])
    assert rc == 2
    err = capsys.readouterr().err
    assert "seed key" in err and "got -1" in err


def test_simulate_requires_seed(bivln_cfg):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--joint", bivln_cfg, "--coeffs", "1,1", "--threshold", "10", "--n", "1e4"])
    assert exc.value.code == 2


def test_unknown_flag_rejected(bivln_cfg):
    with pytest.raises(SystemExit) as exc:
        main(["approx", "--joint", bivln_cfg, "--coeffs", "1,1", "--threshold", "10", "--frobnicate", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("text, count", [("1e7", 10**7), ("10000", 10_000), ("1", 1), ("2.5e3", 2500), ("1e15", 10**15)])
def test_parse_count_accepts_whole_counts(text, count):
    assert _parse_count(text) == count and isinstance(_parse_count(text), int)


@pytest.mark.parametrize("text", ["1.5", "0.5", "0", "-3", "1e16", "1.5e15", "nan", "inf", "-inf", "1e4.5"])
def test_parse_count_rejects_other_values(text):
    with pytest.raises((argparse.ArgumentTypeError, ValueError)):
        _parse_count(text)


def test_fractional_count_rejected_on_the_command_line(bivln_cfg):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--joint", bivln_cfg, "--coeffs", "1,1", "--threshold", "10", "--n", "1.5", "--seed", "1"])
    assert exc.value.code == 2


def test_cond_on_countermonotone_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "neg1.json"
    cfg.write_text(json.dumps({"kind": "bivariate_lognormal", "mu": 0.0, "sigma": 1.0, "rho": -1.0}))
    rc = main(["simulate", "--joint", str(cfg), "--coeffs", "1,1", "--threshold", "10", "--n", "1e4", "--seed", "1"])
    assert rc == 2
    assert "exact" in capsys.readouterr().err


def test_check_command_with_csv(capsys, como_cfg, tmp_path):
    csv_path = tmp_path / "a5.csv"
    rc, payload = _run_json(
        capsys,
        ["check", "--joint", como_cfg, "--assumption", "A5", "--L", "2.0",
         "--grid-log", "1:5:9", "--csv", str(csv_path)],
    )
    assert rc == 0
    assert payload["assumption"] == "A5_JointAux"
    assert all(v == 0.0 for v in payload["values"])
    header, rows = read_csv_rows(str(csv_path))
    assert header == ["x", "value"]
    assert len(rows) == 9 and rows[0][0] == 10.0


def test_check_univariate_model(capsys, tmp_path):
    cfg = tmp_path / "lw.json"
    cfg.write_text(json.dumps({"family": "log_weibull", "alpha": 2.0}))
    rc, payload = _run_json(capsys, ["check", "--model", str(cfg), "--assumption", "SUBEXP", "--L", "1.0"])
    assert rc == 0
    assert payload["trend"]["kind"] == "decreasing_to_zero"


def test_optimize_command_with_verify(capsys, bivln_cfg, tmp_path):
    csv_path = tmp_path / "points.csv"
    rc, payload = _run_json(
        capsys,
        ["optimize", "--joint", bivln_cfg, "--constraint", "2*a1+3*a2>=1", "--threshold", "10",
         "--verify", "--grid-step", "0.05", "--n", "2000", "--seed", "7", "--csv", str(csv_path)],
    )
    assert rc == 0
    assert payload["solution"]["a"] == [0.2, 0.2]
    assert payload["solution"]["heuristic"] is True
    audit = payload["audit"]
    assert audit["E1"] <= audit["E2"]
    assert len(audit["single_asset_extremes"]) == 2
    header, rows = read_csv_rows(str(csv_path))
    assert header[:3] == ["a1", "a2", "estimate"]
    assert len(rows) == 11
    # round-trip: CSV floats re-parse bit-identically
    for row, pt_est in zip(rows, [p[2] for p in rows]):
        assert row[2] == pt_est


def test_optimize_verify_audit_is_exact_with_one_mc_check(capsys, bivln_cfg, tmp_path):
    csv_path = tmp_path / "points.csv"
    rc, payload = _run_json(
        capsys,
        ["optimize", "--joint", bivln_cfg, "--constraint", "2*a1+3*a2>=1", "--threshold", "5",
         "--verify", "--grid-step", "0.03", "--n", "1e4", "--seed", "3", "--csv", str(csv_path)],
    )
    assert rc == 0
    audit = payload["audit"]
    assert audit["E2"] == float(exact_lognormal_pair(0.0, 1.0, 0.0, 0.2, 0.2, 5.0))
    mc = audit["E2_mc"]
    want = cond_mc_lognormal(0.0, 1.0, 0.0, [0.2, 0.2], 5.0, 10**4, 3)
    assert (mc["estimate"], mc["std_error"], mc["ess"]) == (want.estimate, want.std_error, want.ess)
    assert mc["z"] == (want.estimate - audit["E2"]) / want.std_error
    header, rows = read_csv_rows(str(csv_path))
    assert header == ["a1", "a2", "estimate", "std_error", "exact", "zero_hits"]
    assert all(r[3] == 0.0 and r[4] == 1.0 for r in rows)
    assert min(r[2] for r in rows) == audit["E1"]


def test_optimize_verify_requires_seed(bivln_cfg):
    rc = main(["optimize", "--joint", bivln_cfg, "--constraint", "2*a1+3*a2>=1", "--threshold", "10", "--verify"])
    assert rc == 2


def test_constraint_parser_errors(bivln_cfg):
    rc = main(["optimize", "--joint", bivln_cfg, "--constraint", "2*a1+3*a2<=1", "--threshold", "10"])
    assert rc == 2


@pytest.mark.parametrize(
    "constraint", ["2*a1+3*a2>=inf", "2*a1+3*a2>=nan", "1e999*a1+3*a2>=1"], ids=["inf_bound", "nan_bound", "inf_coeff"]
)
def test_nonfinite_constraint_is_an_error(bivln_cfg, capsys, constraint):
    rc = main(["optimize", "--joint", bivln_cfg, "--constraint", constraint, "--threshold", "5"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert "numbers must be finite" in err


def test_reproduce_table1_deterministic(tmp_path, capsys):
    out = tmp_path / "tables"
    rc = main(["reproduce-tables", "--which", "1", "--out-dir", str(out)])
    assert rc == 0
    header, rows = read_csv_rows(str(out / "table1.csv"))
    assert header[0] == "threshold"
    expect = make_table1()
    assert len(rows) == 6
    for got, want in zip(rows, expect):
        assert got == tuple(want)  # repr round-trip is bit exact
    report = json.loads((out / "report.json").read_text())
    assert report["table1_ok"] is True and report["flags"] == []


def test_reproduce_stochastic_requires_seed(tmp_path):
    rc = main(["reproduce-tables", "--which", "2", "--out-dir", str(tmp_path)])
    assert rc == 2


def test_reproduce_rejects_a_malformed_seed_before_writing_any_table(tmp_path, capsys):
    rc = main(["reproduce-tables", "--which", "1,2", "--seed", "-1", "--out-dir", str(tmp_path / "d")])
    assert rc == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "d" / "table1.csv").exists()


def test_reproduce_table2_scaled_budget(tmp_path, capsys):
    out = tmp_path / "t2"
    rc = main(["reproduce-tables", "--which", "2", "--budget-scale", "0.002", "--seed", "42", "--out-dir", str(out)])
    capsys.readouterr()
    assert rc == 0
    header, rows = read_csv_rows(str(out / "table2.csv"))
    assert len(rows) == 7
    report = json.loads((out / "report.json").read_text())
    assert report["tables"]["2"]["n"] == 20_000
    # same pipeline at a fraction of the budget: structure intact, estimates
    # positive and decreasing in the threshold (statistical agreement with
    # the published ratios is the acceptance suite's full-budget job)
    ests = np.array([r[1] for r in rows])
    assert np.all(ests > 0.0) and np.all(np.diff(ests) < 0)
    ratios = np.array([r[3] for r in rows])
    assert np.all(np.isfinite(ratios)) and np.all(ratios > 0.0)


def test_bad_grid_spec_is_an_argument_error(como_cfg, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--joint", como_cfg, "--assumption", "A5", "--grid-log", "abc"])
    assert exc.value.code == 2
    assert "lo:hi:count" in capsys.readouterr().err


def test_duplicate_constraint_term_is_an_error(bivln_cfg, capsys):
    rc = main(["optimize", "--joint", bivln_cfg, "--constraint", "2*a1+3*a1>=1", "--threshold", "10"])
    assert rc == 2
    assert "a1 appears twice" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-1", "1.5"])
@pytest.mark.parametrize("command", ["simulate", "optimize", "reproduce-tables"])
def test_workers_below_one_rejected(command, workers, bivln_cfg, tmp_path):
    argv = {
        "simulate": ["simulate", "--joint", bivln_cfg, "--coeffs", "1,1", "--threshold", "10", "--n", "1e3", "--seed", "1"],
        "optimize": ["optimize", "--joint", bivln_cfg, "--constraint", "2*a1+3*a2>=1", "--threshold", "10"],
        "reproduce-tables": ["reproduce-tables", "--which", "1", "--out-dir", str(tmp_path)],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--workers", workers])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
@pytest.mark.parametrize("command", ["approx", "exact", "simulate", "optimize"])
def test_non_finite_threshold_rejected(command, value, bivln_cfg, capsys):
    argv = {
        "approx": ["approx", "--joint", bivln_cfg, "--coeffs", "1,1"],
        "exact": ["exact"],
        "simulate": ["simulate", "--joint", bivln_cfg, "--coeffs", "1,1", "--n", "1e3", "--seed", "1"],
        "optimize": ["optimize", "--joint", bivln_cfg, "--constraint", "2*a1+3*a2>=1"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"--threshold={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "--threshold" in err and "finite" in err


@pytest.mark.parametrize("flag, value", [("--mu", "nan"), ("--mu", "inf")])
def test_non_finite_exact_mu_rejected(flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--threshold", "10", f"{flag}={value}"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "extra",
    [["--coeffs", "1,nan"], ["--coeffs", "inf,1"], ["--coeffs", "1,1", "--c", "1,-inf"], ["--coeffs", "1,1", "--c", "nan,1"]],
)
def test_non_finite_coefficients_rejected(extra, bivln_cfg, capsys):
    rc = main(["approx", "--joint", bivln_cfg, "--threshold", "30"] + extra)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err


def test_non_finite_simulate_coefficients_rejected(bivln_cfg, capsys):
    rc = main(["simulate", "--joint", bivln_cfg, "--coeffs", "1,nan", "--threshold", "10", "--n", "1e3", "--seed", "1"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("spec, plain", [("1e0:5e0:9", "1:5:9"), ("-5e-1:2.5e0:4", "-0.5:2.5:4"), ("1E1:1.2e1:2", "10:12:2")])
def test_grid_spec_accepts_exponent_form(spec, plain, como_cfg, capsys):
    base = ["check", "--joint", como_cfg, "--assumption", "A5"]
    # the = form lets a spec start with a minus sign
    rc, payload = _run_json(capsys, base + [f"--grid-log={spec}"])
    assert rc == 0
    _, want = _run_json(capsys, base + [f"--grid-log={plain}"])
    assert payload["grid"] == want["grid"] and len(payload["grid"]) == int(plain.rsplit(":", 1)[1])


@pytest.mark.parametrize(
    "spec",
    [
        "nan:5:9", "1:inf:9", "-inf:1:3",  # non-finite ends
        "1:5:1", "1:5:0", "1:5:-3",  # fewer than two points
        "1:5:2.5", "1:5", "1:5:9:1", ":5:9",  # malformed
        "1e1:1e5:9", "-400:1:3",  # 10**hi overflows, 10**lo underflows to 0
    ],
)
def test_grid_spec_rejected_at_the_parser(spec, como_cfg, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--joint", como_cfg, "--assumption", "A5", f"--grid-log={spec}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "lo:hi:count" in err


@pytest.mark.parametrize("method", ["cond", "plain"])
def test_simulate_reports_ess_and_relative_error(method, bivln_cfg, capsys):
    rc, payload = _run_json(
        capsys,
        ["simulate", "--joint", bivln_cfg, "--coeffs", "1,1", "--threshold", "10",
         "--n", "2e4", "--seed", "3", "--method", method],
    )
    assert rc == 0
    assert payload["rel_se"] == payload["std_error"] / payload["estimate"]
    assert 0.0 < payload["ess"] <= payload["n"]
    if method == "plain":
        # for 0/1 replication values the ESS is the hit count
        assert payload["ess"] == round(payload["estimate"] * payload["n"])


def test_simulate_fields_without_an_error_are_null(bivln_cfg, capsys):
    # x <= 0 is certain (exact, no ESS); a plain-MC run with no hits has estimate 0
    rc, certain = _run_json(
        capsys, ["simulate", "--joint", bivln_cfg, "--coeffs", "1,1", "--threshold", "-1", "--n", "1e3", "--seed", "1"]
    )
    assert rc == 0 and certain["ess"] is None and certain["rel_se"] == 0.0
    rc, missed = _run_json(
        capsys,
        ["simulate", "--joint", bivln_cfg, "--coeffs", "1,1", "--threshold", "1e6",
         "--n", "1e3", "--seed", "1", "--method", "plain"],
    )
    assert rc == 0 and missed["estimate"] == 0.0 and missed["rel_se"] is None and missed["ess"] == 0.0


def _reject_constant(token):
    raise ValueError(f"not strict JSON: {token}")


@pytest.mark.parametrize("method", ["cond", "plain"])
def test_simulate_at_one_replication_prints_strict_json(method, bivln_cfg, capsys):
    # one replication has no sample variance; NaN would print as a bare NaN token
    rc = main(["simulate", "--joint", bivln_cfg, "--coeffs", "1,1", "--threshold", "30",
               "--n", "1", "--seed", "1", "--method", method])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    errors = (payload["std_error"], payload["half_width95"], payload["ratio_vs_asymptotic"]["half_width"])
    if method == "cond":
        assert errors == (None, None, None) and payload["rel_se"] is None
    else:
        # the binomial error of one 0/1 replication is 0
        assert errors == (0.0, 0.0, 0.0)


def test_negative_exponent_threshold_in_equals_form(bivln_cfg, capsys):
    rc, payload = _run_json(
        capsys, ["simulate", "--joint", bivln_cfg, "--coeffs", "1,1", "--threshold=-1e3", "--n", "1e3", "--seed", "1"]
    )
    assert rc == 0 and payload["estimate"] == 1.0


@pytest.mark.parametrize("value", ["-1e3", "-1E+3", "-.5e1", "-2.5"])
def test_negative_threshold_as_a_separate_token(value, bivln_cfg, capsys):
    rc, payload = _run_json(
        capsys, ["simulate", "--joint", bivln_cfg, "--coeffs", "1,1", "--threshold", value, "--n", "1e3", "--seed", "1"]
    )
    assert rc == 0 and payload["estimate"] == 1.0


@pytest.mark.parametrize("spec", ["-5e-1:2.5:4", "-0.5:2.5:4", "-.5:2.5:4"])
def test_negative_grid_spec_as_a_separate_token(spec, como_cfg, capsys):
    base = ["check", "--joint", como_cfg, "--assumption", "A5"]
    rc, payload = _run_json(capsys, base + ["--grid-log", spec])
    assert rc == 0
    _, want = _run_json(capsys, base + [f"--grid-log={spec}"])
    assert payload == want and len(payload["grid"]) == 4


@pytest.mark.parametrize("extra", [["--threshold", "-x"], ["--threshold", "1", "--bogus"], ["--threshold", "1", "-x"]])
def test_option_like_tokens_still_rejected(extra, bivln_cfg, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--joint", bivln_cfg, "--coeffs", "1,1", "--n", "1e3", "--seed", "1"] + extra)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err



def test_check_mc_route_prints_its_seed_and_values(capsys, tmp_path):
    cfg = tmp_path / "bvln.json"
    cfg.write_text(json.dumps({"kind": "bivariate_lognormal", "mu": 0.0, "sigma": 1.0, "rho": 0.3}))
    rc, payload = _run_json(
        capsys,
        ["check", "--assumption", "A3", "--joint", str(cfg), "--method", "mc", "--mc-n", "1e4",
         "--seed", "3", "--grid-log", "0.5:1:2"],
    )
    assert rc == 0
    want = check_conditional(bivariate_lognormal(0.0, 1.0, 0.3), "A3", 1.0, np.logspace(0.5, 1.0, 2),
                             method="mc", mc_n=10_000, seed=3)
    assert payload["values"] == list(want.values)
    assert payload["method"] == "monte_carlo" and payload["mc"] == {"n": 10_000, "seed": 3}


def test_check_mc_route_requires_seed(capsys, bivln_cfg):
    rc = main(["check", "--assumption", "A5", "--joint", bivln_cfg, "--method", "mc", "--mc-n", "1e4"])
    assert rc == 2
    err = capsys.readouterr()
    assert "pass --seed" in err.err and err.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["--assumption", "ASYINDEP", "--joint", {"kind": "bivariate_lognormal", "mu": 0.0, "sigma": 1.0, "rho": 0.3}],
        ["--assumption", "SUBEXP", "--model", {"family": "lognormal", "mu": 0.0, "sigma": 1.0}],
    ],
)
def test_check_rejects_mc_where_there_is_no_mc_route(argv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(argv[-1]))
    rc = main(["check", *argv[:-1], str(cfg), "--method", "mc", "--mc-n", "1e4", "--seed", "3"])
    assert rc == 2
    err = capsys.readouterr()
    assert err.err.startswith(f"error: {argv[1]} has no Monte Carlo route") and err.out == ""


def test_check_method_closed_form_is_gone(como_cfg):
    # it selected the same exact route as auto
    with pytest.raises(SystemExit) as exc:
        main(["check", "--assumption", "A5", "--joint", como_cfg, "--method", "closed_form"])
    assert exc.value.code == 2


def test_check_default_grid_is_1_5_9(capsys, como_cfg):
    rc, payload = _run_json(capsys, ["check", "--joint", como_cfg, "--assumption", "A5"])
    assert rc == 0 and payload["grid"] == np.logspace(1.0, 5.0, 9).tolist()


@pytest.mark.parametrize(
    "argv",
    [
        ["--assumption", "A3", "--joint", {"kind": "bivariate_lognormal", "mu": 0.0, "sigma": 1.0, "rho": -0.9}],
        ["--assumption", "A4", "--joint", {"kind": "bivariate_lognormal", "mu": 0.0, "sigma": 1.0, "rho": -0.9}],
        ["--assumption", "A5", "--joint", {"kind": "min_construction", "alpha": 2.0}],
        ["--assumption", "SUBEXP", "--model", {"family": "lognormal", "mu": 0.0, "sigma": 1.0}],
    ],
)
def test_check_rejects_levels_where_the_auxiliary_is_not_positive(argv, tmp_path, capsys):
    # f(x) <= 0 for a lognormal at x <= e^mu (and log-Weibull at x <= 1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(argv[-1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["check", *argv[:-1], str(cfg), "--grid-log", "-0.5:3:8"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "x = 0.31622776601683794" in err


def test_simulate_with_an_underflowing_approximation_prints_a_null_ratio(tmp_path, capsys):
    cfg = tmp_path / "rho03.json"
    cfg.write_text(json.dumps({"kind": "bivariate_lognormal", "mu": 0.0, "sigma": 1.0, "rho": 0.3}))
    argv = ["simulate", "--joint", str(cfg), "--coeffs", "1,1", "--threshold", "1e200", "--n", "1e3", "--seed", "1"]
    rc, payload = _run_json(capsys, argv)
    assert rc == 0
    assert payload["ratio_vs_asymptotic"] is None
    assert payload["estimate"] == 0.0 and payload["n"] == 1000 and payload["method"] == "cond_mc"


# ---------------------------------------------------------------- one-command parser

# a representative argv per subcommand, with a negative-number token where one fits;
# its first option is a required one, except for exact, whose --mu comes first
_ARGV = {
    "approx": ["--joint", "j.json", "--coeffs", "3,2", "--threshold", "-1e3", "--c", "1,1"],
    "exact": ["--mu", "-.5", "--threshold", "30"],
    "simulate": ["--joint", "j.json", "--coeffs", "1,1", "--threshold", "20", "--n", "1e4", "--seed", "7",
                 "--method", "plain", "--workers", "2"],
    "check": ["--assumption", "A5", "--joint", "j.json", "--L", "2", "--grid-log", "-5e-1:2.5:4", "--method", "mc",
              "--mc-n", "1e3", "--seed", "3", "--csv", "c.csv"],
    "optimize": ["--joint", "j.json", "--constraint", "2*a1+3*a2>=1", "--threshold", "50", "--verify",
                 "--grid-step", "0.05", "--seed", "1"],
    "reproduce-tables": ["--out-dir", "out", "--which", "2,5", "--budget-scale", "0.1", "--seed", "42"],
}


_TOP_USAGE = "usage: tailagg [-h]\n               {approx,exact,simulate,check,optimize,reproduce-tables} ...\n"


def _subparser(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[name]


def _parsed(parser: argparse.ArgumentParser, argv: list) -> dict:
    # the Namespace as a dict; --grid-log parses to an array, compared by its list
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(parser.parse_args(argv)).items()}


def _exit_and_stderr(capsys, parser: argparse.ArgumentParser, argv: list):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    return exc.value.code, capsys.readouterr().err


def test_every_command_has_a_representative_argv():
    assert list(_ARGV) == list(_COMMANDS)


@pytest.mark.parametrize("name", list(_ARGV))
def test_one_command_parser_parses_as_the_full_parser(name):
    argv = [name, *_ARGV[name]]
    assert _parsed(build_parser(name), argv) == _parsed(build_parser(), argv)


@pytest.mark.parametrize("name", list(_ARGV))
def test_one_command_parser_prints_the_full_parsers_help(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    one, full = _subparser(build_parser(name), name), _subparser(build_parser(), name)
    assert one.format_help() == full.format_help()
    assert one.format_help().startswith(f"usage: tailagg {name} [-h]")


@pytest.mark.parametrize(
    "case",
    [
        "unknown option",  # reported by the top level, with its usage
        "unknown option alone",  # reported by the subcommand, which misses its required option
        "missing required option",
    ],
)
@pytest.mark.parametrize("name", list(_ARGV))
def test_one_command_parser_rejects_as_the_full_parser(name, case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = {
        "unknown option": [name, *_ARGV[name], "--bogus", "1"],
        "unknown option alone": [name, "--bogus"],
        "missing required option": [name, *_ARGV[name][2:]] if name != "exact" else [name, "--mu", "1"],
    }[case]
    one, full = _exit_and_stderr(capsys, build_parser(name), argv), _exit_and_stderr(capsys, build_parser(), argv)
    assert one == full
    assert one[0] == 2 and "error: " in one[1]
    if case == "unknown option":
        # the one-command parser's top-level usage still lists every command
        assert one[1] == _TOP_USAGE + "tailagg: error: unrecognized arguments: --bogus 1\n"
    if case == "missing required option":
        required = "--threshold" if name == "exact" else _ARGV[name][0]
        assert one[1].endswith(f"the following arguments are required: {required}\n")


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        ([], 2, "", _TOP_USAGE + "tailagg: error: the following arguments are required: command\n"),
        (["bogus"], 2, "", _TOP_USAGE + "tailagg: error: argument command: invalid choice: 'bogus' (choose from "
                                          "'approx', 'exact', 'simulate', 'check', 'optimize', 'reproduce-tables')\n"),
        (["-h"], 0, _TOP_USAGE + """
Tail probabilities of aggregated rapidly-varying risks: closed-form
approximations, hypothesis diagnostics, rare-event simulation, and minimax
portfolio allocation.

positional arguments:
  {approx,exact,simulate,check,optimize,reproduce-tables}
    approx              closed-form approximation of P(sum a_i X_i > x)
    exact               exact countermonotone lognormal pair probability
    simulate            Monte Carlo estimate with confidence interval
    check               convergence profile for one hypothesis check
    optimize            two-stage allocation with optional grid audit
    reproduce-tables    regenerate reference tables 1..7

options:
  -h, --help            show this help message and exit
""", ""),
    ],
    ids=["no-args", "unknown-command", "help"],
)
def test_main_without_a_known_command_uses_the_full_parser(argv, code, out, err, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    assert capsys.readouterr() == (out, err)
