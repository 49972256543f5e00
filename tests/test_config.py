"""Model, joint and constraint configs: round trips, aliases and strict rejection."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailagg import (
    LinearConstraint,
    bivariate_lognormal,
    comonotone_inverse,
    exponential,
    iid_pair,
    joint_from_config,
    joint_to_config,
    log_weibull,
    log_weibull_min,
    lognormal,
    min_construction,
    mixed_min,
    model_from_config,
    model_to_config,
    std_normal,
    weibull_type,
)
from tailagg.cli import _parse_constraint, main

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=1e-300, max_value=1e300)
ALPHA_ABOVE_1 = st.floats(1.0, 1e3, exclude_min=True)

MODELS = st.one_of(
    st.builds(lognormal, FINITE, POSITIVE, POSITIVE, POSITIVE),
    st.builds(log_weibull, ALPHA_ABOVE_1, POSITIVE, POSITIVE),
    st.builds(log_weibull_min, ALPHA_ABOVE_1, POSITIVE, POSITIVE),
    st.builds(weibull_type, st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), POSITIVE, POSITIVE),
    st.builds(exponential, POSITIVE, POSITIVE, POSITIVE),
    st.builds(std_normal, POSITIVE),
)

JOINTS = st.one_of(
    st.builds(iid_pair, MODELS, st.integers(2, 6)),
    st.builds(bivariate_lognormal, FINITE, POSITIVE, st.floats(-1.0, 1.0, exclude_max=True)),
    st.builds(comonotone_inverse, MODELS),
    st.builds(min_construction, ALPHA_ABOVE_1),
    st.builds(mixed_min, MODELS, MODELS),
)


def _through_json(cfg):
    return json.loads(json.dumps(cfg))


# ---------------------------------------------------------------- round trips


@settings(max_examples=200, deadline=None)
@given(MODELS)
def test_model_config_round_trip(m):
    assert model_from_config(_through_json(model_to_config(m))) == m


@settings(max_examples=200, deadline=None)
@given(JOINTS)
def test_joint_config_round_trip(j):
    assert joint_from_config(_through_json(joint_to_config(j))) == j


@settings(max_examples=200, deadline=None)
@given(l=st.lists(POSITIVE, min_size=1, max_size=5), L=FINITE)
def test_constraint_round_trip(l, L):
    text = "+".join(f"{c!r}*a{i}" for i, c in enumerate(l, start=1)) + f">={L!r}"
    assert _parse_constraint(text) == LinearConstraint(tuple(l), L)


@pytest.mark.parametrize(
    "cfg, model",
    [
        ({"family": "log_normal", "mu": 1.0}, lognormal(1.0, 1.0)),
        ({"family": "LogNormal"}, lognormal(0.0, 1.0)),
        ({"family": "logweibull", "alpha": 3}, log_weibull(3.0)),
        ({"family": "stdnormal", "scale": 2}, std_normal(2.0)),
        ({"family": "exponential", "lambda": 2.0}, exponential(2.0)),
        ({"family": "exponential"}, exponential(1.0)),
    ],
)
def test_model_config_aliases_and_defaults(cfg, model):
    assert model_from_config(cfg) == model


def test_joint_config_accepts_an_integral_float_dim():
    j = joint_from_config({"kind": "iid_pair", "marginal": {"family": "lognormal"}, "dim": 3.0})
    assert j.dim == 3 and isinstance(j.dim, int)


# ---------------------------------------------------------------- malformed configs

LN = {"family": "lognormal", "mu": 0.0, "sigma": 1.0}

# ("model" or "joint", config, text the error must name)
MALFORMED = [
    pytest.param("joint", {"kind": "bivariate_lognormal", "rho": 0.5, "sigm": 2.0}, "sigm", id="bivln-unknown-key"),
    pytest.param("joint", {"kind": "min_construction", "alpha": 2.0, "rho": 0.5}, "rho", id="min-construction-rho"),
    pytest.param("joint", {"kind": "iid_pair", "marginal": LN, "dimm": 3}, "dimm", id="iid-pair-unknown-key"),
    pytest.param("model", {**LN, "alpha": 2.0}, "alpha", id="other-family-key"),
    pytest.param("model", {"family": "std_normal", "power": 2.0}, "power", id="std-normal-power"),
    pytest.param("model", {"family": "std_normal", "bogus": 1.0}, "bogus", id="std-normal-unknown-key"),
    pytest.param("model", {"family": "exponential", "rate": 1.0, "lambda": 2.0}, "lambda", id="rate-and-lambda"),
    pytest.param("model", {**LN, "lambda": 2.0}, "lambda", id="lambda-without-rate-key"),
    pytest.param("model", {"family": "weibull_type"}, "alpha", id="missing-alpha"),
    pytest.param("joint", {"kind": "bivariate_lognormal", "mu": 0.0, "sigma": 1.0}, "rho", id="missing-rho"),
    pytest.param("joint", {"kind": "bivariate_lognormal", "rho": None}, "rho", id="rho-null"),
    pytest.param("joint", {"kind": "bivariate_lognormal", "rho": False}, "rho", id="rho-false"),
    pytest.param("model", {**LN, "mu": "0"}, "mu", id="mu-string"),
    pytest.param("model", {**LN, "mu": float("nan")}, "mu", id="mu-nan"),
    pytest.param("joint", {"kind": "iid_pair", "marginal": LN, "dim": 3.9}, "dim", id="dim-not-integer"),
    pytest.param("joint", {"kind": "iid_pair", "marginal": {**LN, "alpha": 2.0}}, "alpha", id="nested-unknown-key"),
    pytest.param("joint", {"kind": "comonotone_inverse", "marginal": 3}, "marginal", id="nested-not-object"),
    pytest.param("model", 3, "JSON object", id="model-not-object"),
    pytest.param("joint", 3, "JSON object", id="joint-not-object"),
]


@pytest.mark.parametrize("target, cfg, key", MALFORMED)
def test_malformed_config_is_rejected_by_the_api(target, cfg, key):
    parse = model_from_config if target == "model" else joint_from_config
    with pytest.raises(ValueError, match=re.escape(key)):
        parse(cfg)


@pytest.mark.parametrize("target, cfg, key", MALFORMED)
def test_malformed_config_is_rejected_by_the_cli(target, cfg, key, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    if target == "model":
        argv = ["check", "--assumption", "A1", "--model", str(path)]
    else:
        argv = ["approx", "--joint", str(path), "--coeffs", "1,1", "--threshold", "10"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert "Traceback" not in err
