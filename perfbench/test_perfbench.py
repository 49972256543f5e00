"""Tests of the benchmark itself:  python -m pytest perfbench"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracle import lognormal_pair_exceedance  # noqa: E402


# -- the exact d = 2 oracle ---------------------------------------------------------


@pytest.mark.parametrize(
    "rho, a1, a2, x, want, rel",
    [
        (0.0, 1.0, 1.0, 2000.0, 2.95965e-14, 1e-5),
        (0.9, 1.0, 1.0, 100.0, 3.361e-5, 1e-3),
        (-0.9, 0.26, 0.16, 20.0, 7.73e-6, 1e-3),
    ],
)
def test_oracle_reference_values(rho, a1, a2, x, want, rel):
    assert lognormal_pair_exceedance(0.0, 1.0, rho, a1, a2, x) == pytest.approx(want, rel=rel)


@pytest.mark.parametrize("x", [10.0, 100.0, 1000.0])
def test_oracle_tends_to_countermonotone_closed_form(x):
    from tailagg.rare_event import exact_comonotone_lognormal

    exact = exact_comonotone_lognormal(0.0, x).estimate
    assert lognormal_pair_exceedance(0.0, 1.0, -0.99999, 1.0, 1.0, x) == pytest.approx(exact, rel=1e-5)


def test_oracle_resolves_a_step_next_to_z_star():
    # a narrow step just left of z* that one adaptive quad over the whole range misses
    # (reference: 8M-point trapezoid on [-40, z*])
    got = lognormal_pair_exceedance(0.0, 1.0, -0.9, 0.48, 0.013333333333333345, 5.0)
    assert got == pytest.approx(0.0095633860368, rel=1e-9)


def test_oracle_single_term_is_the_lognormal_tail():
    want = 0.5 * math.erfc(math.log(20.0 / 0.5) / math.sqrt(2.0))
    assert lognormal_pair_exceedance(0.0, 1.0, 0.3, 0.5, 0.0, 20.0) == pytest.approx(want, rel=1e-12)


# -- statistics -----------------------------------------------------------------------


def test_p90_needs_100_samples():
    with pytest.raises(ValueError):
        run.percentile(list(range(99)), 90)
    assert run.percentile(list(range(100)), 90) == pytest.approx(89.1)


def test_p50_needs_20_samples():
    with pytest.raises(ValueError):
        run.percentile(list(range(19)), 50)
    assert run.percentile(list(range(21)), 50) == 10


def test_quartile_spread():
    assert run.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


def test_latency_percentiles_see_every_execution():
    # op 0 is slow in 40 of its 100 executions: p90 and the wall time see it
    raw = [[0.001] * 60 + [0.005] * 40, [0.002] * 100]
    t = run.timings(raw, raw, beyond=10)
    assert t["wall_s"][0] == pytest.approx(0.003)
    assert t["op_ms_p50"][0] == pytest.approx(2.0)
    assert t["op_ms_p90"][0] == pytest.approx(5.0)


def test_timings_use_the_scaled_latencies():
    raw = [[0.002] * 100]
    scaled = [[0.001] * 100]
    t = run.timings(raw, scaled, beyond=10)
    assert t["wall_s"][0] == pytest.approx(0.001)
    assert t["op_ms_p90"][0] == pytest.approx(1.0)


def test_timings_keep_the_p90_rule():
    lat = [[0.001] * 30, [0.002] * 30]
    with pytest.raises(ValueError):
        run.timings(lat, lat, beyond=10)


def test_speed_probe_takes_milliseconds():
    assert 1e-4 < run.speed_probe() < 1.0


# -- spans ----------------------------------------------------------------------------


def _span(sid, name, start, end, parent=None, attrs=None, op=(0, 0)):
    return (sid, name, start, end, parent, op, attrs)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, "cli.op", 0, 100),
        _span(2, "rare_event.map_chunks", 10, 40, 1),
        _span(3, "rare_event.map_chunks", 30, 60, 1),  # overlaps 2, as pool threads do
        _span(4, "kernels.pair", 15, 20, 2),
        _span(5, "kernels.pair", 95, 120, 1),  # runs past its parent: clipped
    ]
    own = tracing.self_times(spans)
    assert own == {1: 100 - 50 - 5, 2: 30 - 5, 3: 30, 4: 5, 5: 25}


def test_layer_metrics_on_a_synthetic_estimate():
    est = {"n": 1000, "se": 1e-3, "estimate": 1e-2, "key": "(7,)"}
    spans = [
        _span(1, "cli.op", 0, 10_000),
        _span(2, "rare_event.cond_mc_terms", 1_000, 9_000, 1, est),
        _span(3, "rare_event.map_chunks", 1_500, 8_500, 2, {"workers": 1, "n": 1000, "ess": 250.0}),
        _span(4, "rare_event.chunk", 2_000, 8_000, 3),
        _span(5, "joint.uniforms", 2_000, 3_000, 4, {"rows": 1000}),
        _span(6, "scipy.ndtri", 3_000, 5_000, 4, {"rows": 1000}),
        _span(7, "kernels.pair", 5_000, 8_000, 4, {"rows": 1000}),
        _span(8, "rare_event.cond_mc_terms", 9_000, 9_500, 1, est, op=(0, 1)),
    ]
    m = tracing.layer_metrics(spans, passes=1, z_max=0.5)
    assert m["joint.uniforms_ns_per_repl"][0] == 1.0
    assert m["rare_event.ndtri_ns_per_repl"][0] == 2.0
    assert m["kernels.pair_ns_per_repl"][0] == 3.0
    # rare_event self: (8000 - 7000) + (7000 - 6000) + (6000 - 6000) + 500 ns over 2000 repl
    assert m["rare_event.self_ns_per_repl"][0] == pytest.approx(2500 / 2000)
    assert m["rare_event.calls"][0] == 2
    assert m["rare_event.shared_seed_share"][0] == 0.5
    assert m["rare_event.ess_per_repl_min"][0] == 0.25
    assert m["rare_event.worker_busy_share"][0] == pytest.approx(6000 / 7000)
    assert m["cli.self_ms_per_op"][0] == pytest.approx((10_000 - 8_500) * 1e-6)


def test_tracer_restores_every_wrapped_name():
    from tailagg import cli, joint, rare_event

    before = (cli.build_parser, rare_event._map_chunks, joint.JointModel.sample, joint.quad)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.build_parser is not before[0]
    finally:
        tracer.uninstall()
    assert (cli.build_parser, rare_event._map_chunks, joint.JointModel.sample, joint.quad) == before


# -- workload inputs --------------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    assert workloads.build(name, 11, "/w", 3) == workloads.build(name, 11, "/w", 3)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_other_seed_other_inputs(name):
    assert workloads.build(name, 11, "/w", 1)[1] != workloads.build(name, 12, "/w", 1)[1]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_no_pass_repeats_an_argv(name):
    seen = set()
    for pass_no in range(20):
        configs, ops = workloads.build(name, 11, "/w", pass_no)
        # the argv with paths reduced to file names: inputs must differ, not only directories
        argvs = {tuple(a.rsplit("/", 1)[-1] for a in op.argv) for op in ops}
        cfgs = {json.dumps(c, sort_keys=True) for c in configs.values()}
        key_sets = [(name, a) for a in argvs]
        if name == "check_grid":
            # check ops take no seed: they differ by the content of their configs
            assert not cfgs & seen, "a config repeats across passes"
            seen |= cfgs
        else:
            assert not set(key_sets) & seen, "an argv repeats across passes"
            seen |= set(key_sets)


def test_oracle_cells_do_not_grow_with_passes():
    cells = [workloads.oracle_inputs(workloads.build("tables_opt", 5, "/w", p)[1]) for p in (1, 2)]
    assert cells[0] == cells[1] and len(cells[0]) == len(workloads.OPT_ROWS) * workloads.OPT_POINTS


def test_ess_collapse_rows_are_audited_not_dropped():
    # the timed rows and the ESS-collapse rows together are all 15 rows of tables 5-7
    rows = set(workloads.OPT_ROWS) | set(workloads.ESS_COLLAPSE_ROWS)
    assert not set(workloads.OPT_ROWS) & set(workloads.ESS_COLLAPSE_ROWS)
    assert rows == {(t, x) for t in (5, 6, 7) for x in workloads.OPT_THRESHOLDS}
    _, timed = workloads.build("tables_opt", 5, "/w", 1)
    _, audits = workloads.build_ess_collapse(5, "/w")
    assert all(op.spec["z_fail"] == workloads.Z_FAIL for op in timed)
    assert [(op.spec["table"], op.spec["x"]) for op in audits] == [(t, float(x)) for t, x in workloads.ESS_COLLAPSE_ROWS]
    # every check but the oracle distance still applies to them
    assert all(op.check == "optimize" and "--n" in op.argv for op in audits)
    assert {op.argv[op.argv.index("--n") + 1] for op in audits} == {str(workloads.OPT_N)}


def test_tables_sim_shares_one_seed_per_table():
    _, ops = workloads.build("tables_sim", 3, "/w", 1)
    seeds = [op.argv[op.argv.index("--seed") + 1] for op in ops]
    assert len(ops) == 3 and len(set(seeds)) == 3


def test_tables_sim_cells_span_two_chunks():
    from tailagg.rare_event import CHUNK
    from tailagg.tables import SIM_BUDGET

    assert SIM_BUDGET * workloads.TABLES_SIM_SCALE > CHUNK
