"""compare_to_published on every reference table, and the flag records and exact values of report.json."""

import json

import pytest

from tailagg import exact_lognormal_pair
from tailagg.tables import OPT, PUBLISHED, SIM, combined_half_width, compare_to_published, reproduce_tables

SIM_TABLES = [t for t, (study, _, _) in PUBLISHED.items() if study == SIM]
OPT_TABLES = [t for t, (study, _, _) in PUBLISHED.items() if study == OPT]


def _rows(table_id):
    return [[float(v) for v in row] for row in PUBLISHED[table_id][2]]


def test_registry_covers_tables_two_to_seven():
    assert SIM_TABLES == [2, 3, 4] and OPT_TABLES == [5, 6, 7]


@pytest.mark.parametrize("table_id", range(1, 8))
def test_published_rows_raise_no_flags(table_id):
    assert compare_to_published(table_id, _rows(table_id)) == []


@pytest.mark.parametrize("table_id", SIM_TABLES)
def test_ratio_past_three_combined_half_widths_is_flagged(table_id):
    pub = PUBLISHED[table_id][2]
    rows = _rows(table_id)
    tol = 3.0 * combined_half_width(rows[0][4], pub[0][4])
    assert tol > 0
    rows[0][3] += tol + 1e-3
    rows[1][3] += 0.9 * 3.0 * combined_half_width(rows[1][4], pub[1][4])  # inside the band
    flags = compare_to_published(table_id, rows)
    assert [(f.table, f.threshold, f.column) for f in flags] == [(table_id, pub[0][0], "ratio")]
    assert (flags[0].ours, flags[0].published, flags[0].tolerance) == (rows[0][3], pub[0][3], tol)


@pytest.mark.parametrize("table_id", OPT_TABLES)
def test_a1_tilde_and_E2_moves_are_flagged(table_id):
    pub = PUBLISHED[table_id][2]
    rows = _rows(table_id)
    rows[0][1] += 0.03
    e2_tol = max(0.5 * pub[1][3], 3e-4)
    rows[1][3] += 1.5 * e2_tol
    rows[2][1] += 0.01  # inside both bounds
    rows[2][3] += 0.5 * max(0.5 * pub[2][3], 3e-4)
    flags = compare_to_published(table_id, rows)
    assert [(f.table, f.threshold, f.column, f.tolerance) for f in flags] == [
        (table_id, pub[0][0], "a1_tilde", 0.02),
        (table_id, pub[1][0], "E2", e2_tol),
    ]


def test_report_flags_keep_their_keys_in_order(tmp_path, monkeypatch):
    study, rho, published = PUBLISHED[1]
    first = published[0]
    moved = ((first[0], 2.0 * first[1], *first[2:]),) + published[1:]
    monkeypatch.setitem(PUBLISHED, 1, (study, rho, moved))
    report = reproduce_tables([1], str(tmp_path))
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk["flags"] == report["flags"]
    assert [list(f) for f in on_disk["flags"]] == [["table", "threshold", "column", "ours", "published", "tolerance"]]
    flag = on_disk["flags"][0]
    assert (flag["table"], flag["threshold"], flag["column"], flag["published"]) == (1, 10.0, "actual", 2.0 * first[1])
    assert not report["table1_ok"]


def test_report_carries_exact_values_and_the_mc_check(tmp_path):
    report = json.loads(json.dumps(reproduce_tables([2, 5], str(tmp_path), budget_scale=0.002, seed=42)))
    sim = report["tables"]["2"]
    assert all(len(r) == 5 for r in sim["rows"])
    assert [e["threshold"] for e in sim["exact"]] == [r[0] for r in sim["rows"]]
    for (x, est, asym, _, hw), e in zip(sim["rows"], sim["exact"]):
        assert e["exact"] == float(exact_lognormal_pair(0.0, 1.0, -0.9, 1.0, 1.0, x))
        assert e["z"] == pytest.approx((est - e["exact"]) / (hw * asym / 1.96), rel=1e-9, abs=0)

    opt = report["tables"]["5"]
    assert all(len(r) == 5 for r in opt["rows"])
    for (x, a1, e1, e2, _), mc in zip(opt["rows"], opt["E2_mc"]):
        assert mc["threshold"] == x and 0.0 <= a1 <= 0.5 and e1 <= e2
        assert mc["z"] == pytest.approx((mc["estimate"] - e2) / mc["std_error"], rel=1e-12, abs=0)
