"""Spans around the calls between tailagg's modules, recorded from outside.

`Tracer.install()` replaces module-boundary names (the module attribute a
caller looks up at call time, including names imported into `cli`, `tables`
and `portfolio`) by wrappers that record a span: id, name, start, end, parent
span and op id, plus a few attributes read from arguments or results.  Spans
stay in memory; `uninstall()` restores every original.  Nothing inside
`src/tailagg` changes, and with the tracer not installed no wrapper runs.

Parents follow the calling thread; chunk tasks that `rare_event._map_chunks`
hands to its thread pool get the map span as their explicit parent, so
kernel and sampling spans on pool threads still hang under their estimate.

Calls into scipy (ndtri, quad) get spans of their own layer, `scipy`, so
they leave the self time of the tailagg module that makes them.

A span's self time is its duration minus the part of its interval that its
children cover (children on several threads may overlap; their union counts
once).  Per-layer metrics come from these spans after the run.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import threading
from time import perf_counter_ns

from tailagg import asymptotics, cli, diagnostics, joint, kernels, models, portfolio, rare_event, tables

# span tuple fields
ID, NAME, START, END, PARENT, OP, ATTRS = range(7)

_DIAGNOSTIC_CHECKS = (
    "check_mda_gumbel",
    "check_tail_ratio",
    "check_conditional",
    "check_joint_aux",
    "check_subexp_criterion",
    "check_asy_indep",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None  # id of the CLI op in flight, set by the benchmark loop
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []

    # -- spans -----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, parent=None):
        """Start a span; parent defaults to the innermost open span on this thread."""
        stack = self._stack()
        sid = next(self._ids)
        par = stack[-1] if stack else parent
        stack.append(sid)
        return sid, par, perf_counter_ns()

    def close(self, token, name: str, attrs=None, end=None) -> None:
        end = end or perf_counter_ns()
        sid, par, start = token
        self._stack().pop()
        self.spans.append((sid, name, start, end, par, self.op, attrs))

    # -- wrappers --------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace owner.attr by a spanning wrapper; attrs(args, kwargs, result) -> dict."""
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            token = self.open()
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                self.close(token, name)
                raise
            end = perf_counter_ns()
            self.close(token, name, attrs(args, kwargs, result) if attrs else None, end)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def _wrap_map_chunks(self) -> None:
        orig = rare_event._map_chunks

        def traced_map(fn, n, workers):
            token = self.open()
            map_id = token[0]

            def task(item):
                t = self.open(parent=map_id)
                try:
                    return fn(item)
                finally:
                    self.close(t, "rare_event.chunk")

            parts = None
            try:
                parts = orig(task, n, workers)
                return parts
            finally:
                attrs = {"workers": max(int(workers), 1), "n": n}
                if parts and isinstance(parts[0], tuple):  # (sum, sumsq) from a conditional-MC kernel
                    s = sum(p[0] for p in parts)
                    sq = sum(p[1] for p in parts)
                    attrs["ess"] = s * s / sq if sq > 0 else 0.0
                self.close(token, "rare_event.map_chunks", attrs)

        rare_event._map_chunks = traced_map
        self._undo.append((rare_event, "_map_chunks", orig))

    def install(self) -> None:
        w = self.wrap
        est_attrs = lambda a, k, r: {"n": r.n, "se": r.std_error, "estimate": r.estimate}  # noqa: E731

        # cli
        w(cli, "build_parser", "cli.build_parser")
        # rare_event: estimator entries as imported by their callers, then its internals
        for owner in (cli, tables, portfolio):
            w(owner, "cond_mc_lognormal", "rare_event.cond_mc_lognormal")
        w(cli, "plain_mc", "rare_event.plain_mc",
          lambda a, k, r: {**est_attrs(a, k, r), "key": repr(rare_event._seed_key(a[4]))})
        w(cli, "exact_comonotone_lognormal", "rare_event.exact")
        w(rare_event, "cond_mc_terms", "rare_event.cond_mc_terms",
          lambda a, k, r: {**est_attrs(a, k, r), "key": repr(rare_event._seed_key(a[5]))})
        self._wrap_map_chunks()
        w(rare_event, "ndtri", "scipy.ndtri", lambda a, k, r: {"rows": len(r)})
        # joint: sampling names, then the quadrature
        w(rare_event, "_uniforms", "joint.uniforms", lambda a, k, r: {"rows": len(r)})
        w(joint.JointModel, "sample", "joint.sample", lambda a, k, r: {"rows": len(r)})
        w(joint, "bivariate_normal_orthant_log", "joint.orthant")
        w(joint, "quad", "scipy.quad")
        # kernels
        w(kernels, "pair_chunk", "kernels.pair", lambda a, k, r: {"rows": len(a[0])})
        w(kernels, "equicorr_chunk", "kernels.equicorr", lambda a, k, r: {"rows": a[0].shape[0]})
        # diagnostics (cli looks these up on the module)
        for fn in _DIAGNOSTIC_CHECKS:
            w(diagnostics, fn, "diagnostics.report")
        # asymptotics and models
        w(cli, "approx_linear", "asymptotics.approx")
        w(tables, "approx_sum_pair", "asymptotics.approx")
        w(asymptotics, "approx_sum_pair", "asymptotics.approx")  # cli.cmd_exact imports it at call time
        w(asymptotics, "probe_tail_ratio", "asymptotics.probe")
        w(models.TailModel, "log_survival", "models.log_survival")
        # portfolio
        w(cli, "grid_verify", "portfolio.audit", lambda a, k, r: {"points": len(r.points)})
        w(cli, "solve_two_stage", "portfolio.solve")
        w(cli, "single_asset_extremes", "portfolio.extremes")
        # tables
        w(cli, "reproduce_tables", "tables.reproduce")
        for fn in ("make_table1", "make_sim_table", "make_opt_table"):
            w(tables, fn, "tables.make", lambda a, k, r: {"cells": len(r)})
        w(cli, "write_csv", "tables.write")
        w(tables, "write_csv", "tables.write")
        w(tables, "atomic_write_text", "tables.write", lambda a, k, r: {"bytes": len(a[1].encode())})

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# -- analysis ------------------------------------------------------------------


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals (ns)."""
    children = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = {}
    for s in spans:
        start, end = s[START], s[END]
        covered = 0
        reach = start
        for c0, c1 in sorted(children.get(s[ID], ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[s[ID]] = (end - start) - covered
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _dur(s) -> int:
    return s[END] - s[START]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, passes: int, z_max: float) -> dict:
    """Per-layer metrics -> (value, unit, base) from the spans of `passes` complete passes.

    Counts are per pass of the op list; times are per the unit each name
    states (per replication, call, cell, audit, report, op or written file).
    """
    own = self_times(spans)
    by_id = {s[ID]: s for s in spans}
    by_name = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)
    get = lambda name: by_name.get(name, [])  # noqa: E731

    def total(name):
        return sum(_dur(s) for s in get(name))

    def rows(name):
        return sum(s[ATTRS]["rows"] for s in get(name) if s[ATTRS])

    def self_of_layer(layer):
        return sum(own[s[ID]] for s in spans if layer_of(s[NAME]) == layer)

    def outermost(name):
        # spans of `name` not nested in another span of the same name
        return [s for s in get(name) if s[PARENT] is None or by_id[s[PARENT]][NAME] != name]

    estimates = [s for s in get("rare_event.cond_mc_terms") + get("rare_event.plain_mc") if s[ATTRS]]
    repl = sum(s[ATTRS]["n"] for s in estimates)
    calls = len(estimates)
    chunks = len(get("rare_event.chunk"))
    maps = get("rare_event.map_chunks")
    busy = sum(_dur(s) for s in get("rare_event.chunk"))
    capacity = sum(_dur(s) * s[ATTRS]["workers"] for s in maps if s[ATTRS])
    ess = [s[ATTRS]["ess"] / s[ATTRS]["n"] for s in maps if s[ATTRS] and "ess" in s[ATTRS]]

    # seed keys shared between estimates of one pass: the draws a reuse could save
    keys_per_pass = {}
    for s in estimates:
        keys_per_pass.setdefault(s[OP][0], []).append(s[ATTRS]["key"])
    shared = sum(len(keys) - len(set(keys)) for keys in keys_per_pass.values())

    tvar = []
    for s in estimates:
        a = s[ATTRS]
        if a["estimate"] > 0 and math.isfinite(a["se"]):
            tvar.append(_dur(s) * 1e-9 * (a["se"] / a["estimate"]) ** 2)

    orthants = get("joint.orthant")
    reports = get("diagnostics.report")
    audits = get("portfolio.audit")
    approx = outermost("asymptotics.approx")
    logsf = get("models.log_survival")
    cells = sum(s[ATTRS]["cells"] for s in get("tables.make") if s[ATTRS])
    writes = outermost("tables.write")
    ops = get("cli.op")
    n_ops = len(ops)

    def self_under(spans_, layer):
        # self time of `layer` spans inside the subtrees rooted at spans_
        roots = {s[ID] for s in spans_}
        total_ = 0
        for s in spans:
            if layer_of(s[NAME]) != layer:
                continue
            p = s
            while p is not None:
                if p[ID] in roots:
                    total_ += own[s[ID]]
                    break
                p = by_id.get(p[PARENT])
        return total_

    ms, us = 1e-6, 1e-3  # from ns
    per_pass = lambda v: v / passes if passes else 0.0  # noqa: E731
    m = {
        "joint.uniforms_ns_per_repl": (_ratio(total("joint.uniforms"), rows("joint.uniforms")), "ns", f"{rows('joint.uniforms')} repl"),
        "joint.sample_ns_per_row": (_ratio(total("joint.sample"), rows("joint.sample")), "ns", f"{rows('joint.sample')} rows"),
        "rare_event.ndtri_ns_per_repl": (_ratio(total("scipy.ndtri"), rows("scipy.ndtri")), "ns", f"{rows('scipy.ndtri')} repl"),
        "rare_event.self_ns_per_repl": (_ratio(self_of_layer("rare_event"), repl), "ns", f"{repl} repl"),
        "rare_event.self_us_per_call": (_ratio(self_of_layer("rare_event") * us, calls), "us", f"{calls} calls"),
        "rare_event.calls": (per_pass(calls), "count", f"{passes} passes"),
        "rare_event.chunks": (per_pass(chunks), "count", f"{passes} passes"),
        "rare_event.repl": (per_pass(repl), "count", f"{passes} passes"),
        "rare_event.worker_busy_share": (_ratio(busy, capacity), "share", f"{len(maps)} chunk maps"),
        "kernels.pair_ns_per_repl": (_ratio(total("kernels.pair"), rows("kernels.pair")), "ns", f"{rows('kernels.pair')} repl"),
        "kernels.equicorr_ns_per_repl": (_ratio(total("kernels.equicorr"), rows("kernels.equicorr")), "ns", f"{rows('kernels.equicorr')} repl"),
        "joint.orthant_calls": (per_pass(len(orthants)), "count", f"{passes} passes"),
        "joint.orthant_ms": (_ratio(sum(_dur(s) for s in orthants) * ms, len(orthants)), "ms", f"{len(orthants)} calls"),
        "joint.quad_ms": (_ratio(total("scipy.quad") * ms, len(get("scipy.quad"))), "ms", f"{len(get('scipy.quad'))} calls"),
        "joint.orthant_scan_ms": (_ratio(sum(own[s[ID]] for s in orthants) * ms, len(orthants)), "ms", f"{len(orthants)} calls"),
        "diagnostics.report_ms": (_ratio(sum(_dur(s) for s in reports) * ms, len(reports)), "ms", f"{len(reports)} reports"),
        "diagnostics.self_ms": (_ratio(sum(own[s[ID]] for s in reports) * ms, len(reports)), "ms", f"{len(reports)} reports"),
        "asymptotics.approx_us": (_ratio(sum(_dur(s) for s in approx) * us, len(approx)), "us", f"{len(approx)} calls"),
        "asymptotics.probes": (per_pass(len(get("asymptotics.probe"))), "count", f"{passes} passes"),
        "models.log_survival_calls": (per_pass(len(logsf)), "count", f"{passes} passes"),
        "models.log_survival_us": (_ratio(sum(_dur(s) for s in logsf) * us, len(logsf)), "us", f"{len(logsf)} calls"),
        "portfolio.audit_ms": (_ratio(sum(_dur(s) for s in audits) * ms, len(audits)), "ms", f"{len(audits)} audits"),
        "portfolio.points_per_audit": (_ratio(sum(s[ATTRS]["points"] for s in audits if s[ATTRS]), len(audits)), "count", f"{len(audits)} audits"),
        "portfolio.self_ms_per_audit": (_ratio(self_under(audits, "portfolio") * ms, len(audits)), "ms", f"{len(audits)} audits"),
        "tables.cells": (per_pass(cells), "count", f"{passes} passes"),
        "tables.self_ms_per_cell": (_ratio(self_of_layer("tables") * ms, cells), "ms", f"{cells} cells"),
        "tables.write_ms": (_ratio(sum(_dur(s) for s in writes) * ms, len(writes)), "ms", f"{len(writes)} files"),
        "tables.bytes_written": (per_pass(sum(s[ATTRS]["bytes"] for s in get("tables.write") if s[ATTRS])), "bytes", f"{passes} passes"),
        "cli.self_ms_per_op": (_ratio(self_of_layer("cli") * ms, n_ops), "ms", f"{n_ops} ops"),
        "cli.parser_ms": (_ratio(total("cli.build_parser") * ms, len(get("cli.build_parser"))), "ms", f"{len(get('cli.build_parser'))} calls"),
        "rare_event.shared_seed_share": (_ratio(shared, calls), "share", f"{calls} estimates"),
        "rare_event.ess_per_repl_min": (min(ess) if ess else 0.0, "share", f"{len(ess)} cond-MC estimates"),
        "rare_event.oracle_z_max": (z_max, "sigma", "checked d = 2 estimates"),
        "rare_event.time_x_relvar_s": (statistics.median(tvar) if tvar else 0.0, "s", f"median of {len(tvar)} estimates"),
    }
    return m
