"""The traced run: spans around each layer's public calls, and the
per-layer metrics computed from them and from the engine's telemetry.

Spans are recorded from outside the program: :meth:`Tracer.install`
replaces the public functions and methods listed in :data:`LAYER_CALLS`
with wrappers that time the original call, and :meth:`Tracer.uninstall`
puts the originals back. Each span is ``(id, parent, request, name,
start, end)``; spans of one benchmark statement share its request id,
and a layer's self time is its span minus its direct children.
"""

import itertools
import json
import threading
import time

from stats import median, tail

from repro.engine import catalog as catalog_mod
from repro.engine import executor as executor_mod
from repro.engine import pipeline as pipeline_mod
from repro.engine import storage as storage_mod
from repro.engine.optimizer import planner as planner_mod
from repro.engine.optimizer.hints import default_arms
from repro.engine.server import admission as admission_mod
from repro.engine.server import server as server_mod
from repro.engine.session import audit as audit_mod
from repro.engine.session import context as context_mod
from repro.engine.session import policy as policy_mod


def _plan_span(args):
    """Planning of a 3+-table join is reported apart: it is what cold
    multi-way planning costs."""
    return "optimizer.join_plan" if len(args[1].tables) >= 3 else "optimizer.plan"


#: (owner, attribute, span name) of every wrapped call. A span name may
#: be a function of the call's arguments.
LAYER_CALLS = (
    (context_mod, "classify", "session.classify"),
    (policy_mod.Policy, "check_statement", "session.policy"),
    (policy_mod.Policy, "check_cost", "session.policy"),
    (policy_mod.Policy, "check_result_rows", "session.policy"),
    (audit_mod.AuditLog, "record", "session.audit"),
    (context_mod, "parse_sql", "sql.parse"),
    (pipeline_mod, "parse_sql", "sql.parse"),
    (pipeline_mod, "lower_select", "sql.lower"),
    (pipeline_mod.QueryPipeline, "run_sql", "pipeline.run_sql"),
    (pipeline_mod.QueryPipeline, "lower_sql", "pipeline.lower_sql"),
    (pipeline_mod.QueryPipeline, "prepare_sql", "pipeline.prepare_sql"),
    (pipeline_mod.QueryPipeline, "execute_prepared", "pipeline.execute_prepared"),
    (planner_mod.Planner, "plan", _plan_span),
    (executor_mod.Executor, "execute", "executor.execute"),
    (storage_mod.Table, "insert_rows", "storage.insert"),
    (storage_mod.Table, "column_array", "storage.column_array"),
    (storage_mod.TableSnapshot, "column_array", "storage.column_array"),
    (catalog_mod.Catalog, "snapshot", "catalog.snapshot"),
    (admission_mod.AdmissionController, "admit", "admission.admit"),
    (admission_mod.AdmissionController, "settle", "admission.settle"),
    (server_mod.Session, "execute", "server.session_execute"),
)


class Tracer:
    """In-memory span recorder; safe to use from several threads."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _traced(self, namer, fn):
        stack_of, ids, spans = self._stack, self._ids, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            name = namer(args) if callable(namer) else namer
            stack = stack_of()
            parent, request = stack[-1] if stack else (None, None)
            span_id = next(ids)
            stack.append((span_id, request))
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((span_id, parent, request, name, t0, t1))
        return traced

    def root(self, name, request_id, fn, *args):
        """Run ``fn(*args)`` as the root span of one benchmark statement."""
        stack = self._stack()
        span_id = next(self._ids)
        stack.append((span_id, request_id))
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, None, request_id, name, t0, t1))

    def install(self):
        for owner, attr, namer in LAYER_CALLS:
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._traced(namer, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def self_times(self):
        """``{name: [self seconds, ...]}`` and ``{request: [(name, self)]}``."""
        child = {}
        for span_id, parent, __, __, t0, t1 in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        by_name, by_request = {}, {}
        for span_id, __, request, name, t0, t1 in self.spans:
            own = (t1 - t0) - child.get(span_id, 0.0)
            by_name.setdefault(name, []).append(own)
            by_request.setdefault(request, []).append((name, own))
        return by_name, by_request


#: Operator classes reported one by one (the ones these workloads run).
OPERATORS = ("SeqScan", "IndexScan", "HashJoin", "HashAggregate",
             "FusedPipelineOp", "Project", "Filter", "Sort")

#: Unit of every per-layer metric.
LAYER_UNITS = dict(
    [("session.classify_us", "us"), ("session.policy_us", "us"),
     ("session.audit_us", "us"), ("session.audit_records", "count"),
     ("sql.parse_us", "us"), ("sql.lower_us", "us"),
     ("pipeline.query_cache_hit_ratio", "ratio"),
     ("pipeline.plan_cache_hit_ratio", "ratio"),
     ("pipeline.plan_invalidations_per_kop", "1/kop"),
     ("pipeline.front_us", "us"),
     ("optimizer.plan_us", "us"), ("optimizer.join_plan_ms", "ms"),
     ("optimizer.q_error_p50", "ratio"), ("optimizer.p_error_p50", "ratio"),
     ("optimizer.p_error_max", "ratio"),
     ("executor.execute_us", "us"),
     ("executor.rows_examined_per_row", "ratio")]
    + [("operators.%s.self_ms" % op, "ms") for op in OPERATORS]
    + [("fusion.fused_frac", "ratio"), ("segments.pruned_frac", "ratio"),
       ("segments.bytes_decoded_per_op", "B"), ("storage.insert_us", "us"),
       ("storage.read_after_write_us", "us"),
       ("storage.encoded_bytes_per_row", "B"),
       ("catalog.snapshot_pin_us", "us"),
       ("catalog.version_bumps_per_kop", "1/kop"),
       ("admission.wait_p50_ms", "ms"), ("admission.wait_tail_ms", "ms"),
       ("admission.queued_frac", "ratio"),
       ("admission.est_over_actual", "ratio"),
       ("server.commit_us", "us"), ("server.commit_log_len", "count"),
       ("server.rollup_summary_ms", "ms"),
       ("trace.overhead_read_p50_us", "us"),
       ("trace.overhead_write_p50_us", "us"),
       ("trace.overhead_analytic_p50_ms", "ms"), ("trace.spans", "count")])

#: Per-layer metric -> (end-to-end metric it should move, workloads it
#: should move it on, workloads predicted unchanged).
PREDICTIONS = {
    "session": ("read_p50_us, write_p50_us, peak_rss_mb", "oltp_rw",
                "star_olap, served_mix"),
    "sql": ("read_p50_us", "oltp_rw", "star_olap"),
    "pipeline": ("read_p50_us", "oltp_rw", "star_olap"),
    "optimizer": ("analytic_p50_ms, work_per_op", "star_olap",
                  "served_mix read path"),
    "executor": ("analytic_p50_ms, analytic_tail_ms", "star_olap",
                 "oltp_rw reads"),
    "operators": ("analytic_p50_ms, analytic_tail_ms", "star_olap",
                  "oltp_rw reads"),
    "fusion": ("analytic_p50_ms, analytic_tail_ms", "star_olap",
               "oltp_rw reads"),
    "segments": ("read_tail_us, write_p50_us (oltp_rw), analytic_p50_ms "
                 "(star_olap)", "oltp_rw, star_olap",
                 "served_mix admission-bound ops"),
    "storage": ("read_tail_us, write_p50_us (oltp_rw), analytic_p50_ms "
                "(star_olap)", "oltp_rw, star_olap",
                "served_mix admission-bound ops"),
    "catalog": ("read_p50_us", "served_mix", "star_olap"),
    "admission": ("throughput_ops, analytic_tail_ms", "served_mix",
                  "oltp_rw, star_olap"),
    "server": ("write_p50_us, peak_rss_mb", "served_mix", "star_olap"),
    "trace": ("(tracing overhead: traced minus untraced)", "all", "-"),
}


def _us(values):
    m = median(values)
    return 0.0 if m is None else m * 1e6


def _ratio(num, den):
    return num / den if den else 0.0


def _cache_delta(before, after, cache):
    b, a = before[cache], after[cache]
    return {k: a[k] - b[k] for k in ("hits", "misses", "invalidations")}


def p_errors(db, sqls):
    """Per statement: measured work of the plan the pipeline picks over
    the least measured work among ``default_arms()`` candidates."""
    out = []
    for sql in sqls:
        chosen = db.pipeline.prepare_sql(sql)
        work_of = {}
        plans = [(chosen.plan, None)] + [
            (c.plan, c.hints) for c in db.planner.plan_candidates(
                chosen.query, default_arms())]
        for plan, hints in plans:
            text = plan.pretty()
            if text not in work_of:
                work_of[text] = db.executor_for(hints).execute(plan).work
        best = min(work_of.values())
        out.append(work_of[chosen.plan.pretty()] / max(best, 1.0))
    return out


def layer_metrics(env, ops, tracer, cache_before, cache_after,
                  epoch_delta, p_error):
    """Every per-layer metric of one traced window (0 where a layer is
    not on this workload's path)."""
    by_name, by_request = tracer.self_times()
    n_ops = max(len(ops), 1)
    selects = [op for op in ops if op.exec is not None]
    analytics = [op for op in selects if op.kind == "analytic"]
    m = {}
    m["session.classify_us"] = _us(by_name.get("session.classify", ()))
    m["session.policy_us"] = _us(by_name.get("session.policy", ()))
    m["session.audit_us"] = _us(by_name.get("session.audit", ()))
    m["session.audit_records"] = float(len(env.audit)) if env.audit else 0.0
    m["sql.parse_us"] = _us(by_name.get("sql.parse", ()))
    m["sql.lower_us"] = _us(by_name.get("sql.lower", ()))
    q = _cache_delta(cache_before, cache_after, "query_cache")
    p = _cache_delta(cache_before, cache_after, "plan_cache")
    m["pipeline.query_cache_hit_ratio"] = _ratio(q["hits"], q["hits"] + q["misses"])
    m["pipeline.plan_cache_hit_ratio"] = _ratio(p["hits"], p["hits"] + p["misses"])
    m["pipeline.plan_invalidations_per_kop"] = 1000.0 * p["invalidations"] / n_ops
    m["pipeline.front_us"] = _us([
        sum(s for stage, s in op.pipe.stages.items() if stage != "execute")
        for op in selects if op.pipe is not None])
    m["optimizer.plan_us"] = _us(
        by_name.get("optimizer.plan", []) + by_name.get("optimizer.join_plan", []))
    m["optimizer.join_plan_ms"] = _us(by_name.get("optimizer.join_plan", ())) / 1e3
    q_errors = [e["q_error"] for op in analytics for e in op.exec.node_stats
                if e["q_error"] is not None]
    m["optimizer.q_error_p50"] = median(q_errors) or 0.0
    m["optimizer.p_error_p50"] = median(p_error) or 0.0
    m["optimizer.p_error_max"] = max(p_error) if p_error else 0.0
    m["executor.execute_us"] = _us(by_name.get("executor.execute", ()))
    leaf_rows = sum(
        e["actual_rows"] or 0 for op in selects for e in op.exec.node_stats
        if e["op"] in ("SeqScan", "IndexScan"))
    m["executor.rows_examined_per_row"] = _ratio(
        leaf_rows, sum(len(op.rows) for op in selects))
    n_sel = max(len(selects), 1)
    for name in OPERATORS:
        total = sum(op.exec.operators.get(name, {}).get("seconds", 0.0)
                    for op in selects)
        m["operators.%s.self_ms" % name] = 1e3 * total / n_sel
    m["fusion.fused_frac"] = _ratio(
        sum(1 for op in selects if op.exec.fused_ops), len(selects))
    m["segments.pruned_frac"] = _ratio(
        sum(op.exec.segments_pruned for op in selects),
        sum(op.exec.segments_total for op in selects))
    m["segments.bytes_decoded_per_op"] = _ratio(
        sum(op.exec.bytes_decoded for op in selects), len(selects))
    m["storage.insert_us"] = _us(by_name.get("storage.insert", ()))
    m["storage.read_after_write_us"] = _us([
        sum(s for name, s in by_request.get(op.rid, ())
            if name == "storage.column_array")
        for op in ops if op.kind == "read" and op.after_write])
    catalog = env.db.catalog
    tables = [catalog.table(t) for t in catalog.table_names()]
    m["storage.encoded_bytes_per_row"] = _ratio(
        sum(t.encoded_bytes() for t in tables), sum(t.n_rows for t in tables))
    m["catalog.snapshot_pin_us"] = _us(by_name.get("catalog.snapshot", ()))
    m["catalog.version_bumps_per_kop"] = 1000.0 * epoch_delta / n_ops
    tickets = [op.ticket for op in ops if op.ticket is not None]
    waits = [t.queue_wait for t in tickets if t.outcome == "queued"]
    m["admission.wait_p50_ms"] = 1e3 * (median(waits) or 0.0)
    m["admission.wait_tail_ms"] = 1e3 * (tail(waits)[1] or 0.0)
    m["admission.queued_frac"] = _ratio(len(waits), len(tickets))
    m["admission.est_over_actual"] = _ratio(
        sum(op.ticket.cost for op in selects if op.ticket is not None),
        sum(op.work for op in selects if op.ticket is not None))
    m["server.commit_us"] = _us([
        op.seconds - op.ticket.queue_wait for op in ops
        if op.kind == "write" and op.ticket is not None and op.error is None])
    server = env.server
    m["server.commit_log_len"] = float(len(server.commit_log)) if server else 0.0
    if server is not None:
        t0 = time.perf_counter()
        server.rollup.summary()
        m["server.rollup_summary_ms"] = 1e3 * (time.perf_counter() - t0)
    else:
        m["server.rollup_summary_ms"] = 0.0
    m["trace.spans"] = float(len(tracer.spans))
    return m
