"""The engine's layered end-to-end benchmark.

Run from the repository root::

    python3 layerbench/run.py --workload oltp_rw --seed 1 --seconds 25 --trace 0

``--workload`` is ``oltp_rw``, ``star_olap`` or ``served_mix`` (see
``layerbench/README.md``). The engine is imported from ``src/`` next to
this directory; without it the run fails before measuring anything.

Output: one JSON line of run details (host fingerprint, effective engine
config, seed, answer-check counts, the shares of workload properties an
optimisation may depend on, tail percentiles and sample counts, and the
stale-index probe: reads of keys inserted during the run, made after the
timed window and kept out of the result), then,
as the last line, the result ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 0`` reports the end-to-end metrics. ``--trace 1``
reports the per-layer metrics: it runs the workload untraced for half the
window and, after a fresh set-up, traced for the other half, and also
reports the tracing overhead (traced minus untraced end-to-end numbers).
Spans are written to ``.layerbench/`` under the repository root.
"""

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import sys
import time

from stats import median, tail

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-ups per run; ``setup_s`` is their median.
N_SETUPS = 5

E2E_UNITS = {
    "setup_s": "s",
    "read_p50_us": "us",
    "read_tail_us": "us",
    "write_p50_us": "us",
    "write_tail_us": "us",
    "analytic_p50_ms": "ms",
    "analytic_tail_ms": "ms",
    "throughput_ops": "ops/s",
    "work_per_op": "work",
    "peak_rss_mb": "MB",
}


def import_engine():
    """Put ``src/`` first on the path; refuse any other engine copy."""
    if not os.path.isfile(os.path.join(SRC, "repro", "engine", "__init__.py")):
        sys.exit("layerbench: engine source not found at %s" % SRC)
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit("layerbench: imported repro from %s, not %s"
                 % (repro.__file__, SRC))


def make_workload(name, seed, sizes):
    import workloads
    return workloads.WORKLOADS[name](seed, sizes)


def end_to_end(ops, throughput, setup_s, tails):
    """The end-to-end metrics of one window (counted ops only, see
    ``workloads.drive``); fills ``tails`` with the percentile and sample
    count behind each ``*_tail_*`` metric."""
    ops = [op for op in ops if op.counted]
    done = [op for op in ops if op.error is None]
    m = {"setup_s": median(setup_s)}
    for kind, unit, scale in (("read", "us", 1e6), ("write", "us", 1e6),
                              ("analytic", "ms", 1e3)):
        of_kind = [op for op in done if op.kind == kind]
        lat = [op.seconds for op in of_kind]
        q, value = tail(lat, [op.start for op in of_kind])
        m["%s_p50_%s" % (kind, unit)] = scale * (median(lat) or 0.0)
        m["%s_tail_%s" % (kind, unit)] = scale * (value or 0.0)
        tails["%s_tail_%s" % (kind, unit)] = {"percentile": q, "samples": len(lat)}
    m["throughput_ops"] = throughput
    m["work_per_op"] = sum(op.work for op in done) / max(len(done), 1)
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m


def shares(ops):
    """Shares of the properties an optimisation might depend on."""
    def frac(sub, of):
        return round(len(sub) / len(of), 6) if of else 0.0
    reads = [op for op in ops if op.kind == "read"]
    analytics = [op for op in ops if op.kind == "analytic" and op.pipe]
    point = [op for op in reads if op.pipe]
    return {
        "reads_after_write_to_same_table": frac([op for op in reads if op.after_write], reads),
        "distinct_point_reads": len({op.sql for op in reads}),
        "analytic_plan_cache_misses": frac(
            [op for op in analytics if op.pipe.cache_outcome != "hit"], analytics),
        "point_read_plan_cache_misses": frac(
            [op for op in point if op.pipe.cache_outcome != "hit"], point),
        "admission_queued": frac(
            [op for op in ops if op.ticket and op.ticket.outcome == "queued"], ops),
    }


def measure(name, seed, seconds, trace=False, sizes=None, max_ops=None,
            corrupt=()):
    """One benchmark run; returns ``(result, details)``."""
    import numpy as np
    from repro.engine import EngineConfig
    import tracing
    import workloads

    workload = make_workload(name, seed, sizes or workloads.FULL)
    setup_s, env = [], None
    for __ in range(N_SETUPS):
        env = None
        gc.collect()
        t0 = time.perf_counter()
        env = workload.setup()
        setup_s.append(time.perf_counter() - t0)
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__, "machine": platform.machine()},
        "engine_config": dataclasses.asdict(env.db.config),
        "shipped_defaults": env.db.config == EngineConfig(),
        "clients": len(env.callers),
        "setup_runs_s": setup_s,
    }
    tails = {}
    window = seconds / 2.0 if trace else seconds
    ops, throughput = workloads.drive(env, window, max_ops=max_ops,
                                      corrupt=corrupt)
    all_ops = ops
    metrics = end_to_end(ops, throughput, setup_s, tails)
    if trace:
        untraced = metrics
        env = ops = None
        gc.collect()
        env = workload.setup()
        tracer = tracing.Tracer()
        cache_before = env.db.pipeline.stats()
        epoch_before = env.db.catalog.epoch
        tracer.install()
        try:
            ops, throughput = workloads.drive(
                env, window, tracer=tracer, max_ops=max_ops, corrupt=corrupt)
        finally:
            tracer.uninstall()
        cache_after = env.db.pipeline.stats()
        epoch_delta = env.db.catalog.epoch - epoch_before
        all_ops = all_ops + ops
        traced = end_to_end(ops, throughput, setup_s, {})
        analytic_sql = list(dict.fromkeys(
            op.sql for op in ops if op.kind == "analytic" and op.error is None))
        p_error = tracing.p_errors(env.db, analytic_sql)
        metrics = tracing.layer_metrics(env, ops, tracer, cache_before,
                                        cache_after, epoch_delta, p_error)
        for key in ("read_p50_us", "write_p50_us", "analytic_p50_ms"):
            metrics["trace.overhead_" + key] = traced[key] - untraced[key]
        out_dir = os.path.join(ROOT, ".layerbench")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, "spans-%s-seed%d.jsonl" % (name, seed))
        tracer.write(spans_path)
        details["spans_file"] = os.path.relpath(spans_path, ROOT)
        details["predictions"] = {
            layer: {"moves": moves, "on": on, "no_change_on": unchanged}
            for layer, (moves, on, unchanged) in tracing.PREDICTIONS.items()}
        units = tracing.LAYER_UNITS
    else:
        units = E2E_UNITS
    probe = workloads.probe_stale_index(env)
    if workload.oracle is not None:
        workloads.check_deferred(all_ops, workload.oracle)
        workload.oracle.close()
    wrong = sum(1 for op in all_ops if op.wrong)
    errors = [op.error for op in all_ops if op.error is not None]
    failed = sum(1 for op in all_ops if op.failed)
    details.update({
        "attempted": len(all_ops),
        "failed": failed,
        "failed_frac": failed / max(len(all_ops), 1),
        "wrong_answers": wrong,
        "stale_index_probe": {
            "in_run_keys_read": len(probe),
            "wrong": sum(1 for op in probe if op.failed),
            "sample": [op.sql for op in probe if op.failed][:3],
        },
        "errors": len(errors),
        "error_samples": errors[:3],
        "shares": shares(all_ops),
        "tails": tails,
    })
    result = {
        "correct": wrong == 0,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in sorted(units)},
    }
    if any(op.failed for op in probe):
        sys.stderr.write(
            "layerbench: known defect: %d of %d reads of keys inserted during "
            "the run came back wrong (the index never sees a later INSERT); "
            "these probe reads follow the timed window and are not in the "
            "result\n" % (details["stale_index_probe"]["wrong"], len(probe)))
    return result, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("oltp_rw", "star_olap", "served_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_engine()
    result, details = measure(args.workload, args.seed, args.seconds,
                              trace=bool(args.trace))
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
