"""Self-test of the benchmark itself, at a tiny size (about a minute).

Run from the repository root, either way::

    python3 layerbench/selftest.py
    python3 -m pytest -q layerbench/selftest.py

It checks that every metric ``BENCHMARK.json`` names is emitted with its
unit on every workload, traced and untraced; that two same-seed runs of
each single-caller workload repeat ``work_per_op``, the cache counters
and the failure count exactly; and that a deliberately corrupted
expected answer is counted as a failed operation.
"""

import json
import math
import os
import sys

import run

run.import_engine()

import workloads  # noqa: E402 (needs the engine on the path)

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SINGLE_CALLER = ("oltp_rw", "star_olap")

#: Statements per caller in one self-test run.
OPS = 300
SEED = 7


def _measure(name, trace=False, corrupt=()):
    return run.measure(name, SEED, 600.0, trace=trace, sizes=workloads.TINY,
                       max_ops=OPS, corrupt=corrupt)


def _drive(name, corrupt=()):
    workload = run.make_workload(name, SEED, workloads.TINY)
    env = workload.setup()
    ops, __ = workloads.drive(env, 600.0, max_ops=OPS, corrupt=corrupt)
    if workload.oracle is not None:
        workloads.check_deferred(ops, workload.oracle)
    return ops


def test_every_metric_is_emitted_with_its_unit():
    for name in WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, __ = _measure(name, trace=trace)
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (name, section, set(got) ^ set(want))
            for key, metric in result["metrics"].items():
                assert math.isfinite(metric["value"]), (name, key)
            assert result["attempted"] >= 1
            assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_single_caller_counts_repeat_exactly():
    counted = ("pipeline.query_cache_hit_ratio", "pipeline.plan_cache_hit_ratio",
               "pipeline.plan_invalidations_per_kop", "segments.bytes_decoded_per_op",
               "catalog.version_bumps_per_kop")
    for name in SINGLE_CALLER:
        (a, da), (b, db) = _measure(name), _measure(name)
        assert a["metrics"]["work_per_op"] == b["metrics"]["work_per_op"], name
        assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"]), name
        assert da["shares"] == db["shares"], name
        (ta, __), (tb, __) = _measure(name, trace=True), _measure(name, trace=True)
        for key in counted:
            assert ta["metrics"][key] == tb["metrics"][key], (name, key)
        assert (ta["attempted"], ta["failed"]) == (tb["attempted"], tb["failed"])


def test_corrupted_expected_answer_counts_as_failed():
    for name in WORKLOADS:
        clean = _drive(name)
        # The first statement of each kind that passed in the clean run,
        # by request id (caller, index); corruption goes by index.
        first = {}
        for op in clean:
            if not op.failed:
                first.setdefault(op.kind, op.rid)
        assert set(first) == {"read", "write", "analytic"}, (name, first)
        bad = {op.rid: op for op in _drive(
            name, corrupt={rid & 0xFFFFFFFF for rid in first.values()})}
        for rid in first.values():
            assert bad[rid].failed, (name, rid, bad[rid].sql)
        if name in SINGLE_CALLER:
            n_clean = sum(op.failed for op in clean)
            assert sum(op.failed for op in bad.values()) == n_clean + 3, name


def main():
    tests = [test_every_metric_is_emitted_with_its_unit,
             test_single_caller_counts_repeat_exactly,
             test_corrupted_expected_answer_counts_as_failed]
    for test in tests:
        test()
        print("ok", test.__name__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
