"""Self-test of the benchmark, at reduced sizes; about a minute on two cores.

    python3 bench/selftest.py

Runs each workload kind once untraced and once traced, in fresh processes,
and checks that every operation verifies, that a wrong output is caught,
that sibling self-times fit in their parent, that cache hits and builds add
up to cache calls, and that the metric lists match BENCHMARK.json.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

import workloads as wl
from layers import PER_LAYER, RUN_LEVEL, children_of, layer_metrics, self_times
from run import END_TO_END, OUT, ROOT, spawn
from tracer import read_spans

REDUCED = (
    wl.Workload("gate-n400", "gate", 400, 1),
    wl.Workload("families-n1000-j2", "families", 1000, 2),
    wl.Workload("quotient-n2000", "quotient", 2000, 1),
)
SEED = 7
EPS = 1e-9


def check_metric_lists(failures: list[str]) -> None:
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    e2e = [(m["name"], m["unit"]) for m in declared["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in declared["per_layer"]]
    if e2e != list(END_TO_END):
        failures.append(f"BENCHMARK.json end_to_end {e2e} != run.py {list(END_TO_END)}")
    if layers != list(PER_LAYER):
        failures.append("BENCHMARK.json per_layer differs from layers.PER_LAYER")
    if sorted(w["name"] for w in declared["workloads"]) != sorted(wl.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")


def check_spans(name: str, jobs: int, spans, reported: dict, failures: list[str]) -> None:
    kids = children_of(spans)
    own = self_times(spans, kids)
    by_id = {s.id: s for s in spans}
    for parent_id, children in kids.items():
        parent = by_id[parent_id]
        per_thread = defaultdict(float)
        for c in children:
            per_thread[c.thread] += own[c.id]
        for thread, total in per_thread.items():
            if total > parent.end - parent.start + EPS:
                failures.append(f"{name}: self-times of {parent.name}'s children sum past its duration")
    if any(v < -EPS for v in own.values()):
        failures.append(f"{name}: negative self time")
    recomputed = layer_metrics(spans, jobs)
    if recomputed != reported:
        failures.append(f"{name}: metrics from the written spans differ from the reported ones")
    calls = reported["families.cached_regular_series.calls"]
    if reported["families.cached_regular_series.hits"] + reported["families.series_built"] != calls:
        failures.append(f"{name}: hits + series_built != cached_regular_series.calls")
    expected_keys = {n for n, _ in PER_LAYER} - set(RUN_LEVEL)
    if set(reported) != expected_keys:
        failures.append(f"{name}: per-layer metric names differ from PER_LAYER")


def check_tamper(failures: list[str]) -> None:
    """A changed output must fail its operation."""
    sys.path.insert(0, str(ROOT / "src"))
    from regulus import families, oracle, suite
    from regulus.series import TruncatedSeries, regular_quotient

    registry = families.default_registry()
    expected = wl.load_expected()
    key = wl.quotient_key(registry, SEED, 0)
    s = regular_quotient(*key[:2], 2000, key[2])
    bad = TruncatedSeries(s.ring, s.coeffs[:-1] + ((s.coeffs[-1] + 1) % key[2],))
    if wl.verify_quotient(oracle, families, registry, s, key, 2000, expected["quotient"]):
        failures.append("tamper: the true quotient series does not verify")
    if not wl.verify_quotient(oracle, families, registry, bad, key, 2000, expected["quotient"]):
        failures.append("tamper: a changed last coefficient verifies")
    ids = ["oracle.enumeration", "frobenius"]
    report = suite.run_suite(ids, families.GridBudget(order=400, n_max=400), registry)
    report["checks"][0]["indices_checked"] += 1
    failed, _ = wl.verify_suite(suite, report, ids, expected["suite"]["gate@400"])
    if failed != 1:
        failures.append(f"tamper: a changed check fails {failed} operations, not 1")


def main() -> int:
    failures: list[str] = []
    check_metric_lists(failures)
    check_tamper(failures)
    OUT.mkdir(exist_ok=True)
    for spec in REDUCED:
        plain = spawn(spec, SEED, 0, 170)
        spans_path = OUT / f"selftest-{spec.name}.spans.jsonl"
        traced = spawn(spec, SEED, 1, 170, spans=spans_path)
        for label, rep in (("untraced", plain), ("traced", traced)):
            if rep["failed"] or not rep["attempted"]:
                failures.append(f"{spec.name} {label}: {rep['failed']}/{rep['attempted']} failed: {rep['errors']}")
        check_spans(spec.name, spec.jobs, read_spans(spans_path), traced["layers"], failures)
        print(f"{spec.name}: {plain['attempted']} operations, run {plain['run_s']:.2f} s untraced, "
              f"{traced['run_s']:.2f} s traced, {traced['spans']} spans", flush=True)
    for line in failures:
        print(f"FAIL {line}")
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
