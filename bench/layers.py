"""Per-layer metrics computed from one traced repetition's spans.

Self time is a span's duration minus the part of it that its child spans
cover; children of a suite check may run on other threads than their
parent, so the covered part is the union of the children's intervals.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# (metric, unit); the traced run reports exactly these, in this order
PER_LAYER = (
    ("series.mul.zm.calls", "count"),
    ("series.mul.zm.self_s", "s"),
    ("series.mul.zm.coeffs", "count"),
    ("series.invert.zm.self_s", "s"),
    ("series.power.self_s", "s"),
    ("series.regular_quotient.calls", "count"),
    ("series.regular_quotient.s", "s"),
    ("series.regular_quotient.distinct_ratio", "ratio"),
    ("series.mul.zz.calls", "count"),
    ("series.mul.zz.self_s", "s"),
    ("series.invert.zz.self_s", "s"),
    ("series.euler_E.self_s", "s"),
    ("series.eta_quotient.s", "s"),
    ("oracle.regular_multipartition_counts.calls", "count"),
    ("oracle.regular_multipartition_counts.self_s", "s"),
    ("oracle.tables.distinct_ratio", "ratio"),
    ("oracle.multipartition_counts.self_s", "s"),
    ("oracle.enumerate_multipartitions.self_s", "s"),
    ("expr.evaluate.calls", "count"),
    ("expr.evaluate.self_s", "s"),
    ("families.verify_family.self_s", "s"),
    ("families.generate_grid.s", "s"),
    ("families.cached_regular_series.calls", "count"),
    ("families.cached_regular_series.hits", "count"),
    ("families.cached_regular_series.hit_ratio", "ratio"),
    ("families.series_built", "count"),
    ("coefficients.newman_check.self_s", "s"),
    ("coefficients.hecke_eigen_check.self_s", "s"),
    ("coefficients.bridge_congruence_check.self_s", "s"),
    ("coefficients.scaling_congruence_check.self_s", "s"),
    ("dissections.verify_dissection.self_s", "s"),
    ("suite.check_s.p50", "s"),
    ("suite.check_s.max", "s"),
    ("suite.busy_share", "ratio"),
    ("suite.trace_overhead_s", "s"),
)

# computed by the benchmark run from a traced and an untraced repetition
RUN_LEVEL = ("suite.trace_overhead_s",)


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def children_of(spans) -> dict:
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    return kids


def self_times(spans, kids) -> dict[int, float]:
    return {
        s.id: (s.end - s.start) - covered(s.start, s.end, [(c.start, c.end) for c in kids.get(s.id, ())])
        for s in spans
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans, jobs: int) -> dict[str, float]:
    """Every per-layer metric except the run-level ones."""
    kids = children_of(spans)
    own = self_times(spans, kids)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name])

    def self_s(name):
        return sum(own[s.id] for s in by_name[name])

    def total_s(name):
        return sum(s.end - s.start for s in by_name[name])

    def distinct_ratio(name):
        return _ratio(len({tuple(s.attrs["key"]) for s in by_name[name]}), calls(name))

    cached = by_name["families.cached_regular_series"]
    built = sum(1 for s in cached if any(c.name == "series.regular_quotient" for c in kids.get(s.id, ())))
    checks = [s.end - s.start for s in by_name["suite.check"]]
    return {
        "series.mul.zm.calls": calls("series.mul.zm"),
        "series.mul.zm.self_s": self_s("series.mul.zm"),
        "series.mul.zm.coeffs": sum(s.attrs["coeffs"] for s in by_name["series.mul.zm"]),
        "series.invert.zm.self_s": self_s("series.invert.zm"),
        "series.power.self_s": self_s("series.power"),
        "series.regular_quotient.calls": calls("series.regular_quotient"),
        "series.regular_quotient.s": total_s("series.regular_quotient"),
        "series.regular_quotient.distinct_ratio": distinct_ratio("series.regular_quotient"),
        "series.mul.zz.calls": calls("series.mul.zz"),
        "series.mul.zz.self_s": self_s("series.mul.zz"),
        "series.invert.zz.self_s": self_s("series.invert.zz"),
        "series.euler_E.self_s": self_s("series.euler_E"),
        "series.eta_quotient.s": total_s("series.eta_quotient"),
        "oracle.regular_multipartition_counts.calls": calls("oracle.regular_multipartition_counts"),
        "oracle.regular_multipartition_counts.self_s": self_s("oracle.regular_multipartition_counts"),
        "oracle.tables.distinct_ratio": distinct_ratio("oracle.regular_multipartition_counts"),
        "oracle.multipartition_counts.self_s": self_s("oracle.multipartition_counts"),
        "oracle.enumerate_multipartitions.self_s": self_s("oracle.enumerate_multipartitions"),
        "expr.evaluate.calls": calls("expr.evaluate"),
        "expr.evaluate.self_s": self_s("expr.evaluate"),
        "families.verify_family.self_s": self_s("families.verify_family"),
        "families.generate_grid.s": total_s("families.generate_grid"),
        "families.cached_regular_series.calls": len(cached),
        "families.cached_regular_series.hits": len(cached) - built,
        "families.cached_regular_series.hit_ratio": _ratio(len(cached) - built, len(cached)),
        "families.series_built": built,
        "coefficients.newman_check.self_s": self_s("coefficients.newman_check"),
        "coefficients.hecke_eigen_check.self_s": self_s("coefficients.hecke_eigen_check"),
        "coefficients.bridge_congruence_check.self_s": self_s("coefficients.bridge_congruence_check"),
        "coefficients.scaling_congruence_check.self_s": self_s("coefficients.scaling_congruence_check"),
        "dissections.verify_dissection.self_s": self_s("dissections.verify_dissection"),
        "suite.check_s.p50": statistics.median(checks) if checks else 0.0,
        "suite.check_s.max": max(checks, default=0.0),
        "suite.busy_share": _ratio(sum(checks), jobs * total_s("suite.run_suite")),
    }
