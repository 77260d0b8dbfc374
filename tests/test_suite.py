"""The suite's canonical report against the digests the benchmark records, and the spans its layer counts read."""

import errno
import importlib
import importlib.util
import os
import sys
import threading
import time
from collections import Counter
from functools import partial
from pathlib import Path

import pytest

from regulus import coefficients as co
from regulus import dissections, families, suite
from regulus.families import GridBudget, default_registry
from regulus.series import regular_quotient, series
from regulus.suite import run_suite

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    """bench/<name>.py as a module named bench_<name>."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def load_workloads():
    """bench/workloads.py, which defines the canonical form (the report without its ms fields)."""
    return load_bench("workloads")


@pytest.mark.parametrize("kind, order", [("gate", 400), ("gate", 2000), ("families", 4000)])
def test_gate_report_matches_recorded_digests(kind, order):
    # gate@400, and the gate@2000 and families@4000 records the benchmark workloads verify
    wl = load_workloads()
    expected = wl.load_expected()["suite"][wl.suite_key(kind, order)]
    check_ids = wl.suite_check_ids(suite, default_registry(), kind)
    got = wl.suite_digests(run_suite(check_ids, GridBudget(order, order)))
    ids = expected["checks"].keys() | got["checks"].keys()
    assert sorted(c for c in ids if got["checks"].get(c) != expected["checks"].get(c)) == []
    assert got["report"] == expected["report"]


def test_two_jobs_give_the_one_job_report():
    # the threads share the series store, whose per-key locks this exercises
    canonical = load_workloads().canonical
    two = canonical(run_suite(None, GridBudget(400, 400), jobs=2))
    assert two == canonical(run_suite(None, GridBudget(400, 400), jobs=1))


def stub_checks(monkeypatch, check):
    """The suite's checks replaced by three, a, b and c, of no rows: each returns check(its id)."""
    checks = {c: partial(suite.Check, [], partial(check, c)) for c in "abc"}
    monkeypatch.setattr(suite, "_checks", lambda budget, registry: checks)


@pytest.mark.parametrize("jobs", [1, 2])
def test_one_job_runs_the_checks_on_the_calling_thread(jobs, monkeypatch):
    # a profiler of the calling thread sees one job's checks; two jobs run them in two processes, this one and a
    # forked worker, and on no pool thread
    def check(name):
        return suite.VerificationReport(id=name, notes=[f"{os.getpid()} {threading.get_ident()}"])

    stub_checks(monkeypatch, check)
    report = run_suite(None, GridBudget(400, 400), jobs=jobs)
    assert [c["id"] for c in report["checks"]] == ["a", "b", "c"]
    ran = [tuple(map(int, c["notes"][0].split())) for c in report["checks"]]
    here = (os.getpid(), threading.get_ident())
    assert len({pid for pid, _ in ran}) == jobs and here in ran
    assert {thread for pid, thread in ran if pid == os.getpid()} == {threading.get_ident()}


def test_jobs_past_the_checks_fork_one_worker_per_check_but_one(monkeypatch):
    # three checks and 1000 jobs: three shares, so two forks. Past two the stub refuses, and starts no process
    forks = []
    real = os.fork

    def fork():
        forks.append(os.getpid())
        if len(forks) > 2:
            raise OSError(errno.EAGAIN, "this test allows two forks")
        return real()

    monkeypatch.setattr(os, "fork", fork)
    ids = ["frobenius", "oracle.enumeration", "support.eta8_3z"]
    canonical = load_workloads().canonical
    many = canonical(run_suite(ids, GridBudget(400, 400), jobs=1000))
    assert len(forks) == 2
    assert many == canonical(run_suite(ids, GridBudget(400, 400)))


def test_the_prebuild_threads_are_gone_before_the_fork(builds, monkeypatch):
    # the families at 400 from an empty store: two shares read common keys, built on two pool threads, and
    # every pool thread has exited by the time a worker is forked
    before = threading.active_count()
    counts, shared = [], []
    real_fork, real_prebuild = os.fork, suite.prebuild

    def fork():
        counts.append(threading.active_count())
        return real_fork()

    def prebuild(keys, threads):
        shared.extend(keys)
        return real_prebuild(keys, threads)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(suite, "prebuild", prebuild)
    ids = [f"family.{fid}" for fid in default_registry()]
    assert suite.suite_status(run_suite(ids, GridBudget(400, 400), jobs=2)) == "pass"
    assert shared and counts == [before]


@pytest.mark.parametrize("where", ["worker", "here"])
def test_a_check_that_raises_leaves_no_worker_behind(where, monkeypatch):
    # raised in a worker, the error names the check; raised here, it propagates, and the worker, still asleep,
    # is killed rather than waited for. Either way every worker is reaped
    here = os.getpid()

    def check(name):
        if (os.getpid() == here) == (where == "here"):
            raise ValueError("boom")
        if os.getpid() != here:
            time.sleep(60)
        return suite.VerificationReport(id=name)

    stub_checks(monkeypatch, check)
    start = time.monotonic()
    if where == "worker":
        error, match = RuntimeError, r"^check '[abc]' raised ValueError: boom$"
    else:
        error, match = ValueError, "boom"
    with pytest.raises(error, match=match):
        run_suite(None, GridBudget(400, 400), jobs=2)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_empty_selection_runs_no_check():
    assert run_suite([], GridBudget(400, 400)) == {"version": suite.REPORT_VERSION, "checks": []}


@pytest.mark.parametrize("order", [64, 200])
def test_a_case_of_no_index_skips_its_multi_case_check(order):
    # the first index d4 of case (12, 5) is 312, and at 64 that of (24, 3) is 80: one note, not one per case
    (report,) = run_suite(["newman.fourstep"], GridBudget(order, order))["checks"]
    assert report["status"] == "skipped" and report["indices_checked"] > 0
    assert report["notes"] == ["smallest index exceeds the coefficient budget"]


def test_each_check_makes_its_rows_once(monkeypatch):
    # the plan and the check read the same rows: one call per case, not one for the plan and one in the check
    calls = Counter()

    def count(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.update([name]) or real(*args))

    for module, name in [(co, "newman_rows"), (co, "hecke_rows"), (families, "family_rows"), (families, "sweep_row"),
                         (suite, "frobenius_rows"), (dissections, "dissection_rows"), (suite, "enumeration_rows")]:
        count(module, name)
    report = run_suite(None, GridBudget(400, 400))
    eigenforms = [form for form in co.FORMS.values() if form.eigenform]
    family_checks = [cid for cid in suite.default_check_ids() if cid.startswith("family.")]
    points = sum(c["params_swept"].get("points", 0) for c in report["checks"] if c["id"] in family_checks)
    assert points > 0 and calls == {"newman_rows": len(co.admissible_newman_pairs(13)),
                                    "hecke_rows": len(eigenforms) * len(co.primes_upto(13)),
                                    "family_rows": len(family_checks), "sweep_row": points,
                                    "frobenius_rows": 1, "dissection_rows": len(dissections.IDENTITY_IDS),
                                    "enumeration_rows": 1}


def test_the_tracer_patch_points_are_the_attributes_the_work_calls(monkeypatch):
    # bench/tracer.py patches these module attributes from outside: a rename fails here, not only in the benchmark
    traced = load_bench("tracer").TRACED
    missing = [f"{layer}.{name}" for layer, names in traced.items() for name in names
               if not callable(getattr(importlib.import_module(f"regulus.{layer}"), name, None))]
    assert missing == [] and callable(suite._build_check)
    # and a bypassed attribute counts nothing: every row reads its series through coefficients.fetch, which calls
    # this one, the same function the tracer wraps as families.cached_regular_series
    calls = []
    real = co.cached_regular_series
    assert real is families.cached_regular_series

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(co, "cached_regular_series", counted)
    run_suite([cid for cid in suite.default_check_ids() if cid.startswith("family.")], GridBudget(400, 400))
    assert len(calls) > 0


def test_frobenius_records_the_first_mismatch_of_each_pair(monkeypatch):
    # the right side E_k^p raised by one at 7 and 9: each pair records both, in order of n, with its k and p
    real = co.theta_quotient

    def bumped(factors, order, ring):
        s = real(factors, order, ring)
        return s if factors[0][2] == 1 else series([c + (n in (7, 9)) for n, c in enumerate(s.coeffs)], ring)

    monkeypatch.setattr(co, "theta_quotient", bumped)
    (report,) = run_suite(["frobenius"], GridBudget(40, 40))["checks"]
    assert report["status"] == "fail" and report["indices_checked"] == 30 * 41
    pairs = [(k, p) for k in (1, 2, 3, 5, 7, 11) for p in (2, 3, 5, 7, 11)]
    assert [(v["index"], v["params"]) for v in report["violations"]] == [
        (n, {"k": k, "p": p}) for k, p in pairs for n in (7, 9)]
    assert all(v["value"]["rhs"] == (v["value"]["lhs"] + 1) % v["params"]["p"] for v in report["violations"])


def test_traced_checks_count_every_series_build(builds):
    # from an empty store, each stored quotient is built by one regular_quotient call under its cache
    # span, and each eta table by one eta_quotient call: the spans the benchmark's layer counts read
    tracer = load_bench("tracer").Tracer()
    checks = ["family.thm1.i", "family.eq30", "bridge.b77_eta6", "hecke.eta8_3z", "support.eta6_4z"]
    tracer.install()
    try:
        run_suite(checks, GridBudget(400, 400))
    finally:
        tracer.uninstall()
    metrics = load_bench("layers").layer_metrics(tracer.spans, 1)
    assert metrics["families.series_built"] == metrics["series.regular_quotient.calls"] > 0
    assert metrics["series.eta_quotient.s"] > 0


def quotient_workload_keys():
    """The (ell, r, m) keys the quotient-n32000 benchmark workload draws from."""
    wl = load_workloads()
    keys = wl.registry_keys(default_registry())
    return [k for k in keys if wl.power_products(k[1]) == wl.QUOTIENT_PRODUCTS]


@pytest.mark.parametrize("key", quotient_workload_keys(), ids=lambda key: "{},{},{}".format(*key))
def test_quotient_at_32000_matches_recorded_digest(key):
    wl = load_workloads()
    ell, r, m = key
    expected = wl.load_expected()["quotient"][wl.quotient_entry(key, 32000)]
    assert wl.coeff_digest(regular_quotient(ell, r, 32000, m)) == expected
