"""The suite's canonical report, check by check, against the digests the benchmark records."""

import importlib.util
import sys
from pathlib import Path

import pytest

from regulus.families import GridBudget, default_registry
from regulus.series import regular_quotient
from regulus.suite import run_suite

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def load_workloads():
    """bench/workloads.py, which defines the canonical form (the report without its ms fields)."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_gate_report_matches_recorded_digests():
    wl = load_workloads()
    expected = wl.load_expected()["suite"]["gate@400"]
    got = wl.suite_digests(run_suite(None, GridBudget(400, 400)))
    ids = expected["checks"].keys() | got["checks"].keys()
    assert sorted(c for c in ids if got["checks"].get(c) != expected["checks"].get(c)) == []
    assert got["report"] == expected["report"]


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
