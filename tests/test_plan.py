"""The plan of a suite run's store reads: each key built once, to the order its checks read, and every
read of a composite modulus served from the lcm of its ell's moduli."""

import importlib
import json
import sys
import threading
from collections import Counter

import pytest

from regulus import coefficients as co
from regulus import families, suite
from regulus.families import GridBudget, default_registry, load_registry
from regulus.series import cached_regular_series, plan, planned, regular_quotient

series_module = importlib.import_module("regulus.series")


def declared_reads(budget, check_ids=None):
    """The reads run_suite plans for these checks (all by default)."""
    checks = suite._checks(budget, default_registry())
    return [read for cid in check_ids or checks for read in checks[cid].reads()]


def family_ids():
    return [cid for cid in suite.default_check_ids() if cid.startswith("family.")]


@pytest.mark.parametrize("order", [400, 2000])
def test_counted_gate_run_builds_each_key_once(builds, past_plan, order):
    report = suite.run_suite(None, GridBudget(order, order))
    assert suite.suite_status(report) == "pass"
    assert [key for key, count in Counter(key for key, _ in builds).items() if count > 1] == []
    # each key is built to its target: the largest order a declared read reaches through it
    targets = plan(declared_reads(GridBudget(order, order))).targets
    assert [(key, n) for key, n in builds if n != targets[key]] == []
    assert past_plan == []


def test_two_jobs_build_each_key_once(builds, past_plan):
    suite.run_suite(None, GridBudget(400, 400), jobs=2)
    assert [key for key, count in Counter(key for key, _ in builds).items() if count > 1] == []
    assert past_plan == []


def test_families_run_builds_nothing_past_its_reads(builds, past_plan):
    # at n_max = 500 most grid points read far less than the order
    budget = GridBudget(order=8000, n_max=500)
    suite.run_suite(family_ids(), budget)
    targets = plan(declared_reads(budget, family_ids())).targets
    assert [(key, n) for key, n in builds if n > targets[key]] == []
    assert past_plan == []
    keys = {key: n for key, n in builds if len(key) == 3 and isinstance(key[0], int)}
    assert min(keys.values()) < 8000 and max(keys.values()) == 8000


def test_a_read_past_its_declaration_is_caught(builds, past_plan, monkeypatch):
    # a bridge that declares one index less than it reads
    real = co.bridge_reads

    def short(bridge, n_max):
        (ell, r, m, order), e1 = real(bridge, n_max)
        return [(ell, r, m, order - 1), e1]

    monkeypatch.setattr(co, "bridge_reads", short)
    suite.run_suite(["bridge.b77_eta6"], GridBudget(400, 400))
    assert ((7, 7, 7), 399, 398) in past_plan


def test_a_direct_call_has_no_plan(builds):
    assert series_module._plan.targets == {} and series_module._plan.moduli == {}
    assert cached_regular_series(3, 12, 3, 50) == regular_quotient(3, 12, 50, 3)
    assert {key[2] for key, _ in builds if key[0] == "E_l/E_1"} == {3}


def test_threads_reducing_one_merged_key_build_each_key_once(builds):
    # six threads, more than a small machine has cores, each on its own modulus of one merged key mod 60;
    # the locks, reduced key before merged key, must neither deadlock nor build any key twice
    builds.delay = 0.01
    moduli = (2, 3, 4, 5, 6, 10)
    together = threading.Barrier(len(moduli))
    results = {}

    def ask(m):
        together.wait()
        results[m] = cached_regular_series(19, 6, m, 200)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with planned([(19, 6, m, 200) for m in moduli] + [(19, 6, 60, 100)]):
            threads = [threading.Thread(target=ask, args=(m,), daemon=True) for m in moduli]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(results[m] == regular_quotient(19, 6, 200, m) for m in moduli)
    assert Counter(key for key, _ in builds if key[0] == 19) == Counter((19, 6, m) for m in moduli + (60,))
    assert [key for key, count in Counter(key for key, _ in builds).items() if count > 1] == []


def test_plan_merges_each_ells_moduli_into_their_lcm():
    reads = [(3, 12, 2, 100), (3, 12, 3, 400), (3, 15, 15, 50), (5, 6, 5, 70), (7, 7, 7, 10), (3, 9, 0, 30)]
    p = plan(reads + [("E_1^r", 6, 90)])
    assert p.moduli == {3: 30, 5: 5, 7: 7}
    assert [p.merged(3, m) for m in (2, 3, 5, 6, 15, 30, 0, 7)] == [30, 30, 30, 30, 30, 30, 0, 7]
    # a key, its merged key, then one target per piece: the largest order any read reaches through it
    assert p.targets[(3, 12, 2)] == 100 and p.targets[(3, 12, 30)] == 400
    assert p.targets[(3, 15, 30)] == 50 and ("E_l/E_1", 3, 30, 4) not in p.targets
    assert p.targets[("E_l/E_1", 3, 30, 3)] == p.targets[("1/E_1", 30)] == 400
    assert p.targets[(3, 9, 0)] == p.targets[("E_l/E_1", 3, 0, 3)] == p.targets[("1/E_1", 0)] == 30
    assert p.targets[("E_1^r", 6)] == p.targets[("E_1", 2)] == 90 and ("E_1", 3) not in p.targets


def test_plan_keeps_a_modulus_whose_lcm_leaves_its_dtype_or_one_float_row():
    # 251 and 256 are uint8 residues, their lcm 64256 is not
    assert plan([(5, 3, 251, 300), (5, 3, 256, 300)]).merged(5, 251) == 251
    # 2 and 3 times k fit uint64, as 6k does, but one row of residues mod 6k is past 2**52
    k = 1 << 40
    p = plan([(5, 3, 2 * k, 300), (5, 3, 3 * k, 300)])
    assert p.moduli == {} and p.merged(5, 2 * k) == 2 * k
    assert plan([(5, 3, 2, 300), (5, 3, 3, 300)]).moduli == {5: 6}


def registry_keys():
    """Every (ell, r, m) a progression family of the registry builds at t in {0, 1}."""
    return sorted({(f.ell, f.r_value(t), f.modulus) for f in default_registry().values()
                   if f.kind == "progression" for t in (0, 1)})


def test_planned_reads_equal_the_regular_quotient(builds):
    order = 2000
    keys = registry_keys()
    with planned([key + (order,) for key in keys]):
        got = {key: cached_regular_series(*key, order) for key in keys}
    merged = {key[2] for key, _ in builds if len(key) == 3 and isinstance(key[0], int)}
    assert {30, 10, 35, 55} <= merged and not {2, 3, 5, 6, 15} & {k[2] for k, _ in builds if k[0] == "E_l/E_1"}
    assert [key for key in keys if got[key] != regular_quotient(key[0], key[1], order, key[2])] == []


@pytest.mark.parametrize("key", [(3, 15, 5), (55, 76, 11), (35, 39, 7)], ids=lambda key: "{},{},{}".format(*key))
def test_planned_read_equals_the_regular_quotient_at_full_fft_length(builds, key):
    order, (ell, r, m) = 32000, key
    with planned([k + (order,) for k in registry_keys()]) as p:
        got = cached_regular_series(ell, r, m, order)
    assert p.merged(ell, m) != m and ((ell, r, p.merged(ell, m)), order) in builds
    assert got == regular_quotient(ell, r, order, m)


def test_moduli_whose_lcm_leaves_uint8_are_built_apart(builds, tmp_path):
    entry = {"kind": "progression", "ell": 5, "r": "3", "index": "n"}
    path = tmp_path / "registry.json"
    families_json = [{"id": "a", "modulus": 251, **entry}, {"id": "b", "modulus": 256, **entry}]
    path.write_text(json.dumps({"families": families_json}))
    registry = load_registry(str(path))
    suite.run_suite(["family.a", "family.b"], GridBudget(300, 300), registry)
    assert {key[2] for key, _ in builds if len(key) == 3} == {251, 256}
    for m in (251, 256):
        assert cached_regular_series(5, 3, m, 300) == regular_quotient(5, 3, 300, m)


def test_theorem_2_declares_a_conclusion_only_where_one_can_be_reached():
    budget = GridBudget(order=2000)
    part_ii = families._thm2_reads("ii", budget)
    # p = 3 and 5 unconditionally, the search to index(49), and a conclusion at p = 3 (first index 282)
    assert part_ii == [(7, 6, 7, 1983), (7, 6, 7, 6561), (7, 6, 7, 345), (7, 6, 7, 2000)]
    assert families._thm2_reads("ii", GridBudget(order=281))[-1] == (7, 6, 7, 345)
