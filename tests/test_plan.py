"""The plan of a suite run's store reads: each key built once, to the order its checks read, and the
Frobenius chain of each prime shared by every modulus that prime divides."""

import dataclasses
import importlib
import json
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from regulus import coefficients as co
from regulus import families, suite
from regulus.families import GridBudget, default_registry, load_registry
from regulus.series import (
    ZZ,
    Zmod,
    build_cost,
    cached_e1_power,
    cached_regular_series,
    euler_E,
    invert,
    plan,
    planned,
    power,
    regular_quotient,
)
from test_fuzz import FUZZ
from test_series import reference_regular_quotient

series_module = importlib.import_module("regulus.series")


def declared_reads(budget, check_ids=None):
    """The reads run_suite plans for these checks (all by default): those of the rows each check evaluates."""
    checks = suite._checks(budget, default_registry())
    return [read for cid in check_ids or checks for row in checks[cid]().rows for read in row.reads]


def family_ids():
    return [cid for cid in suite.default_check_ids() if cid.startswith("family.")]


@pytest.mark.parametrize("order", [400, 2000])
def test_counted_gate_run_builds_each_key_once(builds, past_plan, order):
    report = suite.run_suite(None, GridBudget(order, order))
    assert suite.suite_status(report) == "pass"
    assert [key for key, count in Counter(key for key, _ in builds).items() if count > 1] == []
    # each key is built to its target: the largest order a declared read reaches through it
    targets = plan(declared_reads(GridBudget(order, order)))
    assert [(key, n) for key, n in builds if n != targets[key]] == []
    assert past_plan == []


def test_two_jobs_build_each_key_once(builds, past_plan):
    # the keys both shares read are built here before the fork, and each share's own keys in its process alone
    budget = GridBudget(400, 400)
    suite.run_suite(None, budget, jobs=2)
    everywhere = builds.everywhere()
    assert len(everywhere) > len(builds) > 0  # the worker built some keys, and this process others
    assert [key for key, count in Counter(key for key, _ in everywhere).items() if count > 1] == []
    assert sorted(everywhere, key=repr) == sorted(plan(declared_reads(budget)).items(), key=repr)
    assert past_plan.everywhere() == []


def test_families_run_builds_nothing_past_its_reads(builds, past_plan):
    # at n_max = 500 most grid points read far less than the order
    budget = GridBudget(order=8000, n_max=500)
    suite.run_suite(family_ids(), budget)
    targets = plan(declared_reads(budget, family_ids()))
    assert [(key, n) for key, n in builds if n > targets[key]] == []
    assert past_plan == []
    keys = {key: n for key, n in builds if len(key) == 3 and isinstance(key[0], int)}
    assert min(keys.values()) < 8000 and max(keys.values()) == 8000


def test_each_check_alone_builds_only_what_its_rows_plan(builds):
    # each check by itself from an empty store: a read its rows do not name builds a key outside its plan, where
    # in a whole run another check's rows may cover it
    budget = GridBudget(400, 400)
    for cid in suite.default_check_ids():
        series_module._longest.clear()
        builds.clear()
        suite.run_suite([cid], budget)
        targets = plan(declared_reads(budget, [cid]))
        assert [(key, n) for key, n in builds if n > targets.get(key, -1)] == [], cid


def test_a_read_past_its_declaration_is_caught(builds, past_plan, monkeypatch):
    # a bridge row whose series term names a read one index shorter than the row reads: the run must fail,
    # by the term reading past its source or by a read past the plan, and never pass silently
    real = co.bridge_rows

    def short(bridge, n_max):
        (row,) = real(bridge, n_max)
        (term,) = row.lhs
        ell, r, m, order = term.read
        return [dataclasses.replace(row, lhs=(dataclasses.replace(term, read=(ell, r, m, order - 1)),))]

    monkeypatch.setattr(co, "bridge_rows", short)
    try:
        suite.run_suite(["bridge.b77_eta6"], GridBudget(400, 400))
    except IndexError as exc:
        assert "term reads past its source" in str(exc)
        return
    assert past_plan != []


def test_a_run_whose_rows_name_no_read_still_has_a_plan(builds, past_plan, monkeypatch):
    # an empty plan is still a plan: every store read the check makes lies past it, and shows
    monkeypatch.setattr(co.Relation, "reads", property(lambda row: []))
    suite.run_suite(["support.eta8_3z"], GridBudget(400, 400))
    assert past_plan and {key for key, _, target in past_plan} == {key for key, _ in builds}
    assert {target for _, _, target in past_plan} == {None}
    assert series_module._targets is None  # and after the run, no plan at all


def test_a_direct_call_has_no_plan(builds):
    assert series_module._targets is None
    got = cached_regular_series(3, 12, 3, 50)
    # E_3^12 / E_1^12 = E_1^24 mod 3: its chain and its digits' powers E_1^2 and E_1 mod 3, no Newton inverse
    chain = [key for key, _ in builds if key[0] == "S"]
    assert chain == [("S", 3, 1, 24, 0), ("S", 3, 1, 8, 0), ("S", 3, 1, 2, 0)]
    assert {key for key, _ in builds} == {(3, 12, 3), ("E_1^d", 3, 1), ("E_1^d", 3, 2), *chain}
    assert got == reference_regular_quotient(3, 12, 50, 3)


def test_threads_sharing_prime_chains_build_each_key_once(builds):
    # six threads, more than a small machine has cores, each on its own modulus; the moduli share the
    # chains mod 2, 3 and 5, and 4 and 60 the rest mod 4. No thread may deadlock or build twice
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
    assert Counter(key for key, _ in builds if key[0] == 19) == Counter((19, 6, m) for m in moduli)
    assert [key for key, count in Counter(key for key, _ in builds).items() if count > 1] == []
    tops = {key[1]: key for key, _ in builds if key[0] == "S" and key[3:] == (-6, 6)}
    assert tops == {p: ("S", p, 19, -6, 6) for p in (2, 3, 5)}
    # only the rest reads negative powers of E_1, and Newton's inverse among them
    assert {key[1] for key, _ in builds if key[0] == "E_1^d" and key[2] < 0} == {4}
    assert (("E_1^d", 4, -1), 200) in builds
    assert all(results[m] == reference_regular_quotient(19, 6, 200, m) for m in moduli)


def test_prebuild_builds_each_key_once_at_its_target(builds):
    # six threads, more than a small machine has cores, over every key the families plan at 400: a thread may
    # wait on the lock of a piece another builds, and still each key is built once, to its target
    builds.delay = 0.001
    targets = plan(declared_reads(GridBudget(400, 400), family_ids()))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with planned(declared_reads(GridBudget(400, 400), family_ids())):
            thread = threading.Thread(target=series_module.prebuild, args=(list(targets), 6), daemon=True)
            thread.start()
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert sorted(builds, key=repr) == sorted(targets.items(), key=repr)


def test_prebuild_raises_the_error_of_a_failed_build(builds, monkeypatch):
    # the chains mod 5 fail: their readers raise again, and no thread waits for a key that is never built
    real = series_module._level

    def level(key, n):
        if key[1] == 5:
            raise ArithmeticError("failed build")
        return real(key, n)

    monkeypatch.setattr(series_module, "_level", level)
    errors = []

    def run():
        try:
            series_module.prebuild(list(plan(declared_reads(GridBudget(400, 400), family_ids()))), 3)
        except ArithmeticError as exc:
            errors.append(exc)

    with planned(declared_reads(GridBudget(400, 400), family_ids())):
        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=60)
    assert not thread.is_alive() and [str(exc) for exc in errors] == ["failed build"]


def test_build_cost_counts_every_transform_of_a_build_mod_m(monkeypatch):
    # each key the families plan at 400 and 4000, built again once its pieces are built: the FFT lengths its
    # own build transforms, one per row, sum to its build_cost
    lengths = []

    def counted(transform):
        def run(a, n, *args, **kwargs):
            lengths.append(n * (np.asarray(a).size // np.asarray(a).shape[-1]))
            return transform(a, n, *args, **kwargs)

        return run

    monkeypatch.setattr(series_module, "_longest", {})
    monkeypatch.setattr(np.fft, "rfft", counted(np.fft.rfft))
    monkeypatch.setattr(np.fft, "irfft", counted(np.fft.irfft))
    for order in (400, 4000):
        with planned(declared_reads(GridBudget(order, order), family_ids())) as targets:
            for key, n in targets.items():
                for piece, _ in series_module._pieces(key, n)[1:]:
                    series_module._read(piece, targets[piece])
                series_module._longest.pop(key, None)
                lengths.clear()
                series_module._read(key, n)
                assert sum(lengths) == build_cost(key, n), key


def test_plan_shares_each_primes_chain_across_moduli():
    reads = [(3, 12, 2, 100), (3, 12, 3, 400), (3, 15, 15, 50), (3, 15, 3, 200), (3, 15, 5, 300)]
    targets = plan(reads + [(5, 6, 5, 70), (7, 7, 7, 10), (3, 9, 0, 30), ("E_1^d", 0, 6, 90)])
    assert targets[(3, 12, 2)] == 100 and targets[(3, 12, 3)] == 400
    # mod 3, E_3^r / E_1^r = E_1^(2r); mod 5, E_1^-r E_3^r: one chain per prime, shared by 3, 5 and 15
    assert targets[("S", 3, 1, 30, 0)] == 200 and targets[("S", 5, 3, -15, 15)] == 300
    assert targets[(3, 15, 15)] == 50 and not any(key[0] == 3 and key[2] in (6, 30) for key in targets)
    # one level per digit, at order // p; its digit powers from the squares of E_1 mod p
    assert targets[("S", 3, 1, 24, 0)] == 400 and targets[("S", 3, 1, 8, 0)] == 133
    assert targets[("S", 3, 1, 2, 0)] == 44 and ("S", 3, 1, 0, 0) not in targets
    assert targets[("E_1^d", 3, 1)] == targets[("E_1^d", 3, 2)] == 133 and ("E_1^d", 3, 4) not in targets
    # every -r chain ends in 1/E_1 mod p, shared across ell: here E_1^-12 E_3^12 mod 2 and E_1^-15 E_3^15 mod 5
    assert targets[("S", 2, 1, -1, 0)] == 100 // 2**4 and targets[("S", 5, 1, -1, 0)] == 300 // 25
    # over Z, the rest: E_1^-9 = E_1^-1 E_1^-8 to 30, from Newton's inverse, and E_1^9 to 30 // 3 at q -> q^3
    assert targets[(3, 9, 0)] == targets[("E_1^d", 0, -9)] == targets[("E_1^d", 0, -8)] == 30
    assert targets[("E_1^d", 0, -1)] == 30 and targets[("E_1^d", 0, 9)] == 10
    # no modulus here has a rest: every negative power of E_1, and so every Newton inverse, is over Z
    assert not any(key[0] == "E_1^d" and key[1] and key[2] < 0 for key in targets)
    # E_1^6 = E_1^2 E_1^4 over Z, read by an eta table, shares its powers with the rest's E_1^9 = E_1 E_1^8
    assert targets[("E_1^d", 0, 6)] == targets[("E_1^d", 0, 4)] == targets[("E_1^d", 0, 1)] == 90
    assert targets[("E_1^d", 0, 8)] == 10 and ("E_1^d", 0, 16) not in targets


def test_plan_splits_wide_moduli_into_prime_parts_and_a_generic_rest():
    split = series_module._split
    assert split(251, 300) == ((251,), 1) and split(256, 300) == ((), 256) and split(251, 250) == ((), 251)
    k = 1 << 40
    assert split(2 * k, 300) == ((), 2 * k) and split(3 * k, 300) == ((3,), k)
    assert split(12, 2000) == ((3,), 4) and split(60, 100) == ((3, 5), 4) and split(55, 10) == ((5,), 11)
    assert split(2**64 + 13, 2000) == ((), 2**64 + 13) and split(10**30 + 57, 2000) == ((), 10**30 + 57)
    # 251 has its chain, 256 is all rest, and nothing is built mod their product
    targets = plan([(5, 3, 251, 300), (5, 3, 256, 300)])
    assert targets[("S", 251, 5, -3, 3)] == 300 and targets[("E_1^d", 256, -1)] == 300
    assert not [key for key in targets if 64256 in key]
    # 2 * 2**40 is all rest; 3 * 2**40 is the chain mod 3 joined with the rest 2**40
    targets = plan([(5, 3, 2 * k, 300), (5, 3, 3 * k, 300)])
    assert targets[("E_1^d", 2 * k, -1)] == targets[("E_1^d", k, -1)] == targets[("S", 3, 5, -3, 3)] == 300
    targets = plan([(5, 3, 2, 300), (5, 3, 3, 300)])
    assert targets[("S", 2, 5, -3, 3)] == targets[("S", 3, 5, -3, 3)] == 300 and not [key for key in targets if 6 in key]
    for m in (251, 256, 2 * k, 3 * k, 12):
        assert regular_quotient(5, 3, 300, m) == reference_regular_quotient(5, 3, 300, m)


def registry_keys():
    """Every (ell, r, m) a progression family of the registry builds at t in {0, 1}."""
    return sorted({(f.ell, f.r_value(t), f.modulus) for f in default_registry().values()
                   if f.kind == "progression" for t in (0, 1)})


def test_planned_reads_equal_the_regular_quotient(builds):
    order = 2000
    keys = registry_keys()
    with planned([key + (order,) for key in keys]):
        got = {key: cached_regular_series(*key, order) for key in keys}
    # every registry modulus is squarefree: all of them are built by chains, none by Newton
    assert {key[1] for key, _ in builds if key[0] == "S"} == {2, 3, 5, 7, 11}
    assert not [key for key, _ in builds if key[0] == "E_1^d" and key[2] < 0]
    assert [key for key in keys if got[key] != reference_regular_quotient(key[0], key[1], order, key[2])] == []


@pytest.mark.parametrize("key", [(3, 15, 5), (55, 76, 11), (35, 39, 7)], ids=lambda key: "{},{},{}".format(*key))
def test_planned_read_equals_the_regular_quotient_at_full_fft_length(builds, key):
    order, (ell, r, m) = 32000, key
    with planned([k + (order,) for k in registry_keys()]):
        got = cached_regular_series(ell, r, m, order)
    a = ell // m if ell % m == 0 else ell
    assert (("S", m, a, -r, r * ell // a), order) in builds
    assert got == reference_regular_quotient(ell, r, order, m)


def test_moduli_past_uint8_share_their_prime_chains(builds, tmp_path):
    entry = {"kind": "progression", "ell": 5, "r": "3", "index": "n"}
    path = tmp_path / "registry.json"
    moduli = {"a": 251, "b": 256, "c": 502}  # 502 = 2 * 251 is a uint16 residue, and shares the chain mod 251
    path.write_text(json.dumps({"families": [{"id": name, "modulus": m, **entry} for name, m in moduli.items()]}))
    registry = load_registry(str(path))
    suite.run_suite(["family.a", "family.b", "family.c"], GridBudget(300, 300), registry)
    assert {key[2] for key, _ in builds if isinstance(key[0], int)} == {251, 256, 502}
    assert [key for key, count in Counter(key for key, _ in builds).items() if count > 1] == []
    assert {key[1] for key, _ in builds if key[0] == "S"} == {2, 251}
    for m in (251, 256, 502):
        assert cached_regular_series(5, 3, m, 300) == reference_regular_quotient(5, 3, 300, m)


def test_theorem_2_declares_a_conclusion_only_where_one_can_be_reached():
    def reads(order):
        rows = families.family_rows(families.get_family("thm2.ii"), GridBudget(order), None)
        return [read for row in rows for read in row.reads]

    # p = 3 and 5 unconditionally (their rows), the search to index(49), and a conclusion at p = 3 (first index
    # 282): only the last two are declared by hand
    assert reads(2000) == [(7, 6, 7, 1983), (7, 6, 7, 6561), (7, 6, 7, 345), (7, 6, 7, 2000)]
    assert reads(281)[-1] == (7, 6, 7, 345)


# Z, primes (two above every order drawn), prime powers, squarefree composites, mixed moduli, and past uint64
MODULI = st.sampled_from([0, 2, 3, 5, 7, 11, 13, 251, 601, 1009, 4, 8, 9, 25, 27, 49, 6, 10, 15, 30, 35, 55, 77,
                          12, 60, 100, 2**64 + 13])
READS = st.lists(
    st.one_of(
        st.tuples(st.integers(2, 60), st.integers(0, 120), MODULI, st.integers(0, 600)),
        st.tuples(st.just("E_1^d"), MODULI, st.integers(-120, 120), st.integers(0, 600)),
    ),
    min_size=1,
    max_size=4,
)


def read(x, a, b, n):
    """The planned read (ell, r, m, order) of cached_regular_series, or ("E_1^d", m, d, order) of cached_e1_power."""
    return cached_e1_power(b, n, a) if x == "E_1^d" else cached_regular_series(x, a, b, n)


def reference(x, a, b, n):
    """What read(x, a, b, n) must equal, by the plain builds, which read no store."""
    if x != "E_1^d":
        return reference_regular_quotient(x, a, n, b)
    e1 = euler_E(1, n, Zmod(a) if a else ZZ)
    return power(e1 if b >= 0 else invert(e1), abs(b))


@FUZZ
@given(READS)
def test_planned_reads_build_each_planned_key_once_at_its_target(reads):
    builds = []
    real = series_module._stored

    def stored(key, order, build):
        def logged(n):
            builds.append((key, n))
            return build(n)

        return real(key, order, logged)

    with pytest.MonkeyPatch.context() as mp:  # an empty store per example
        mp.setattr(series_module, "_stored", stored)
        mp.setattr(series_module, "_longest", {})
        mp.setattr(series_module, "_key_locks", {})
        with planned(reads) as targets:
            got = [read(*key) for key in reads]
    assert [(key, n) for key, n in builds if targets.get(key) != n] == []
    assert [key for key, count in Counter(key for key, _ in builds).items() if count > 1] == []
    assert [key for key, s in zip(reads, got) if s != reference(*key)] == []
