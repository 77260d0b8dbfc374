"""Combinatorial counting oracle: Miller's recurrence against the divisor-sum recurrence, a coin-DP reference and literal enumeration."""

import inspect
import itertools
import textwrap
from collections import Counter
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regulus import oracle, suite
from regulus.coefficients import BRIDGES
from regulus.families import default_registry
from regulus.oracle import (
    EnumerationBudgetError,
    RegularityProfile,
    enumerate_multipartitions,
    multipartition_counts,
    profile_counts,
    regular_multipartition_counts,
    regular_partition_counts,
    regular_partitions,
)


def brute_force_partitions(n, allowed):
    """All partitions of n into parts from `allowed`, as sorted tuples."""
    allowed = sorted(allowed, reverse=True)
    results = []

    def rec(remaining, max_part, acc):
        if remaining == 0:
            results.append(tuple(acc))
            return
        for part in allowed:
            if part <= min(remaining, max_part):
                acc.append(part)
                rec(remaining - part, part, acc)
                acc.pop()

    rec(n, n, [])
    return results


# --- test-only reference: coin DP per component, schoolbook products of tables ---


def reference_regular_counts(ell, n_max):
    table = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        if part % ell:
            for m in range(part, n_max + 1):
                table[m] += table[m - part]
    return table


def reference_convolve(a, b, n_max):
    out = [0] * (n_max + 1)
    for i, x in enumerate(a[: n_max + 1]):
        for j in range(min(len(b), n_max + 1 - i)):
            out[i + j] += x * b[j]
    return out


def reference_counts(ells, n_max):
    acc = [1] + [0] * n_max
    for ell in ells:
        acc = reference_convolve(acc, reference_regular_counts(ell, n_max), n_max)
    return acc


def reference_uniform_counts(ell, r, n_max):
    """The r-th power of one component's table by repeated squaring."""
    acc, sq = [1] + [0] * n_max, reference_regular_counts(ell, n_max)
    while r:
        if r & 1:
            acc = reference_convolve(acc, sq, n_max)
        r >>= 1
        if r:
            sq = reference_convolve(sq, sq, n_max)
    return acc


def _registry_profiles():
    """Every uniform (ell, r) a registry family builds at t in {0, 1}, plus every bridge's."""
    keys = {
        (fam.ell, fam.r_value(t))
        for fam in default_registry().values()
        if fam.kind == "progression"
        for t in (0, 1)
    }
    return sorted(keys | {(b.ell, b.r) for b in BRIDGES.values()})


# --- test-only reference: the divisor-sum recurrence the oracle used before Miller's ---


def reference_divisor_sum_counts(pairs, n_max):
    """n F(n) = sum_{k=1..n} c(k) F(n-k), c(k) = sum_{d | k} d * #{i : ell_i does not divide d}.

    The profile is its (ell, multiplicity) pairs; this is Euler's n p(n) = sum sigma(k) p(n-k) generalised.
    """
    c = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        weight = d * sum(e for ell, e in pairs if d % ell)
        for k in range(d, n_max + 1, d):
            c[k] += weight
    table = [1]
    for n in range(1, n_max + 1):
        value, rem = divmod(sum(map(mul, c[n:0:-1], table)), n)
        assert rem == 0, (pairs, n)
        table.append(value)
    return table


def _oracle_profiles():
    """Every uniform (ell, r) the registry, the bridges and the suite's equivalence check read."""
    return sorted(set(_registry_profiles()) | set(suite.ORACLE_PAIRS))


def test_profile_invariants():
    with pytest.raises(ValueError):
        RegularityProfile(())
    with pytest.raises(ValueError):
        RegularityProfile((3, 1))
    assert RegularityProfile((3, 3)).r == 2


def test_regular_counts_ell3_prefix():
    table = regular_partition_counts(3, 5)
    assert list(table.values) == [1, 1, 2, 2, 4, 5]


def test_regular_counts_zero_index():
    for ell in (2, 3, 7, 55):
        assert regular_partition_counts(ell, 4)[0] == 1


def test_regular_counts_match_brute_force():
    for ell in (2, 3, 4, 5, 7):
        table = regular_partition_counts(ell, 14)
        for n in range(15):
            allowed = [p for p in range(1, n + 1) if p % ell]
            assert table[n] == len(brute_force_partitions(n, allowed)), (ell, n)


def test_ell2_counts_equal_distinct_part_counts():
    # odd-part partitions are equinumerous with distinct-part partitions
    table = regular_partition_counts(2, 12)
    for n in range(13):
        distinct = [
            parts
            for parts in brute_force_partitions(n, range(1, n + 1))
            if len(set(parts)) == len(parts)
        ]
        assert table[n] == len(distinct)


def test_regular_partitions_enumeration_agrees_with_counts():
    for ell in (2, 3, 5):
        table = regular_partition_counts(ell, 10)
        for n in range(11):
            parts = regular_partitions(n, ell)
            assert len(parts) == table[n]
            assert len(set(parts)) == len(parts)
            for lam in parts:
                assert sum(lam) == n
                assert all(x % ell for x in lam)


def reference_regular_partitions(n, ell):
    """The recursive generator regular_partitions replaced: each tuple built again wherever it recurs."""

    def rec(remaining, max_part):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, max_part), 0, -1):
            if part % ell == 0:
                continue
            for rest in rec(remaining - part, part):
                yield (part,) + rest

    return tuple(rec(n, n))


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_regular_partitions_are_the_generators_tuples_in_its_order(ell):
    for n in range(21):
        assert regular_partitions(n, ell) == reference_regular_partitions(n, ell)


def test_each_power_of_e1_is_one_miller_pass(monkeypatch, fresh_tables):
    # B_5^(6) and B_7^(6) to 300 share H = E_1^-6 to 300, which each table passed on its own before
    passes = Counter()
    real = oracle._power
    monkeypatch.setattr(oracle, "_power", lambda terms, alpha, n: passes.update([(alpha, n)]) or real(terms, alpha, n))
    for ell, r, n_max in [(5, 6, 300), (7, 6, 300), (7, 6, 42), (5, 6, 300)]:
        regular_multipartition_counts(ell, r, n_max)
    jacobi = {(3, 300): 1, (3, 42): 1}  # the check of the pentagonal terms, once per n_max
    assert passes == {**jacobi, (-6, 300): 1, (6, 60): 1, (6, 42): 1, (-6, 42): 1, (6, 6): 1}


def test_multipartition_pair_at_two():
    assert multipartition_counts(RegularityProfile((3, 3)), 2)[2] == 5


def test_multipartition_zero_and_one():
    profile = RegularityProfile((3, 3))
    table = multipartition_counts(profile, 1)
    assert table[0] == 1
    assert table[1] == 2
    assert enumerate_multipartitions(profile, 0) == 1
    assert enumerate_multipartitions(profile, 1) == 2


def test_thm_smallest_instance_divisible():
    table = multipartition_counts(RegularityProfile((3,) * 12), 9)
    assert table[9] % 3 == 0


def test_enumerate_small_single_component():
    assert enumerate_multipartitions(RegularityProfile((2,)), 3) == 2


def test_enumeration_budget_guard():
    with pytest.raises(EnumerationBudgetError):
        enumerate_multipartitions(RegularityProfile((2,)), 31)
    with pytest.raises(EnumerationBudgetError):
        enumerate_multipartitions(RegularityProfile((2,) * 5), 4)


def test_enumeration_matches_dp():
    for ells in ((2,), (3,), (7,), (2, 5), (3, 3), (5, 7), (2, 3, 5)):
        profile = RegularityProfile(ells)
        table = multipartition_counts(profile, 12)
        for n in range(13):
            assert enumerate_multipartitions(profile, n) == table[n], (ells, n)


def test_profile_permutation_invariance():
    for perm in itertools.permutations((2, 3, 5)):
        table = multipartition_counts(RegularityProfile(perm), 20)
        base = multipartition_counts(RegularityProfile((2, 3, 5)), 20)
        assert list(table.values) == list(base.values)


def test_counts_monotone_positive():
    for ells in ((2,), (3, 3), (5, 7, 11)):
        table = multipartition_counts(RegularityProfile(ells), 40)
        assert all(v >= 1 for v in table.values)


def test_uniform_profile_shortcut():
    direct = multipartition_counts(RegularityProfile((3,) * 12), 50)
    shortcut = regular_multipartition_counts(3, 12, 50)
    assert list(direct.values) == list(shortcut.values)


def test_large_counts_stay_exact():
    # values overflow 64-bit words well before n = 200
    table = regular_multipartition_counts(55, 54, 200)
    assert table[200] > 2**63


def test_huge_r_needs_no_length_r_profile():
    # a tuple of 2**40 bounds would take 8 TiB; the table is keyed by (ell, r)
    r = 2**40
    table = regular_multipartition_counts(3, r, 5)
    # n = 1: one component holds 1; n = 2: one holds 2 or 1+1, or two hold 1 each
    assert table.values[:3] == [1, r, 2 * r + r * (r - 1) // 2]


@given(
    st.lists(st.integers(2, 7), min_size=1, max_size=3),
    st.integers(0, 15),
)
@settings(max_examples=40, deadline=None)
def test_enumeration_property(ells, n):
    profile = RegularityProfile(tuple(ells))
    assert enumerate_multipartitions(profile, n) == multipartition_counts(profile, n)[n]


@pytest.mark.parametrize("ell,r", _registry_profiles())
def test_recurrence_matches_reference_on_registry(ell, r):
    got = regular_multipartition_counts(ell, r, 120).values
    assert got == reference_uniform_counts(ell, r, 120)


@pytest.mark.parametrize(
    "ells", [(5, 7, 11), (2, 3, 5), (2, 2, 3), (4, 6, 9), (55, 7, 7, 2), (3,) * 5 + (5,) * 4]
)
def test_recurrence_matches_reference_on_mixed_profiles(ells):
    got = multipartition_counts(RegularityProfile(ells), 120).values
    assert got == reference_counts(ells, 120)


def test_tables_are_fresh_copies():
    first = regular_multipartition_counts(3, 2, 10)
    first.values[2] = -1
    assert regular_multipartition_counts(3, 2, 10)[2] == 5
    assert multipartition_counts(RegularityProfile((3, 3)), 10)[2] == 5


@pytest.mark.parametrize("ell,r", _oracle_profiles())
def test_counts_match_divisor_sums_on_oracle_profiles(ell, r):
    got = regular_multipartition_counts(ell, r, 300).values
    assert got == reference_divisor_sum_counts([(ell, r)], 300)


@pytest.mark.parametrize("ells", suite.ENUMERATION_PROFILES, ids=str)
def test_counts_match_references_on_enumeration_profiles(ells):
    got = multipartition_counts(RegularityProfile(ells), 20).values
    assert got == reference_divisor_sum_counts(sorted(Counter(ells).items()), 20)
    assert got == reference_counts(ells, 20)


def test_mixed_profile_matches_references_at_300():
    # one dilated product per distinct bound: (E_3/E_1)^2 (E_5/E_1) (E_7/E_1)
    got = multipartition_counts(RegularityProfile((3, 3, 5, 7)), 300).values
    assert got == reference_divisor_sum_counts([(3, 2), (5, 1), (7, 1)], 300)
    assert got == reference_counts((3, 3, 5, 7), 300)


@pytest.mark.parametrize("n_max", [0, 1, 2])
@pytest.mark.parametrize("pairs", [[(2, 1)], [(3, 12)], [(55, 109)], [(2, 1), (3, 2), (5, 1)]], ids=str)
def test_counts_match_divisor_sums_at_tiny_orders(pairs, n_max):
    assert profile_counts(pairs, n_max).values == reference_divisor_sum_counts(pairs, n_max)


@pytest.mark.parametrize("pairs", [[(55, 3)], [(21, 2)], [(2, 1), (55, 2)]], ids=str)
def test_bound_past_n_max_leaves_a_power_of_one_over_e1(pairs):
    # a bound past n_max contributes E_1^e(q^ell) = 1 up to q^20: each of its components is unrestricted
    got = profile_counts(pairs, 20).values
    assert got == reference_divisor_sum_counts(pairs, 20)
    assert got == reference_counts([ell for ell, e in pairs for _ in range(e)], 20)


def test_profile_counts_merges_repeated_bounds():
    assert profile_counts([(3, 1), (5, 1), (3, 1)], 30).values == multipartition_counts(
        RegularityProfile((3, 5, 3)), 30
    ).values


@pytest.fixture
def fresh_tables():
    """Empty the oracle's caches before and after, so a patched kernel is the one that runs."""
    oracle._euler.cache_clear()
    oracle._counts.cache_clear()
    oracle._powers.clear()
    yield
    oracle._euler.cache_clear()
    oracle._counts.cache_clear()
    oracle._powers.clear()


@pytest.mark.parametrize("k", [1, 2, 5, 26])
def test_flipped_pentagonal_sign_raises(monkeypatch, fresh_tables, k):
    # a power of the wrong series still divides exactly; Jacobi's cube catches it at q^k
    real = oracle._pentagonal

    def flipped(n_max):
        return [(j, -s if j == k else s) for j, s in real(n_max)]

    monkeypatch.setattr(oracle, "_pentagonal", flipped)
    with pytest.raises(ArithmeticError, match=rf"at n={k}$"):
        regular_partition_counts(3, 30)


@pytest.mark.parametrize(
    "old,new,n",
    [
        # the exponent off by one: E_1^(alpha +- 1) divides exactly, so only Jacobi's cube catches it
        ("(alpha + 1) * k", "(alpha + 2) * k", 1),
        ("(alpha + 1) * k", "alpha * k", 1),
        # the n term off by one leaves a remainder
        ("w - n if s > 0 else w + n", "w - n + 1 if s > 0 else w + n - 1", 2),
        ("w - n if s > 0 else w + n", "w - n - 1 if s > 0 else w + n + 1", 2),
    ],
    ids=["exponent-plus-one", "exponent-minus-one", "n-term-plus-one", "n-term-minus-one"],
)
def test_off_by_one_miller_coefficient_raises(monkeypatch, fresh_tables, old, new, n):
    source = textwrap.dedent(inspect.getsource(oracle._power))
    assert old in source
    namespace = dict(vars(oracle))
    exec(compile(source.replace(old, new), oracle.__file__, "exec"), namespace)
    monkeypatch.setattr(oracle, "_power", namespace["_power"])
    with pytest.raises(ArithmeticError, match=rf"at n={n}$"):
        regular_multipartition_counts(5, 6, 30)


@pytest.mark.parametrize(
    "call",
    [
        lambda: regular_multipartition_counts(3, -1, 5),
        lambda: regular_multipartition_counts(3, 0, 5),
        lambda: regular_multipartition_counts(3, 2, -1),
        lambda: regular_multipartition_counts(1, 2, 5),
        lambda: regular_partition_counts(1, 5),
        lambda: regular_partition_counts(3, -1),
        lambda: multipartition_counts(RegularityProfile((3, 5)), -1),
    ],
    ids=["r-negative", "r-zero", "n_max-negative", "ell-one", "single-ell-one",
         "single-n_max-negative", "profile-n_max-negative"],
)
def test_input_contract(call):
    with pytest.raises(ValueError):
        call()
