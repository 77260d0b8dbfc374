"""Combinatorial counting oracle: the recurrence against a coin-DP reference and literal enumeration."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regulus import oracle
from regulus.coefficients import BRIDGES
from regulus.families import default_registry
from regulus.oracle import (
    EnumerationBudgetError,
    RegularityProfile,
    enumerate_multipartitions,
    multipartition_counts,
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


def test_nonzero_remainder_raises(monkeypatch):
    real = oracle._divisor_weights

    def off_by_one(ells, n_max):
        c = real(ells, n_max)
        c[1] += 1  # c(1) = 2 for ell = 3 gives 2 F(2) = 2*2 + 3, which is odd
        return c

    monkeypatch.setattr(oracle, "_divisor_weights", off_by_one)
    oracle._counts.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="n=2"):
            regular_partition_counts(3, 10)
    finally:
        oracle._counts.cache_clear()


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
