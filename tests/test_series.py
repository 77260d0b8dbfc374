"""Core series arithmetic against naive in-test oracles."""

import random
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regulus.families import default_registry
from regulus.oracle import regular_multipartition_counts
from regulus.series import (
    ZZ,
    EtaQuotientSpec,
    EtaShiftError,
    NonUnitError,
    RingMismatchError,
    TruncatedSeries,
    Zmod,
    add,
    dilate,
    eta_quotient,
    euler_E,
    extract_progression,
    invert,
    mul,
    one,
    power,
    reduce_mod,
    regular_quotient,
    series,
    shift_q,
    sub,
    truncate,
)
from regulus.series import _kronecker


def naive_poly_mul(a, b, order):
    """Schoolbook polynomial product truncated at `order`, independent of the library."""
    out = [0] * (order + 1)
    for i, x in enumerate(a):
        if i > order or x == 0:
            continue
        for j, y in enumerate(b):
            if i + j > order:
                break
            out[i + j] += x * y
    return out


def naive_euler_product(k, order):
    """Expand prod_{m>=1}(1 - q^{km}) term by term, no pentagonal shortcut."""
    out = [1] + [0] * order
    m = 1
    while k * m <= order:
        factor = [0] * (k * m + 1)
        factor[0] = 1
        factor[k * m] = -1
        out = naive_poly_mul(out, factor, order)
        m += 1
    return out


# --- construction and ring plumbing ---


def test_series_constant_term_and_order():
    s = series([1, -1, -1, 0], ZZ)
    assert s.order == 3
    assert s[0] == 1 and s[3] == 0


def test_zmod_canonicalizes():
    s = series([1, -1, -1], Zmod(3))
    assert s.coeffs == (1, 2, 2)


def test_ring_mismatch_rejected():
    with pytest.raises(RingMismatchError):
        mul(series([1, 2], ZZ), series([1, 2], Zmod(5)))


def test_truncation_contract_min_order():
    a = series([1, 1, 1, 1, 1], ZZ)
    b = series([1, 1, 1], ZZ)
    assert mul(a, b).order == 2
    assert add(a, b).order == 2
    assert sub(a, b).order == 2


# --- Euler products ---


def test_euler_e1_prefix():
    expected = naive_euler_product(1, 7)
    assert expected == [1, -1, -1, 0, 0, 1, 0, 1]
    assert list(euler_E(1, 7, ZZ).coeffs) == expected


def test_euler_e2_prefix():
    expected = naive_euler_product(2, 9)
    assert list(euler_E(2, 9, ZZ).coeffs) == expected
    assert expected == [1, 0, -1, 0, -1, 0, 0, 0, 0, 0]


def test_euler_constant_term_is_one():
    for k in (1, 2, 3, 5, 12, 40):
        assert euler_E(k, 30, ZZ)[0] == 1


@pytest.mark.parametrize("k", [2, 3, 5, 7, 11])
def test_euler_matches_naive_expansion(k):
    assert list(euler_E(k, 60, ZZ).coeffs) == naive_euler_product(k, 60)


@pytest.mark.parametrize("k", [2, 3, 5, 7])
def test_euler_dilation_consistency(k):
    n = 90
    direct = euler_E(k, n, ZZ)
    dilated = truncate(dilate(euler_E(1, n // k, ZZ), k), n)
    assert direct.coeffs[: dilated.order + 1] == dilated.coeffs


# --- mul / pow / invert ---


def test_mul_identity():
    s = euler_E(1, 20, ZZ)
    assert mul(one(20, ZZ), s) == s


def test_mul_binomial():
    a = series([1, -1], ZZ)
    b = series([1, 1], ZZ)
    assert mul(a, b).coeffs == (1, 0)


def test_mul_matches_naive_convolution():
    a = euler_E(1, 40, ZZ)
    b = invert(euler_E(2, 40, ZZ))
    got = mul(a, b)
    expected = naive_poly_mul(list(a.coeffs), list(b.coeffs), 40)
    assert list(got.coeffs) == expected


def test_pow_zero_is_one():
    s = euler_E(1, 10, ZZ)
    assert power(s, 0) == one(10, ZZ)


def test_pow_e1_24_coefficient():
    # cross-check by naive repeated multiplication
    e1 = naive_euler_product(1, 4)
    acc = [1, 0, 0, 0, 0]
    for _ in range(24):
        acc = naive_poly_mul(acc, e1, 4)
    assert acc[4] == 4830
    assert power(euler_E(1, 4, ZZ), 24)[4] == 4830
    # a sparse base at a larger order, against repeated schoolbook products
    e1 = euler_E(1, 300, ZZ)
    acc = list(one(300, ZZ).coeffs)
    for e in range(1, 25):
        acc = naive_poly_mul(list(e1.coeffs), acc, 300)
        assert list(power(e1, e).coeffs) == acc


def test_pow_e1_squared_prefix():
    e1 = naive_euler_product(1, 7)
    expected = naive_poly_mul(e1, e1, 7)
    got = power(euler_E(1, 7, ZZ), 2)
    assert list(got.coeffs) == expected == [1, -2, -1, 2, 1, 2, -2, 0]


def test_invert_e1_gives_partition_numbers():
    got = invert(euler_E(1, 9, ZZ))
    assert list(got.coeffs) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]


def test_invert_one():
    assert invert(one(8, ZZ)) == one(8, ZZ)


def test_invert_geometric():
    got = invert(series([1, -1, 0, 0, 0, 0], ZZ))
    assert got.coeffs == (1, 1, 1, 1, 1, 1)


def test_invert_non_unit_rejected():
    with pytest.raises(NonUnitError):
        invert(series([2, 1, 1], ZZ))
    with pytest.raises(NonUnitError):
        invert(series([5, 1, 1], Zmod(10)))


def test_invert_unit_mod_m():
    a = series([3, 1, 4, 1, 5, 9], Zmod(10))
    assert mul(a, invert(a)) == one(5, Zmod(10))


def test_mul_inverse_is_identity():
    e1 = euler_E(1, 50, ZZ)
    assert mul(e1, invert(e1)) == one(50, ZZ)
    # constant term -1, coefficients wider than 64 bits
    rng = random.Random(50)
    a = series([-1] + [rng.randrange(-(2**80), 2**80) for _ in range(50)], ZZ)
    assert mul(a, invert(a)) == mul(invert(a), a) == one(50, ZZ)


# --- eta quotients ---


def test_eta_power_shifts():
    for factors, shift in ((((3, 8),), 1), (((12, 10),), 5), (((4, 6),), 1)):
        spec = EtaQuotientSpec(factors, "eta")
        s, got_shift = eta_quotient(spec, 12)
        assert got_shift == shift
        assert s[0] == 1


def test_eta_series_part_is_e_product():
    s, _ = eta_quotient(EtaQuotientSpec(((3, 8),), "eta"), 15)
    assert s == power(euler_E(3, 15, ZZ), 8)


def test_eta_shift_must_be_multiple_of_24():
    with pytest.raises(EtaShiftError):
        EtaQuotientSpec(((1, 1),), "eta").shift()


def test_eta_negative_shift_rejected():
    with pytest.raises(EtaShiftError):
        EtaQuotientSpec(((24, -1),), "eta").shift()


def test_eta_quotient_with_denominator():
    spec = EtaQuotientSpec(((5, 1), (1, -1)), "E")
    s, shift = eta_quotient(spec, 30)
    assert shift == 0
    assert s == mul(euler_E(5, 30, ZZ), invert(euler_E(1, 30, ZZ)))


# --- progression extraction, dilation, shifting ---


def test_extract_identity_step():
    s = euler_E(1, 12, ZZ)
    assert extract_progression(s, 1, 0) == s


def test_extract_odd_pentagonal_coefficients():
    e1 = euler_E(1, 11, ZZ)
    got = extract_progression(e1, 2, 1)
    assert list(got.coeffs) == [-1, 0, 1, 1, 0, 0]


def test_extract_bad_residue():
    with pytest.raises(ValueError):
        extract_progression(euler_E(1, 8, ZZ), 3, 3)


def test_extract_interleave_round_trip():
    s = invert(euler_E(1, 59, ZZ))
    for step in (2, 3, 5):
        slices = [extract_progression(s, step, b) for b in range(step)]
        rebuilt = [0] * (s.order + 1)
        for b, piece in enumerate(slices):
            for n, c in enumerate(piece.coeffs):
                rebuilt[step * n + b] = c
        assert rebuilt == list(s.coeffs)


def test_shift_q_keeps_order():
    s = euler_E(1, 9, ZZ)
    shifted = shift_q(s, 2)
    assert shifted.order == 9
    assert shifted.coeffs[:3] == (0, 0, 1)


# --- modular reduction ---


def test_reduce_mod_canonical():
    got = reduce_mod(series([1, -1, -1], ZZ), 3)
    assert got.coeffs == (1, 2, 2)


def test_reduce_mod_tower():
    s = power(euler_E(1, 20, ZZ), 3)
    via_6 = reduce_mod(series(reduce_mod(s, 6).coeffs, ZZ), 3)
    assert via_6 == reduce_mod(s, 3)


def test_reduce_mod_e1_24_at_4():
    assert reduce_mod(power(euler_E(1, 4, ZZ), 24), 5)[4] == 0


# --- the counting quotient ---


def test_regular_quotient_constant_term():
    for ell, r in ((3, 12), (5, 6), (55, 21)):
        assert regular_quotient(ell, r, 8)[0] == 1


def test_regular_quotient_mod_matches_exact():
    exact = regular_quotient(3, 12, 120, 0)
    modular = regular_quotient(3, 12, 120, 3)
    assert tuple(c % 3 for c in exact.coeffs) == modular.coeffs


def test_frobenius_small():
    for k, p in ((1, 2), (2, 3), (3, 5), (5, 2)):
        lhs = euler_E(k * p, 120, Zmod(p))
        rhs = power(euler_E(k, 120, Zmod(p)), p)
        assert lhs == rhs


# --- the Kronecker kernel against a schoolbook product, over Z (m == 0) and Z/m ---

KERNEL_MODULI = (2, 3, 10, 55, 2**31 - 1, 2**61 - 1, 10**30 + 57)


def naive_mod_mul(a, b, order, m):
    return [x % m if m else x for x in naive_poly_mul(a, b, order)]


def kernel_operand(rng, m, length):
    """Residues mod m, or signed integers of a random width up to 100 bits when m == 0."""
    if m:
        return [rng.randrange(m) for _ in range(length)]
    top = 1 << rng.randrange(1, 101)
    return [rng.randrange(-top, top + 1) for _ in range(length)]


@pytest.mark.parametrize("m", (0,) + KERNEL_MODULI)
@pytest.mark.parametrize("la,lb", [(1, 1), (1, 9), (9, 1), (2, 7), (17, 5), (40, 40), (64, 33)])
def test_kernel_matches_schoolbook(m, la, lb):
    rng = random.Random(f"{m}-{la}-{lb}")
    a = kernel_operand(rng, m, la)
    b = kernel_operand(rng, m, lb)
    # every truncation, up to the full product of la + lb - 1 coefficients
    for n_out in sorted({0, min(la, lb) - 1, max(la, lb) - 1, la + lb - 2}):
        assert _kronecker(a, b, n_out, m) == naive_mod_mul(a, b, n_out, m)
        assert _kronecker(a, a, n_out, m) == naive_mod_mul(a, a, n_out, m)


@pytest.mark.parametrize("m", (0,) + KERNEL_MODULI)
@pytest.mark.parametrize("length", [1, 2, 31, 257])
def test_kernel_at_slot_bound(m, length):
    # all-(m-1) residues, or all -(2**b) integers over Z, make every slot sum reach
    # the bound ma*mb*min(len_a, len_b); over Z, b = 31 at length 1 fills all 8
    # bytes of a numpy lane, and b = 100 takes the int.to_bytes path
    ring = Zmod(m) if m else ZZ
    for c in (m - 1,) if m else (-(2**31), -(2**100)):
        top = [c] * length
        assert _kronecker(top, top, length - 1, m) == naive_mod_mul(top, top, length - 1, m)
        assert _kronecker(top, [abs(c)], length - 1, m) == naive_mod_mul(top, [abs(c)], length - 1, m)
        # the slot width must still fit the coefficients of the nonzero operand
        assert _kronecker([0] * length, top, length - 1, m) == [0] * length
        a = series(top, ring)
        assert list(mul(a, a).coeffs) == naive_mod_mul(top, top, length - 1, m)


@pytest.mark.parametrize("m", KERNEL_MODULI)
def test_mul_unequal_orders_and_squaring_mod_m(m):
    rng = random.Random(m)
    a = series([rng.randrange(m) for _ in range(50)], Zmod(m))
    b = series([rng.randrange(m) for _ in range(23)], Zmod(m))
    expected = naive_mod_mul(list(a.coeffs), list(b.coeffs), 22, m)
    assert list(mul(a, b).coeffs) == list(mul(b, a).coeffs) == expected
    assert list(mul(a, a).coeffs) == naive_mod_mul(list(a.coeffs), list(a.coeffs), 49, m)
    assert mul(a, a) == mul(a, series(a.coeffs, Zmod(m)))
    assert power(a, 5) == mul(mul(mul(a, a), mul(a, a)), a)


@pytest.mark.parametrize("m", KERNEL_MODULI)
@pytest.mark.parametrize("order", [0, 1, 5, 100])
def test_invert_mod_m_is_two_sided(m, order):
    rng = random.Random(f"{m}-{order}")
    a0 = next(x for x in iter(lambda: rng.randrange(1, m), None) if gcd(x, m) == 1)
    a = series([a0] + [rng.randrange(m) for _ in range(order)], Zmod(m))
    b = invert(a)
    assert mul(a, b) == mul(b, a) == one(order, Zmod(m))


def _registry_quotient_keys():
    """Every (ell, r, m) a progression family of the registry builds at t in {0, 1}."""
    return sorted(
        {
            (fam.ell, fam.r_value(t), fam.modulus)
            for fam in default_registry().values()
            if fam.kind == "progression"
            for t in (0, 1)
        }
    )


@lru_cache(maxsize=None)
def _oracle_counts(ell, r, n_max):
    return tuple(regular_multipartition_counts(ell, r, n_max).values)


@pytest.mark.parametrize("ell,r,m", _registry_quotient_keys())
def test_regular_quotient_mod_m_matches_oracle(ell, r, m):
    got = regular_quotient(ell, r, 300, m)
    assert list(got.coeffs) == [c % m for c in _oracle_counts(ell, r, 300)]


# --- property tests ---

small_series = st.lists(st.integers(-9, 9), min_size=1, max_size=65).map(
    lambda c: series(c, ZZ)
)
unit_series = st.lists(st.integers(-9, 9), min_size=1, max_size=40).map(
    lambda c: series([1 if not c else (1 if c[0] % 2 else -1)] + c[1:], ZZ)
)


@given(small_series, small_series, small_series)
@settings(max_examples=60, deadline=None)
def test_mul_commutes_and_distributes(a, b, c):
    assert mul(a, b) == mul(b, a)
    n = min(a.order, b.order, c.order)
    lhs = truncate(mul(a, add(truncate(b, n), truncate(c, n))), n)
    rhs = truncate(add(mul(a, b), mul(a, c)), n)
    assert lhs == rhs


@given(small_series, small_series, small_series)
@settings(max_examples=40, deadline=None)
def test_mul_associates(a, b, c):
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@given(small_series, st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_pow_additive(a, i, j):
    assert power(a, i + j) == mul(power(a, i), power(a, j))


@given(unit_series)
@settings(max_examples=200, deadline=None)
def test_invert_two_sided(a):
    b = invert(a)
    ident = one(a.order, ZZ)
    assert mul(a, b) == ident
    assert mul(b, a) == ident


@given(st.integers(1, 6), st.integers(10, 80))
@settings(max_examples=40, deadline=None)
def test_euler_dilation_property(k, n):
    direct = euler_E(k, n, ZZ)
    dilated = dilate(euler_E(1, n // k, ZZ), k)
    m = min(direct.order, dilated.order)
    assert truncate(direct, m) == truncate(dilated, m)
