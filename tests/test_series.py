"""Core series arithmetic against naive in-test oracles."""

import hashlib
import importlib
import json
import random
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal, localcontext
from functools import lru_cache
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regulus.dissections import IDENTITIES
from regulus.families import default_registry
from regulus.oracle import regular_multipartition_counts
from regulus.series import (
    ZZ,
    NonUnitError,
    RingMismatchError,
    TruncatedSeries,
    Zmod,
    add,
    cached_e1_power,
    cached_regular_series,
    dilate,
    eta_quotient,
    euler_E,
    invert,
    mul,
    one,
    power,
    regular_quotient,
    series,
    theta,
    theta_quotient,
    truncate,
)
from regulus.series import _product

# the module itself; the package's `series` attribute is the constructor function
series_module = importlib.import_module("regulus.series")


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


def naive_theta_product(a, b, order, m=0):
    """The Jacobi triple product prod_m (1 - q^{(a+b)m-a})(1 - q^{(a+b)m-b})(1 - q^{(a+b)m}), schoolbook."""
    out = [1] + [0] * order
    period = a + b
    for d in range(1, order + 1):
        # one factor (1 - q^d) per way d arises: d = period*m - a, period*m - b or period*m
        times = ((d + a) % period == 0) + ((d + b) % period == 0) + (d % period == 0)
        for _ in range(times):
            out = [x - (out[n - d] if n >= d else 0) for n, x in enumerate(out)]
    return [x % m for x in out] if m else out


@pytest.mark.parametrize("m", [0, 7, 10])
@pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 1), (1, 4), (2, 3), (3, 3), (5, 2), (4, 7), (10, 1)])
def test_theta_matches_triple_product(a, b, m):
    ring = Zmod(m) if m else ZZ
    assert list(theta(a, b, 70, ring).coeffs) == naive_theta_product(a, b, 70, m)


def test_euler_is_theta_k_2k():
    for k in range(1, 13):
        assert euler_E(k, 80, ZZ) == theta(k, 2 * k, 80, ZZ)
        assert euler_E(k, 80, Zmod(7)) == theta(k, 2 * k, 80, Zmod(7))
        assert list(theta(k, 2 * k, 80).coeffs) == naive_euler_product(k, 80)


def test_theta_quotient_empty_and_zero_exponents_are_one():
    assert theta_quotient((), 12) == one(12, ZZ)
    assert theta_quotient(((1, 4, 0), (2, 3, 0)), 12, Zmod(5)) == one(12, Zmod(5))


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


def reference_eta_power(scale, exponent, order):
    """q^(scale exponent / 24) E_scale^exponent to order, by repeated squaring of the theta series."""
    shift = scale * exponent // 24
    body = power(euler_E(scale, order, ZZ), exponent).coeffs
    return TruncatedSeries(ZZ, ((0,) * shift + body)[: order + 1])


def test_eta_power_shifts():
    for scale, exponent, shift in ((3, 8, 1), (12, 10, 5), (4, 6, 1)):
        s = eta_quotient(scale, exponent, 12)
        assert s.coeffs[:shift] == (0,) * shift
        assert s[shift] == 1


def test_eta_series_part_is_e_product():
    # the dilated stored E_1^e against the plain power, including series shorter than their q-shift
    for scale, exponent in ((1, 24), (2, 12), (3, 8), (4, 6), (6, 4), (8, 3), (12, 10), (24, 1), (1, 0)):
        for order in (0, 1, 4, 5, 6, 15, 23, 24, 25, 301):
            assert eta_quotient(scale, exponent, order) == reference_eta_power(scale, exponent, order)


def test_eta_shift_must_be_multiple_of_24():
    with pytest.raises(ValueError):
        eta_quotient(1, 1, 10)


def test_eta_negative_shift_rejected():
    with pytest.raises(ValueError):
        eta_quotient(24, -1, 10)


def test_eta_quotient_bad_shift_fails_before_expanding(monkeypatch):
    def no_expansion(*args):
        raise AssertionError("expanded before the shift was checked")

    monkeypatch.setattr(series_module, "cached_e1_power", no_expansion)
    with pytest.raises(ValueError):
        eta_quotient(1, 1, 10**6)


# an eta quotient prod E_k^e, expanded as the theta quotient of rows (k, 2k, e)


def test_eta_quotient_with_denominator():
    s = theta_quotient(((5, 10, 1), (1, 2, -1)), 30)
    assert s == mul(euler_E(5, 30, ZZ), invert(euler_E(1, 30, ZZ)))


def reference_eta_product(factors, order, ring):
    """prod E_k^e by one mul per unit of exponent and one invert per negative unit."""
    acc = one(order, ring)
    for k, e in factors:
        base = euler_E(k, order, ring)
        for _ in range(abs(e)):
            acc = mul(acc, base if e > 0 else invert(base))
    return acc


@pytest.mark.parametrize("m", [0, 7])
@pytest.mark.parametrize(
    "factors",
    [
        ((2, 5), (1, -2), (4, -2)),
        ((1, -3),),
        ((3, 2), (6, -1), (9, 0), (2, -4), (1, 1)),
        ((4, 3), (10, 1), (40, 1), (2, -3), (8, -1), (20, -1)),
    ],
)
def test_eta_quotient_matches_repeated_products(factors, m):
    ring = Zmod(m) if m else ZZ
    s = theta_quotient([(k, 2 * k, e) for k, e in factors], 60, ring)
    assert s == reference_eta_product(factors, 60, ring)


def reference_theta_quotient(factors, order, ring=ZZ):
    """prod f(-q^a, -q^b)^e by one mul per unit of exponent: by theta(a, b) for e > 0, by its inverse for e < 0."""
    acc = one(order, ring)
    for a, b, e in factors:
        base = theta(a, b, order, ring)
        for _ in range(abs(e)):
            acc = mul(acc, base if e > 0 else invert(base))
    return acc


@pytest.mark.parametrize("name", list(IDENTITIES))
@pytest.mark.parametrize("m", [0, 5, 7])
def test_theta_quotient_matches_the_product_inverse_on_every_identity_side(name, m):
    lhs, _, terms = IDENTITIES[name]
    ring = Zmod(m) if m else ZZ
    for factors in [lhs] + [q for _, _, q in terms]:
        assert theta_quotient(factors, 150, ring) == reference_theta_quotient(factors, 150, ring)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 24), st.integers(1, 24), st.integers(-3, 3)), max_size=4),
    st.sampled_from([0, 5, 7]),
    st.integers(0, 90),
)
def test_theta_quotient_matches_the_per_unit_products_on_random_rows(factors, m, order):
    ring = Zmod(m) if m else ZZ
    assert theta_quotient(factors, order, ring) == reference_theta_quotient(factors, order, ring)


# --- the counting quotient ---


def reference_regular_quotient(ell, r, order, m=0):
    """E_ell^r / E_1^r mod m by the plain build, power(E_ell * E_1^-1, r), which reads no store."""
    ring = Zmod(m) if m else ZZ
    return power(mul(euler_E(ell, order, ring), invert(euler_E(1, order, ring))), r)


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


# --- the prefix store; each test that counts builds starts from an empty store, on keys no other test builds ---


def power_reads(m, d, n):
    """The (store key, order) of E_1^d mod m and of the powers its build reads, to order n: the signed
    powers of 2 up to |d|'s top bit, each the square of the one below it, down to E_1^(+-1)."""
    sign = 1 if d > 0 else -1
    return {(("E_1^d", m, d), n)} | {(("E_1^d", m, sign << k), n) for k in range(abs(d).bit_length())}


def quotient_reads(ell, r, m, order):
    """The (store key, order) pairs a build of (ell, r, m) to order reads when m has no Frobenius prime:
    the key, E_1^-r mod m to order, and E_1^r mod m to order // ell, read at q -> q^ell."""
    return {((ell, r, m), order)} | power_reads(m, -r, order) | power_reads(m, r, order // ell)


def test_prefix_store_builds_once_per_longer_order(builds):
    # the key, then E_1^-5 = E_1^-1 E_1^-4 mod 9, then E_1^-4, which builds E_1^-2; then E_1^5 to 300 // 13
    negative = [("E_1^d", 9, d) for d in (-5, -1, -4, -2)]
    positive = [("E_1^d", 9, d) for d in (5, 1, 4, 2)]
    for order in (300, 200, 100, 300):
        assert cached_regular_series(13, 5, 9, order) == reference_regular_quotient(13, 5, order, 9)
    first = [((13, 5, 9), 300)] + [(key, 300) for key in negative] + [(key, 23) for key in positive]
    assert builds == first
    assert cached_regular_series(13, 5, 9, 301) == reference_regular_quotient(13, 5, 301, 9)
    assert cached_regular_series(13, 5, 9, 40) == reference_regular_quotient(13, 5, 40, 9)
    # at 301 the positive powers are still read to 301 // 13 = 23, where they are held
    assert builds == first + [((13, 5, 9), 301)] + [(key, 301) for key in negative]
    # a key sharing the powers builds only itself and the two powers it multiplies
    del builds[:]
    assert cached_regular_series(13, 6, 9, 250) == reference_regular_quotient(13, 6, 250, 9)
    assert builds == [((13, 6, 9), 250), (("E_1^d", 9, -6), 250), (("E_1^d", 9, 6), 19)]
    # E_1 powers over Z: the key, then the powers of 2 at its set bits, each the square of the one below
    del builds[:]
    for order in (90, 30, 91, 60):
        assert cached_e1_power(31, order) == power(euler_E(1, order), 31)
    e1_pieces = [("E_1^d", 0, d) for d in (31, 1, 2, 4, 8, 16)]
    assert builds == [(key, 90) for key in e1_pieces] + [(key, 91) for key in e1_pieces]


def test_regular_quotient_stores_its_pieces_and_the_cache_only_the_key(builds):
    assert regular_quotient(13, 5, 120, 9) == reference_regular_quotient(13, 5, 120, 9)
    assert Counter(builds) == Counter(quotient_reads(13, 5, 9, 120) - {((13, 5, 9), 120)})
    del builds[:]
    assert cached_regular_series(13, 5, 9, 120) == reference_regular_quotient(13, 5, 120, 9)
    assert builds == [((13, 5, 9), 120)]
    # over Z, quotients of different ell share one stored inverse of E_1, as oracle.equivalence's nine do
    del builds[:]
    for ell, r in ((3, 12), (5, 6)):
        assert regular_quotient(ell, r, 60) == reference_regular_quotient(ell, r, 60)
    assert Counter(key for key, _ in builds)[("E_1^d", 0, -1)] == 1


def test_regular_quotient_of_exponent_zero_is_one(builds):
    assert regular_quotient(7, 0, 10, 5) == one(10, Zmod(5))
    assert cached_regular_series(7, 0, 5, 10) == one(10, Zmod(5))
    assert cached_e1_power(0, 10) == one(10, ZZ)
    assert builds == [((7, 0, 5), 10), (("E_1^d", 0, 0), 10)]
    # a negative exponent of the quotient must raise, not return a wrong series
    with pytest.raises(ValueError):
        regular_quotient(7, -3, 10, 5)


@pytest.mark.parametrize("m", [1, -1, -6])
def test_regular_quotient_rejects_a_modulus_below_2(builds, m):
    # the ring's own message, raised before the modulus is split into primes
    for build in (lambda: regular_quotient(7, 3, 10, m), lambda: cached_regular_series(7, 3, m, 10)):
        with pytest.raises(ValueError, match="modulus must be >= 2"):
            build()


def test_direct_and_cached_builds_of_one_key_share_the_locks(builds):
    # two threads build through the cache and two directly, all on one key; none may deadlock
    builds.delay = 0.01
    together = threading.Barrier(4)

    def ask(cached):
        together.wait()
        return cached_regular_series(23, 13, 6, 150) if cached else regular_quotient(23, 13, 150, 6)

    with ThreadPoolExecutor(4) as pool:
        results = [f.result(timeout=60) for f in [pool.submit(ask, i % 2 == 0) for i in range(4)]]
    assert all(s == reference_regular_quotient(23, 13, 150, 6) for s in results)
    # mod 6: the key, and E_23^13 / E_1^13 = E_1^-13 E_23^13 mod 2 and mod 3, one level per p-adic digit, each
    # level to its order n // p**i down to S(-1, 0) = 1/E_1, and the powers of E_1 its digits read, each built once
    mod2 = [(("S", 2, 23, -13, 13), 150), (("S", 2, 23, -7, 6), 75), (("S", 2, 23, -4, 3), 37)]
    mod2 += [(("S", 2, 23, -2, 1), 18), (("S", 2, 1, -1, 0), 9), (("E_1^d", 2, 1), 150)]
    mod3 = [(("S", 3, 23, -13, 13), 150), (("S", 3, 23, -5, 4), 50), (("S", 3, 23, -2, 1), 16)]
    mod3 += [(("S", 3, 1, -1, 0), 5), (("E_1^d", 3, 2), 150), (("E_1^d", 3, 1), 150)]
    assert Counter(builds) == Counter([((23, 13, 6), 150)] + mod2 + mod3)


def test_prefix_store_builds_once_for_two_threads(builds):
    builds.delay = 0.05
    together = threading.Barrier(2)

    def ask():
        together.wait()
        return cached_regular_series(17, 3, 4, 200)

    with ThreadPoolExecutor(2) as pool:
        first, second = [f.result(timeout=60) for f in [pool.submit(ask) for _ in range(2)]]
    assert Counter(builds) == Counter(quotient_reads(17, 3, 4, 200)) and first is second


def test_prefix_store_threads_sharing_a_base_build_each_piece_once(builds):
    # six threads, more than a small machine has cores, each on its own key over one base;
    # the locks must neither deadlock nor build any piece twice
    builds.delay = 0.01
    exponents = (3, 5, 6, 7, 12, 2)
    together = threading.Barrier(len(exponents))
    results = {}

    def ask(r):
        together.wait()
        results[r] = cached_regular_series(19, r, 8, 200)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=ask, args=(r,), daemon=True) for r in exponents]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for r in exponents:
        assert results[r] == reference_regular_quotient(19, r, 200, 8)
    assert Counter(builds) == Counter(set().union(*(quotient_reads(19, r, 8, 200) for r in exponents)))


@pytest.mark.parametrize("orders", [(150, 600), (600, 150)])
def test_keys_sharing_a_base_read_short_and_long_in_either_order(builds, orders):
    first, second = (29, 6, 10), (29, 11, 10)
    for key, order in ((first, orders[0]), (second, orders[1]), (first, orders[1]), (second, orders[0])):
        ell, r, m = key
        assert cached_regular_series(ell, r, m, order) == reference_regular_quotient(ell, r, order, m)


@pytest.mark.parametrize("ell,r,m", _registry_quotient_keys())
def test_stored_series_is_the_regular_quotient(ell, r, m):
    assert cached_regular_series(ell, r, m, 2000) == reference_regular_quotient(ell, r, 2000, m)


@pytest.mark.parametrize("ell,r,m", [(35, 34, 35), (55, 109, 55), (3, 15, 15)])
def test_stored_series_is_the_regular_quotient_at_full_fft_length(ell, r, m):
    assert cached_regular_series(ell, r, m, 32000) == reference_regular_quotient(ell, r, 32000, m)


def test_stored_e1_power_is_the_power_of_e1():
    # over Z, mod a prime, mod a prime power and past uint64, of either sign
    for m in (0, 4, 7, 2**64 + 13):
        e1 = euler_E(1, 300, Zmod(m) if m else ZZ)
        for r in range(41):
            assert cached_e1_power(r, 300, m) == power(e1, r)
            assert cached_e1_power(-r, 300, m) == power(invert(e1), r)


# --- Frobenius chains mod p, and the rest, joined by the CRT, against the plain build ---

# the keys whose squaring chain takes six products: the benchmark's quotient workload
QUOTIENT_KEYS = [(3, 15, 3), (3, 15, 5), (3, 15, 15), (5, 21, 2), (5, 21, 5), (5, 21, 10),
                 (35, 34, 35), (55, 21, 5), (55, 21, 11), (55, 21, 55)]


def prime_factors(m):
    return [p for p in range(2, m + 1) if m % p == 0 and all(p % d for d in range(2, p))]


def chain(p, a, e1, ea, order):
    """E_1^e1 E_a^ea mod p to order by its Frobenius chain alone, also at an order below p."""
    return series_module._chain(p, list(series_module._levels(p, a, e1, ea, order)))


@pytest.mark.parametrize("ell,r,m", _registry_quotient_keys())
def test_chains_equal_the_generic_build(ell, r, m):
    order = 2000
    got = regular_quotient(ell, r, order, m)
    assert got == reference_regular_quotient(ell, r, order, m) and got.data.dtype == np.uint8
    for p in prime_factors(m):
        mod_p = chain(p, *series_module._form(ell, r, p), order)
        assert mod_p == regular_quotient(ell, r, order, p) == reference_regular_quotient(ell, r, order, p)
        assert TruncatedSeries(Zmod(p), got.data % p) == mod_p


@pytest.mark.parametrize("ell,r,m", QUOTIENT_KEYS)
def test_chains_equal_the_generic_build_at_full_fft_length(ell, r, m):
    assert regular_quotient(ell, r, 32000, m) == reference_regular_quotient(ell, r, 32000, m)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_chain_inverse_of_e1_is_newtons(p):
    # E_1^(p-1) (1/E_1)(q^p), level by level, to orders below p, at p, at p**2 and past it
    for order in (0, p - 1, p, p * p, 3000):
        assert chain(p, 1, -1, 0, order) == invert(euler_E(1, order, Zmod(p)))


@pytest.mark.parametrize(
    "m", [4, 12, 3 * 2**40, 2**64 + 13, 10**30 + 57, 6 * (2**64 + 13)], ids=["4", "12", "3*2^40", "2^64+13", "10^30+57", "6*(2^64+13)"]
)
def test_chains_join_with_a_generic_rest(m):
    # a prime power, or a prime above the order, is the rest: E_1^-r, from Newton's inverse, times E_1^r at
    # q -> q^ell, joined with the chains
    for ell, r in ((5, 21), (3, 12), (55, 7)):
        got = regular_quotient(ell, r, 600, m)
        assert got == reference_regular_quotient(ell, r, 600, m) and got.data.dtype == series_module._dtype(m)


def test_squarefree_moduli_build_without_newton(builds, monkeypatch):
    rings = []
    monkeypatch.setattr(series_module, "invert", lambda a: rings.append(a.ring.modulus) or invert(a))
    for m in (2, 3, 5, 7, 11, 10, 35, 55):
        regular_quotient(55, 21, 3000, m)
    assert rings == []
    # 4 * 55: the chains mod 5 and 11 are stored; the rest 4 takes one Newton inverse
    assert regular_quotient(55, 21, 3000, 220) == reference_regular_quotient(55, 21, 3000, 220)
    assert rings == [4]


# --- the product kernel against a schoolbook product, over Z (m == 0) and Z/m ---

KERNEL_MODULI = (2, 3, 10, 55, 2**31 - 1, 2**61 - 1, 10**30 + 57)


def naive_mod_mul(a, b, order, m):
    return [x % m if m else x for x in naive_poly_mul(a, b, order)]


def kernel_operand(rng, m, length):
    """Residues mod m, or signed integers of a random width up to 100 bits when m == 0."""
    if m:
        return [rng.randrange(m) for _ in range(length)]
    top = 1 << rng.randrange(1, 101)
    return [rng.randrange(-top, top + 1) for _ in range(length)]


def residues(values, m):
    """A kernel operand as a series stores it: an array of the ring's dtype over Z/m, the ints over Z."""
    return np.array(values, dtype=series_module._dtype(m)) if m else values


def reference_kronecker_product(la, lb, n_out, m):
    """The product by Kronecker substitution, over Z/m, or over Z when m == 0: the kernel's reference.

    Each operand becomes one Python int with nbytes bytes per coefficient, and one
    big-int multiply gives every coefficient of the product in its own slot.  A
    slot sums at most min(len_a, len_b) terms, so its absolute value is at most
    max(ma*mb*min(len_a, len_b), ma, mb); one more bit carries its sign, so no
    carry or borrow crosses a slot.  Adding half a slot to every slot reads each
    one back unsigned.
    """
    la = [int(c) for c in la[: n_out + 1]]
    lb = [int(c) for c in lb[: n_out + 1]]
    ma, mb = max(map(abs, la)), max(map(abs, lb))
    nbytes = (max(ma * mb * min(len(la), len(lb)), ma, mb).bit_length() + 1 + 7) // 8

    def joined(coeffs):
        return int.from_bytes(b"".join(c.to_bytes(nbytes, "little") for c in coeffs), "little")

    def pack(coeffs):
        return joined(max(c, 0) for c in coeffs) - joined(max(-c, 0) for c in coeffs)

    half = 1 << (8 * nbytes - 1)
    x = pack(la) * pack(lb) + int.from_bytes((b"\x00" * (nbytes - 1) + b"\x80") * (n_out + 1), "little")
    raw = (x & ((1 << (8 * nbytes * (n_out + 1))) - 1)).to_bytes(nbytes * (n_out + 1), "little")
    out = [int.from_bytes(raw[i : i + nbytes], "little") - half for i in range(0, len(raw), nbytes)]
    return [c % m for c in out] if m else out


@pytest.mark.parametrize("m", (0,) + KERNEL_MODULI)
@pytest.mark.parametrize("la,lb", [(1, 1), (1, 9), (9, 1), (2, 7), (17, 5), (40, 40), (64, 33)])
def test_kernel_matches_schoolbook(m, la, lb):
    rng = random.Random(f"{m}-{la}-{lb}")
    a = kernel_operand(rng, m, la)
    b = kernel_operand(rng, m, lb)
    xa, xb = residues(a, m), residues(b, m)
    # every truncation, up to the full product of la + lb - 1 coefficients
    for n_out in sorted({0, min(la, lb) - 1, max(la, lb) - 1, la + lb - 2}):
        assert list(_product(xa, xb, n_out, m)) == naive_mod_mul(a, b, n_out, m)
        assert list(_product(xa, xa, n_out, m)) == naive_mod_mul(a, a, n_out, m)


@pytest.mark.parametrize("m", (0,) + KERNEL_MODULI)
@pytest.mark.parametrize("length", [1, 2, 31, 257])
def test_kernel_at_slot_bound(m, length):
    # all-(m-1) residues, or all -(2**b) integers over Z, make every coefficient of the
    # product reach its largest absolute value, c*c*min(len_a, len_b)
    ring = Zmod(m) if m else ZZ
    for c in (m - 1,) if m else (-(2**31), -(2**100)):
        top = [c] * length
        x = residues(top, m)
        assert list(_product(x, x, length - 1, m)) == naive_mod_mul(top, top, length - 1, m)
        assert list(_product(x, residues([abs(c)], m), length - 1, m)) == naive_mod_mul(top, [abs(c)], length - 1, m)
        # the digits of the wide operand against a zero one
        assert list(_product(residues([0] * length, m), x, length - 1, m)) == [0] * length
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


# --- the float transform against Kronecker, and the bounds that choose the rows ---


@pytest.fixture
def row_shapes(monkeypatch):
    """(rows, length, w) for every operand the kernel transforms: w == 0 is one row, the operand whole."""
    real, shapes = series_module._rows, []

    def spy(coeffs, m, w, h):
        rows = real(coeffs, m, w, h)
        shapes.append((*rows.shape, w))
        return rows

    monkeypatch.setattr(series_module, "_rows", spy)
    return shapes


def percival_admits(h, top, len_a, len_b=None):
    """The float bound for two rows of these lengths with |c| <= h, in 60-digit decimals.

    Written apart from series._float_exact: max(h*h*min(len), top) < 2**52 and
    2 * h*h*sqrt(len_a*len_b) * ((1+eps)^3n (1+eps*sqrt5)^(3n+1) (1+beta)^3n - 1) < 1/4.
    """
    len_b = len_a if len_b is None else len_b
    if max(h * h * min(len_a, len_b), top) >= 2**52:
        return False
    with localcontext() as ctx:
        ctx.prec = 60
        eps, beta = Decimal(2) ** -53, Decimal(2) ** -52
        n = (len_a + len_b - 2).bit_length()
        growth = (1 + eps) ** (3 * n) * (1 + eps * Decimal(5).sqrt()) ** (3 * n + 1) * (1 + beta) ** (3 * n) - 1
        return 2 * h * h * Decimal(len_a * len_b).sqrt() * growth < Decimal(1) / 4


def largest_admitted(h, top):
    """The longest equal operand length percival_admits, by doubling and bisection."""
    hi = 1
    while percival_admits(h, top, hi):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if percival_admits(h, top, mid) else (lo, mid)
    return lo


def digit_width(len_a, len_b):
    """The widest w whose digits, |d| <= 2**(w-1), percival_admits at these lengths."""
    return max(w for w in range(1, 27) if percival_admits(2 ** (w - 1), 2 ** (w - 1), len_a, len_b))


@pytest.mark.parametrize("m", [2, 3, 10, 55])
@pytest.mark.parametrize("length", [1, 2, 2000, 32001])
def test_fft_product_matches_kronecker_mod_m(m, length, row_shapes):
    rng = random.Random(f"fft-{m}-{length}")
    a = residues([rng.randrange(m) for _ in range(length)], m)
    b = residues([rng.randrange(m) for _ in range(length)], m)
    assert list(_product(a, b, length - 1, m)) == reference_kronecker_product(a, b, length - 1, m)
    assert list(_product(a, a, length - 1, m)) == reference_kronecker_product(a, a, length - 1, m)
    # the whole product, and one truncated below the longer operand
    short = b[: length // 2 + 1]
    for n_out in (2 * length - 2, length // 2):
        assert list(_product(a, short, n_out, m)) == reference_kronecker_product(a, short, n_out, m)
    # past the product's last coefficient the result is zero-padded
    assert list(_product(a, short, 2 * length + 3, m)) == reference_kronecker_product(a, short, 2 * length + 3, m)
    # every operand went to the transform whole, as one row
    assert {(rows, w) for rows, _, w in row_shapes} == {(1, 0)}


@pytest.mark.parametrize("bits", range(1, 21))
def test_fft_product_matches_kronecker_over_z(bits, row_shapes):
    # signed coefficients of up to `bits` bits, at the longest length (at most 2000) the bound admits
    top = 2**bits
    length = min(largest_admitted(top, top), 2000)
    rng = random.Random(f"fft-z-{bits}")
    a = [rng.randrange(-top, top + 1) for _ in range(length)]
    b = [rng.randrange(-top, top + 1) for _ in range(length)]
    for la, lb in ((a, b), (a, a), (a, b[: length // 3 + 1])):
        assert _product(la, lb, length - 1, 0) == reference_kronecker_product(la, lb, length - 1, 0)
    assert {(rows, w) for rows, _, w in row_shapes} == {(1, 0)}


@pytest.mark.parametrize("m,h", [(65537, 32768), (100003, 50001), (2**17 - 1, 2**16 - 1), (0, 2**15), (0, 2**16)])
def test_float_path_at_its_bound(m, h, row_shapes):
    """At the longest admitted length each operand is one row; one longer, it splits into k = 2 digit rows."""
    # h bounds the balanced residues (m // 2) over Z/m, and the coefficients over Z
    top = m - 1 if m else h
    edge = largest_admitted(h, top)
    assert 500 < edge < 5000
    w = digit_width(edge + 1, edge + 1)
    # all-(m-1) residues, the worst balanced residue m // 2, or all -h over Z
    for c in (m - 1, m // 2) if m else (-h,):
        for length, shape in ((edge, (1, edge, 0)), (edge + 1, (2, edge + 1, w))):
            a, b = residues([c] * length, m), residues([c] * length, m)
            # a constant operand of length L squared: coefficient k is c*c*(k+1)
            expected = [c * c * (k + 1) % m if m else c * c * (k + 1) for k in range(length)]
            row_shapes.clear()
            assert list(_product(a, a, length - 1, m)) == expected
            assert list(_product(a, b, length - 1, m)) == expected
            assert row_shapes == [shape] * 3


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
def test_float_path_refused_past_the_bound(monkeypatch, row_shapes):
    # products near 2**72: a looser bound would send these to one row, which cannot hold them
    m, length = 2**31 - 1, 4096
    w = digit_width(length, length)
    top = residues([m - 1] * length, m)
    assert list(_product(top, top, length - 1, m)) == [(k + 1) % m for k in range(length)]
    half = residues([m // 2] * length, m)
    expected = [(m // 2) ** 2 * (k + 1) % m for k in range(length)]
    assert list(_product(half, half, length - 1, m)) == expected
    # both split into the digits of the bound m // 2 = 2**30 - 1
    assert row_shapes[0] == row_shapes[1] and row_shapes[0][1:] == (length, w) and row_shapes[0][0] >= 2
    # the same product forced onto one row is wrong, or its residual guard raises
    monkeypatch.setattr(series_module, "_float_exact", lambda *bounds: True)
    try:
        assert list(_product(half, half, length - 1, m)) != expected
    except ArithmeticError:
        pass


def test_operand_float64_cannot_hold_is_split_against_a_zero_operand(row_shapes):
    # 10**400 overflows float64, so it is split even when the other operand is zero
    assert _product([10**400], [0, 0], 1, 0) == [0, 0]
    assert _product([10**400], [1, -1], 1, 0) == [10**400, -(10**400)]
    assert all(w for *_, w in row_shapes) and row_shapes[0][0] > 1


def test_float_path_transforms_balanced_residues(monkeypatch):
    # the bound takes |c| <= m // 2 over Z/m, so the transform must see c - m for c > m // 2
    real, seen = np.fft.rfft, []

    def spy(x, *args, **kwargs):
        seen.append((x.min(), x.max()))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", spy)
    m = 55
    a = list(range(m)) * 3
    x = residues(a, m)
    assert list(_product(x, x, len(a) - 1, m)) == naive_mod_mul(a, a, len(a) - 1, m)
    assert seen == [(-(m // 2), m // 2)]


def test_float_residual_guard(monkeypatch):
    real = np.fft.irfft

    def off(*args, **kwargs):
        out = real(*args, **kwargs)
        out[..., 3] += 0.4
        return out

    monkeypatch.setattr(np.fft, "irfft", off)
    a = series([1, 2, 3, 4, 5, 6], Zmod(55))
    with pytest.raises(ArithmeticError, match="residual"):
        mul(a, a)


def test_digit_residual_guard(monkeypatch):
    # a digit product left 0.4 off an integer raises too; the guard covers every digit pair
    real = np.fft.irfft

    def off(*args, **kwargs):
        out = real(*args, **kwargs)
        out[-1, 2] += 0.4
        return out

    monkeypatch.setattr(np.fft, "irfft", off)
    a = [3**90, -(5**70), 7**60]
    with pytest.raises(ArithmeticError, match="residual"):
        _product(a, a, 2, 0)


# --- wide coefficients: the balanced digit split against the reference ---


def signed_extremes(bits):
    """Coefficients of exactly `bits` bits in both signs: the largest and the smallest, and 2**bits's neighbour."""
    top = 2**bits - 1
    return [top, -top, 2 ** (bits - 1), -(2 ** (bits - 1)), -(2**bits) + 2]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("lengths", [(1, 1), (3, 2), (40, 40), (300, 257)])
def test_digit_product_matches_kronecker_at_digit_edges(k, lengths, row_shapes):
    """Coefficients of k*w - 1, k*w and k*w + 1 bits, where a balanced split needs k or k + 1 digits."""
    len_a, len_b = lengths
    w = digit_width(len_a, len_b)
    rng = random.Random(f"digits-{k}-{lengths}")
    for bits in (k * w - 1, k * w, k * w + 1):
        pool = signed_extremes(bits)
        a = [rng.choice(pool) for _ in range(len_a)]
        b = [rng.choice(pool) for _ in range(len_b)]
        # the full product, a truncation below both operands, and one past the product's length
        for n_out in (len_a + len_b - 2, max(0, min(len_a, len_b) - 2), len_a + len_b + 3):
            assert _product(a, b, n_out, 0) == reference_kronecker_product(a, b, n_out, 0)
            assert _product(b, a, n_out, 0) == reference_kronecker_product(b, a, n_out, 0)
            assert _product(a, a, n_out, 0) == reference_kronecker_product(a, a, n_out, 0)
    # k * w + 1 bits took k + 1 digits of the untruncated operands' width
    assert (k + 1, len_a, w) in row_shapes


@pytest.mark.parametrize("length,widths", [(n, (1, 7, 60, 61, 150, 600, 1200)) for n in (1, 2, 64, 501)] + [(2001, (1, 40, 150))])
def test_digit_product_matches_kronecker_to_1200_bits(length, widths):
    rng = random.Random(f"wide-{length}")
    a = [rng.choice((-1, 1)) * rng.getrandbits(rng.choice(widths)) for _ in range(length)]
    b = [rng.choice((-1, 1)) * rng.getrandbits(rng.choice(widths)) for _ in range(length)]
    for n_out in (length - 1, length // 3, 2 * length - 2, 2 * length + 1):
        assert _product(a, b, n_out, 0) == reference_kronecker_product(a, b, n_out, 0)
        assert _product(a, a, n_out, 0) == reference_kronecker_product(a, a, n_out, 0)


@pytest.mark.parametrize("m,length", [(65537, 5000), (2**31 - 1, 1), (2**31 - 1, 700), (2**64 + 13, 1), (2**64 + 13, 400)])
def test_digit_product_matches_kronecker_mod_m(m, length, row_shapes):
    # 65537 is split only past the float bound's edge; 2**31 - 1 always; 2**64 + 13 is an object array
    rng = random.Random(f"digits-mod-{m}-{length}")
    values = [m - 1, m // 2, m // 2 + 1, 0, 1]
    a = residues([rng.choice(values + [rng.randrange(m)]) for _ in range(length)], m)
    b = residues([rng.randrange(m) for _ in range(length)], m)
    for n_out in (length - 1, length // 2, 2 * length + 2):
        for x, y in ((a, b), (a, a), (b, a[: length // 3 + 1])):
            got = _product(x, y, n_out, m)
            assert got.dtype == series_module._dtype(m) and got.shape == (n_out + 1,)
            assert list(got) == reference_kronecker_product(x, y, n_out, m)
    # the first product, a by b in full, was split into digits
    assert row_shapes[0][2] > 0 and row_shapes[1][2] > 0


def test_digit_sums_carried_past_512_rows():
    # every digit of c is -2**(w-1), 1100 of them: the int64 diagonal sums are carried twice mid-product
    w = digit_width(3, 3)
    c = -(2 ** (w - 1)) * (2 ** (w * 1100) - 1) // (2**w - 1)
    a, b = [c, c, c], [c, -c, c]
    assert _product(a, b, 4, 0) == naive_poly_mul(a, b, 4)
    assert _product(a, a, 4, 0) == naive_poly_mul(a, a, 4)


@pytest.mark.parametrize(
    "m,bits_a,bits_b,len_a,len_b",
    [(0, 40, 40, 2000, 2000), (0, 155, 155, 300, 500), (0, 700, 700, 64, 64), (0, 3, 90, 1000, 9), (2**31 - 1, 30, 30, 300, 200)],
)
def test_digit_rows_stay_inside_the_bound(m, bits_a, bits_b, len_a, len_b, monkeypatch):
    """Every row the digit split transforms has |d| <= 2**(w-1), for the largest w _float_exact admits."""
    real_exact, real_rfft = series_module._float_exact, np.fft.rfft
    admitted, seen = [], []

    def exact_spy(*bounds):
        ok = real_exact(*bounds)
        admitted.append((bounds, ok))
        return ok

    def rfft_spy(x, *args, **kwargs):
        seen.append(np.abs(x).max())
        return real_rfft(x, *args, **kwargs)

    monkeypatch.setattr(series_module, "_float_exact", exact_spy)
    monkeypatch.setattr(np.fft, "rfft", rfft_spy)
    rng = random.Random(f"bound-{m}-{bits_a}-{len_a}")
    # each operand reaches its extreme -2**bits, or the balanced residue m // 2
    a = [-(2**bits_a)] + [rng.randrange(-(2**bits_a), 2**bits_a) for _ in range(len_a - 1)]
    b = [m // 2 if m else -(2**bits_b)] + [rng.randrange(-(2**bits_b), 2**bits_b) for _ in range(len_b - 1)]
    x, y = (residues([c % m for c in a], m), residues([c % m for c in b], m)) if m else (a, b)
    n_out = len_a + len_b - 2
    assert list(_product(x, y, n_out, m)) == reference_kronecker_product(x, y, n_out, m)
    # the whole operands were refused, then widths were tried from the widest down
    (_, whole), *widths = admitted
    *refused, (bounds, ok) = widths
    assert not whole and ok and not any(ok for _, ok in refused)
    h = bounds[0]
    assert bounds == (h, h, h, h, len_a, len_b) and h & (h - 1) == 0
    # so w is the largest admitted width: the next one up is refused
    assert not real_exact(2 * h, 2 * h, 2 * h, 2 * h, len_a, len_b)
    # each operand's rows were transformed once, and no digit exceeds the bound
    assert len(seen) == 2 and max(seen) <= h


@lru_cache(maxsize=None)
def _oracle_counts(ell, r, n_max):
    return tuple(regular_multipartition_counts(ell, r, n_max).values)


@pytest.mark.parametrize("ell,r,m", _registry_quotient_keys())
def test_regular_quotient_mod_m_matches_oracle(ell, r, m):
    got = regular_quotient(ell, r, 300, m)
    assert list(got.coeffs) == [c % m for c in _oracle_counts(ell, r, 300)]


# quotient digests recorded from the kernel that held Z/m coefficients as tuples of Python ints
RECORDED = json.loads((Path(__file__).resolve().parents[1] / "bench" / "expected.json").read_text())["quotient"]


@pytest.mark.parametrize("ell,r,m", _registry_quotient_keys())
def test_regular_quotient_matches_recorded_digest(ell, r, m):
    s = regular_quotient(ell, r, 32000, m)
    # the digest bench/workloads.py's coeff_digest takes
    digest = hashlib.sha256((f"{m}:" + ",".join(map(str, s.coeffs))).encode()).hexdigest()
    assert digest == RECORDED[f"{ell},{r},{m}@32000"]


@lru_cache(maxsize=None)
def _exact_quotient(ell, r, order):
    return regular_quotient(ell, r, order, 0)


@pytest.mark.parametrize("ell,r,m", _registry_quotient_keys())
def test_regular_quotient_mod_m_is_the_exact_series_reduced(ell, r, m):
    got = regular_quotient(ell, r, 500, m)
    assert list(got.coeffs) == [c % m for c in _exact_quotient(ell, r, 500).coeffs]


@pytest.mark.parametrize("m", [251, 255, 256, 257, 65535, 65537])
def test_zmod_operations_at_dtype_edges_match_z(m):
    # residues near m - 1, where a sum or negation held in an unwidened uint8 or uint16 wraps
    rng = random.Random(f"edge-{m}")
    ring = Zmod(m)
    top_a = [m - 1 - rng.randrange(3) for _ in range(40)]
    top_b = [m - 1 - rng.randrange(3) for _ in range(40)]
    a_z, b_z = series(top_a, ZZ), series(top_b, ZZ)
    a, b = series(top_a, ring), series(top_b, ring)

    def reduced(s):
        return [c % m for c in s.coeffs]

    assert a.data.dtype.itemsize == (1 if m <= 256 else 2 if m <= 65536 else 4)
    assert list(add(a, b).coeffs) == reduced(add(a_z, b_z))
    assert list(mul(a, b).coeffs) == reduced(mul(a_z, b_z))
    assert list(power(a, 5).coeffs) == reduced(power(a_z, 5))
    # constant term -1 over Z and m - 1 over Z/m: a unit in both rings
    unit_z = series([-1] + top_a[1:], ZZ)
    assert list(invert(series(unit_z.coeffs, ring)).coeffs) == reduced(invert(unit_z))
    for x, y in ((1, 2), (3, 3), (2, 5)):
        assert list(theta(x, y, 60, ring).coeffs) == reduced(theta(x, y, 60, ZZ))
    assert list(dilate(a, 3).coeffs) == reduced(dilate(a_z, 3))
    # invert's negation; -0 must stay 0, also where m is below the dtype's 2**bits
    assert list(series_module._neg_mod(residues([0, 1, m - 1], m), m)) == [0, m - 1, 1]


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
