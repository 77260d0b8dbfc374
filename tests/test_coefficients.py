"""Coefficient tables, recurrences, eta powers, bridges, and scaling congruences."""

import pytest

from regulus import coefficients as co
from regulus.report import VerificationReport
from regulus.series import ZZ, euler_E, power


def naive_e1_power(r, order):
    """Dense repeated multiplication by the literal Euler factors, no shortcuts."""
    c = [1] + [0] * order
    for _ in range(r):
        for m in range(1, order + 1):
            for n in range(order, m - 1, -1):
                c[n] -= c[n - m]
    return c


def violations(report):
    """Each violation as (index, value, or its sorted keys when it is a dict, params)."""
    return [
        (v["index"], sorted(v["value"]) if isinstance(v["value"], dict) else v["value"], v["params"])
        for v in report.violations
    ]


# --- the rows of one case, evaluated under the report id each had as a check of its own ---


def newman_four_step(r, p, n_max_index):
    swept = {"r": r, "p": p, "delta4": co.NewmanParams(r, p).delta4}
    report = VerificationReport(id=f"newman4.r{r}.p{p}", params_swept=swept)
    return co.check_relation(report, *co.four_step_rows(r, p, n_max_index))


def support_check(form, n_max):
    report = VerificationReport(id=f"support.{form.id}", params_swept={"mod": form.scale, "residue": form.shift})
    return co.check_relation(report, *co.support_rows(form, n_max))


def vanishing_consequence_check(form, p, n_max):
    """The row, whose n = 1 is a(p) = 0."""
    report = VerificationReport(id=f"vanishing.{form.id}.p{p}", params_swept={"p": p})
    return co.check_relation(report, *co.vanishing_rows(form, p, n_max))


# --- E_1^r tables ---


def test_a_r_zero_is_one():
    for r in (1, 2, 12, 24):
        assert co._e1_power(r, 4)[0] == 1


def test_a24_small_values_match_naive():
    expected = naive_e1_power(24, 6)
    got = co._e1_power(24, 6)
    assert list(got) == expected
    assert got[4] == 4830


def test_a1_is_pentagonal():
    got = co._e1_power(1, 40)
    assert list(got) == list(euler_E(1, 40, ZZ).coeffs)


def test_a12_matches_naive():
    assert list(co._e1_power(12, 8)) == naive_e1_power(12, 8)


# --- Newman recurrence ---


def test_newman_params_validation():
    assert co.NewmanParams(24, 5).delta == 4
    assert co.NewmanParams(12, 13).delta == 6
    with pytest.raises(ValueError):
        co.NewmanParams(13, 5)  # odd r
    with pytest.raises(ValueError):
        co.NewmanParams(26, 5)  # r too large
    with pytest.raises(ValueError):
        co.NewmanParams(2, 5)  # 24 does not divide 2*4


def test_newman_trivial_instance():
    # r=24, p=5, n=0: the divisibility guard kills the third term
    a = co._e1_power(24, 4)
    assert a[4] == a[4] * a[0] - 5**11 * 0


def test_newman_r24_p5():
    report = co.newman_check(co.NewmanParams(24, 5), 1504)
    assert report.status == "pass"
    assert report.indices_checked >= 300


def test_newman_r12_p13():
    report = co.newman_check(co.NewmanParams(12, 13), 1306)
    assert report.status == "pass"
    assert report.indices_checked >= 100


def test_newman_recurrence_against_direct_recomputation():
    # independent re-derivation of the relation at a handful of points
    params = co.NewmanParams(24, 2)
    a = co._e1_power(24, 200)
    delta = params.delta
    for n in range(50):
        third = a[(n - delta) // 2] if (n - delta) >= 0 and (n - delta) % 2 == 0 else 0
        assert a[2 * n + delta] == a[delta] * a[n] - 2**11 * third


def test_admissible_newman_pairs():
    pairs = {(q.r, q.p) for q in co.admissible_newman_pairs(13)}
    assert (24, 2) in pairs and (12, 13) in pairs and (2, 13) in pairs
    assert (12, 2) not in pairs  # 12*1 not divisible by 24
    for r, p in pairs:
        assert r * (p - 1) % 24 == 0


def test_four_step_r24_p2():
    report = newman_four_step(24, 2, 976)
    assert report.status == "pass"
    assert report.indices_checked >= 60


def test_four_step_r12_p3():
    report = newman_four_step(12, 3, 1660)
    assert report.status == "pass"
    assert report.indices_checked >= 20


def test_four_step_out_of_budget_is_skipped():
    report = newman_four_step(24, 5, 100)  # delta4 = 624 > 100
    assert report.status == "skipped"


# --- eta power tables ---


def test_eta8_leading_coefficients():
    a = co._eta_table(co.ETA8_3Z, 8)
    assert a[1] == 1
    assert a[0] == 0 and a[2] == 0 and a[3] == 0
    assert a[4] == -8


def test_eta10_leading_coefficients():
    a = co._eta_table(co.ETA10_12Z, 20)
    assert all(a[n] == 0 for n in range(5))
    assert a[5] == 1
    assert a[17] == -10


def test_eta6_support():
    a = co._eta_table(co.ETA6_4Z, 200)
    for n in range(201):
        if n % 4 != 1:
            assert a[n] == 0


def test_eta_table_matches_naive_expansion():
    # q * E_3^8 expanded by dense multiplication
    order = 30
    c = [1] + [0] * order
    for _ in range(8):
        m = 3
        while m <= order:
            for n in range(order, m - 1, -1):
                c[n] -= c[n - m]
            m += 3
    a = co._eta_table(co.ETA8_3Z, order)
    assert list(a) == [0] + c[:order]


@pytest.mark.parametrize("form", co.FORMS.values(), ids=lambda form: form.id)
@pytest.mark.parametrize("n_max", [0, 1, 4, 5, 6, 12, 13, 301])
def test_eta_table_is_the_eta_quotient(form, n_max):
    # against the plain build q^shift E_scale^e, including tables shorter than the q-shift
    body = power(euler_E(form.scale, n_max, ZZ), form.exponent).coeffs
    assert co._eta_table(form, n_max) == ((0,) * form.shift + body)[: n_max + 1]


@pytest.mark.parametrize("form", [co.ETA8_3Z, co.ETA6_4Z, co.ETA10_12Z])
def test_support_checks(form):
    report = support_check(form, 500)
    assert report.status == "pass"


# --- Hecke eigen relations ---


def test_hecke_eta8_p2_direct():
    # a(2) = 0, so the relation collapses to a(2n) = -8 a(n/2)
    a = co._eta_table(co.ETA8_3Z, 1000)
    assert a[2] == 0
    for n in range(1, 500):
        lower = a[n // 2] if n % 2 == 0 else 0
        assert a[2 * n] == -8 * lower


def test_hecke_eta8_p7_trivial_at_one():
    a = co._eta_table(co.ETA8_3Z, 8)
    assert a[7] == a[7] * a[1]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("form", [co.ETA8_3Z, co.ETA6_4Z])
def test_hecke_eigen_checks(form, p):
    report = co.hecke_eigen_check(form, p, 600)
    assert report.status == "pass", report.violations[:1]


def test_hecke_weight5_combination_out_of_scope():
    with pytest.raises(ValueError):
        co.hecke_eigen_check(co.ETA10_12Z, 5, 100)


def test_chi_values():
    assert co.ETA8_3Z.chi(3) == 0  # ramified
    assert co.ETA8_3Z.chi(5) == 1  # trivial character
    assert co.ETA6_4Z.chi(2) == 0  # ramified
    assert co.ETA6_4Z.chi(5) == 1 and co.ETA6_4Z.chi(7) == -1


# --- vanishing consequences ---


def test_admissible_vanishing_primes():
    assert co.smallest_primes(co.ETA8_3Z.inert, 3) == [2, 5, 11]
    assert co.smallest_primes(co.ETA6_4Z.inert, 3) == [3, 7, 11]
    assert co.smallest_primes(co.ETA10_12Z.inert, 3) == [7, 11, 19]


def test_vanishing_eta8_p5(bump):
    report = vanishing_consequence_check(co.ETA8_3Z, 5, 600)
    assert report.status == "pass"
    bump(co, "_eta_table", 130)  # a(5 * 26), zero since 5 does not divide 26
    report = vanishing_consequence_check(co.ETA8_3Z, 5, 600)
    assert report.status == "fail" and violations(report) == [(130, 1, {"n": 26})]


def test_vanishing_eta10_p7(bump):
    report = vanishing_consequence_check(co.ETA10_12Z, 7, 600)
    assert report.status == "pass"
    bump(co, "_eta_table", 140)
    report = vanishing_consequence_check(co.ETA10_12Z, 7, 600)
    assert report.status == "fail" and violations(report) == [(140, 1, {"n": 20})]


def test_vanishing_eta6_p3_direct():
    a = co._eta_table(co.ETA6_4Z, 600)
    for n in range(1, 200):
        if n % 3:
            assert a[3 * n] == 0


@pytest.mark.parametrize("p", [0, 1, 4, 25])
def test_non_prime_p_is_rejected(p):
    # each relation holds only at primes; at p = 25, 24 | 24 (p - 1) would admit Newman's parameters otherwise
    with pytest.raises(ValueError, match="prime"):
        co.NewmanParams(24, p)
    with pytest.raises(ValueError, match="prime"):
        newman_four_step(24, p, 200)
    with pytest.raises(ValueError, match="prime"):
        co.hecke_eigen_check(co.ETA8_3Z, p, 200)
    with pytest.raises(ValueError, match="prime"):
        vanishing_consequence_check(co.ETA8_3Z, p, 200)


def test_vanishing_precondition_errors():
    with pytest.raises(ValueError):
        vanishing_consequence_check(co.ETA8_3Z, 7, 100)  # 7 = 1 mod 3
    with pytest.raises(ValueError):
        vanishing_consequence_check(co.ETA10_12Z, 3, 100)  # excluded prime


# --- bridges ---


def test_bridge_constant_terms():
    # B(0) = 1 on the multipartition side, a(1) = 1 on the eta side
    report = co.bridge_congruence_check("b312_eta8", 40)
    assert report.status == "pass"


# series index of each bridge's n = 3 coefficient
BRIDGE_INDEX_AT_3 = {
    "b56_a24": 3,
    "b76_a12": 23,
    "b312_eta8": 9,
    "b315_eta10": 9,
    "b510_eta8": 15,
    "b77_eta6": 21,
    "b1111_eta10": 33,
}


@pytest.mark.parametrize("bridge", co.BRIDGE_IDS)
def test_bridges_small(bridge, bump):
    report = co.bridge_congruence_check(bridge, 40)
    assert report.status == "pass", report.violations[:1]
    assert report.indices_checked == 41
    index = BRIDGE_INDEX_AT_3[bridge]
    bump(co, "cached_regular_series", index)
    report = co.bridge_congruence_check(bridge, 40)
    assert report.status == "fail" and violations(report) == [(index, ["series", "table"], {})]


def test_bridge_forms_are_powers_of_their_table():
    for row in co.BRIDGES.values():
        assert row.form is None or row.form.exponent == row.table


def test_unknown_bridge():
    with pytest.raises(KeyError):
        co.bridge_congruence_check("nope", 10)


# --- scaling congruences ---
# each bumped index is a left side 3(p^2 n + shift) or 7(p^2 n + shift) past every right side


def test_scaling_b312_p2(bump):
    report = co.scaling_congruence_check("eq_b312_scale", 2, 100)
    assert report.status == "pass"
    bump(co, "cached_regular_series", 363)  # n = 30
    report = co.scaling_congruence_check("eq_b312_scale", 2, 100)
    assert report.status == "fail" and violations(report) == [(363, ["lhs", "rhs"], {})]


def test_scaling_b315_p7(bump):
    report = co.scaling_congruence_check("eq_b315_scale", 7, 10)
    assert report.status == "pass"
    bump(co, "cached_regular_series", 501)  # n = 3
    report = co.scaling_congruence_check("eq_b315_scale", 7, 10)
    assert report.status == "fail" and violations(report) == [(501, ["lhs", "rhs"], {})]


def test_scaling_b77_p3_includes_multiplier(bump):
    # the right side carries the factor p^2 = 9 = 2 mod 7
    report = co.scaling_congruence_check("eq_b77_scale", 3, 40)
    assert report.status == "pass"
    assert 9 % 7 == 2
    bump(co, "cached_regular_series", 329)  # n = 5
    report = co.scaling_congruence_check("eq_b77_scale", 3, 40)
    assert report.status == "fail" and violations(report) == [(329, ["lhs", "rhs"], {})]


def test_scaling_precondition_errors():
    with pytest.raises(ValueError):
        co.scaling_congruence_check("eq_b312_scale", 3, 10)
    with pytest.raises(ValueError):
        co.scaling_congruence_check("eq_b315_scale", 3, 10)
    with pytest.raises(ValueError):
        co.scaling_congruence_check("eq_b77_scale", 7, 10)
    with pytest.raises(KeyError):
        co.scaling_congruence_check("bogus", 3, 10)


# --- primality helpers ---


def test_primes_upto():
    assert co.primes_upto(13) == [2, 3, 5, 7, 11, 13]
    assert not co._is_prime(1) and not co._is_prime(91)
