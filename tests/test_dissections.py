"""Theta-quotient products and dissection identities, with naive in-test oracles."""

import pytest

from regulus import dissections
from regulus.dissections import IDENTITIES, E, canonical_identity_id, verify_dissection
from regulus.series import ZZ, euler_E, invert, mul, one, theta, theta_quotient

# the Rogers-Ramanujan quotient and Hirschhorn's products as theta-factor rows
R = ((1, 4, 1), (2, 3, -1))


def A(i):
    return ((i, 7 - i, 1), E(7, -1))


def B(i):
    return ((i, 11 - i, 1), E(11, -1))


def naive_residue_product(order, keep, invert_residues=()):
    """Expand prod (1-q^d) over kept d, divided by the inverted ones, naively.

    `keep` and `invert_residues` are predicates on d.  Division is done by
    long division against (1 - q^d), so this routine shares no code with
    the theta series or the library's products.
    """
    c = [1] + [0] * order

    def mul_factor(d):
        out = list(c)
        for n in range(d, order + 1):
            out[n] -= c[n - d]
        return out

    def div_factor(d):
        out = list(c)
        for n in range(d, order + 1):
            out[n] += out[n - d]
        return out

    for d in range(1, order + 1):
        if keep(d):
            c = mul_factor(d)
    for d in range(1, order + 1):
        if invert_residues and invert_residues(d):
            c = div_factor(d)
    return c


def test_rr_product_prefix_matches_naive_expansion():
    expected = naive_residue_product(
        8, lambda d: d % 5 in (1, 4), lambda d: d % 5 in (2, 3)
    )
    assert list(theta_quotient(R, 8).coeffs) == expected
    assert expected == [1, -1, 1, 0, -1, 1, -1, 1, 0]
    expected = naive_residue_product(
        60, lambda d: d % 5 in (1, 4), lambda d: d % 5 in (2, 3)
    )
    assert list(theta_quotient(R, 60).coeffs) == expected


def test_rr_product_constant_term():
    assert theta_quotient(R, 20)[0] == 1


def test_rr_product_reciprocal():
    r = theta_quotient(R, 40)
    assert mul(r, invert(r)) == one(40, ZZ)
    assert theta_quotient(((2, 3, 1), (1, 4, -1)), 40) == invert(r)


def test_hirschhorn_a1_prefix():
    expected = naive_residue_product(15, lambda d: d % 7 in (1, 6))
    got = theta_quotient(A(1), 15)
    assert list(got.coeffs) == expected
    assert got[0] == 1 and got[1] == -1 and got[6] == -1


@pytest.mark.parametrize("i", [1, 2, 3])
def test_hirschhorn_a_matches_naive(i):
    expected = naive_residue_product(40, lambda d: d % 7 in (i, 7 - i))
    assert list(theta_quotient(A(i), 40).coeffs) == expected


@pytest.mark.parametrize("i", [1, 2, 3, 4, 5])
def test_hirschhorn_b_matches_naive(i):
    expected = naive_residue_product(40, lambda d: d % 11 in (i, 11 - i))
    assert list(theta_quotient(B(i), 40).coeffs) == expected


def test_constant_terms():
    for i in (1, 2, 3):
        assert theta_quotient(A(i), 10)[0] == 1
    for i in (1, 2, 3, 4, 5):
        assert theta_quotient(B(i), 10)[0] == 1


def test_index_range_guards():
    # theta(a, b) is f(-q^a, -q^b) only for a, b >= 1; a row outside that range fails
    for a, b in ((0, 5), (5, 0), (-1, 2), (0, 0)):
        with pytest.raises(ValueError):
            theta(a, b, 10)
        with pytest.raises(ValueError):
            theta_quotient(((a, b, 1),), 10)


def test_a_products_tile_e1_over_e7():
    # A_1 A_2 A_3 covers every residue class except multiples of 7
    order = 200
    got = theta_quotient(A(1) + A(2) + A(3), order)
    expected = mul(euler_E(1, order, ZZ), invert(euler_E(7, order, ZZ)))
    assert got == expected


def test_b_products_tile_e1_over_e11():
    order = 120
    got = theta_quotient(sum((B(i) for i in (1, 2, 3, 4, 5)), ()), order)
    expected = mul(euler_E(1, order, ZZ), invert(euler_E(11, order, ZZ)))
    assert got == expected


def test_canonical_names():
    assert canonical_identity_id("TWO_DISS_E5_OVER_E1") == "2diss"
    assert canonical_identity_id("five_diss_e1") == "5diss"
    assert canonical_identity_id("7diss") == "7diss"
    with pytest.raises(KeyError):
        canonical_identity_id("bogus")


@pytest.mark.parametrize("name", ["2diss", "5diss", "7diss", "11diss"])
def test_identities_pass(name):
    report = verify_dissection(name, 200)
    assert report.status == "pass"
    assert report.violations == []
    assert report.indices_checked >= 200


def test_order_guard():
    with pytest.raises(ValueError):
        verify_dissection("5diss", 16)


def test_fault_injection_reports_first_mismatch(monkeypatch):
    # one more term, +q^37 times the empty product, adds 1 to the right side at index 37
    lhs, p, terms = IDENTITIES["5diss"]
    monkeypatch.setitem(dissections.IDENTITIES, "5diss", (lhs, p, terms + ((1, 37, ()),)))
    report = verify_dissection("5diss", 64)
    assert report.status == "fail"
    assert report.violations[0]["index"] == 37


def test_every_mismatch_is_recorded_in_the_order_of_n(monkeypatch):
    # +q^41 and -q^37 times the empty product: the right side is off at both, each recorded with both sides
    lhs, p, terms = IDENTITIES["5diss"]
    monkeypatch.setitem(dissections.IDENTITIES, "5diss", (lhs, p, terms + ((1, 41, ()), (-1, 37, ()))))
    report = verify_dissection("5diss", 64)
    assert report.status == "fail" and report.indices_checked == 65
    assert report.violations == [{"index": 37, "value": {"lhs": 0, "rhs": -1}, "params": {}},
                                 {"index": 41, "value": {"lhs": 0, "rhs": 1}, "params": {}}]


SIGN_FLIPS = [(name, k) for name, (_, _, terms) in IDENTITIES.items() for k in range(len(terms))]


@pytest.mark.parametrize("name,k", SIGN_FLIPS)
def test_every_term_sign_matters(monkeypatch, name, k):
    """No term of any row is vacuous: flipping its sign breaks the identity by order 64."""
    lhs, p, terms = IDENTITIES[name]
    sign, shift, factors = terms[k]
    flipped = terms[:k] + ((-sign, shift, factors),) + terms[k + 1 :]
    monkeypatch.setitem(dissections.IDENTITIES, name, (lhs, p, flipped))
    report = verify_dissection(name, 64)
    assert report.status == "fail"
    # the flipped term's lowest power of q is q^shift, so the first mismatch is there
    assert report.violations[0]["index"] == shift
