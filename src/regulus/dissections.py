"""Residue-pattern products and the four classical dissection identities.

The identities rewrite E_1 (or E_5/E_1) as a finite combination of quotients
of products indexed by residue classes: a 2-dissection through pure Euler
quotients, a 5-dissection through the Rogers-Ramanujan product R(q), and
7- and 11-dissections through the paired products A_i(q) and B_i(q).
All verification is exact over Z.
"""

from __future__ import annotations

from dataclasses import dataclass

from .report import VerificationReport, timed
from .series import (
    ZZ,
    TruncatedSeries,
    dilate,
    euler_E,
    invert,
    mul,
    one,
    power,
    shift_q,
    sub,
    truncate,
)

IDENTITY_IDS = ("2diss", "5diss", "7diss", "11diss")

_ALIASES = {
    "two_diss_e5_over_e1": "2diss",
    "five_diss_e1": "5diss",
    "seven_diss_e1": "7diss",
    "eleven_diss_e1": "11diss",
}


def canonical_identity_id(name: str) -> str:
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in IDENTITY_IDS:
        raise KeyError(f"unknown dissection identity {name!r}")
    return key


@dataclass(frozen=True)
class SparseFactorProduct:
    """Product of (1 - q^d)^e over all d >= 1 with d mod M in a residue set."""

    factors: tuple[tuple[int, tuple[int, ...], int], ...]

    def __post_init__(self) -> None:
        for modulus, residues, _ in self.factors:
            for res in residues:
                if not 1 <= res <= modulus:
                    raise ValueError(f"residue {res} out of range for modulus {modulus}")

    def expand(self, order: int) -> TruncatedSeries:
        c = [0] * (order + 1)
        c[0] = 1
        for modulus, residues, exponent in self.factors:
            canon = {res % modulus for res in residues}
            for d in range(1, order + 1):
                if d % modulus not in canon:
                    continue
                for _ in range(abs(exponent)):
                    if exponent > 0:
                        for n in range(order, d - 1, -1):
                            c[n] -= c[n - d]
                    else:
                        for n in range(d, order + 1):
                            c[n] += c[n - d]
        return TruncatedSeries(ZZ, tuple(c))


def rr_product(order: int) -> TruncatedSeries:
    """Rogers-Ramanujan quotient: (5m-4, 5m-1) factors over (5m-3, 5m-2)."""
    prod = SparseFactorProduct((
        (5, (1, 4), 1),
        (5, (2, 3), -1),
    ))
    return prod.expand(order)


def hirschhorn_A(i: int, order: int) -> TruncatedSeries:
    """A_i(q) = prod (1 - q^{7m-i})(1 - q^{7m-7+i}), i in {1, 2, 3}."""
    if i not in (1, 2, 3):
        raise ValueError(f"index {i} out of range for the 7-dissection products")
    return SparseFactorProduct(((7, (7 - i, i), 1),)).expand(order)


def hirschhorn_B(i: int, order: int) -> TruncatedSeries:
    """B_i(q) = prod (1 - q^{11m-i})(1 - q^{11m-11+i}), i in {1, ..., 5}."""
    if i not in (1, 2, 3, 4, 5):
        raise ValueError(f"index {i} out of range for the 11-dissection products")
    return SparseFactorProduct(((11, (11 - i, i), 1),)).expand(order)


def _ratio_dilated(num: TruncatedSeries, den: TruncatedSeries, k: int, order: int) -> TruncatedSeries:
    """num/den computed at the compressed order, then q -> q^k."""
    return truncate(dilate(mul(num, invert(den)), k), order)


def _rhs_2diss(order: int) -> TruncatedSeries:
    def E(k: int) -> TruncatedSeries:
        return euler_E(k, order, ZZ)

    term1 = mul(
        mul(E(8), power(E(20), 2)),
        invert(mul(power(E(2), 2), E(40))),
    )
    term2 = mul(
        mul(mul(power(E(4), 3), E(10)), E(40)),
        invert(mul(mul(power(E(2), 3), E(8)), E(20))),
    )
    return term1 + shift_q(term2, 1)


def _rhs_5diss(order: int) -> TruncatedSeries:
    m = -(-order // 5)
    r = rr_product(m)
    r5 = truncate(dilate(r, 5), order)
    rinv5 = truncate(dilate(invert(r), 5), order)
    inner = sub(sub(rinv5, shift_q(one(order, ZZ), 1)), shift_q(r5, 2))
    return mul(euler_E(25, order, ZZ), inner)


def _rhs_7diss(order: int) -> TruncatedSeries:
    m = -(-order // 7)
    a1, a2, a3 = (hirschhorn_A(i, m) for i in (1, 2, 3))
    t21 = _ratio_dilated(a2, a1, 7, order)
    t32 = _ratio_dilated(a3, a2, 7, order)
    t13 = _ratio_dilated(a1, a3, 7, order)
    inner = sub(t21, shift_q(t32, 1))
    inner = sub(inner, shift_q(one(order, ZZ), 2))
    inner = inner + shift_q(t13, 5)
    return mul(euler_E(49, order, ZZ), inner)


def _rhs_11diss(order: int) -> TruncatedSeries:
    m = -(-order // 11)
    b = {i: hirschhorn_B(i, m) for i in (1, 2, 3, 4, 5)}
    inner = _ratio_dilated(b[4], b[2], 11, order)
    inner = sub(inner, shift_q(_ratio_dilated(b[2], b[1], 11, order), 1))
    inner = sub(inner, shift_q(_ratio_dilated(b[5], b[3], 11, order), 2))
    inner = inner + shift_q(one(order, ZZ), 5)
    inner = inner + shift_q(_ratio_dilated(b[3], b[4], 11, order), 7)
    inner = sub(inner, shift_q(_ratio_dilated(b[1], b[5], 11, order), 15))
    return mul(euler_E(121, order, ZZ), inner)


@timed
def verify_dissection(identity: str, order: int) -> VerificationReport:
    """Compare both sides coefficientwise over Z; report the first mismatch."""
    ident = canonical_identity_id(identity)
    if order < 32:
        raise ValueError("order must be >= 32 so every term contributes")
    if ident == "2diss":
        lhs = mul(euler_E(5, order, ZZ), invert(euler_E(1, order, ZZ)))
        rhs = _rhs_2diss(order)
    elif ident == "5diss":
        lhs = euler_E(1, order, ZZ)
        rhs = _rhs_5diss(order)
    elif ident == "7diss":
        lhs = euler_E(1, order, ZZ)
        rhs = _rhs_7diss(order)
    else:
        lhs = euler_E(1, order, ZZ)
        rhs = _rhs_11diss(order)
    n = min(lhs.order, rhs.order)
    report = VerificationReport(
        id=f"identity.{ident}", params_swept={"order": n}, indices_checked=n + 1
    )
    for i in range(n + 1):
        if lhs.coeffs[i] != rhs.coeffs[i]:
            report.record(i, {"lhs": lhs.coeffs[i], "rhs": rhs.coeffs[i]})
            break
    return report
