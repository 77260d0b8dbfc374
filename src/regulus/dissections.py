"""The four classical dissection identities, each one row of theta quotients.

A theta-factor tuple is a tuple of rows (a, b, e) that stands for
prod f(-q^a, -q^b)^e, where f is Ramanujan's theta function (see
``series``); ``E(k, e)`` is the row (k, 2k, e), for E_k^e.  By the Jacobi
triple product the Rogers-Ramanujan quotient is
R(q) = f(-q, -q^4) / f(-q^2, -q^3), and Hirschhorn's paired products are
A_i(q) = f(-q^i, -q^{7-i}) / E_7 and B_i(q) = f(-q^i, -q^{11-i}) / E_11, so
every side of every identity is such a tuple.

An ``IDENTITIES`` row id -> (lhs, p, terms) states
lhs(q) = sum over (sign, shift, Q) in terms of sign * q^shift * Q(q^p).
The common factor E_{p^2}(q) = E_p(q^p) is folded into each Q as E(p).
The rows are a 2-dissection of E_5/E_1, a 5-dissection of E_1 through
R(q^5), and 7- and 11-dissections of E_1 through the ratios A_i/A_j and
B_i/B_j at q^7 and q^11.  Each identity is one ``coefficients.Relation``
row over Z (``dissection_rows``), whose sides are theta-quotient reads; the
suite evaluates it with its other rows, and ``verify_dissection`` alone.
"""

from __future__ import annotations

from .coefficients import Relation, Term, check_relation
from .report import VerificationReport, timed


def E(k: int, e: int = 1) -> tuple[int, int, int]:
    """The theta-factor row of E_k^e = f(-q^k, -q^{2k})^e."""
    return (k, 2 * k, e)


IDENTITIES = {
    "2diss": ((E(5), E(1, -1)), 2, (
        (1, 0, (E(4), E(10, 2), E(1, -2), E(20, -1))),
        (1, 1, (E(2, 3), E(5), E(20), E(1, -3), E(4, -1), E(10, -1))),
    )),
    "5diss": ((E(1),), 5, (
        (1, 0, (E(5), (2, 3, 1), (1, 4, -1))),
        (-1, 1, (E(5),)),
        (-1, 2, (E(5), (1, 4, 1), (2, 3, -1))),
    )),
    "7diss": ((E(1),), 7, (
        (1, 0, (E(7), (2, 5, 1), (1, 6, -1))),
        (-1, 1, (E(7), (3, 4, 1), (2, 5, -1))),
        (-1, 2, (E(7),)),
        (1, 5, (E(7), (1, 6, 1), (3, 4, -1))),
    )),
    "11diss": ((E(1),), 11, (
        (1, 0, (E(11), (4, 7, 1), (2, 9, -1))),
        (-1, 1, (E(11), (2, 9, 1), (1, 10, -1))),
        (-1, 2, (E(11), (5, 6, 1), (3, 8, -1))),
        (1, 5, (E(11),)),
        (1, 7, (E(11), (3, 8, 1), (4, 7, -1))),
        (-1, 15, (E(11), (1, 10, 1), (5, 6, -1))),
    )),
}

IDENTITY_IDS = tuple(IDENTITIES)

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


def dissection_rows(identity: str, order: int) -> list[Relation]:
    """One row over Z: the left side to order, and each term sign * q^shift * Q(q^p), Q read to
    (order - shift) // p, on the class n = shift mod p."""
    ident = canonical_identity_id(identity)
    if order < 32:
        raise ValueError("order must be >= 32 so every term contributes")
    lhs, p, terms = IDENTITIES[ident]
    rhs = [Term(("theta", q, (order - shift) // p, 0), 1, 0, sign, at=shift, every=p) for sign, shift, q in terms]
    return [Relation((Term(("theta", lhs, order, 0), 1, 0),), tuple(rhs), order, numbered=False)]


@timed
def verify_dissection(identity: str, order: int) -> VerificationReport:
    """Compare both sides coefficientwise over Z; record every mismatch in the order of n."""
    report = VerificationReport(id=f"identity.{canonical_identity_id(identity)}", params_swept={"order": order})
    return check_relation(report, *dissection_rows(identity, order))
