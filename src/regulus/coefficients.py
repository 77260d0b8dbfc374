"""Coefficient tables of E_1^r and eta powers, and the linear relations between their progressions.

Each check states one ``Relation`` row, sum(lhs) = sum(rhs) mod M for
first <= n <= last (over Z when M = 0), and ``check_relation`` evaluates it.
A ``Term`` is coeff * S(step k + offset), k = n, where S holds the
coefficients of one store read (``_e1_power``, ``_eta_table`` or
``cached_regular_series``) at the order its check reads; the check declares
that read beside it (``*_reads``), for the suite's plan.  A term with a
residue class n = at (mod every) has k = (n - at) / every on that class for
n >= at, and is 0 at every other n: the a(n/p) and a((n - d)/p) terms.  When
M > 0 both sides are reduced mod M.  Coefficients that depend on the data,
a(d) and a(p), are read when the row is built, as 0 past the read, where the
row checks no index.  A row of no n is skipped, with a note.

Where the sides differ at n, a violation is recorded at the index the first
left term reads, with param n unless the row is unnumbered (bridges, scalings,
support), and with the value the row's shape gives: ``lhs``, the left side
(vanishing, support); ``expected``, the left side with param expected= the
right side (Newman and its four-step composition); ``sides``, {"lhs", "rhs"}
(Hecke, scalings, Theorem 2 in ``families``); ``series``, {"series": left,
"table": right} (bridges).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .report import PASS, SKIPPED, VerificationReport, timed
from .series import cached_e1_power, cached_regular_series, eta_quotient, eta_read


@dataclass(frozen=True)
class Term:
    """coeff * S(step k + offset), k = (n - at) / every, on n = at (mod every) with n >= at; 0 at other n."""

    source: Sequence[int] = field(repr=False)
    step: int
    offset: int
    coeff: int = 1
    at: int = 0
    every: int = 1

    def index(self, n: int) -> int:
        return self.step * ((n - self.at) // self.every) + self.offset

    def column(self, first: int, count: int) -> list[int]:
        """The term at n = first .. first + count - 1, read as slices of its source."""
        start = max(first, self.at)
        start += (self.at - start) % self.every  # the first n of the class
        hits = len(range(start, first + count, self.every))
        values = self.source[self.index(start) : self.index(start + self.every * hits) : self.step]
        if len(values) != hits:
            raise IndexError(f"term reads past its source, index {self.index(start + self.every * (hits - 1))}")
        column = [0] * count
        column[start - first :: self.every] = values
        return column if self.coeff == 1 else [self.coeff * v for v in column]


SHAPES = {  # each shape's violation value and params besides n, from the two sides
    "lhs": lambda lhs, rhs: (lhs, {}),
    "expected": lambda lhs, rhs: (lhs, {"expected": rhs}),
    "sides": lambda lhs, rhs: ({"lhs": lhs, "rhs": rhs}, {}),
    "series": lambda lhs, rhs: ({"series": lhs, "table": rhs}, {}),
}


@dataclass(frozen=True)
class Relation:
    """sum(lhs) = sum(rhs) mod modulus (over Z when 0) for first <= n <= last."""

    lhs: tuple[Term, ...]
    rhs: tuple[Term, ...]
    last: int
    first: int = 0
    modulus: int = 0
    shape: str = "sides"  # a key of SHAPES
    numbered: bool = True  # violations carry param n


def _side(terms: tuple[Term, ...], first: int, count: int, modulus: int) -> list[int]:
    total = terms[0].column(first, count)
    for term in terms[1:]:
        total = [t + v for t, v in zip(total, term.column(first, count))]
    return [v % modulus for v in total] if modulus else total


def check_relation(report: VerificationReport, row: Relation) -> VerificationReport:
    """Record the row's violations in the order of n and count its indices; a row of no n is skipped."""
    shape, count = SHAPES[row.shape], max(0, row.last - row.first + 1)
    lhs, rhs = (_side(terms, row.first, count, row.modulus) for terms in (row.lhs, row.rhs))
    for n, left, right in zip(itertools.count(row.first), lhs, rhs):
        if left != right:
            value, params = shape(left, right)
            report.record(row.lhs[0].index(n), value, **({"n": n} | params if row.numbered else params))
    report.indices_checked += count
    if not count:
        report.notes.append("smallest index exceeds the coefficient budget")
        report.status = SKIPPED if report.status == PASS else report.status
    return report


@dataclass(frozen=True)
class EtaPowerForm:
    id: str
    scale: int  # eta(scale * z)
    exponent: int  # eta power
    weight: int
    level: int
    character: str  # "trivial" or "odd" (chi(p) = (-1)^((p-1)/2))
    inert_mod: int
    inert_residue: int
    eigenform: bool  # a Hecke eigenform, so a(p) = 0 at every inert p

    @property
    def shift(self) -> int:
        """The q-power in q^shift E_1^exponent(q^scale); 24 divides scale * exponent in every row."""
        return self.scale * self.exponent // 24

    def chi(self, p: int) -> int:
        if self.level % p == 0:
            return 0
        if self.character == "trivial":
            return 1
        return -1 if (p - 1) // 2 % 2 else 1

    def hecke_factor(self, p: int) -> int:
        """chi(p) p^(w-1), the coefficient of a(n/p) in the Hecke relation."""
        return self.chi(p) * p ** (self.weight - 1)

    def inert(self, p: int) -> bool:
        """p is a prime in the inert class with chi(p) != 0."""
        return _is_prime(p) and p % self.inert_mod == self.inert_residue and self.chi(p) != 0


ETA8_3Z = EtaPowerForm("eta8_3z", 3, 8, 4, 9, "trivial", 3, 2, eigenform=True)
ETA6_4Z = EtaPowerForm("eta6_4z", 4, 6, 3, 16, "odd", 4, 3, eigenform=True)
ETA10_12Z = EtaPowerForm("eta10_12z", 12, 10, 5, 144, "odd", 4, 3, eigenform=False)

FORMS = {f.id: f for f in (ETA8_3Z, ETA6_4Z, ETA10_12Z)}


@dataclass(frozen=True)
class NewmanParams:
    r: int
    p: int

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise ValueError(f"p={self.p} must be a prime")
        if self.r % 2 or not 0 < self.r <= 24:
            raise ValueError(f"r={self.r} must be even and in (0, 24]")
        if self.r * (self.p - 1) % 24:
            raise ValueError(f"24 must divide r(p-1) = {self.r * (self.p - 1)}")

    @property
    def delta(self) -> int:
        return self.r * (self.p - 1) // 24

    @property
    def delta4(self) -> int:
        return self.r * (self.p**4 - 1) // 24

    @property
    def w(self) -> int:
        """p^(r/2-1), the coefficient of the recurrence's third term."""
        return self.p ** (self.r // 2 - 1)


def _e1_power(r: int, n_max: int) -> tuple[int, ...]:
    return cached_e1_power(r, n_max).coeffs


def _eta_table(form: EtaPowerForm, n_max: int) -> tuple[int, ...]:
    """a(0..n_max) of the form's eta power q^shift E_1^e(q^scale)."""
    return eta_quotient(form.scale, form.exponent, n_max).coeffs


# Each check that reads the store declares those reads beside it, as a function of the check's own
# arguments: ("E_1^d", 0, r, order) for cached_e1_power over Z, (ell, r, m, order) for cached_regular_series.


def eta_table_reads(form: EtaPowerForm, n_max: int) -> list[tuple]:
    """The store read of _eta_table(form, n_max), which the support, Hecke and vanishing checks make."""
    return [eta_read(form.scale, form.exponent, n_max)]


def four_step(a: Callable[[int, int, int], Term], params: NewmanParams, A: int) -> tuple[tuple[Term, ...], ...]:
    """Sides a(p^4 n + d4) = A(A^2 - 2w) a(pn + d) - w(A^2 - w) a(n), A = a(d); a(k, c, x) is x a(kn + c)."""
    p, w = params.p, params.w
    return (a(p**4, params.delta4, 1),), (a(p, params.delta, A * (A * A - 2 * w)), a(1, 0, -w * (A * A - w)))


def newman_reads(params: NewmanParams, n_max: int) -> list[tuple]:
    return [("E_1^d", 0, params.r, n_max)]


@timed
def newman_check(params: NewmanParams, n_max: int) -> VerificationReport:
    """a_r(pn + d) = a_r(d) a_r(n) - p^(r/2-1) a_r((n-d)/p), d = r(p-1)/24."""
    r, p, delta = params.r, params.p, params.delta
    a = _e1_power(r, n_max)
    rhs = (Term(a, 1, 0, a[delta] if delta <= n_max else 0), Term(a, 1, 0, -params.w, at=delta, every=p))
    report = VerificationReport(id=f"newman.r{r}.p{p}", params_swept={"r": r, "p": p, "delta": delta})
    return check_relation(report, Relation((Term(a, p, delta),), rhs, (n_max - delta) // p, shape="expected"))


def newman_four_step_reads(r: int, p: int, n_max_index: int) -> list[tuple]:
    return [("E_1^d", 0, r, n_max_index)]


@timed
def newman_four_step(r: int, p: int, n_max_index: int) -> VerificationReport:
    """Composed recurrence expressing a_r(p^4 n + d4) via a_r(pn + d) and a_r(n)."""
    params, a = NewmanParams(r, p), _e1_power(r, n_max_index)
    A = a[params.delta] if params.delta <= n_max_index else 0
    lhs, rhs = four_step(lambda k, c, x: Term(a, k, c, x), params, A)
    report = VerificationReport(id=f"newman4.r{r}.p{p}", params_swept={"r": r, "p": p, "delta4": params.delta4})
    return check_relation(report, Relation(lhs, rhs, (n_max_index - params.delta4) // p**4, shape="expected"))


@timed
def support_check(form: EtaPowerForm, n_max: int) -> VerificationReport:
    """All coefficients outside the form's residue class vanish: a(n) is its part on the class."""
    a = _eta_table(form, n_max)
    on_class = Term(a, form.scale, form.shift, at=form.shift, every=form.scale)
    report = VerificationReport(id=f"support.{form.id}", params_swept={"mod": form.scale, "residue": form.shift})
    return check_relation(report, Relation((Term(a, 1, 0),), (on_class,), n_max, shape="lhs", numbered=False))


@timed
def hecke_eigen_check(form: EtaPowerForm, p: int, n_max: int) -> VerificationReport:
    """a(pn) + chi(p) p^(w-1) a(n/p) = a(p) a(n) for 1 <= n <= n_max/p."""
    if not form.eigenform:
        raise ValueError(f"{form.id} is not an eigenform; its eigen relation is out of scope")
    if not _is_prime(p):
        raise ValueError(f"requires a prime p, got {p}")
    a = _eta_table(form, n_max)
    lhs = (Term(a, p, 0), Term(a, 1, 0, form.hecke_factor(p), every=p))
    row = Relation(lhs, (Term(a, 1, 0, a[p] if p <= n_max else 0),), n_max // p, first=1)
    return check_relation(VerificationReport(id=f"hecke.{form.id}.p{p}", params_swept={"p": p}), row)


@timed
def vanishing_consequence_check(form: EtaPowerForm, p: int, n_max: int) -> VerificationReport:
    """Two-term relation a(pn) + chi(p) p^(w-1) a(n/p) = 0 at an inert prime p."""
    if not form.inert(p):
        raise ValueError(f"requires a prime p = {form.inert_residue} mod {form.inert_mod} with chi(p) != 0")
    a = _eta_table(form, n_max)
    report = VerificationReport(id=f"vanishing.{form.id}.p{p}", params_swept={"p": p})
    if form.eigenform and p <= n_max and a[p] != 0:
        report.record(p, a[p], reason="a(p) expected to vanish")
    lower = Term(a, 1, 0, -form.hecke_factor(p), every=p)
    return check_relation(report, Relation((Term(a, p, 0),), (lower,), n_max // p, first=1, shape="lhs"))


@dataclass(frozen=True)
class Bridge:
    """s(step n + offset) = factor * a_k(n) mod ell for k = table; factor^2 = 1 mod ell."""

    ell: int
    r: int
    step: int
    offset: int
    table: int  # k, for the coefficients a_k of E_1^k
    factor: int = 1
    form: EtaPowerForm | None = None  # the eta power of exponent k whose relations SCALINGS read

    def index(self, n: int) -> int:
        return self.step * n + self.offset


BRIDGES = {
    "b56_a24": Bridge(5, 6, 1, 0, 24),
    "b76_a12": Bridge(7, 6, 7, 2, 12, factor=6),
    "b312_eta8": Bridge(3, 12, 3, 0, 8, form=ETA8_3Z),
    "b315_eta10": Bridge(3, 15, 3, 0, 10, form=ETA10_12Z),
    "b510_eta8": Bridge(5, 10, 5, 0, 8, form=ETA8_3Z),
    "b77_eta6": Bridge(7, 7, 7, 0, 6, form=ETA6_4Z),
    "b1111_eta10": Bridge(11, 11, 11, 0, 10, form=ETA10_12Z),
}

BRIDGE_IDS = tuple(BRIDGES)


def bridge_reads(bridge: str, n_max: int) -> list[tuple]:
    b = BRIDGES[bridge]
    return [(b.ell, b.r, b.ell, b.index(n_max)), ("E_1^d", 0, b.table, n_max)]


@timed
def bridge_congruence_check(bridge: str, n_max: int) -> VerificationReport:
    """Congruence between a multipartition series and a coefficient table."""
    b = BRIDGES[bridge]
    s = cached_regular_series(b.ell, b.r, b.ell, b.index(n_max))
    table = Term(_e1_power(b.table, n_max), 1, 0, b.factor)
    row = Relation((Term(s, b.step, b.offset),), (table,), n_max, modulus=b.ell, shape="series", numbered=False)
    return check_relation(VerificationReport(id=f"bridge.{bridge}", params_swept={"n_max": n_max}), row)


# scaling id -> (bridge id, prime, n_max) of the case the suite checks
SCALINGS = {
    "eq_b312_scale": ("b312_eta8", 2, 100),
    "eq_b315_scale": ("b315_eta10", 7, 10),
    "eq_b77_scale": ("b77_eta6", 3, 40),
}


def _scaling_order(b: Bridge, p: int, n_max: int) -> int:
    """The last index the scaling at p reads: index(p^2 n_max + shift (p^2 - 1) / scale)."""
    return b.index(p * p * n_max + b.form.shift * (p * p - 1) // b.form.scale)


def scaling_reads(which: str, p: int, n_max: int) -> list[tuple]:
    b = BRIDGES[SCALINGS[which][0]]
    return [(b.ell, b.r, b.ell, _scaling_order(b, p, n_max))]


@timed
def scaling_congruence_check(which: str, p: int, n_max: int) -> VerificationReport:
    """a(pn) = -chi(p) p^(w-1) a(n/p) of the bridge's eta power, at an inert p != ell, read through the bridge:
    s(index(p^2 n + shift (p^2 - 1) / scale)) = -chi(p) p^(w-1) s(index(n)) mod ell."""
    b = BRIDGES[SCALINGS[which][0]]
    form, m = b.form, b.ell
    if not form.inert(p) or p == m:
        raise ValueError(f"requires a prime p = {form.inert_residue} mod {form.inert_mod} with chi(p) != 0, p != {m}")
    shift = form.shift * (p * p - 1) // form.scale
    s = cached_regular_series(m, b.r, m, _scaling_order(b, p, n_max))
    lhs, rhs = Term(s, b.step * p * p, b.index(shift)), Term(s, b.step, b.offset, -form.hecke_factor(p))
    report = VerificationReport(id=f"scaling.{which}.p{p}", params_swept={"p": p, "n_max": n_max})
    return check_relation(report, Relation((lhs,), (rhs,), n_max, modulus=m, numbered=False))


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def smallest_primes(admits: Callable[[int], bool], k: int) -> list[int]:
    """The k smallest primes p with admits(p); it never returns if fewer than k are admitted."""
    return list(itertools.islice((p for p in itertools.count(2) if _is_prime(p) and admits(p)), k))


def primes_upto(limit: int) -> list[int]:
    return [p for p in range(2, limit + 1) if _is_prime(p)]


def admissible_newman_pairs(p_max: int = 13) -> list[NewmanParams]:
    """Every (r, p) with r even <= 24, p <= p_max prime, 24 | r(p-1)."""
    return [NewmanParams(r, p) for r in range(2, 25, 2) for p in primes_upto(p_max) if r * (p - 1) % 24 == 0]
