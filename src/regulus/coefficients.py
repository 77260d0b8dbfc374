"""Coefficient tables of E_1^r and eta powers, and the linear relations between their progressions.

Each check is its ``Relation`` rows, sum(lhs) = sum(rhs) mod M for first <= n
<= last (over Z when M = 0), and ``check_relation`` evaluates them into one
report.  The suite makes a check's rows once and evaluates them all there; the
four functions below that return a report, each over the rows of one case, are
the names the benchmark's tracer patches.  A
``Term`` is coeff * S(step k + offset), k = n, where S is the sequence its
read names, and ``fetch`` resolves every read: ``(ell, r, m, order)`` of
``cached_regular_series``, ``("E_1^d", 0, d, order)`` of E_1^d over Z,
``("eta", form, order)`` of an eta power, ``("theta", factors, order, m)`` of
a theta quotient mod m (over Z when m = 0), built on each read, and the
oracle's counts: ``("oracle", ell, r, order)`` of B_ell^(r), ``("profile",
ells, order)`` of a profile, and ``("enumeration", ells, order)``, the same
by literal enumeration.  ``Relation.reads`` lists the reads that name a store
key, for the suite's plan.  A term with a residue class n = at (mod every) has
k = (n - at) / every on that class for n >= at, and is 0 at every other n: the
a(n/p) and a((n - d)/p) terms.  A coefficient that depends on the data (a(d),
a(p), Newman's A) is a factor in ``times``, a term read at n = 0, only where
its term reads.  Both sides are reduced mod M > 0.  A row of no n skips its report, with one
note however many rows have none.

Where the sides differ at n, a violation is recorded at the index the first
left term reads, with param n unless the row is unnumbered, the row's params,
and the value its shape gives: ``lhs``, the left side (vanishing, support,
family sweeps); ``expected``, the left side with param expected= the right
side (Newman, four steps); ``sides``, {"lhs", "rhs"} (Hecke, scalings,
Theorem 2, Frobenius, dissections); ``series``, {"series": left, "table":
right} (bridges); ``oracle``, {"series", "oracle"} (oracle equivalence, family
sweeps); ``enumeration``, {"dp", "enumeration"}.  Sides equal in full are
compared at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .oracle import RegularityProfile, enumerate_multipartitions, multipartition_counts, regular_multipartition_counts
from .report import PASS, SKIPPED, VerificationReport, timed
from .series import ZZ, Zmod, cached_e1_power, cached_regular_series, eta_quotient, eta_read, theta_quotient


def fetch(read: tuple) -> Sequence[int]:
    """The sequence a read names, through this module's attributes."""
    kind, *args = read
    if kind == "E_1^d":
        return _e1_power(*args[1:])
    if kind == "eta":
        return _eta_table(*args)
    if kind == "theta":
        factors, order, m = args
        return theta_quotient(factors, order, Zmod(m) if m else ZZ)
    if kind == "oracle":
        return regular_multipartition_counts(*args).values
    if kind == "profile":
        return multipartition_counts(RegularityProfile(args[0]), args[1]).values
    if kind == "enumeration":
        return [enumerate_multipartitions(RegularityProfile(args[0]), n) for n in range(args[1] + 1)]
    return cached_regular_series(*read)


@dataclass(frozen=True)
class Term:
    """coeff * S(step k + offset), k = (n - at) / every, on n = at (mod every) with n >= at; 0 at other n.

    S is the sequence its read names, and coeff is multiplied by each factor of times, a term read at n = 0.
    """

    read: tuple
    step: int
    offset: int
    coeff: int = 1
    at: int = 0
    every: int = 1
    times: tuple[Term, ...] = ()

    def index(self, n: int) -> int:
        return self.step * ((n - self.at) // self.every) + self.offset

    def column(self, first: int, count: int, source: Callable[[tuple], Sequence[int]]) -> list[int]:
        """The term at n = first .. first + count - 1, read as slices of the sequence source(read)."""
        start = max(first, self.at)
        start += (self.at - start) % self.every  # the first n of the class
        hits = len(range(start, first + count, self.every))
        values = source(self.read)[self.index(start) : self.index(start + self.every * hits) : self.step]
        if len(values) != hits:
            raise IndexError(f"term reads past its source, index {self.index(start + self.every * (hits - 1))}")
        column = [0] * count
        if not hits:  # no factor is read where the term reads nothing
            return column
        column[start - first :: self.every] = values
        coeff = math.prod((x.column(0, 1, source)[0] for x in self.times), start=self.coeff)
        return column if coeff == 1 else [coeff * v for v in column]


SHAPES = {  # each shape's violation value and params besides n, from the two sides
    "lhs": lambda lhs, rhs: (lhs, {}),
    "expected": lambda lhs, rhs: (lhs, {"expected": rhs}),
    "sides": lambda lhs, rhs: ({"lhs": lhs, "rhs": rhs}, {}),
    "series": lambda lhs, rhs: ({"series": lhs, "table": rhs}, {}),
    "oracle": lambda lhs, rhs: ({"series": lhs, "oracle": rhs}, {}),
    "enumeration": lambda lhs, rhs: ({"dp": lhs, "enumeration": rhs}, {}),
}


@dataclass(frozen=True)
class Relation:
    """sum(lhs) = sum(rhs) mod modulus (over Z when 0) for first <= n <= last; fetch resolves the terms' reads."""

    lhs: tuple[Term, ...]
    rhs: tuple[Term, ...]
    last: int
    first: int = 0
    modulus: int = 0
    shape: str = "sides"  # a key of SHAPES
    numbered: bool = True  # violations carry param n
    params: tuple[tuple[str, object], ...] = ()  # every violation carries these

    @property
    def reads(self) -> list[tuple]:
        """The distinct store reads of the row's terms and coefficients, for the suite's plan: the reads that
        name a store key, an eta power's as the power of E_1 it reads."""
        named = dict.fromkeys(eta_read(r[1].scale, r[1].exponent, r[2]) if r[0] == "eta" else r
                              for t in self.lhs + self.rhs for r in (t.read, *(x.read for x in t.times)))
        return [r for r in named if r[0] == "E_1^d" or type(r[0]) is int]


def _side(terms: tuple[Term, ...], first: int, count: int, modulus: int) -> list[int]:
    total = terms[0].column(first, count, fetch) if terms else [0] * count
    for term in terms[1:]:
        total = [t + v for t, v in zip(total, term.column(first, count, fetch))]
    return [v % modulus for v in total] if modulus and terms and any(total) else total  # zeros are reduced


def check_relation(report: VerificationReport, *rows: Relation) -> VerificationReport:
    """Record each row's violations in the order of n and count its indices; a row of no n skips the report."""
    for row in rows:
        shape, count = SHAPES[row.shape], max(0, row.last - row.first + 1)
        lhs, rhs = (_side(terms, row.first, count, row.modulus) for terms in (row.lhs, row.rhs))
        for n, left, right in zip(itertools.count(row.first), lhs, rhs) if lhs != rhs else ():
            if left != right:
                value, params = shape(left, right)
                numbered = {"n": n} if row.numbered else {}
                report.record(row.lhs[0].index(n), value, **numbered, **params, **dict(row.params))
        report.indices_checked += count
    if any(row.last < row.first for row in rows):
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


def four_step(a: Callable[..., Term], params: NewmanParams, A: Term) -> tuple[tuple[Term, ...], ...]:
    """Sides a(p^4 n + d4) = (A^3 - 2wA) a(pn + d) - (wA^2 - w^2) a(n), A = a(d); a(k, c, x, *factors) is the
    term x * factors * a(kn + c)."""
    p, d, w = params.p, params.delta, params.w
    return (a(p**4, params.delta4, 1),), (a(p, d, 1, A, A, A), a(p, d, -2 * w, A), a(1, 0, -w, A, A), a(1, 0, w * w))


def newman_rows(params: NewmanParams, n_max: int) -> list[Relation]:
    """a_r(pn + d) = a_r(d) a_r(n) - p^(r/2-1) a_r((n-d)/p), d = r(p-1)/24."""
    a, p, delta = ("E_1^d", 0, params.r, n_max), params.p, params.delta
    rhs = (Term(a, 1, 0, times=(Term(a, 1, delta),)), Term(a, 1, 0, -params.w, at=delta, every=p))
    return [Relation((Term(a, p, delta),), rhs, (n_max - delta) // p, shape="expected")]


@timed
def newman_check(params: NewmanParams, n_max: int) -> VerificationReport:
    r, p, delta = params.r, params.p, params.delta
    report = VerificationReport(id=f"newman.r{r}.p{p}", params_swept={"r": r, "p": p, "delta": delta})
    return check_relation(report, *newman_rows(params, n_max))


def four_step_rows(r: int, p: int, n_max_index: int) -> list[Relation]:
    """Composed recurrence expressing a_r(p^4 n + d4) via a_r(pn + d) and a_r(n)."""
    params, a = NewmanParams(r, p), ("E_1^d", 0, r, n_max_index)
    lhs, rhs = four_step(lambda k, c, x, *times: Term(a, k, c, x, times=times), params, Term(a, 1, params.delta))
    return [Relation(lhs, rhs, (n_max_index - params.delta4) // p**4, shape="expected")]


def support_rows(form: EtaPowerForm, n_max: int) -> list[Relation]:
    """All coefficients outside the form's residue class vanish: a(n) is its part on the class."""
    a = ("eta", form, n_max)
    on_class = Term(a, form.scale, form.shift, at=form.shift, every=form.scale)
    return [Relation((Term(a, 1, 0),), (on_class,), n_max, shape="lhs", numbered=False)]


def hecke_rows(form: EtaPowerForm, p: int, n_max: int) -> list[Relation]:
    """a(pn) + chi(p) p^(w-1) a(n/p) = a(p) a(n) for 1 <= n <= n_max/p."""
    if not form.eigenform:
        raise ValueError(f"{form.id} is not an eigenform; its eigen relation is out of scope")
    if not _is_prime(p):
        raise ValueError(f"requires a prime p, got {p}")
    a = ("eta", form, n_max)
    lhs = (Term(a, p, 0), Term(a, 1, 0, form.hecke_factor(p), every=p))
    return [Relation(lhs, (Term(a, 1, 0, times=(Term(a, 1, p),)),), n_max // p, first=1)]


@timed
def hecke_eigen_check(form: EtaPowerForm, p: int, n_max: int) -> VerificationReport:
    rows = hecke_rows(form, p, n_max)
    return check_relation(VerificationReport(id=f"hecke.{form.id}.p{p}", params_swept={"p": p}), *rows)


def vanishing_rows(form: EtaPowerForm, p: int, n_max: int) -> list[Relation]:
    """Two-term relation a(pn) + chi(p) p^(w-1) a(n/p) = 0 at an inert prime p."""
    if not form.inert(p):
        raise ValueError(f"requires a prime p = {form.inert_residue} mod {form.inert_mod} with chi(p) != 0")
    a = ("eta", form, n_max)
    lower = Term(a, 1, 0, -form.hecke_factor(p), every=p)
    return [Relation((Term(a, p, 0),), (lower,), n_max // p, first=1, shape="lhs")]


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


def bridge_rows(bridge: str, n_max: int) -> list[Relation]:
    """Congruence between a multipartition series and a coefficient table."""
    b = BRIDGES[bridge]
    s, table = (b.ell, b.r, b.ell, b.index(n_max)), ("E_1^d", 0, b.table, n_max)
    lhs, rhs = Term(s, b.step, b.offset), Term(table, 1, 0, b.factor)
    return [Relation((lhs,), (rhs,), n_max, modulus=b.ell, shape="series", numbered=False)]


@timed
def bridge_congruence_check(bridge: str, n_max: int) -> VerificationReport:
    rows = bridge_rows(bridge, n_max)
    return check_relation(VerificationReport(id=f"bridge.{bridge}", params_swept={"n_max": n_max}), *rows)


# scaling id -> (bridge id, prime, n_max) of the case the suite checks
SCALINGS = {
    "eq_b312_scale": ("b312_eta8", 2, 100),
    "eq_b315_scale": ("b315_eta10", 7, 10),
    "eq_b77_scale": ("b77_eta6", 3, 40),
}


def scaling_rows(which: str, p: int, n_max: int) -> list[Relation]:
    """a(pn) = -chi(p) p^(w-1) a(n/p) of the bridge's eta power, at an inert p != ell, read through the bridge:
    s(index(p^2 n + shift (p^2 - 1) / scale)) = -chi(p) p^(w-1) s(index(n)) mod ell."""
    b = BRIDGES[SCALINGS[which][0]]
    form, m = b.form, b.ell
    if not form.inert(p) or p == m:
        raise ValueError(f"requires a prime p = {form.inert_residue} mod {form.inert_mod} with chi(p) != 0, p != {m}")
    shift = form.shift * (p * p - 1) // form.scale
    s = (m, b.r, m, b.index(p * p * n_max + shift))
    lhs, rhs = Term(s, b.step * p * p, b.index(shift)), Term(s, b.step, b.offset, -form.hecke_factor(p))
    return [Relation((lhs,), (rhs,), n_max, modulus=m, numbered=False)]


@timed
def scaling_congruence_check(which: str, p: int, n_max: int) -> VerificationReport:
    report = VerificationReport(id=f"scaling.{which}.p{p}", params_swept={"p": p, "n_max": n_max})
    return check_relation(report, *scaling_rows(which, p, n_max))


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
