"""Coefficient tables of E_1^r and eta powers, with their recurrences.

Covers Newman's three-term recurrence for the coefficients of E_1^r, the
composed four-step version of it, the three fixed eta powers (q E_3^8,
q E_4^6, q^5 E_12^10) with their Hecke eigen-relations and support classes,
the congruence bridges linking multipartition counts to these tables, and
the p^2-scaling congruences along extracted progressions.

Each fact is one row, and the checks derive from the rows.  A form's row
gives its weight w, character chi and inert class; at an inert prime p (in
the class, chi(p) != 0) a(pn) + chi(p) p^(w-1) a(n/p) = 0, and a(p) = 0 for
an eigenform.  A form's table is ``series.eta_quotient``: the power
eta(scale z)^e = q^shift E_1^e(q^scale), shift = scale e / 24, read off the
coefficients a_e of E_1^e, so a(scale n + shift) = a_e(n) and every other
a(n) is 0.  A ``BRIDGES`` row (ell, r, step, offset, k, factor) states
s(step n + offset) = factor * a_k(n) mod ell for s = E_ell^r / E_1^r; for
an eta power of exponent k, a_k(n) is its a(scale n + shift).  A
``SCALINGS`` row (bridge, p, n_max) reads that power's two-term relation at
an inert p != ell through the bridge: n moves to p^2 n + shift (p^2 - 1) /
scale, times -chi(p) p^(w-1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

from .report import SKIPPED, VerificationReport, timed
from .series import cached_e1_power, cached_regular_series, eta_quotient


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


@timed
def newman_check(params: NewmanParams, n_max: int) -> VerificationReport:
    """a_r(pn + d) = a_r(d) a_r(n) - p^(r/2-1) a_r((n-d)/p), d = r(p-1)/24."""
    r, p, delta, w = params.r, params.p, params.delta, params.w
    a = _e1_power(r, n_max)
    ad = a[delta]
    report = VerificationReport(
        id=f"newman.r{r}.p{p}", params_swept={"r": r, "p": p, "delta": delta}
    )
    n = 0
    while p * n + delta <= n_max:
        third = 0
        if (n - delta) >= 0 and (n - delta) % p == 0:
            third = a[(n - delta) // p]
        expected = ad * a[n] - w * third
        if a[p * n + delta] != expected:
            report.record(p * n + delta, a[p * n + delta], n=n, expected=expected)
        report.indices_checked += 1
        n += 1
    return report


def four_step_terms(a: Callable[[int], int], params: NewmanParams, n_max: int) -> Iterator[tuple[int, int, int]]:
    """(n, a(p^4 n + d4), A(A^2 - 2w) a(pn + d) - w(A^2 - w) a(n)) for 0 <= n <= n_max, A = a(d).

    The two sides agree for a = a_r: Newman's recurrence composed four times.
    """
    p, d, d4, w = params.p, params.delta, params.delta4, params.w
    A = a(d)
    for n in range(n_max + 1):
        yield n, a(p**4 * n + d4), A * (A * A - 2 * w) * a(p * n + d) - w * (A * A - w) * a(n)


@timed
def newman_four_step(r: int, p: int, n_max_index: int) -> VerificationReport:
    """Composed recurrence expressing a_r(p^4 n + d4) via a_r(pn + d) and a_r(n)."""
    params = NewmanParams(r, p)
    a = _e1_power(r, n_max_index)
    report = VerificationReport(
        id=f"newman4.r{r}.p{p}",
        params_swept={"r": r, "p": p, "delta4": params.delta4},
    )
    for n, lhs, rhs in four_step_terms(a.__getitem__, params, (n_max_index - params.delta4) // p**4):
        if lhs != rhs:
            report.record(p**4 * n + params.delta4, lhs, n=n, expected=rhs)
        report.indices_checked += 1
    if report.indices_checked == 0:
        report.status = SKIPPED
        report.notes.append("smallest index exceeds the coefficient budget")
    return report


@timed
def support_check(form: EtaPowerForm, n_max: int) -> VerificationReport:
    """All coefficients outside the form's residue class vanish."""
    a = _eta_table(form, n_max)
    report = VerificationReport(
        id=f"support.{form.id}",
        params_swept={"mod": form.scale, "residue": form.shift},
        indices_checked=n_max + 1,
    )
    for n, c in enumerate(a):
        if c and n % form.scale != form.shift:
            report.record(n, c)
    return report


@timed
def hecke_eigen_check(form: EtaPowerForm, p: int, n_max: int) -> VerificationReport:
    """a(pn) + chi(p) p^(w-1) a(n/p) = a(p) a(n) for 1 <= n <= n_max/p."""
    if not form.eigenform:
        raise ValueError(f"{form.id} is not an eigenform; its eigen relation is out of scope")
    a = _eta_table(form, n_max)
    ap = a[p] if p <= n_max else 0
    weight = form.hecke_factor(p)
    report = VerificationReport(id=f"hecke.{form.id}.p{p}", params_swept={"p": p})
    for n in range(1, n_max // p + 1):
        lower = a[n // p] if n % p == 0 else 0
        lhs = a[p * n] + weight * lower
        rhs = ap * a[n]
        if lhs != rhs:
            report.record(p * n, {"lhs": lhs, "rhs": rhs}, n=n)
        report.indices_checked += 1
    return report


@timed
def vanishing_consequence_check(form: EtaPowerForm, p: int, n_max: int) -> VerificationReport:
    """Two-term relation a(pn) + chi(p) p^(w-1) a(n/p) = 0 at an inert prime p."""
    if not form.inert(p):
        raise ValueError(f"requires a prime p = {form.inert_residue} mod {form.inert_mod} with chi(p) != 0")
    coeff = form.hecke_factor(p)
    a = _eta_table(form, n_max)
    report = VerificationReport(id=f"vanishing.{form.id}.p{p}", params_swept={"p": p})
    if form.eigenform and p <= n_max and a[p] != 0:
        report.record(p, a[p], reason="a(p) expected to vanish")
    for n in range(1, n_max // p + 1):
        lower = a[n // p] if n % p == 0 else 0
        if a[p * n] + coeff * lower != 0:
            report.record(p * n, a[p * n], n=n)
        report.indices_checked += 1
    return report


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


@timed
def bridge_congruence_check(bridge: str, n_max: int) -> VerificationReport:
    """Congruence between a multipartition series and a coefficient table."""
    row = BRIDGES[bridge]
    s = cached_regular_series(row.ell, row.r, row.ell, row.index(n_max))
    table = _e1_power(row.table, n_max)
    report = VerificationReport(id=f"bridge.{bridge}", params_swept={"n_max": n_max})
    for n in range(n_max + 1):
        index, rhs = row.index(n), row.factor * table[n] % row.ell
        if s[index] != rhs:
            report.record(index, {"series": s[index], "table": rhs})
        report.indices_checked += 1
    return report


# scaling id -> (bridge id, prime, n_max) of the case the suite checks
SCALINGS = {
    "eq_b312_scale": ("b312_eta8", 2, 100),
    "eq_b315_scale": ("b315_eta10", 7, 10),
    "eq_b77_scale": ("b77_eta6", 3, 40),
}


@timed
def scaling_congruence_check(which: str, p: int, n_max: int) -> VerificationReport:
    """p^2-scaling of extracted progressions of the multipartition series."""
    row = BRIDGES[SCALINGS[which][0]]
    form, m = row.form, row.ell
    if not form.inert(p) or p == m:
        raise ValueError(
            f"requires a prime p = {form.inert_residue} mod {form.inert_mod} with chi(p) != 0, p != {m}"
        )
    shift = form.shift * (p * p - 1) // form.scale
    multiplier = -form.hecke_factor(p) % m
    s = cached_regular_series(m, row.r, m, row.index(p * p * n_max + shift))
    report = VerificationReport(
        id=f"scaling.{which}.p{p}", params_swept={"p": p, "n_max": n_max}
    )
    for n in range(n_max + 1):
        index = row.index(p * p * n + shift)
        lhs, rhs = s[index], multiplier * s[row.index(n)] % m
        if lhs != rhs:
            report.record(index, {"lhs": lhs, "rhs": rhs})
        report.indices_checked += 1
    return report


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
