"""Combinatorial ground truth for regular partition and multipartition counts.

Computed without the series engine: every table comes from one exact
recurrence over Python ints, and literal tuple enumeration is the oracle of
last resort. The counts F(n) of a profile (ell_1, ..., ell_r) are the
coefficients of prod_i prod_{d : ell_i does not divide d} (1 - q^d)^(-1), and
taking q d/dq log F generalises Euler's n p(n) = sum_k sigma(k) p(n-k) to

    n F(n) = sum_{k=1..n} c(k) F(n-k),  c(k) = sum_{d | k} d * #{i : ell_i does not divide d}.

F(n) is an integer and the right side is a sum of integer products, so the
division by n is exact; a nonzero remainder (a wrong c or a wrong earlier
entry) raises ArithmeticError instead of being truncated.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import mul


class EnumerationBudgetError(ValueError):
    """Explicit enumeration requested beyond the guarded (n, r) budget."""


@dataclass(frozen=True)
class RegularityProfile:
    """The tuple (ell_1, ..., ell_r); component i must be ell_i-regular."""

    ells: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.ells:
            raise ValueError("profile must be non-empty")
        for ell in self.ells:
            if ell < 2:
                raise ValueError(f"regularity bound {ell} must be >= 2")

    @property
    def r(self) -> int:
        return len(self.ells)


@dataclass
class CoefficientTable:
    """Named integer sequence indexed from 0."""

    name: str
    values: list[int]
    provenance: str = "oracle"

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    def __len__(self) -> int:
        return len(self.values)


def _check(ell: int, r: int, n_max: int) -> None:
    """The input contract shared by every table."""
    for name, value, least in (("ell", ell, 2), ("r", r, 1), ("n_max", n_max, 0)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")


def _divisor_weights(profile: tuple[tuple[int, int], ...], n_max: int) -> list[int]:
    """c(k) = sum over d | k of d * #{i : ell_i does not divide d}, for k <= n_max."""
    c = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        weight = d * sum(e for ell, e in profile if d % ell)
        for k in range(d, n_max + 1, d):
            c[k] += weight
    return c


@lru_cache(maxsize=None)
def _counts(profile: tuple[tuple[int, int], ...], n_max: int) -> tuple[int, ...]:
    """F(n) for n <= n_max by n F(n) = sum_{k=1..n} c(k) F(n-k).

    The profile is its sorted (ell, multiplicity) pairs, so the key of a
    uniform profile does not grow with r.
    """
    c = _divisor_weights(profile, n_max)
    table = [1]
    for n in range(1, n_max + 1):
        value, rem = divmod(sum(map(mul, c[n:0:-1], table)), n)
        if rem:
            raise ArithmeticError(f"recurrence for {profile} left remainder {rem} at n={n}")
        table.append(value)
    return tuple(table)


def regular_partition_counts(ell: int, n_max: int) -> CoefficientTable:
    """Partitions of n with no part divisible by ell, for all n <= n_max."""
    _check(ell, 1, n_max)
    return CoefficientTable(f"b_{ell}", list(_counts(((ell, 1),), n_max)))


def multipartition_counts(profile: RegularityProfile, n_max: int) -> CoefficientTable:
    """Counts of r-tuples whose i-th component is ell_i-regular."""
    _check(min(profile.ells), profile.r, n_max)
    name = "B_" + ",".join(str(ell) for ell in profile.ells)
    return CoefficientTable(name, list(_counts(tuple(sorted(Counter(profile.ells).items())), n_max)))


def regular_multipartition_counts(ell: int, r: int, n_max: int) -> CoefficientTable:
    """Counts B with all r components ell-regular."""
    _check(ell, r, n_max)
    return CoefficientTable(f"B_{ell}^({r})", list(_counts(((ell, r),), n_max)))


@lru_cache(maxsize=None)
def regular_partitions(n: int, ell: int) -> tuple[tuple[int, ...], ...]:
    """All ell-regular partitions of n as weakly decreasing tuples."""

    def rec(remaining: int, max_part: int):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, max_part), 0, -1):
            if part % ell == 0:
                continue
            for rest in rec(remaining - part, part):
                yield (part,) + rest

    return tuple(rec(n, n))


def enumerate_multipartitions(profile: RegularityProfile, n: int) -> int:
    """Count tuples of regular partitions summing to n by explicit enumeration."""
    if n > 30 or profile.r > 4:
        raise EnumerationBudgetError(f"n={n}, r={profile.r} exceeds the enumeration guard")
    ells = profile.ells

    def rec(i: int, remaining: int) -> int:
        if i == len(ells) - 1:
            return len(regular_partitions(remaining, ells[i]))
        total = 0
        for a in range(remaining + 1):
            count = len(regular_partitions(a, ells[i]))
            if count:
                total += count * rec(i + 1, remaining - a)
        return total

    return rec(0, n)
