"""Combinatorial ground truth for regular partition and multipartition counts.

Everything here is computed without the series engine: coin-style dynamic
programming for single-component counts, convolution of count tables for
multipartitions, and literal tuple enumeration as the oracle of last resort.
All counts are exact Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache


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


@lru_cache(maxsize=None)
def _regular_counts(ell: int, n_max: int) -> tuple[int, ...]:
    table = [0] * (n_max + 1)
    table[0] = 1
    for part in range(1, n_max + 1):
        if part % ell == 0:
            continue
        for m in range(part, n_max + 1):
            table[m] += table[m - part]
    return tuple(table)


def regular_partition_counts(ell: int, n_max: int) -> CoefficientTable:
    """Partitions of n with no part divisible by ell, for all n <= n_max."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return CoefficientTable(f"b_{ell}", list(_regular_counts(ell, n_max)))


def _convolve(a: list[int], b: list[int], n_max: int) -> list[int]:
    out = [0] * (n_max + 1)
    for i, x in enumerate(a[: n_max + 1]):
        if not x:
            continue
        for j in range(min(len(b), n_max + 1 - i)):
            out[i + j] += x * b[j]
    return out


def _table_power(base: list[int], e: int, n_max: int) -> list[int]:
    acc = [1] + [0] * n_max
    sq = base[: n_max + 1]
    while e:
        if e & 1:
            acc = _convolve(acc, sq, n_max)
        e >>= 1
        if e:
            sq = _convolve(sq, sq, n_max)
    return acc


def multipartition_counts(profile: RegularityProfile, n_max: int) -> CoefficientTable:
    """r-fold convolution of the per-component regular partition counts."""
    # group equal components so identical profiles cost O(log r) convolutions
    mult: dict[int, int] = {}
    for ell in profile.ells:
        mult[ell] = mult.get(ell, 0) + 1
    acc = [1] + [0] * n_max
    for ell, e in sorted(mult.items()):
        comp = _table_power(list(_regular_counts(ell, n_max)), e, n_max)
        acc = _convolve(acc, comp, n_max)
    name = "B_" + ",".join(str(ell) for ell in profile.ells)
    return CoefficientTable(name, acc)


@lru_cache(maxsize=None)
def _regular_multipartition_counts(ell: int, r: int, n_max: int) -> tuple[int, ...]:
    return tuple(_table_power(list(_regular_counts(ell, n_max)), r, n_max))


def regular_multipartition_counts(ell: int, r: int, n_max: int) -> CoefficientTable:
    """Counts B with all r components ell-regular."""
    return CoefficientTable(f"B_{ell}^({r})", list(_regular_multipartition_counts(ell, r, n_max)))


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
