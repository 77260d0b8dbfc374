"""Combinatorial ground truth for regular partition and multipartition counts.

Computed without the series engine: every table is built from Euler's
pentagonal series by exact recurrences over Python ints, and literal tuple
enumeration is the oracle of last resort. A profile with multiplicity e_i of
each bound ell_i has R = sum e_i components, and its counts F(n) are the
coefficients of

    F = prod_i (E_{ell_i} / E_1)^{e_i} = E_1^(-R) * prod_i E_1^{e_i}(q^{ell_i}),

where E_1 = 1 + sum_k s_k q^k = sum_j (-1)^j q^{j(3j-1)/2} has about
2 sqrt(2n/3) nonzero terms up to q^n (28 at n = 300). Each power B = E_1^alpha,
for any integer alpha, follows from J. C. P. Miller's power recurrence (Knuth,
TAOCP vol. 2, section 4.7), which compares coefficients in
E_1 * q dB/dq = alpha * B * q dE_1/dq:

    n B(n) = sum_{pentagonal k <= n} s_k ((alpha + 1) k - n) B(n - k),  B(0) = 1.

E_1 has integer coefficients and constant term 1, so B(n) is an integer and the
division by n is exact; a nonzero remainder (a wrong Miller coefficient or a
wrong earlier entry) raises ArithmeticError naming n instead of being
truncated. That exactness holds for a power of any such series, so the
pentagonal terms are checked as well: their cube must be Jacobi's series
E_1^3 = sum_{j>=0} (-1)^j (2j+1) q^{j(j+1)/2}, and the first coefficient that
differs raises ArithmeticError naming n.

A table is H = E_1^(-R) to n_max with each E_1^{e_i}, taken to
floor(n_max / ell_i), folded in as the dilated product
F(n) = sum_j g(j) H(n - ell_i j). A Miller pass costs O(n^(3/2)) multiply-adds
and each fold about n^2 / (2 ell_i), against n^2 / 2 for the divisor-sum
recurrence n F(n) = sum_k c(k) F(n - k). Each (alpha, n) is passed once per
process. Literal enumeration builds each partition tuple once: those of n led
by part k are memoized by (n, k, ell), and extend those of n - k into parts <= k.
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

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    def __len__(self) -> int:
        return len(self.values)


def _check(ell: int, r: int, n_max: int) -> None:
    """The input contract shared by every table."""
    for name, value, least in (("ell", ell, 2), ("r", r, 1), ("n_max", n_max, 0)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")


def _pentagonal(n_max: int) -> list[tuple[int, int]]:
    """(k, s_k) for the nonzero terms s_k q^k of E_1 - 1 with k <= n_max, by increasing k.

    The exponents are the generalised pentagonal numbers j(3j - 1)/2 and j(3j + 1)/2
    for j >= 1, both with sign (-1)^j.
    """
    terms = []
    j = 1
    while j * (3 * j - 1) // 2 <= n_max:
        sign = -1 if j % 2 else 1
        terms += [(k, sign) for k in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2) if k <= n_max]
        j += 1
    return terms


def _power(terms, alpha: int, n_max: int) -> list[int]:
    """E_1^alpha to n_max by Miller's recurrence over the pentagonal terms of E_1."""
    # s_k ((alpha + 1) k - n) = w_k - s_k n, with w_k = s_k (alpha + 1) k fixed for the pass
    weights = [(k, s * (alpha + 1) * k, s) for k, s in terms]
    b = [1]
    for n in range(1, n_max + 1):
        total = 0
        for k, w, s in weights:
            if k > n:
                break
            total += (w - n if s > 0 else w + n) * b[n - k]
        value, rem = divmod(total, n)
        if rem:
            raise ArithmeticError(f"power recurrence for E_1^{alpha} left remainder {rem} at n={n}")
        b.append(value)
    return b


@lru_cache(maxsize=None)
def _euler(n_max: int) -> tuple[tuple[int, int], ...]:
    """The pentagonal terms of E_1 to n_max, once their cube is Jacobi's series."""
    terms = _pentagonal(n_max)
    jacobi = [0] * (n_max + 1)
    j = 0
    while j * (j + 1) // 2 <= n_max:
        jacobi[j * (j + 1) // 2] = (-1) ** j * (2 * j + 1)
        j += 1
    for n, (got, want) in enumerate(zip(_power(terms, 3, n_max), jacobi)):
        if got != want:
            raise ArithmeticError(f"E_1^3 from the pentagonal terms is {got}, not Jacobi's {want}, at n={n}")
    return tuple(terms)


_powers: dict = {}  # (alpha, n) -> E_1^alpha to n


def _cached_power(terms, alpha: int, n: int) -> tuple[int, ...]:
    """E_1^alpha to n, one Miller pass per (alpha, n): terms holds every pentagonal term up to n."""
    if (alpha, n) not in _powers:
        _powers[alpha, n] = tuple(_power(terms, alpha, n))
    return _powers[alpha, n]


@lru_cache(maxsize=None)
def _counts(profile: tuple[tuple[int, int], ...], n_max: int) -> tuple[int, ...]:
    """F(n) for n <= n_max: E_1^(-R) times E_1^e(q^ell) for each pair, R the sum of the e.

    The profile is its sorted (ell, multiplicity) pairs, so the key of a
    uniform profile does not grow with r.
    """
    terms = _euler(n_max)
    table = _cached_power(terms, -sum(e for _, e in profile), n_max)
    for ell, e in profile:
        g = _cached_power(terms, e, n_max // ell)
        # table[n::-ell] is H(n), H(n - ell), ..., and map stops when g runs out
        table = [sum(map(mul, g, table[n::-ell])) for n in range(n_max + 1)]
    return tuple(table)


def _table(name: str, multiplicities, n_max: int) -> CoefficientTable:
    """The counts of the profile with multiplicity e of each bound ell, from (ell, e) pairs."""
    merged = Counter()
    for ell, e in multiplicities:
        _check(ell, e, n_max)
        merged[ell] += e
    return CoefficientTable(name, list(_counts(tuple(sorted(merged.items())), n_max)))


def regular_partition_counts(ell: int, n_max: int) -> CoefficientTable:
    """Partitions of n with no part divisible by ell, for all n <= n_max."""
    return _table(f"b_{ell}", [(ell, 1)], n_max)


def multipartition_counts(profile: RegularityProfile, n_max: int) -> CoefficientTable:
    """Counts of r-tuples whose i-th component is ell_i-regular."""
    name = "B_" + ",".join(str(ell) for ell in profile.ells)
    return _table(name, Counter(profile.ells).items(), n_max)


def profile_counts(multiplicities, n_max: int) -> CoefficientTable:
    """Counts of tuples with e components ell-regular for each (ell, e) pair.

    No tuple of bounds is built: 10**9 components of one bound are one pair.
    """
    multiplicities = tuple(multiplicities)
    name = "B_" + ",".join(f"{ell}^({e})" for ell, e in multiplicities)
    return _table(name, multiplicities, n_max)


def regular_multipartition_counts(ell: int, r: int, n_max: int) -> CoefficientTable:
    """Counts B with all r components ell-regular."""
    return _table(f"B_{ell}^({r})", [(ell, r)], n_max)


@lru_cache(maxsize=None)
def _led_by(n: int, part: int, ell: int) -> tuple[tuple[int, ...], ...]:
    """The ell-regular partitions of n whose largest part is part <= n; each tuple is built here, once."""
    return tuple((part,) + rest for rest in _at_most(n - part, part, ell))


def _at_most(n: int, largest: int, ell: int) -> tuple[tuple[int, ...], ...]:
    """The ell-regular partitions of n into parts <= largest, in decreasing order of their largest part."""
    if not n:
        return ((),)
    return tuple(p for part in range(min(n, largest), 0, -1) if part % ell for p in _led_by(n, part, ell))


@lru_cache(maxsize=None)
def regular_partitions(n: int, ell: int) -> tuple[tuple[int, ...], ...]:
    """All ell-regular partitions of n as weakly decreasing tuples, in the order of the recursive enumeration."""
    return _at_most(n, n, ell)


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
