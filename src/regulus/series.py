"""Exact truncated power series in q over Z and Z/m.

A series is a finite coefficient prefix; every binary operation truncates to
the minimum of the operands' orders so precision loss is always explicit.
Coefficients are Python ints (arbitrary precision over Z, canonical residues
in [0, m) over Z/m).

Over Z/m every product, including the two inside Newton inversion, is one
Kronecker substitution: each operand is packed into a single Python int with
``nbytes`` bytes per coefficient, the two ints are multiplied once, and the
slots of the product are read back and reduced mod m.  A product coefficient
is a sum of at most min(len_a, len_b) products of two residues, so whenever
``(m-1)**2 * min(len_a, len_b) < 256**nbytes`` no carry crosses a slot and
every slot holds its exact sum; ``nbytes`` is chosen from that bound.  Over Z,
convolutions route through numpy int64 whenever a cheap bound shows no
overflow is possible, and fall back to big-int loops otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

_INT64_BUDGET = 1 << 62


class RingMismatchError(ValueError):
    """Operands live in different coefficient rings."""


class NonUnitError(ValueError):
    """Constant term is not invertible in the coefficient ring."""


class EtaShiftError(ValueError):
    """Eta-form quotient whose global q-exponent is not a nonnegative integer."""


@dataclass(frozen=True)
class CoefficientRing:
    """Z when modulus == 0, the residue ring Z/modulus when modulus >= 2."""

    modulus: int = 0

    def __post_init__(self) -> None:
        if self.modulus < 0 or self.modulus == 1:
            raise ValueError(f"invalid modulus {self.modulus}")

    @property
    def is_exact(self) -> bool:
        return self.modulus == 0

    def reduce(self, x: int) -> int:
        return x if self.modulus == 0 else x % self.modulus


ZZ = CoefficientRing(0)


def Zmod(m: int) -> CoefficientRing:
    if m < 2:
        raise ValueError("modulus must be >= 2")
    return CoefficientRing(m)


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients of q^0 .. q^order; index n holds the coefficient of q^n."""

    ring: CoefficientRing
    coeffs: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return add(self, other)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return sub(self, other)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return mul(self, other)

    def nonzero_indices(self) -> list[int]:
        return [i for i, c in enumerate(self.coeffs) if c]


def series(coeffs, ring: CoefficientRing = ZZ) -> TruncatedSeries:
    """Build a series from a coefficient sequence, canonicalizing residues."""
    return TruncatedSeries(ring, tuple(ring.reduce(int(c)) for c in coeffs))


def one(order: int, ring: CoefficientRing = ZZ) -> TruncatedSeries:
    return TruncatedSeries(ring, (1,) + (0,) * order)


def _check_rings(a: TruncatedSeries, b: TruncatedSeries) -> None:
    if a.ring != b.ring:
        raise RingMismatchError(f"{a.ring} vs {b.ring}")


def add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    _check_rings(a, b)
    n = min(a.order, b.order)
    red = a.ring.reduce
    return TruncatedSeries(
        a.ring, tuple(red(a.coeffs[i] + b.coeffs[i]) for i in range(n + 1))
    )


def sub(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    _check_rings(a, b)
    n = min(a.order, b.order)
    red = a.ring.reduce
    return TruncatedSeries(
        a.ring, tuple(red(a.coeffs[i] - b.coeffs[i]) for i in range(n + 1))
    )


def scale(a: TruncatedSeries, c: int) -> TruncatedSeries:
    red = a.ring.reduce
    return TruncatedSeries(a.ring, tuple(red(c * x) for x in a.coeffs))


def _np_fits(la, lb, n_out: int) -> bool:
    ma = max((abs(x) for x in la), default=0)
    mb = max((abs(x) for x in lb), default=0)
    if ma >= _INT64_BUDGET or mb >= _INT64_BUDGET:
        return False
    return ma * mb * (min(len(la), len(lb))) < _INT64_BUDGET


def _np_convolve(la, lb, n_out: int) -> list[int]:
    out = np.convolve(
        np.asarray(la[: n_out + 1], dtype=np.int64),
        np.asarray(lb[: n_out + 1], dtype=np.int64),
    )[: n_out + 1]
    return [int(x) for x in out]


def _py_convolve(la, lb, n_out: int) -> list[int]:
    # iterate the sparser operand on the outside
    nza = sum(1 for x in la[: n_out + 1] if x)
    nzb = sum(1 for x in lb[: n_out + 1] if x)
    if nzb < nza:
        la, lb = lb, la
    out = [0] * (n_out + 1)
    lb = lb[: n_out + 1]
    for i, c in enumerate(la[: n_out + 1]):
        if not c:
            continue
        hi = min(len(lb), n_out + 1 - i)
        for j in range(hi):
            if lb[j]:
                out[i + j] += c * lb[j]
    return out


def _convolve(la, lb, n_out: int) -> list[int]:
    if _np_fits(la[: n_out + 1], lb[: n_out + 1], n_out):
        return _np_convolve(la, lb, n_out)
    return _py_convolve(la, lb, n_out)


def _pack(coeffs, nbytes: int) -> int:
    """Residues as one little-endian int, nbytes bytes per coefficient."""
    if nbytes <= 8:
        lanes = np.array(coeffs, dtype="<u8").view(np.uint8).reshape(-1, 8)
        return int.from_bytes(lanes[:, :nbytes].tobytes(), "little")
    raw = b"".join(c.to_bytes(nbytes, "little") for c in coeffs)
    return int.from_bytes(raw, "little")


def _unpack(x: int, slots: int, n_keep: int, nbytes: int, m: int) -> list[int]:
    """The first n_keep nbytes-wide slots of x (which spans `slots` slots), mod m."""
    raw = x.to_bytes(slots * nbytes, "little")
    if nbytes <= 8:
        lanes = np.zeros((n_keep, 8), dtype=np.uint8)
        kept = np.frombuffer(raw, dtype=np.uint8, count=n_keep * nbytes)
        lanes[:, :nbytes] = kept.reshape(n_keep, nbytes)
        return (lanes.view("<u8").ravel() % m).tolist()
    return [
        int.from_bytes(raw[i : i + nbytes], "little") % m
        for i in range(0, n_keep * nbytes, nbytes)
    ]


def _kronecker(la, lb, n_out: int, m: int) -> list[int]:
    """Product of two residue sequences mod m, truncated at n_out.

    Passing the same sequence twice packs it once and squares the int.
    """
    square = lb is la
    la = la[: n_out + 1]
    lb = la if square else lb[: n_out + 1]
    # every slot sum is at most (m-1)**2 * min(len) < bound, so no carry crosses a slot
    bound = (m - 1) ** 2 * min(len(la), len(lb)) + 1
    nbytes = (bound.bit_length() + 7) // 8
    x = _pack(la, nbytes)
    prod = x * x if square else x * _pack(lb, nbytes)
    return _unpack(prod, len(la) + len(lb) - 1, n_out + 1, nbytes, m)


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at min(order(a), order(b))."""
    _check_rings(a, b)
    n = min(a.order, b.order)
    m = a.ring.modulus
    if m:
        out = _kronecker(a.coeffs, b.coeffs, n, m)
    else:
        out = _convolve(list(a.coeffs), list(b.coeffs), n)
    return TruncatedSeries(a.ring, tuple(out))


def power(a: TruncatedSeries, e: int) -> TruncatedSeries:
    """a**e with truncation at order(a); power(a, 0) is the constant 1."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    if e == 0:
        return one(a.order, a.ring)
    nz = sum(1 for c in a.coeffs if c)
    if a.ring.is_exact and nz <= 4 * isqrt(a.order + 1) + 8:
        # sparse base: sequential products keep one operand sparse throughout
        acc = a
        for _ in range(e - 1):
            acc = mul(acc, a)
        return acc
    acc = None
    sq = a
    k = e
    while k:
        if k & 1:
            acc = sq if acc is None else mul(acc, sq)
        k >>= 1
        if k:
            sq = mul(sq, sq)
    return acc


def invert(a: TruncatedSeries) -> TruncatedSeries:
    """Two-sided inverse up to the truncation order."""
    m = a.ring.modulus
    a0 = a.coeffs[0]
    n_out = a.order
    if m == 0:
        if a0 not in (1, -1):
            raise NonUnitError(f"constant term {a0} is not a unit in Z")
        nz = [(k, a.coeffs[k]) for k in range(1, n_out + 1) if a.coeffs[k]]
        b = [a0] + [0] * n_out
        for n in range(1, n_out + 1):
            s = 0
            for k, c in nz:
                if k > n:
                    break
                s += c * b[n - k]
            b[n] = -a0 * s
        return TruncatedSeries(a.ring, tuple(b))
    try:
        inv0 = pow(a0, -1, m)
    except ValueError as exc:
        raise NonUnitError(f"constant term {a0} is not a unit mod {m}") from exc
    # Newton: b <- b * (2 - a*b), doubling the known precision each step
    b = [inv0]
    prec = 1
    while prec <= n_out:
        prec = min(2 * prec, n_out + 1)
        t = [(-x) % m for x in _kronecker(a.coeffs, b, prec - 1, m)]
        t[0] = (t[0] + 2) % m
        b = _kronecker(b, t, prec - 1, m)
    return TruncatedSeries(a.ring, tuple(b))


def euler_E(k: int, order: int, ring: CoefficientRing = ZZ) -> TruncatedSeries:
    """Euler product prod_{m>=1}(1 - q^{km}) via the pentagonal expansion."""
    if k < 1:
        raise ValueError("k must be >= 1")
    c = [0] * (order + 1)
    c[0] = 1
    j = 1
    while True:
        e1 = k * j * (3 * j - 1) // 2
        if e1 > order:
            break
        s = -1 if j % 2 else 1
        c[e1] += s
        e2 = k * j * (3 * j + 1) // 2
        if e2 <= order:
            c[e2] += s
        j += 1
    red = ring.reduce
    return TruncatedSeries(ring, tuple(red(x) for x in c))


@dataclass(frozen=True)
class EtaQuotientSpec:
    """Product prod E_{k_i}^{e_i}; eta form carries the q^{k e / 24} prefactors."""

    factors: tuple[tuple[int, int], ...]
    form: str = "E"  # "E" or "eta"

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("factor list must be non-empty")
        if self.form not in ("E", "eta"):
            raise ValueError(f"unknown form {self.form!r}")
        for k, _ in self.factors:
            if k < 1:
                raise ValueError(f"scale {k} must be positive")

    def shift(self) -> int:
        if self.form == "E":
            return 0
        s24 = sum(k * e for k, e in self.factors)
        if s24 % 24:
            raise EtaShiftError(f"24 does not divide {s24}")
        if s24 < 0:
            raise EtaShiftError(f"negative q-shift {s24 // 24}")
        return s24 // 24


def eta_quotient(
    spec: EtaQuotientSpec, order: int, ring: CoefficientRing = ZZ
) -> tuple[TruncatedSeries, int]:
    """Expand the E-product part; return (series, q-power shift)."""
    shift = spec.shift()
    num = one(order, ring)
    den = None
    for k, e in spec.factors:
        if e == 0:
            continue
        base = euler_E(k, order, ring)
        if e > 0:
            for _ in range(e):
                num = mul(num, base)
        else:
            den = base if den is None else mul(den, base)
            for _ in range(-e - 1):
                den = mul(den, base)
    if den is not None:
        num = mul(num, invert(den))
    return num, shift


def extract_progression(a: TruncatedSeries, step: int, residue: int) -> TruncatedSeries:
    """Slice out the subsequence a[step*n + residue]."""
    if not 0 <= residue < step:
        raise ValueError("residue must satisfy 0 <= residue < step")
    out = a.coeffs[residue :: step]
    return TruncatedSeries(a.ring, tuple(out))


def dilate(a: TruncatedSeries, k: int) -> TruncatedSeries:
    """Substitute q -> q^k by index dilation; result order is k*order(a)."""
    if k < 1:
        raise ValueError("dilation factor must be >= 1")
    if k == 1:
        return a
    out = [0] * (k * a.order + 1)
    for i, c in enumerate(a.coeffs):
        out[k * i] = c
    return TruncatedSeries(a.ring, tuple(out))


def shift_q(a: TruncatedSeries, s: int) -> TruncatedSeries:
    """Multiply by q^s, keeping the truncation order."""
    if s < 0:
        raise ValueError("shift must be nonnegative")
    out = (0,) * s + a.coeffs
    return TruncatedSeries(a.ring, out[: a.order + 1])


def truncate(a: TruncatedSeries, order: int) -> TruncatedSeries:
    if order >= a.order:
        return a
    return TruncatedSeries(a.ring, a.coeffs[: order + 1])


def reduce_mod(a: TruncatedSeries, m: int) -> TruncatedSeries:
    """Coefficientwise reduction into Z/m."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    return TruncatedSeries(Zmod(m), tuple(x % m for x in a.coeffs))


def regular_quotient(
    ell: int, r: int, order: int, modulus: int = 0
) -> TruncatedSeries:
    """Generating series E_ell^r / E_1^r of ell-regular r-multipartition counts."""
    ring = ZZ if modulus == 0 else Zmod(modulus)
    base = mul(euler_E(ell, order, ring), invert(euler_E(1, order, ring)))
    return power(base, r)
