"""Exact truncated power series in q over Z and Z/m.

A series is a finite coefficient prefix; every binary operation truncates to
the minimum of the operands' orders so precision loss is always explicit.
Coefficients are Python ints (arbitrary precision over Z, canonical residues
in [0, m) over Z/m).

Every product, over either ring and including the two inside Newton
inversion, is one Kronecker substitution: each operand is packed into a
single Python int with ``nbytes`` bytes per coefficient, the two ints are
multiplied once, and the slots of the product are read back.  If every
coefficient of a has absolute value at most ``ma`` and every one of b at most
``mb``, a product coefficient is a sum of at most min(len_a, len_b) terms, so
its absolute value is at most ``bound = max(ma*mb*min(len_a, len_b), ma, mb)``
(the last two terms let a slot hold the operands' own coefficients).  Over
Z/m, ``ma = mb = m - 1`` and the slots are unsigned: ``bound < 256**nbytes``.
Over Z, ``ma`` and ``mb`` are the operands' largest ``|c|`` and a slot also
carries a sign: ``2 * bound < 256**nbytes``.  Either way no carry or borrow
crosses a slot and every slot holds its exact sum; ``nbytes`` is the least
width that meets the bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def _pack(coeffs, nbytes: int) -> int:
    """Nonnegative coefficients below 256**nbytes as one little-endian int, nbytes bytes each."""
    if nbytes <= 8:
        lanes = np.array(coeffs, dtype="<u8").view(np.uint8).reshape(-1, 8)
        return int.from_bytes(lanes[:, :nbytes].tobytes(), "little")
    raw = b"".join(c.to_bytes(nbytes, "little") for c in coeffs)
    return int.from_bytes(raw, "little")


def _pack_signed(coeffs, nbytes: int) -> int:
    """sum(c_i * 256**(nbytes*i)) for signed |c_i| < 256**nbytes."""
    pos = _pack([c if c > 0 else 0 for c in coeffs], nbytes)
    return pos - _pack([-c if c < 0 else 0 for c in coeffs], nbytes)


def _unpack(x: int, n_keep: int, nbytes: int, m: int) -> list[int]:
    """The first n_keep nbytes-wide slots of x: reduced mod m, or signed when m == 0.

    A signed slot lies in [-half, half) with half = 2**(8*nbytes - 1); adding half
    to every slot turns x into unsigned slots with no borrow between them.
    """
    half = 1 << (8 * nbytes - 1)
    if not m:
        x += int.from_bytes((b"\x00" * (nbytes - 1) + b"\x80") * n_keep, "little")
    raw = (x & ((1 << (8 * nbytes * n_keep)) - 1)).to_bytes(n_keep * nbytes, "little")
    if nbytes <= 8:
        lanes = np.zeros((n_keep, 8), dtype=np.uint8)
        lanes[:, :nbytes] = np.frombuffer(raw, dtype=np.uint8).reshape(n_keep, nbytes)
        slots = lanes.view("<u8").ravel()
        if m:
            return (slots % m).tolist()
        # uint64 subtraction wraps mod 2**64; read as int64 it is the signed slot
        return (slots - np.uint64(half)).view(np.int64).tolist()
    slots = (int.from_bytes(raw[i : i + nbytes], "little") for i in range(0, len(raw), nbytes))
    return [c % m for c in slots] if m else [c - half for c in slots]


def _kronecker(la, lb, n_out: int, m: int) -> list[int]:
    """Product of two coefficient sequences truncated at n_out, over Z/m, or over Z when m == 0.

    Passing the same sequence twice packs it once and squares the int.
    """
    square = lb is la
    la = la[: n_out + 1]
    lb = la if square else lb[: n_out + 1]
    if m:
        ma = mb = m - 1
    else:
        ma = max(map(abs, la))
        mb = ma if square else max(map(abs, lb))
    # |slot sum| <= ma*mb*min(len), and a slot must also hold each operand coefficient
    bound = max(ma * mb * min(len(la), len(lb)), ma, mb)
    # over Z one more bit carries the sign
    nbytes = (bound.bit_length() + (not m) + 7) // 8
    pack = _pack if m else _pack_signed
    x = pack(la, nbytes)
    prod = x * x if square else x * pack(lb, nbytes)
    return _unpack(prod, n_out + 1, nbytes, m)


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at min(order(a), order(b))."""
    _check_rings(a, b)
    n = min(a.order, b.order)
    return TruncatedSeries(a.ring, tuple(_kronecker(a.coeffs, b.coeffs, n, a.ring.modulus)))


def power(a: TruncatedSeries, e: int) -> TruncatedSeries:
    """a**e with truncation at order(a); power(a, 0) is the constant 1."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    if e == 0:
        return one(a.order, a.ring)
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
        inv0 = a0
    else:
        try:
            inv0 = pow(a0, -1, m)
        except ValueError as exc:
            raise NonUnitError(f"constant term {a0} is not a unit mod {m}") from exc
    # Newton: b <- b * (2 - a*b), doubling the known precision each step
    b = [inv0]
    prec = 1
    while prec <= n_out:
        prec = min(2 * prec, n_out + 1)
        # -x mod m over Z/m, and -x over Z (m == 0)
        t = [m - x if x else 0 for x in _kronecker(a.coeffs, b, prec - 1, m)]
        t[0] = a.ring.reduce(t[0] + 2)
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
