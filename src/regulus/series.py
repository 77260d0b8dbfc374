"""Exact truncated power series in q over Z and Z/m.

A series is a finite coefficient prefix; every binary operation truncates to
the minimum of the operands' orders so precision loss is always explicit.
Over Z the coefficients are a tuple of Python ints, which outgrow int64.  Over
Z/m they are canonical residues in [0, m), held in a read-only numpy array of
the narrowest unsigned dtype that holds m - 1 (uint8 for every registry
modulus; an object array of Python ints past uint64).  Every Z/m product,
power, inverse, sum, dilation and prefix takes and returns such arrays, and
sums and negations stay below m - 1 so that no fixed-width entry wraps.
Python ints appear only at the edges: ``TruncatedSeries.coeffs`` (a tuple,
built on its first read), ``s[n]``, a slice ``s[a:b:c]`` (a list of the
entries it reads, which builds no ``coeffs``), and the values a check records.

Every product of q-Pochhammer symbols the package expands is a theta
quotient.  ``theta(a, b)`` is Ramanujan's f(-q^a, -q^b), a sparse series
summed over j in Z; by the Jacobi triple product it equals
prod_{m>=1} (1 - q^{(a+b)m-a}) (1 - q^{(a+b)m-b}) (1 - q^{(a+b)m}).  So
E_k = f(-q^k, -q^{2k}) (Euler's pentagonal theorem), and a product of
(1 - q^d) over d in the classes +-a mod a+b is f(-q^a, -q^b) / E_{a+b}.
``theta_quotient`` expands prod f(-q^a, -q^b)^e over rows (a, b, e).

Each series kind the checks read has one builder, over one prefix store.
The store holds the longest series built per key, builds again only for a
longer order, and serves a shorter one as a prefix, which exact arithmetic
makes equal to a build at that order.  A builder reads its pieces from the
store, each under its own key, so that builds sharing a piece build it once.
The store has three kinds of key:

* ``(ell, r, m)``: E_ell^r / E_1^r mod m (over Z when m == 0), read by
  ``cached_regular_series``;
* ``("S", p, a, e1, ea)``: E_1^e1 E_a^ea mod a prime p, one level of a
  Frobenius chain (a == 1 when ea == 0);
* ``("E_1^d", m, d)``: E_1^d mod m (over Z when m == 0) for any integer d,
  read by ``cached_e1_power`` and built by one function: E_1 itself for
  d == 1, Newton's inverse for d == -1, the square of E_1^(d/2) when |d| is a
  power of 2, and otherwise the product of the stored powers at the set bits
  of |d|, signed as d (``_factors``).

``regular_quotient(ell, r, order, m)`` returns E_ell^r / E_1^r mod m.  It
splits m (``_split``) into the primes p | m with p <= order and p**2 not
dividing m, and the rest of m.  Mod a prime p, f(q)^p = f(q^p) for every
series f over Z, 1/E_1 included: the cross terms of the p-th power have
coefficients divisible by p, and c^p = c (Fermat).  With ell = a p^v and p not
dividing a, E_ell(q) = E_a(q^(p^v)) = E_a^(p^v), so the key mod p is
S(e1, ea) = E_1^e1 E_a^ea with e1 = -r and ea = r p^v, or E_1^(r (p^v - 1))
when a == 1 (``_form``).  Splitting off one p-adic digit of each exponent,

    S(e1, ea) = E_1^(e1 mod p) E_a^(ea mod p) S(e1 // p, ea // p)(q^p)  (mod p),

so S to order n reads the next level to order n // p.  Below q^p a dilated
level is 1, so the chain ends at the first level of order below p.  A level's
digit powers are stored powers of E_1 mod p; E_a^d to order n is E_1^d to
order n // a at q -> q^a.  Each level is a key of its own, so chains share
their tails.  The division shrinks |e| until an exponent reaches 0 or e1
reaches -1, and every -r chain ends in S(-1, 0) = 1/E_1 mod p = E_1^(p-1)
(1/E_1)(q^p), whose levels one build computes.  No level inverts.

The rest (a prime power, a prime above the order, or all of Z when m == 0)
is one level of the same form with no next level and no key of its own:
E_1^-r times E_1^r to order // ell at q -> q^ell, since E_ell(q) = E_1(q^ell).
So Newton runs only for E_1^-1 over Z or mod a rest.  ``_parts`` lists every
part's levels, the rest's first, and ``_levels`` walks a chain; the build and
the plan read both.  ``_crt`` joins the parts by Garner's method: residues X
mod M gain t = (x - X) / M mod q for a part x mod q, and X + M t < M q <= m,
so no entry leaves m's dtype.  ``eta_quotient(scale, e, order)``, the power
eta(scale z)^e = q^{scale e / 24} E_1^e(q^scale) over Z, reads E_1^e from the
store, to the order ``eta_read`` gives.

A suite run plans the store's reads before any check runs.  The rows of its
checks name their reads, ``(ell, r, m, order)`` of ``cached_regular_series``
and ``("E_1^d", m, d, order)`` of ``cached_e1_power``, and ``plan`` gives each
store key a target order: the largest order a planned read reaches through it
(``_pieces``).  A key read to n reaches each chain level at n, n // p, ...,
each level's digit powers at its order (at its order // a for E_a), the
rest's E_1^-r at n and E_1^r at n // ell, and each power of E_1 the powers it
multiplies at its own order.  A miss builds to the larger of the order asked
and the key's target, so each key is built once per run, lazily, inside the
first check that reads it.  Outside a run the plan is empty: a read builds to
the order it asks, as a direct call always does.  A run of several jobs
splits its checks into shares, one process each, and first builds the keys
that two shares read (``prebuild``); ``build_cost`` weighs a key for that
split and for the order of that build.  Each process then builds only its
own share's keys.

Each key has its own lock, held while its series is built.  Only that
build before the fork runs on several threads; a process that runs checks
runs them on one.  A build takes the locks of the keys it reads in one
order: the key (ell, r, m), then its chain levels by decreasing order, then
powers of E_1 by decreasing |d|.  A level reads only the levels below it in
its chain and powers of E_1, a power of E_1 only powers of smaller |d| over
its ring and of its sign, and no piece reads a key (ell, r, m), so two
threads never wait on each other in a cycle.

Every product, over either ring and including the two inside Newton
inversion, goes through ``_product``: numpy's float FFT, rounded to integers.
Two bounds make it exact and pick how the operands enter it; no size
threshold or setting does.  Rows x and y of integers, as float64 vectors, are
zero-padded to L = 2**n >= len_a + len_b - 1 and multiplied as
``irfft(rfft(x) * rfft(y))``.  If ``|x_i| <= ha``, ``|y_j| <= hb``, and ``ma``
and ``mb`` bound the values the rows are made from, every entry is exact once
rounded when both of these hold (``_float_exact``):

* ``max(ha*hb*min(len_a, len_b), ma, mb) < 2**52``: every input and every
  exact output coefficient is an integer that float64 represents exactly.
* Percival's theorem (Rapid multiplication modulo the sum and difference
  of highly composite numbers, Math. Comp. 72 (2003)): a product by a
  radix-2 FFT of length 2**n in arithmetic with unit roundoff
  eps = 2**-53 and twiddle factors accurate to beta differs from the exact
  one in every entry by less than
  ``|x| |y| ((1+eps)^{3n} (1+eps*sqrt5)^{3n+1} (1+beta)^{3n} - 1)``,
  where ``|x| <= ha*sqrt(len_a)`` is the Euclidean norm.  The bound needs
  twice that quantity, evaluated in float through ``math.expm1`` of the
  summed ``log1p`` terms, below 1/4; the factor 2 covers the rounding of
  that evaluation.

When the operands pass whole (k = 1), each is one row: over Z/m a residue c
enters balanced (c - m when c > m // 2), so ``ha = m // 2``, ``ma = m - 1``;
over Z, ``ha = ma`` is the largest ``|c|``.  Otherwise each coefficient (over
Z/m the residue's balanced lift, the result reduced mod m at the end) is split
into k balanced base-2**w digits, ``c = sum_i d_i 2**(w i)``, one row per
digit with ``-2**(w-1) <= d_i < 2**(w-1)``, where w is the largest width the
bounds admit with ``ha = hb = ma = mb = 2**(w-1)``.  So each product of a
digit row of one operand and one of the other is exact as above, with integers
below 2**52.  Each row is transformed once; each pair product is inverse
transformed, rounded and guarded on its own, one batched call per row of the
first operand.  (Summing a diagonal's spectra first would save inverse
transforms, but that sum is no product the theorem covers.)  int64 sums the
pair products with i + j = s exactly: at most min(k_a, k_b) of them, each
below 2**52, carried into base-2**w digits after every 512 rows, so no sum
reaches 2**62.  ``sum_s 2**(w s)`` times those sums is one Python int.

The theorem is proved for a textbook radix-2 transform.  The kernel
assumes that numpy's pocketfft (the C library in numpy 1.x, the C++ one in
numpy 2), whose real transforms use mixed radices and a half-length complex
transform, is no less accurate than that transform at the same length, with
twiddle factors accurate to beta = 2**-52, twice the unit roundoff.  Under
that assumption every entry lies within 1/8 of its exact integer, where
rounding needs only 1/2; the margin is what the assumption may use up.  A
residual guard checks it on every float product: an entry more than 1/4 from its
nearest integer raises ArithmeticError, and there is no fallback.  The guard
cannot see an error of a whole unit, nor a product past 2**53 that rounds to
an integer-valued float, so the bound, not the guard, makes the product exact.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, partial, reduce

import numpy as np


class RingMismatchError(ValueError):
    """Operands live in different coefficient rings."""


class NonUnitError(ValueError):
    """Constant term is not invertible in the coefficient ring."""


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


_UINTS = tuple(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32, np.uint64))


def _dtype(m: int) -> np.dtype:
    """The narrowest unsigned dtype that holds m - 1; object (Python ints) past uint64."""
    for dt in _UINTS:
        if m - 1 < 1 << (8 * dt.itemsize):
            return dt
    return np.dtype(object)


def _zeros(n: int, m: int):
    """n zero coefficients, writable, as a series over Z/m stores them (over Z when m == 0)."""
    return np.zeros(n, _dtype(m)) if m else [0] * n


class TruncatedSeries:
    """Coefficients of q^0 .. q^order; index n holds the coefficient of q^n.

    ``data`` holds them as stored: a tuple of Python ints over Z, a read-only
    array of the ring's dtype over Z/m.  ``coeffs`` reads them as a tuple of
    Python ints over either ring.  Built from a sequence over Z/m, the entries
    must already be residues in [0, m); ``series`` reduces arbitrary ints.
    """

    __slots__ = ("ring", "data", "_coeffs")

    def __init__(self, ring: CoefficientRing, coeffs) -> None:
        self.ring = ring
        if ring.modulus:
            self.data = np.asarray(coeffs, dtype=_dtype(ring.modulus))
            self.data.flags.writeable = False
            self._coeffs = None
        else:
            self.data = self._coeffs = tuple(coeffs)

    @property
    def coeffs(self) -> tuple[int, ...]:
        if self._coeffs is None:
            self._coeffs = tuple(self.data.tolist())
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self.data) - 1

    def __getitem__(self, n: int | slice):
        if isinstance(n, slice) and self.ring.modulus:  # a slice of Z/m reads its entries alone, not ``coeffs``
            return self.data[n].tolist()
        return self.coeffs[n]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.ring != other.ring:
            return False
        return np.array_equal(self.data, other.data) if self.ring.modulus else self.data == other.data

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.ring!r}, {self.coeffs!r})"

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return add(self, other)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return mul(self, other)


def series(coeffs, ring: CoefficientRing = ZZ) -> TruncatedSeries:
    """Build a series from a coefficient sequence, canonicalizing residues."""
    return TruncatedSeries(ring, [ring.reduce(int(c)) for c in coeffs])


def one(order: int, ring: CoefficientRing = ZZ) -> TruncatedSeries:
    c = _zeros(order + 1, ring.modulus)
    c[0] = 1
    return TruncatedSeries(ring, c)


def _check_rings(a: TruncatedSeries, b: TruncatedSeries) -> None:
    if a.ring != b.ring:
        raise RingMismatchError(f"{a.ring} vs {b.ring}")


def _add_mod(x: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """(x + y) mod m for residue arrays; no intermediate exceeds m - 1, so none wraps."""
    room = (m - 1) - y  # x + y >= m exactly when x > room, and then x + y - m = x - room - 1
    return np.where(x > room, x - room - 1, x + y)


def _neg_mod(x: np.ndarray, m: int) -> np.ndarray:
    """-x mod m for a residue array, through (m - 1) - x, which never wraps."""
    out = (m - 1) - x
    out += 1
    out[x == 0] = 0  # where m is the dtype's 2**bits, the += above already wrapped these to 0
    return out


def add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    _check_rings(a, b)
    n = min(a.order, b.order) + 1
    if a.ring.modulus:
        return TruncatedSeries(a.ring, _add_mod(a.data[:n], b.data[:n], a.ring.modulus))
    return TruncatedSeries(a.ring, [x + y for x, y in zip(a.data[:n], b.data[:n])])


_EPS = 2.0**-53  # float64 unit roundoff
_BETA = 2.0**-52  # allowance for the error of pocketfft's twiddle factors


def _float_exact(ha: int, hb: int, ma: int, mb: int, len_a: int, len_b: int) -> bool:
    """Whether the float product of two rows is exact: both bounds of the module docstring hold.

    ha and hb bound the rows' |c|, ma and mb the values the rows are made from.
    """
    if max(ha * hb * min(len_a, len_b), ma, mb) >= 1 << 52:
        return False
    n = (len_a + len_b - 2).bit_length()  # the transform length is 2**n
    log_growth = (
        3 * n * math.log1p(_EPS) + (3 * n + 1) * math.log1p(_EPS * math.sqrt(5)) + 3 * n * math.log1p(_BETA)
    )
    # Percival's |x| |y| expm1(log_growth) with |x| <= ha * sqrt(len_a), doubled
    return 2 * ha * hb * math.sqrt(len_a * len_b) * math.expm1(log_growth) < 0.25


def _rows(coeffs, m: int, w: int, h: int) -> np.ndarray:
    """The float64 rows the transform takes for one operand, over Z/m, or over Z when m == 0.

    w == 0: one row, the coefficients themselves, residues balanced.  w >= 1: one row
    per balanced base-2**w digit; h bounds |c|, and k digits hold |c| < 2**(w k - 2).
    """
    if not w:
        x = coeffs.astype(np.float64) if m else np.array(coeffs, dtype=np.float64)
        if m:
            x[coeffs > m // 2] -= m  # c - m for c > m // 2, so |c| <= m // 2
        return x[None]
    ints = [c - m if c > m // 2 else c for c in coeffs.tolist()] if m else coeffs
    half, k, n = 1 << (w - 1), (h.bit_length() + 1) // w + 1, len(ints)
    # half in every digit: the digits of c + offset, in [0, 2**w), less half each
    offset = half * ((1 << (w * k)) - 1) // ((1 << w) - 1)
    if w * k <= 64:  # c + offset fits uint64, and c fits int64
        raw = (np.array(ints, dtype=np.int64).view(np.uint64) + np.uint64(offset)).astype("<u8").view(np.uint8)
    else:
        raw = np.frombuffer(b"".join((c + offset).to_bytes((w * k + 7) // 8, "little") for c in ints), np.uint8)
    bits = np.unpackbits(raw.reshape(n, -1), axis=1, count=w * k, bitorder="little").reshape(n, k, w)
    return np.ascontiguousarray((bits @ (1 << np.arange(w))).T, dtype=np.float64) - half


def _carry(sums: np.ndarray, w: int) -> np.ndarray:
    """The column sums sum_s sums[s] 2**(w s) again, every row but the last in [0, 2**w), the last 0 or -1.

    With every |entry| below 2**62 and w >= 2, a carry stays below 2**61 and 63 // w + 1 more rows end it.
    """
    out = np.zeros((len(sums) + 63 // w + 2, sums.shape[1]), np.int64)
    out[: len(sums)] = sums
    for s in range(len(out) - 1):
        out[s + 1] += out[s] >> w
        out[s] &= (1 << w) - 1
    return out


def _join(sums: np.ndarray, w: int) -> list:
    """The Python ints sum_s sums[s, n] 2**(w s), one per column n of an int64 array (|entries| < 2**62)."""
    digits = _carry(sums, w)
    rows, n = len(digits) - 1, sums.shape[1]
    bits = np.empty((n, 8 * (rows * w // 8 + 1)), np.uint8)  # room for at least one sign bit
    lanes = np.ascontiguousarray(digits[:-1].T, dtype="<u4").view(np.uint8).reshape(n, rows, 4)
    bits[:, : rows * w] = np.unpackbits(lanes, axis=2, count=w, bitorder="little").reshape(n, -1)
    bits[:, rows * w :] = digits[-1, :, None] & 1  # the sign, 0 or -1, extended
    if (bits[:, 63:] == bits[:, -1:]).all():
        # every sum repeats its sign from bit 63 up: its low 64 bits, read as int64
        return np.packbits(bits[:, :64], axis=1, bitorder="little").view("<i8")[:, 0].tolist()
    raw, nbytes = np.packbits(bits, axis=1, bitorder="little").tobytes(), bits.shape[1] // 8
    return [int.from_bytes(raw[i : i + nbytes], "little", signed=True) for i in range(0, len(raw), nbytes)]


def _rounded(c: np.ndarray) -> np.ndarray:
    """The float entries of c rounded to int64; raises ArithmeticError if one lies more than 1/4 from an integer."""
    exact = np.rint(c)
    c -= exact
    residual = np.abs(c, out=c).max()
    if residual > 0.25:
        raise ArithmeticError(f"float product left a residual of {residual:.3g}")
    return exact.astype(np.int64)


def _product(la, lb, n_out: int, m: int):
    """Product of two coefficient sequences truncated at n_out, over Z/m, or over Z when m == 0.

    Over Z/m the operands and the result are residue arrays of the ring's dtype;
    over Z they are sequences of Python ints and the result is a list.  Passing the
    same sequence twice transforms it once.  Raises ArithmeticError from the guard.
    """
    square = lb is la
    la = la[: n_out + 1]
    lb = la if square else lb[: n_out + 1]
    if m:
        ma = mb = m - 1
        ha = hb = m // 2
    else:
        ma = ha = max(map(abs, la))
        mb = hb = ma if square else max(map(abs, lb))
    len_a, len_b = len(la), len(lb)
    # w == 0: the operands whole; else the largest digit width the bounds admit
    w = 0 if _float_exact(ha, hb, ma, mb, len_a, len_b) else next(
        w for w in range(26, 0, -1) if _float_exact(*[1 << (w - 1)] * 4, len_a, len_b)
    )
    size = len_a + len_b - 1
    length = 1 << (size - 1).bit_length()
    keep = min(size, n_out + 1)
    fa = np.fft.rfft(_rows(la, m, w, ha), length)
    fb = fa if square else np.fft.rfft(_rows(lb, m, w, hb), length)
    if not w:
        fa *= fb  # one row each, multiplied in place; each spectrum is freed once read
        del fb
        c = np.fft.irfft(fa, length)[0, :keep]
        del fa
        values = _rounded(c)
    else:
        # sums[s]: the digit products (i, j) with i + j = s, each rounded on its own
        sums = np.zeros((len(fa) + len(fb) - 1, keep), np.int64)
        for i, row in enumerate(fa):
            j = i if square else 0
            pairs = _rounded(np.fft.irfft(row * fb[j:], length)[:, :keep])
            if square:
                pairs[1:] *= 2  # (i, j) and (j, i)
            sums[i + j : i + len(fb)] += pairs
            if i % 512 == 511:  # 512 pair products below 2**53 each (doubled in a square): below 2**62
                sums = _carry(sums, w)
        values = _join(sums, w)
    if not m:
        return (values if w else values.tolist()) + [0] * (n_out + 1 - keep)
    out = _zeros(n_out + 1, m)
    out[:keep] = [v % m for v in values] if w else values % m
    return out


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at min(order(a), order(b))."""
    _check_rings(a, b)
    n = min(a.order, b.order)
    return TruncatedSeries(a.ring, _product(a.data, b.data, n, a.ring.modulus))


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
    a0 = int(a.data[0])
    n_out = a.order
    if m == 0:
        if a0 not in (1, -1):
            raise NonUnitError(f"constant term {a0} is not a unit in Z")
        b = [a0]
    else:
        try:
            b = np.full(1, pow(a0, -1, m), _dtype(m))
        except ValueError as exc:
            raise NonUnitError(f"constant term {a0} is not a unit mod {m}") from exc
    # Newton: b <- b * (2 - a*b), doubling the known precision each step
    prec = 1
    while prec <= n_out:
        prec = min(2 * prec, n_out + 1)
        ab = _product(a.data, b, prec - 1, m)
        t = _neg_mod(ab, m) if m else [-x for x in ab]
        t[0] = a.ring.reduce(int(t[0]) + 2)
        b = _product(b, t, prec - 1, m)
    return TruncatedSeries(a.ring, b)


def theta(a: int, b: int, order: int, ring: CoefficientRing = ZZ) -> TruncatedSeries:
    """Ramanujan's f(-q^a, -q^b) = sum over j in Z of (-1)^j q^(a j(j+1)/2 + b j(j-1)/2)."""
    if a < 1 or b < 1:
        raise ValueError(f"theta needs a, b >= 1, got ({a}, {b})")
    terms = {0: 1}  # exponent -> coefficient; the O(sqrt(order)) nonzero terms
    j = 1
    while True:
        # the exponents of the terms for j and -j
        e1 = a * j * (j + 1) // 2 + b * j * (j - 1) // 2
        e2 = a * j * (j - 1) // 2 + b * j * (j + 1) // 2
        if min(e1, e2) > order:
            break
        s = -1 if j % 2 else 1
        for e in (e1, e2):
            if e <= order:
                terms[e] = terms.get(e, 0) + s
        j += 1
    c = _zeros(order + 1, ring.modulus)
    for e, v in terms.items():
        c[e] = ring.reduce(v)
    return TruncatedSeries(ring, c)


def euler_E(k: int, order: int, ring: CoefficientRing = ZZ) -> TruncatedSeries:
    """Euler product prod_{m>=1}(1 - q^{km}) = f(-q^k, -q^{2k}), the pentagonal expansion."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return theta(k, 2 * k, order, ring)


def theta_quotient(factors, order: int, ring: CoefficientRing = ZZ) -> TruncatedSeries:
    """prod f(-q^a, -q^b)^e over the (a, b, e) rows of factors.

    A row of e < 0 is inverted at its own length: 1/f(-q^a, -q^b) = (1/f(-q^(a/g), -q^(b/g)))(q^g), g = gcd(a, b),
    inverted to order // g and raised to -e there.  The rows of one (a/g, b/g) share one Newton inverse, built for
    their least g and read by the others as a prefix: each Euler row (k, 2k, e) of a call reads one 1/E_1.
    """
    # numerators, then denominators by decreasing g, the smaller inverses first; (0, 0) takes g = 1, for theta to reject
    rows = sorted([(a, b, math.gcd(a, b) or 1, e) for a, b, e in factors if e], key=lambda row: (row[3] < 0, -row[2]))
    least = {(a // g, b // g): g for a, b, g, e in rows if e < 0}  # each (a/g, b/g) -> its least g, the last kept
    inverse = {(a, b): invert(theta(a, b, order // g, ring)) for (a, b), g in least.items()}
    terms = [power(theta(a, b, order, ring), e) if e > 0
             else dilate(power(truncate(inverse[a // g, b // g], order // g), -e), g, order) for a, b, g, e in rows]
    return reduce(mul, terms) if terms else one(order, ring)


def dilate(a: TruncatedSeries, k: int, order: int | None = None) -> TruncatedSeries:
    """Substitute q -> q^k by index dilation, to order: k*order(a) by default, at most k*order(a) + k - 1."""
    if k < 1:
        raise ValueError("dilation factor must be >= 1")
    n = k * a.order if order is None else order
    if k == 1:
        return truncate(a, n)
    out = _zeros(n + 1, a.ring.modulus)
    out[::k] = a.data[: n // k + 1]
    return TruncatedSeries(a.ring, out)


def truncate(a: TruncatedSeries, order: int) -> TruncatedSeries:
    if order >= a.order:
        return a
    return TruncatedSeries(a.ring, a.data[: order + 1])


# the prefix store: key -> the longest series built for it, and the lock of each key
_longest: dict = {}
_key_locks: dict = {}
_targets: dict | None = None  # the plan of the run in progress, store key -> target order; None outside one


@cache
def _split(m: int, order: int) -> tuple[tuple[int, ...], int]:
    """The primes p | m with p <= order and p**2 not dividing m, increasing, and m over their product."""
    primes, left, d = [], m, 2
    while d <= order and d * d <= left:
        if left % d == 0:
            left //= d
            if left % d:
                primes.append(d)
            while left % d == 0:
                left //= d
        d += 1
    if 1 < left <= order:  # no factor below d and left < d**2: left is a prime that divides m once
        primes.append(left)
    return tuple(primes), m // math.prod(primes)


def _form(ell: int, r: int, p: int) -> tuple[int, int, int]:
    """(a, e1, ea) with E_ell^r / E_1^r = E_1^e1 E_a^ea mod p: ell = a p^v, p not dividing a."""
    v = 0
    while ell % p == 0:
        ell //= p
        v += 1
    return (1, r * (p**v - 1), 0) if ell == 1 else (ell, -r, r * p**v)


def _levels(p: int, a: int, e1: int, ea: int, n: int):
    """The levels of the Frobenius chain of E_1^e1 E_a^ea mod p read to order n, the first level first.

    Yields (key, order, digits) per level: its store key ("S", p, a, e1, ea) (a = 1 when ea == 0), the
    order it is read to, and the (d, k) of its digit powers E_k^d, 0 < d < p, k = 1 or a, read as E_1^d
    to order // k.  The chain ends at the first level of order below p, where the next level dilated is
    1, or when both exponents reach 0.  S(-1, 0) = 1/E_1 has itself as its next level, to a lower order.
    """
    while e1 or ea:
        a = a if ea else 1
        yield ("S", p, a, e1, ea), n, [(d, k) for d, k in ((e1 % p, 1), (ea % p, a)) if d]
        if n < p:
            return
        e1, ea, n = e1 // p, ea // p, n // p


def _parts(ell: int, r: int, m: int, order: int) -> list:
    """The parts of E_ell^r / E_1^r mod m (over Z when m == 0) to order, r >= 1, each (q, its levels).

    The rest of m (all of Z when m == 0) comes first, as one level E_1^-r E_ell^r with no key and no next
    level; then each prime p of _split(m, order), as the levels of its chain.
    """
    primes, rest = _split(m, order) if m else ((), 0)
    parts = [(p, list(_levels(p, *_form(ell, r, p), order))) for p in primes]
    return parts if rest == 1 else [(rest, [(None, order, [(-r, 1), (r, ell)])])] + parts


def _factors(d: int) -> list[int]:
    """The exponents of the stored powers a build of E_1^d multiplies.

    d / 2, squared, when |d| > 1 is a power of 2; else the powers of 2 at the set bits of |d|, signed as d;
    none when |d| <= 1.
    """
    e = abs(d)
    if e & (e - 1) == 0:
        return [d // 2] if e > 1 else []
    return [(d // e) << k for k in range(e.bit_length()) if e >> k & 1]


@cache
def _pieces(key: tuple, order: int) -> tuple:
    """The (store key, order) pairs a build of key to order reads, the key first; a pure function, walked once.

    A power of E_1 reads the powers it multiplies; a chain level reads itself and the levels below it, a
    regular key each level of each of its parts, each with the powers of E_1 the level's digits read.
    """
    reads = [(key, order)]
    if key[0] == "E_1^d":
        _, m, d = key
        return tuple(reads + [read for e in _factors(d) for read in _pieces(("E_1^d", m, e), order)])
    if key[0] == "S":
        parts = [(key[1], list(_levels(*key[1:], order)))]
    else:
        ell, r, m = key
        parts = _parts(ell, r, m, order) if r else ()
    for q, levels in parts:
        for level, n, digits in levels:
            reads += [(level, n)] if level else []
            reads += [read for d, k in digits for read in _pieces(("E_1^d", q, d), n // k)]
    return tuple(reads)


def plan(reads) -> dict:
    """Each store key's target order: the largest order a read reaches through it.

    The reads are (ell, r, m, order) of cached_regular_series and ("E_1^d", m, d, order) of cached_e1_power.
    """
    longest: dict = {}  # read key -> the largest order read
    for read in reads:
        longest[read[:-1]] = max(longest.get(read[:-1], 0), read[-1])
    targets: dict = {}
    for key, order in longest.items():
        for piece, n in _pieces(key, order):
            targets[piece] = max(targets.get(piece, 0), n)
    return targets


@contextmanager
def planned(reads):
    """Serve the store's reads inside the block by plan(reads); one plan at a time per process."""
    global _targets
    outer, _targets = _targets, plan(reads)
    try:
        yield _targets
    finally:
        _targets = outer


def _stored(key, order: int, build) -> TruncatedSeries:
    """The key's series to order: built if the longest one held is shorter, else its prefix.

    A miss builds to the larger of order and the key's target in the plan, so that every planned read
    of the key finds it built.  A build blocks only readers of its own key; setdefault is atomic for
    the store's tuple keys.
    """
    with _key_locks.setdefault(key, threading.Lock()):
        if key not in _longest or _longest[key].order < order:
            _longest[key] = build(order if _targets is None else max(order, _targets.get(key, order)))
        return truncate(_longest[key], order)


def cached_e1_power(d: int, order: int, m: int = 0) -> TruncatedSeries:
    """E_1^d mod m (over Z when m == 0) to order, for any integer d, stored under ("E_1^d", m, d)."""
    return _stored(("E_1^d", m, d), order, partial(_e1_power_build, m, d))


def _e1_power_build(m: int, d: int, n: int) -> TruncatedSeries:
    """E_1^d mod m to order n: E_1, or Newton's inverse, when |d| == 1; else the stored powers of _factors(d)."""
    powers = [cached_e1_power(e, n, m) for e in _factors(d)]
    if powers:
        return mul(powers[0], powers[0]) if len(powers) == 1 else reduce(mul, powers)
    ring = Zmod(m) if m else ZZ
    if not d:
        return one(n, ring)
    return euler_E(1, n, ring) if d == 1 else invert(euler_E(1, n, ring))


def _read(key: tuple, order: int) -> TruncatedSeries:
    """The series of a store key of any kind to order, through the store."""
    if key[0] == "E_1^d":
        return cached_e1_power(key[2], order, key[1])
    if key[0] == "S":
        return _stored(key, order, partial(_level, key))
    return cached_regular_series(*key, order)


def prebuild(keys, threads: int) -> None:
    """Build each store key to its target in the plan of the run in progress, on threads.

    A thread takes, of the keys whose pieces among keys are built, the one that heads the costliest chain
    of builds still to make, a key's build_cost plus that of the costliest chain through the keys that read
    it.  So the longest chain starts first, and no thread waits on the lock of a piece another builds.
    """
    keys = set(keys)
    below = {key: {piece for piece, _ in _pieces(key, _targets[key])} & keys - {key} for key in keys}
    above = {key: [reader for reader in keys if key in below[reader]] for key in keys}

    @cache
    def chain(key) -> int:
        return build_cost(key, _targets[key]) + max(map(chain, above[key]), default=0)

    left = sorted(keys, key=chain)  # the next key to build is the last one ready
    built: set = set()
    ready = threading.Condition()

    def work():
        while True:
            with ready:
                while left and (key := next((k for k in reversed(left) if below[k] <= built), None)) is None:
                    ready.wait()
                if not left:
                    return
                left.remove(key)
            try:
                _read(key, _targets[key])
            finally:  # a failed build frees its readers, whose own builds raise the error again
                with ready:
                    built.add(key)
                    ready.notify_all()

    with ThreadPoolExecutor(max_workers=threads) as pool:
        for future in [pool.submit(work) for _ in range(threads)]:
            future.result()


def build_cost(key: tuple, order: int) -> int:
    """The FFT transforms a build of key to order makes itself, not in the keys it reads, times their length.

    A product of two series takes three transforms of the next power of 2 past twice its order, a square
    two (``_product``).  A power of E_1 squares one power, multiplies its factors, or inverts by Newton,
    counted as four products; a chain level multiplies its digit powers and its next level, 1/E_1's
    levels all in one build; a regular key multiplies the rest's two powers.  Over Z/m that is every
    transform, inverse ones included; over Z a product splits into digit rows and makes more.
    """
    if key[0] == "E_1^d":
        factors = len(_factors(key[2]))
        transforms = 2 if factors == 1 else 3 * (factors - 1) if factors else 12 * (key[2] == -1)
        return transforms << (2 * order).bit_length()
    if key[0] == "S":
        levels = list(_levels(*key[1:], order))
        return sum(3 * max(len(digits) + (i + 1 < len(levels)) - 1, 0) << (2 * n).bit_length()
                   for i, (level, n, digits) in enumerate(levels) if level == key)
    ell, r, m = key
    return 3 * (r > 0 and (m == 0 or _split(m, order)[1] != 1)) << (2 * order).bit_length()


def _chain(q: int, levels: list) -> TruncatedSeries:
    """The first of a part's levels mod q (over Z when q == 0): stored under its key, or built here if keyless."""
    key, n, _ = levels[0]
    return _read(key, n) if key else _build(q, levels)


def _level(key: tuple, n: int) -> TruncatedSeries:
    """The chain level of a key ("S", p, a, e1, ea) to order n."""
    _, p, a, e1, ea = key
    return _build(p, list(_levels(p, a, e1, ea, n)))


def _build(q: int, levels: list) -> TruncatedSeries:
    """The first of levels (key, n, digits) mod q: E_1^d to order n // k at q -> q^k for each (d, k) of its
    digits, times the next level dilated by q, which only a chain, mod a prime q, has."""
    (key, n, digits), *below = levels
    factors = [dilate(cached_e1_power(d, n // k, q), k, n) for d, k in digits]
    if below:  # 1/E_1 = E_1^(p-1) (1/E_1)(q^p) reads itself, inside this build
        factors.append(dilate(_build(q, below) if below[0][0] == key else _chain(q, below), q, n))
    return reduce(mul, factors) if factors else one(n, Zmod(q) if q else ZZ)


def _crt(parts: list, m: int) -> TruncatedSeries:
    """The series mod m with the given residues mod each (q, series) of parts: coprime q whose product is m.

    Garner's join: the residues X mod M so far gain t = (x - X) / M mod q, so X + M t < M q.  Every
    q after the first is a prime p <= order, so int64 holds the products below q**2 that t takes.
    """
    (big, first), *rest = parts
    if not rest:
        return first
    dt = _dtype(m)
    acc = first.data.astype(dt)
    for q, part in rest:
        t = (part.data.astype(np.int64) - (acc % q).astype(np.int64)) % q * pow(big, -1, q) % q
        acc = acc + t.astype(dt) * dt.type(big)
        big *= q
    return TruncatedSeries(Zmod(m), acc)


def regular_quotient(ell: int, r: int, order: int, modulus: int = 0) -> TruncatedSeries:
    """Generating series E_ell^r / E_1^r of ell-regular r-multipartition counts, built from stored pieces.

    Mod each prime p of the modulus with p <= order and p**2 not dividing it, a Frobenius chain; the
    rest of the modulus, or Z, as E_1^-r E_1^r(q^ell); the Chinese remainder theorem joins the parts.
    """
    if r < 0:
        raise ValueError("exponent must be nonnegative")
    ring = Zmod(modulus) if modulus else ZZ  # a modulus below 2 raises here, before _split
    if not r:
        return one(order, ring)
    return _crt([(q, _chain(q, levels)) for q, levels in _parts(ell, r, modulus, order)], modulus)


def cached_regular_series(ell: int, r: int, modulus: int, order: int) -> TruncatedSeries:
    """regular_quotient(ell, r, order, modulus), stored under (ell, r, modulus)."""
    return _stored((ell, r, modulus), order, lambda n: regular_quotient(ell, r, n, modulus))


def eta_read(scale: int, exponent: int, order: int) -> tuple:
    """The store read eta_quotient(scale, exponent, order) makes: E_1^exponent to the last term below order."""
    return ("E_1^d", 0, exponent, max((order - scale * exponent // 24) // scale, 0))


def eta_quotient(scale: int, exponent: int, order: int) -> TruncatedSeries:
    """eta(scale z)^exponent = q^shift E_1^exponent(q^scale), shift = scale exponent / 24, to order over Z.

    Its coefficient at scale n + shift is that of q^n in the stored E_1^exponent; every other one is 0.
    """
    if scale < 1 or exponent < 0 or scale * exponent % 24:
        raise ValueError(f"eta({scale}z)^{exponent} needs scale >= 1, exponent >= 0 and 24 | scale*exponent")
    shift = scale * exponent // 24
    a = [0] * (order + 1)
    terms = len(a[shift::scale])
    _, _, _, n = eta_read(scale, exponent, order)
    a[shift::scale] = cached_e1_power(exponent, n).coeffs[:terms]
    return TruncatedSeries(ZZ, a)
