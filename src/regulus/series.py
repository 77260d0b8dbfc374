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
built on its first read), ``s[n]``, and the values a check records.

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
store, each under its own key, so that builds sharing a piece build it once:

* ``("1/E_1", m)``: the inverse of E_1 mod m (over Z when m == 0);
* ``("E_l/E_1", ell, m, k)``: the base E_ell * (1/E_1) mod m when k == 0, and
  its square base**(2**k), the square of piece k - 1, when k >= 1;
* ``("E_1", k)``: the same squaring chain over Z on the base E_1.

``regular_quotient(ell, r, order, m)`` returns E_ell^r / E_1^r mod m, the
product of the squares at the set bits of r, and ``cached_regular_series``
stores it under ``(ell, r, m)``; ``cached_e1_power`` stores E_1^r, built the
same way, under ``("E_1^r", r)``.  ``eta_quotient(scale, e, order)``, the
power eta(scale z)^e = q^{scale e / 24} E_1^e(q^scale) over Z, reads E_1^e
from there.

Each key has its own lock, held while its series is built.  A build takes
the locks of the pieces it reads in one order: key, then square k, square
k - 1, ..., base, then inverse.  Every thread acquires them in that order,
so two threads never wait on each other in a cycle.

Every product, over either ring and including the two inside Newton
inversion, goes through ``_kronecker``, which takes one of two exact paths.
Two bounds decide which; no size threshold or setting does.

Kronecker substitution (every product the float bound does not admit): each
operand is packed into a single Python int with ``nbytes`` bytes per
coefficient, the two ints are multiplied once, and the slots of the product
are read back.  If every coefficient of a has absolute value at most ``ma``
and every one of b at most ``mb``, a product coefficient is a sum of at most
min(len_a, len_b) terms, so its absolute value is at most ``bound =
max(ma*mb*min(len_a, len_b), ma, mb)`` (the last two terms let a slot hold
the operands' own coefficients).  Over Z/m, ``ma = mb = m - 1`` and the slots
are unsigned: ``bound < 256**nbytes``.  Over Z, ``ma`` and ``mb`` are the
operands' largest ``|c|`` and a slot also carries a sign: ``2 * bound <
256**nbytes``.  Either way no carry or borrow crosses a slot and every slot
holds its exact sum; ``nbytes`` is the least width that meets the bound.

Float FFT (``_fft_product``): the operands, as float64 vectors x and y, are
zero-padded to L = 2**n >= len_a + len_b - 1 and multiplied as
``irfft(rfft(x) * rfft(y))``; each entry is rounded to the nearest integer.
Over Z/m a residue c enters in balanced form (c - m when c > m // 2), so
``|c| <= ha = m // 2``; over Z, ``ha`` is ``ma``.  The path is taken only
when both of these hold (``_float_exact``):

* ``max(ha*hb*min(len_a, len_b), ma, mb) < 2**52``: every input and every
  exact output coefficient is an integer that float64 represents exactly.
* Percival's theorem (Rapid multiplication modulo the sum and difference
  of highly composite numbers, Math. Comp. 72 (2003)): a product by a
  radix-2 FFT of length 2**n in arithmetic with unit roundoff
  eps = 2**-53 and twiddle factors accurate to beta differs from the exact
  one in every entry by less than
  ``|x| |y| ((1+eps)^{3n} (1+eps*sqrt5)^{3n+1} (1+beta)^{3n} - 1)``,
  where ``|x| <= ha*sqrt(len_a)`` is the Euclidean norm.  The path needs
  twice that quantity, evaluated in float through ``math.expm1`` of the
  summed ``log1p`` terms, below 1/4; the factor 2 covers the rounding of
  that evaluation.

The theorem is proved for a textbook radix-2 transform.  The float path
assumes that numpy's pocketfft (the C library in numpy 1.x, the C++ one in
numpy 2), whose real transforms use mixed radices and a half-length complex
transform, is no less accurate than that transform at the same length, with
twiddle factors accurate to beta = 2**-52, twice the unit roundoff.  Under
that assumption every entry lies within 1/8 of its exact integer, where
rounding needs only 1/2; the margin is what the assumption may use up.  A
residual guard checks it on every product: an entry more than 1/4 from its
nearest integer raises ArithmeticError, and there is no fallback.  The guard
cannot see an error of a whole unit, nor a product past 2**53 that rounds to
an integer-valued float, so the bound, not the guard, makes the path exact.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import partial, reduce

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

    def __getitem__(self, n: int) -> int:
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


def _pack(coeffs, nbytes: int) -> int:
    """Nonnegative coefficients below 256**nbytes as one little-endian int, nbytes bytes each.

    An unsigned array is copied lane by lane with numpy, whatever nbytes; a
    sequence of Python ints (or an object array) goes through numpy when
    nbytes <= 8, else through int.to_bytes.
    """
    if not (isinstance(coeffs, np.ndarray) and coeffs.dtype.kind == "u"):
        if nbytes > 8:
            return int.from_bytes(b"".join(int(c).to_bytes(nbytes, "little") for c in coeffs), "little")
        coeffs = np.array(coeffs, dtype="<u8")
    size = coeffs.itemsize
    raw = np.ascontiguousarray(coeffs, dtype=coeffs.dtype.newbyteorder("<")).view(np.uint8).reshape(-1, size)
    # every value is below 256**nbytes, so the bytes past either width are zero
    lanes = np.zeros((len(coeffs), nbytes), dtype=np.uint8)
    width = min(size, nbytes)
    lanes[:, :width] = raw[:, :width]
    return int.from_bytes(lanes.tobytes(), "little")


def _pack_signed(coeffs, nbytes: int) -> int:
    """sum(c_i * 256**(nbytes*i)) for signed |c_i| < 256**nbytes."""
    pos = _pack([c if c > 0 else 0 for c in coeffs], nbytes)
    return pos - _pack([-c if c < 0 else 0 for c in coeffs], nbytes)


def _unpack(x: int, n_keep: int, nbytes: int, m: int):
    """The first n_keep nbytes-wide slots of x: a residue array mod m, or a list of signed ints when m == 0.

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
            # nbytes <= 8 holds (m - 1)**2, so m < 2**32 fits uint64 and every dtype below it
            return (slots % np.uint64(m)).astype(_dtype(m))
        # uint64 subtraction wraps mod 2**64; read as int64 it is the signed slot
        return (slots - np.uint64(half)).view(np.int64).tolist()
    slots = (int.from_bytes(raw[i : i + nbytes], "little") for i in range(0, len(raw), nbytes))
    if m:
        return np.array([c % m for c in slots], dtype=_dtype(m))
    return [c - half for c in slots]


_EPS = 2.0**-53  # float64 unit roundoff
_BETA = 2.0**-52  # allowance for the error of pocketfft's twiddle factors


def _float_exact(ha: int, hb: int, ma: int, mb: int, len_a: int, len_b: int) -> bool:
    """Whether _fft_product is exact: both bounds of the module docstring hold.

    ha and hb bound the operands' |c| as the transform sees them (balanced over
    Z/m); ma and mb bound the values passed in.
    """
    if max(ha * hb * min(len_a, len_b), ma, mb) >= 1 << 52:
        return False
    n = (len_a + len_b - 2).bit_length()  # the transform length is 2**n
    log_growth = (
        3 * n * math.log1p(_EPS) + (3 * n + 1) * math.log1p(_EPS * math.sqrt(5)) + 3 * n * math.log1p(_BETA)
    )
    # Percival's |x| |y| expm1(log_growth) with |x| <= ha * sqrt(len_a), doubled
    return 2 * ha * hb * math.sqrt(len_a * len_b) * math.expm1(log_growth) < 0.25


def _fft_product(la, lb, n_out: int, m: int):
    """The product _kronecker returns, by numpy's float rfft; exact only where _float_exact holds.

    Raises ArithmeticError if an entry lies more than 1/4 from an integer.
    """
    fft = np.fft
    size = len(la) + len(lb) - 1
    length = 1 << (size - 1).bit_length()

    def spectrum(coeffs):
        if m:
            x = coeffs.astype(np.float64)
            x[coeffs > m // 2] -= m  # balanced residues, |c| <= m // 2
        else:
            x = np.array(coeffs, dtype=np.float64)
        return fft.rfft(x, length)

    prod = spectrum(la)
    prod *= prod if lb is la else spectrum(lb)
    c = fft.irfft(prod, length)[: min(size, n_out + 1)]
    del prod
    exact = np.rint(c)
    c -= exact
    residual = np.abs(c, out=c).max()
    if residual > 0.25:
        raise ArithmeticError(f"float product left a residual of {residual:.3g}")
    if m:
        # the float path needs m // 2 < 2**26, so every entry and its residue fit int64
        out = _zeros(n_out + 1, m)
        out[: len(exact)] = exact.astype(np.int64) % m
        return out
    return exact.astype(np.int64).tolist() + [0] * (n_out + 1 - len(exact))


def _kronecker(la, lb, n_out: int, m: int):
    """Product of two coefficient sequences truncated at n_out, over Z/m, or over Z when m == 0.

    Over Z/m the operands and the result are residue arrays of the ring's dtype;
    over Z they are sequences of Python ints and the result is a list.  Takes the
    float path when _float_exact admits the operands.  Passing the same sequence
    twice transforms it once, or packs it once and squares the int.
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
    if _float_exact(ha, hb, ma, mb, len(la), len(lb)):
        return _fft_product(la, lb, n_out, m)
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
    return TruncatedSeries(a.ring, _kronecker(a.data, b.data, n, a.ring.modulus))


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
        ab = _kronecker(a.data, b, prec - 1, m)
        t = _neg_mod(ab, m) if m else [-x for x in ab]
        t[0] = a.ring.reduce(int(t[0]) + 2)
        b = _kronecker(b, t, prec - 1, m)
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
    """prod f(-q^a, -q^b)^e over the (a, b, e) rows of factors."""
    sides = ([], [])  # numerator, denominator
    for a, b, e in factors:
        if e:
            sides[e < 0].append(power(theta(a, b, order, ring), abs(e)))
    num, den = (reduce(mul, side) if side else None for side in sides)
    if den is None:
        return one(order, ring) if num is None else num
    return invert(den) if num is None else mul(num, invert(den))


def dilate(a: TruncatedSeries, k: int) -> TruncatedSeries:
    """Substitute q -> q^k by index dilation; result order is k*order(a)."""
    if k < 1:
        raise ValueError("dilation factor must be >= 1")
    if k == 1:
        return a
    out = _zeros(k * a.order + 1, a.ring.modulus)
    out[::k] = a.data
    return TruncatedSeries(a.ring, out)


def truncate(a: TruncatedSeries, order: int) -> TruncatedSeries:
    if order >= a.order:
        return a
    return TruncatedSeries(a.ring, a.data[: order + 1])


# the prefix store: key -> the longest series built for it, and the lock of each key
_longest: dict = {}
_key_locks: dict = {}


def _stored(key, order: int, build) -> TruncatedSeries:
    """The key's series to order: build(order) if the longest one held is shorter, else its prefix.

    A build blocks only readers of its own key; setdefault is atomic for the store's tuple keys.
    """
    with _key_locks.setdefault(key, threading.Lock()):
        if key not in _longest or _longest[key].order < order:
            _longest[key] = build(order)
        return truncate(_longest[key], order)


def _square(tag: tuple, k: int, order: int, build_base) -> TruncatedSeries:
    """base**(2**k) to order, stored under tag + (k,); build_base(order) builds the base (k == 0)."""

    def build(n: int) -> TruncatedSeries:
        if not k:
            return build_base(n)
        half = _square(tag, k - 1, n, build_base)
        return mul(half, half)

    return _stored(tag + (k,), order, build)


def _power(tag: tuple, r: int, order: int, build_base, ring: CoefficientRing) -> TruncatedSeries:
    """base**r to order: the product of the stored squares of the base at the set bits of r."""
    if r < 0:
        raise ValueError("exponent must be nonnegative")
    squares = [_square(tag, k, order, build_base) for k in range(r.bit_length()) if r >> k & 1]
    return reduce(mul, squares) if squares else one(order, ring)


def regular_quotient(ell: int, r: int, order: int, modulus: int = 0) -> TruncatedSeries:
    """Generating series E_ell^r / E_1^r of ell-regular r-multipartition counts, built from stored pieces."""
    ring = ZZ if modulus == 0 else Zmod(modulus)

    def inverse(n: int) -> TruncatedSeries:
        return invert(euler_E(1, n, ring))

    def base(n: int) -> TruncatedSeries:
        return mul(euler_E(ell, n, ring), _stored(("1/E_1", modulus), n, inverse))

    return _power(("E_l/E_1", ell, modulus), r, order, base, ring)


def cached_regular_series(ell: int, r: int, modulus: int, order: int) -> TruncatedSeries:
    """regular_quotient(ell, r, order, modulus), stored under (ell, r, modulus)."""
    return _stored((ell, r, modulus), order, lambda n: regular_quotient(ell, r, n, modulus))


def cached_e1_power(r: int, order: int) -> TruncatedSeries:
    """E_1^r over Z, stored under ("E_1^r", r) and built from the stored squares of E_1."""
    return _stored(("E_1^r", r), order, lambda n: _power(("E_1",), r, n, partial(euler_E, 1), ZZ))


def eta_quotient(scale: int, exponent: int, order: int) -> TruncatedSeries:
    """eta(scale z)^exponent = q^shift E_1^exponent(q^scale), shift = scale exponent / 24, to order over Z.

    Its coefficient at scale n + shift is that of q^n in the stored E_1^exponent; every other one is 0.
    """
    if scale < 1 or exponent < 0 or scale * exponent % 24:
        raise ValueError(f"eta({scale}z)^{exponent} needs scale >= 1, exponent >= 0 and 24 | scale*exponent")
    shift = scale * exponent // 24
    a = [0] * (order + 1)
    terms = len(a[shift::scale])
    a[shift::scale] = cached_e1_power(exponent, max(terms - 1, 0)).coeffs[:terms]
    return TruncatedSeries(ZZ, a)
