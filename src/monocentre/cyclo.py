"""Exact cyclotomic field arithmetic and linear algebra.

An element of the n-th cyclotomic field Q(zeta_n) is stored in the power
basis 1, z, ..., z^(phi(n)-1) as phi(n) integer numerators over one
positive integer denominator.  The pair is normalized: the gcd of the
denominator and all numerators is 1, and zero is (0, ..., 0) / 1.  So
same-order values have a unique representation; mixed-order operands are
promoted to the lcm order first.

Phi_n is monic with integer coefficients, so reduction never leaves the
integers: a product is an integer convolution whose degrees >= phi(n) are
folded back through a table of z^k mod Phi_n, built per order on first
use.  An inverse is the product of the other Galois conjugates over the
norm, which is rational; a single term c z^i inverts to z^(-i) / c.  The
matrix routines work in the lcm order of their entries and accumulate
each entry as one unreduced integer polynomial over a common
denominator, reducing and normalizing once.

Two routines check products instead of building them.  A prepared
matrix (mat_prepare) is lifted once to a given order over one denominator
and packed: each entry becomes one integer, its numerator polynomial at
X = 2^K mod Phi_n(X), with K derived from the data so that the test is
exact (PreparedMatrix).  mat_scaled_product_eq and mat_products_eq decide
s (A B) == C and A B == C D by integer products and one remainder per
entry.

solve_linear is the only elimination: Gauss-Jordan over the field on a
homogeneous system, returning a kernel basis, the rank and pivots, and
the reduced rows.  Rank, invertibility and the canonical basis of a span
are all read off it.

A rational operand (int, bool or fractions.Fraction) is read through its
integer numerator and denominator, and anything else, a float included,
is refused.  A value hashes as its normalized trace Tr(x) / phi(n), a
rational that promotion keeps, so equal values of any orders hash alike,
and a rational value hashes as the equal int or Fraction does.  Only the
Fraction view `CycNumber.coeffs` (and the repr built on it) imports
fractions, so the arithmetic runs without that module or decimal.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import accumulate
from math import gcd, lcm
from operator import add, mul, neg, sub

from .config import InternalSoundnessError
from .record import Record


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int):
    """Integer coefficients of the n-th cyclotomic polynomial, low degree first."""
    if n < 1:
        raise ValueError("order must be positive")
    p = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d:
            continue
        q = cyclotomic_poly(d)
        dq = len(q) - 1
        quot = [0] * (len(p) - dq)
        for i in range(len(p) - 1, dq - 1, -1):
            c = p[i]
            if c:
                quot[i - dq] = c
                for j in range(dq + 1):
                    p[i - dq + j] -= c * q[j]
        if any(p):
            raise AssertionError("cyclotomic division left a remainder")
        p = quot
    return tuple(p)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return len(cyclotomic_poly(n)) - 1


@lru_cache(maxsize=None)
def _fold_table(n):
    """(phi(n), rows): row k - phi(n) holds z^k mod Phi_n as nonzero
    (degree, coefficient) pairs, for phi(n) <= k < max(n, 2 phi(n) - 1).
    That covers products, Galois images, embeddings and powers of zeta."""
    phi = euler_phi(n)
    low = cyclotomic_poly(n)[:-1]
    rows = []
    cur = [0] * (phi - 1) + [1]
    for _ in range(phi, max(n, 2 * phi - 1)):
        t = cur[-1]
        cur = [0] + cur[:-1]
        if t:
            cur = [c - t * d for c, d in zip(cur, low)]
        rows.append(tuple(_sparse(cur)))
    return phi, tuple(rows)


def _reduce(n, p):
    """The integer polynomial p (a list, low degree first, within the fold
    table) modulo Phi_n, as phi(n) ints."""
    phi, rows = _fold_table(n)
    if len(p) <= phi:
        return tuple(p) + (0,) * (phi - len(p))
    out = p[:phi]
    for k in range(phi, len(p)):
        c = p[k]
        if c:
            for j, t in rows[k - phi]:
                out[j] += c * t
    return tuple(out)


class CycNumber:
    """An element of the n-th cyclotomic field.

    `nums` holds phi(n) integer numerators in the power basis and `den` one
    positive denominator, gcd-normalized, with zero as (0, ..., 0) / 1.  The
    constructor's coefficients are rationals (int, bool or Fraction).  The
    Fraction tuple `coeffs` is derived from nums and den on request, for
    tests, reprs and library callers; no computation reads it.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order, coeffs):
        order = int(order)
        pairs = [_ratio(c) for c in coeffs]
        den = lcm(*(d for _, d in pairs))
        p = [0] * order  # z^n = 1 brings any length within the fold table
        for i, (c, d) in enumerate(pairs):
            p[i % order] += c * (den // d)
        x = _make(order, _reduce(order, p), den)
        _set_order(self, order)
        _set_nums(self, x.nums)
        _set_den(self, x.den)

    def __setattr__(self, *args):
        raise AttributeError("CycNumber is immutable")

    @property
    def coeffs(self):
        from fractions import Fraction
        den = self.den
        return tuple(Fraction(c, den) for c in self.nums)

    @staticmethod
    def from_rational(order, value) -> "CycNumber":
        num, den = _ratio(value)
        return _make(order, (num,) + (0,) * (euler_phi(order) - 1), den)

    def promote(self, order: int) -> "CycNumber":
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError(f"cannot embed order {self.order} into {order}")
        k = order // self.order
        p = [0] * ((len(self.nums) - 1) * k + 1)
        for i, c in enumerate(self.nums):
            p[i * k] = c
        return _make(order, _reduce(order, p), self.den)

    def _match(self, other):
        if type(other) is CycNumber and other.order == self.order:
            return self, other
        if not isinstance(other, CycNumber):
            try:
                other = CycNumber.from_rational(self.order, other)
            except TypeError:
                return None, None
        if self.order == other.order:
            return self, other
        n = lcm(self.order, other.order)
        return self.promote(n), other.promote(n)

    def _combine(self, other, op):
        a, b = self._match(other)
        if a is None:
            return NotImplemented
        if a.den == b.den:
            return _make(a.order, tuple(map(op, a.nums, b.nums)), a.den)
        den = lcm(a.den, b.den)
        sa, sb = den // a.den, den // b.den
        return _make(a.order, tuple(op(x * sa, y * sb) for x, y in zip(a.nums, b.nums)),
                     den)

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, tuple(map(neg, self.nums)), self.den)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._match(other)
        if a is None:
            return NotImplemented
        return _make(a.order, _mul_nums(a.order, a.nums, b.nums), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        terms = _sparse(self.nums)
        if not terms:
            raise ZeroDivisionError("inverse of zero")
        n = self.order
        if len(terms) == 1:
            (i, c), = terms
            d = self.den if c > 0 else -self.den
            return _make(n, tuple(d * t for t in _zeta_nums(n, -i % n)), abs(c))
        # self * (product of the other Galois conjugates) is the norm, a
        # nonzero rational; all of it stays in the integer numerators
        adj = (1,) + (0,) * (len(self.nums) - 1)
        for k in range(2, n):
            if gcd(k, n) == 1:
                adj = _mul_nums(n, adj, _galois(n, self.nums, k))
        norm = _mul_nums(n, self.nums, adj)[0]
        if norm < 0:
            norm, adj = -norm, tuple(map(neg, adj))
        return _make(n, tuple(c * self.den for c in adj), norm)

    def __truediv__(self, other):
        a, b = self._match(other)
        if a is None:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = CycNumber.from_rational(self.order, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_one(self) -> bool:
        return self.den == 1 and self.nums[0] == 1 and not any(self.nums[1:])

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def __eq__(self, other):
        if not isinstance(other, CycNumber):
            try:
                num, den = _ratio(other)
            except TypeError:
                return NotImplemented
            return self.is_rational() and self.nums[0] == num and self.den == den
        a, b = self._match(other)
        return a.nums == b.nums and a.den == b.den

    def __hash__(self):
        # the hash of the normalized trace Tr(x) / phi(n), which promotion
        # keeps and which is x itself when x is rational: Tr(z^i) / phi(n) is
        # mu(m) / phi(m) for m = n / gcd(n, i), the order of z^i, and mu(m),
        # the sum of the primitive m-th roots, is minus the next-to-leading
        # coefficient of Phi_m
        n, phi = self.order, euler_phi(self.order)
        return _hash_rational(-sum(c * cyclotomic_poly(m)[-2] * (phi // euler_phi(m))
                                   for i, c in enumerate(self.nums) if c
                                   for m in [n // gcd(n, i)]), self.den * phi)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                terms.append(f"{c}*z{self.order}^{i}" if i > 1 else f"{c}*z{self.order}")
        return "Cyc(" + (" + ".join(terms) if terms else "0") + ")"


def _ratio(value):
    """(numerator, denominator) of a rational: an int, bool or Fraction."""
    try:
        return value.numerator, value.denominator
    except AttributeError:
        raise TypeError(f"not a rational number: {type(value).__name__}") from None


_HASH_MODULUS, _HASH_INF = sys.hash_info.modulus, sys.hash_info.inf


def _hash_rational(num, den):
    """hash(Fraction(num, den)) for den > 0, by Python's rule for numeric
    hashes: +-(|num| / den mod P), P the hash modulus."""
    if den == 1:
        return hash(num)
    g = gcd(num, den)
    num, den = num // g, den // g
    try:
        h = abs(num) * pow(den, -1, _HASH_MODULUS) % _HASH_MODULUS
    except ValueError:  # P divides den
        h = _HASH_INF
    h = h if num >= 0 else -h
    return -2 if h == -1 else h


_new = object.__new__
_set_order = CycNumber.order.__set__
_set_nums = CycNumber.nums.__set__
_set_den = CycNumber.den.__set__


def _make(order, nums, den) -> CycNumber:
    """A CycNumber from phi(order) reduced integer numerators over den > 0."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = tuple(c // g for c in nums)
            den //= g
    x = _new(CycNumber)
    _set_order(x, order)
    _set_nums(x, nums)
    _set_den(x, den)
    return x


def _sparse(nums):
    """The nonzero (degree, numerator) pairs."""
    return [(i, c) for i, c in enumerate(nums) if c]


def _mul_nums(n, x, y):
    """Product of two reduced numerator tuples of order n, reduced."""
    if len(x) == 1:
        return (x[0] * y[0],)
    acc = [0] * (2 * len(x) - 1)
    ys = _sparse(y)
    for i, c in enumerate(x):
        if c:
            for j, d in ys:
                acc[i + j] += c * d
    return _reduce(n, acc)


def _galois(n, nums, k):
    """The image of nums under the automorphism zeta -> zeta^k, gcd(k, n) = 1."""
    p = [0] * n
    for i, c in enumerate(nums):
        p[i * k % n] += c
    return _reduce(n, p)


def _split(v, n):
    """The entries of v, lifted to order n, over one common denominator D:
    (D, per entry the sparse numerators)."""
    v = _lift(v, n)
    den = lcm(*[x.den for x in v])
    return den, [_sparse(x.nums if x.den == den else [c * (den // x.den) for c in x.nums])
                 for x in v]


def _dot(n, xs, ys):
    """sum(x * y) over two vectors from _split, accumulated as one
    unreduced integer polynomial, then reduced and normalized once."""
    acc = [0] * (2 * euler_phi(n) - 1)
    for px, py in zip(xs[1], ys[1]):
        for i, c in px:
            for j, d in py:
                acc[i + j] += c * d
    return _make(n, _reduce(n, acc), xs[0] * ys[0])


def _sub_mul(n, xs, c, ys):
    """[x - c * y for x, y in zip(xs, ys)], entries of order n, each reduced
    once; xs = None stands for zeros."""
    cs = _sparse(c.nums)
    out = []
    for x, y in zip(xs or [cyc_zero(n)] * len(ys), ys):
        if y.is_zero():
            out.append(x)
            continue
        dy = c.den * y.den
        den = lcm(x.den, dy)
        sx, sy = den // x.den, den // dy
        acc = [v * sx for v in x.nums] + [0] * (len(x.nums) - 1)
        for j, w in _sparse(y.nums):
            w *= sy
            for i, v in cs:
                acc[i + j] -= v * w
        out.append(_make(n, _reduce(n, acc), den))
    return out


@lru_cache(maxsize=None)
def cyc_zero(n: int) -> CycNumber:
    return CycNumber.from_rational(n, 0)


@lru_cache(maxsize=None)
def cyc_one(n: int) -> CycNumber:
    return CycNumber.from_rational(n, 1)


@lru_cache(maxsize=None)
def _zeta_nums(n, k):
    return _reduce(n, [0] * k + [1])


def zeta(n: int, k: int = 1) -> CycNumber:
    return _make(n, _zeta_nums(n, k % n), 1)


def roots_of_unity(n: int):
    """All n-th roots of unity as elements of the order-n field."""
    return tuple(zeta(n, k) for k in range(n))


# -- matrices (tuples of tuples, row-major) -------------------------------


def _common_order(*vectors):
    """lcm of the orders of the CycNumbers among the entries (1 if none)."""
    return lcm(*{x.order for v in vectors for x in v if isinstance(x, CycNumber)})


def _lift(v, n):
    """The entries of v as order-n CycNumbers."""
    return [x.promote(n) if isinstance(x, CycNumber) else CycNumber.from_rational(n, x)
            for x in v]


def mat_mul(A, B):
    if not A or not B:
        return ()
    n = _common_order(*A, *B)
    rows = [_split(row, n) for row in A]
    cols = [_split(col, n) for col in zip(*B)]
    return tuple(tuple(_dot(n, row, col) for col in cols) for row in rows)


def mat_scale(s, A):
    return tuple(tuple(s * x for x in row) for row in A)


def mat_vec(A, v):
    n = _common_order(*A, v)
    col = _split(v, n)
    return tuple(_dot(n, _split(row, n), col) for row in A)


def transpose(A):
    if not A:
        return ()
    return tuple(tuple(A[i][j] for i in range(len(A))) for j in range(len(A[0])))


def mat_trace(A):
    diag = [A[i][i] for i in range(len(A))]
    n = _common_order(diag)
    return _dot(n, _split(diag, n), _split([1] * len(diag), n))


# -- checking products without building them -------------------------------


@lru_cache(maxsize=None)
def _fold_norms(n):
    """(F, L): F >= 1 bounds the L1 norm of z^k mod Phi_n for every k (a
    unit vector or a fold-table row, as z^n = 1), L is the L1 norm of
    Phi_n's lower coefficients."""
    rows = _fold_table(n)[1]
    return (max([1] + [sum(abs(c) for _, c in row) for row in rows]),
            sum(map(abs, cyclotomic_poly(n)[:-1])))


def _at(p, bits):
    """The integer polynomial p (low degree first) evaluated at 2^bits."""
    return sum(c << bits * i for i, c in enumerate(p))


def pack_bits(order: int, bound: int) -> int:
    """The least K for which packing at X = 2^K decides exactly whether an
    unreduced numerator polynomial of L1 norm at most bound vanishes mod
    Phi_n: 2^K > F bound + L."""
    F, L = _fold_norms(order)
    return (F * bound + L).bit_length()


@lru_cache(maxsize=None)
def _modulus(n, bits):
    return _at(cyclotomic_poly(n), bits)


@lru_cache(maxsize=None)
def _roots(n, bits):
    M = _modulus(n, bits)
    return tuple(accumulate(range(1, n), lambda r, _: (r << bits) % M, initial=1))


def packed_modulus(order: int, bits: int, bound: int) -> tuple:
    """(M, roots): M = Phi_n(2^bits) and roots[e] the pack of zeta^e, after
    checking that bits decides a difference of L1 norm at most bound
    exactly; a bound too large for bits is an InternalSoundnessError."""
    if pack_bits(order, bound) > bits:
        raise InternalSoundnessError(
            f"packed check needs {pack_bits(order, bound)} bits, has {bits}")
    return _modulus(order, bits), _roots(order, bits)


class PreparedMatrix:
    """A matrix lifted to one order n over one denominator `den`, with each
    entry's numerators in `nums` and the largest of their L1 norms in
    `norm`; packed(K) stores each entry as its numerator polynomial at
    X = 2^K, mod M = Phi_n(X), in `rows` and `cols`.  A difference q of
    sums of products of entries vanishes mod Phi_n iff M divides q(X) once
    2^K > F H + L for H >= |q|_1: r = q mod Phi_n has |r_j| <= F H, so
    0 < |r(X)| < M unless r = 0 (pack_bits, packed_modulus)."""

    __slots__ = ("order", "den", "norm", "nums", "bits", "rows", "cols")

    def __init__(self, order: int, den: int, nums: tuple):
        self.order, self.den, self.nums = order, den, nums
        self.norm = max((sum(map(abs, p)) for row in nums for p in row), default=0)
        self.bits = self.rows = self.cols = None

    def packed(self, bits: int) -> tuple:
        """(rows, cols) of the entries packed at width bits, kept for reuse."""
        if bits != self.bits:
            M = _modulus(self.order, bits)
            self.rows = tuple(tuple(_at(p, bits) % M for p in row) for row in self.nums)
            self.cols, self.bits = tuple(zip(*self.rows)), bits
        return self.rows, self.cols


def mat_prepare(A, order: int, den: int | None = None) -> PreparedMatrix:
    """A lifted to the given order (a multiple of every entry's order) over
    one denominator, den (a multiple of every entry's) or their lcm; it is
    packed on first use, at the width the check needs."""
    rows = [_lift(row, order) for row in A]
    if den is None:
        den = lcm(*(x.den for row in rows for x in row))
    if any(den % x.den for row in rows for x in row):
        raise ValueError("denominator is not a common multiple of the entries'")
    return PreparedMatrix(order, den, tuple(
        tuple(tuple(c * (den // x.den) for c in x.nums) for x in row) for row in rows))


def _check_product(A, B, *others):
    """Raise unless A B is defined and every operand has A's order."""
    if any(M.order != A.order for M in (B, *others)):
        raise ValueError("prepared matrices of different orders")
    if A.nums and len(A.nums[0]) != len(B.nums):
        raise ValueError("inner dimensions of a product differ")


def _packed_all(bound, *mats):
    """The operands' (rows, cols) at one width that decides bound exactly,
    the widest any of them has if it does, and M."""
    n = mats[0].order
    bits = max(pack_bits(n, bound), *(M.bits or 0 for M in mats))
    return [M.packed(bits) for M in mats], _modulus(n, bits)


def mat_scaled_product_eq(s, A, B, C) -> bool:
    """Whether s (A B) == C, for prepared A, B, C of one order n: entry by
    entry, s' (sum a b) dC - c s_den dA dB, s' the numerators of s, must
    vanish mod Phi_n, and is decided packed by one % M."""
    _check_product(A, B, C)
    s = _lift([s], A.order)[0]
    bound = (sum(map(abs, s.nums)) * len(B.nums) * A.norm * B.norm * C.den
             + C.norm * s.den * A.den * B.den)
    ((arows, _), (_, bcols), (crows, _)), M = _packed_all(bound, A, B, C)
    if len(arows) != len(crows):
        return False
    f, g = _at(s.nums, B.bits) * C.den % M, s.den * A.den * B.den
    return all(len(crow) == len(bcols) and not any(
        (f * sum(map(mul, arow, bcol)) - g * c) % M for bcol, c in zip(bcols, crow))
        for arow, crow in zip(arows, crows))


def mat_products_eq(A, B, C, D) -> bool:
    """Whether A B == C D, for prepared A, B, C, D of one order n: entry by
    entry, (sum a b) dC dD - (sum c d) dA dB must vanish mod Phi_n, and is
    decided packed by one % M."""
    _check_product(A, B, C, D)
    _check_product(C, D)
    bound = (len(B.nums) * A.norm * B.norm * C.den * D.den
             + len(D.nums) * C.norm * D.norm * A.den * B.den)
    ((arows, _), (_, bcols), (crows, _), (_, dcols)), M = _packed_all(
        bound, A, B, C, D)
    if len(arows) != len(crows) or len(bcols) != len(dcols):
        return False
    f, g = C.den * D.den, A.den * B.den
    return not any((f * sum(map(mul, arow, bcol)) - g * sum(map(mul, crow, dcol))) % M
                   for arow, crow in zip(arows, crows) for bcol, dcol in zip(bcols, dcols))


class LinSolve(Record):
    __slots__ = ("kernel", "rank", "pivots", "rows")


def solve_linear(M) -> LinSolve:
    """Gauss-Jordan elimination of M, for the homogeneous system M x = 0.

    Returns a kernel basis in canonical form (one vector per free column,
    free coordinate 1), the rank, the pivot columns, and the nonzero rows
    of the reduced row echelon form of M in pivot order: the canonical
    basis of M's row span.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    order = _common_order(*M)
    zero, one = cyc_zero(order), cyc_one(order)
    rows = [_lift(row, order) for row in M]
    pivots = []
    for col in range(n):
        r = len(pivots)
        sel = next((i for i in range(r, m) if not rows[i][col].is_zero()), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        rows[r] = _sub_mul(order, None, -rows[r][col].inverse(), rows[r])
        for i in range(m):
            if i != r and not rows[i][col].is_zero():
                rows[i] = _sub_mul(order, rows[i], rows[i][col], rows[r])
        pivots.append(col)
        if len(pivots) == m:
            break
    kernel = []
    pivot_set = set(pivots)
    for free in range(n):
        if free in pivot_set:
            continue
        vec = [zero] * n
        vec[free] = one
        for i, col in enumerate(pivots):
            vec[col] = -rows[i][free]
        kernel.append(tuple(vec))
    return LinSolve(tuple(kernel), len(pivots), tuple(pivots),
                    tuple(map(tuple, rows[:len(pivots)])))
