"""Exactness properties of the cyclotomic arithmetic layer."""

from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from monocentre.cyclo import (
    CycNumber, cyclotomic_poly, euler_phi, zeta, cyc_one, cyc_zero,
    roots_of_unity,
    solve_linear, mat_mul, mat_vec, mat_trace, transpose,
    mat_scale, mat_prepare, mat_scaled_product_eq, mat_products_eq,
    pack_bits, packed_modulus,
)
from monocentre.config import InternalSoundnessError
from monocentre.graded import _invertible


def mat_eq(A, B):
    """Entrywise equality of two matrices."""
    return len(A) == len(B) and all(ra == rb for ra, rb in zip(A, B))


def mat_id(n, order):
    """The n x n identity matrix over the order-`order` field."""
    one, zero = cyc_one(order), cyc_zero(order)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def test_cyclotomic_polys_small():
    # low-degree-first coefficient tuples
    assert cyclotomic_poly(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_poly(2) == (Fraction(1), Fraction(1))
    assert cyclotomic_poly(3) == (Fraction(1), Fraction(1), Fraction(1))
    assert cyclotomic_poly(4) == (Fraction(1), Fraction(0), Fraction(1))
    assert cyclotomic_poly(6) == (Fraction(1), Fraction(-1), Fraction(1))
    assert euler_phi(12) == 4


def test_basic_identities():
    i = zeta(4)
    assert i * i == -1
    assert zeta(2) == -1
    assert zeta(2) + 1 == 0
    assert zeta(3) ** 3 == 1
    assert zeta(12) ** 12 == 1


def test_documented_inverse():
    # (1 + z) * (-z) = -z - z^2 = 1 modulo 1 + z + z^2
    x = cyc_one(3) + zeta(3)
    assert x * (-zeta(3)) == 1
    assert x.inverse() == -zeta(3)


def test_promotion():
    assert zeta(2).promote(6) == zeta(6, 3)
    assert zeta(3) == zeta(6, 2)
    assert zeta(3) + zeta(2) == zeta(6, 2) - 1


@pytest.mark.parametrize("value", [0.5, 0.1, "1/2", Decimal("0.5")])
def test_a_value_that_is_not_rational_is_refused_not_converted(value):
    # "no floating point anywhere": 0.5 and 0.1 would convert to 1/2 and
    # 3602879701896397/2^55, a string or a Decimal to a Fraction
    name = type(value).__name__
    with pytest.raises(TypeError, match=f"^not a rational number: {name}$"):
        CycNumber.from_rational(4, value)
    with pytest.raises(TypeError, match=f"^not a rational number: {name}$"):
        CycNumber(4, [1, value])
    with pytest.raises(TypeError):
        zeta(4) * value
    assert zeta(4, 0) != value


def test_int_bool_and_fraction_are_rationals():
    half = CycNumber.from_rational(4, Fraction(1, 2))
    assert (half.nums, half.den) == ((1, 0), 2)
    assert CycNumber(4, [True, Fraction(-3, 6)]) == cyc_one(4) - half * zeta(4)
    assert CycNumber.from_rational(4, True).is_one()
    assert CycNumber.from_rational(4, False).is_zero()


orders = st.integers(1, 12)


@st.composite
def cyc_numbers(draw, order=None):
    n = order if order is not None else draw(orders)
    k = euler_phi(n)
    coeffs = draw(st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        min_size=k, max_size=k))
    return CycNumber(n, coeffs)


@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(cyc_numbers(order=n), cyc_numbers(order=n), cyc_numbers(order=n))))
def test_ring_axioms(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + b == b + a


@given(cyc_numbers())
def test_multiplicative_inverse(x):
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == 1
        assert (x.inverse()).inverse() == x


@given(st.integers(1, 24), st.integers(0, 23),
       st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool))
def test_single_term_inverse(n, i, c):
    # c z^i inverts to z^(-i) / c without the product of Galois conjugates
    x = zeta(n, i) * c
    assert x * x.inverse() == 1
    assert x.inverse() == zeta(n, -i) * (1 / c)


def test_roots_of_unity_distinct():
    roots = roots_of_unity(8)
    assert len(set(roots)) == 8
    assert all((r ** 8).is_one() for r in roots)


def solve_system(M, b):
    """The solution of M x = b when M is invertible, read off the kernel of
    [M | -b]: its one canonical vector has last coordinate 1."""
    kernel = solve_linear([tuple(row) + (-y,) for row, y in zip(M, b)]).kernel
    assert len(kernel) == 1 and kernel[0][-1] == 1
    return kernel[0][:-1]


class TestLinear:
    def test_identity_system(self):
        one = cyc_one(4)
        M = mat_id(3, 4)
        b = (zeta(4), one, one + one)
        assert solve_system(M, b) == b and solve_linear(M).kernel == ()

    def test_zero_matrix_full_kernel(self):
        z = cyc_zero(4)
        M = ((z, z), (z, z))
        sol = solve_linear(M)
        assert len(sol.kernel) == 2

    def test_invertible_matrices_have_no_kernel(self):
        # the identity, an upper triangular matrix with determinant i, and
        # one with determinant 1 - i^2 = 2: full rank, identity reduced rows
        i, one, zero = zeta(4), cyc_one(4), cyc_zero(4)
        for M in (mat_id(3, 4), ((one, i), (zero, i)), ((one, i), (i, one))):
            sol = solve_linear(M)
            assert sol.kernel == () and sol.rank == len(M)
            assert sol.pivots == tuple(range(len(M))) and sol.rows == mat_id(len(M), 4)

    def test_documented_2x2_over_gaussian(self):
        # upper triangular with determinant i: unique solution
        i = zeta(4)
        one = cyc_one(4)
        M = ((one, i), (cyc_zero(4), i))
        b = (one + i, i)
        assert not solve_linear(M).kernel
        assert mat_vec(M, solve_system(M, b)) == b

    @given(st.lists(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                             min_size=3, max_size=3), min_size=2, max_size=4))
    def test_random_rational_systems(self, rows):
        M = tuple(tuple(CycNumber.from_rational(4, x) for x in row) for row in rows)
        sol = solve_linear(M)
        assert sol.rank + len(sol.kernel) == 3
        for v in sol.kernel:
            assert all(x.is_zero() for x in mat_vec(M, v))

    def test_inverse_columns_solve_the_identity(self):
        i = zeta(4)
        one = cyc_one(4)
        M = ((one, i), (i, one))  # det = 1 - i^2 = 2
        ident = mat_id(2, 4)
        assert not solve_linear(M).kernel
        cols = [solve_system(M, [row[j] for row in ident]) for j in range(2)]
        assert mat_mul(M, transpose(tuple(cols))) == ident

    def test_singular_matrix_is_not_invertible(self):
        one = cyc_one(4)
        M = ((one, one), (one, one))
        assert solve_linear(M).rank < len(M)
        assert solve_linear(M).kernel

    def test_rref_canonical_for_span(self):
        one = cyc_one(4)
        i = zeta(4)
        v1 = (one, i, one)
        v2 = (i, -one, i)      # i * v1
        v3 = (one + i, i - one, one + i)  # v1 + v2
        sol1, sol2 = solve_linear([v1, v2, v3]), solve_linear([v3, v1])
        assert sol1.rows == sol2.rows and sol1.pivots == sol2.pivots
        assert len(sol1.rows) == 1

    def test_transpose_involution(self):
        M = ((cyc_one(3), zeta(3)), (zeta(3, 2), cyc_zero(3)))
        assert transpose(transpose(M)) == M


# -- differential check against a Fraction-polynomial reference ------------
#
# The reference keeps one Fraction per power-basis coefficient and reduces
# by polynomial long division modulo Phi_n after every operation; inverses
# come from the extended Euclidean algorithm against Phi_n.  It shares no
# code with the integer kernel, not even the cyclotomic polynomials.

F0, F1 = Fraction(0), Fraction(1)


def _trim(p):
    i = len(p)
    while i > 0 and p[i - 1] == 0:
        i -= 1
    return tuple(p[:i])


def _pmul(p, q):
    if not p or not q:
        return ()
    out = [F0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def _psub(p, q):
    n = max(len(p), len(q))
    p = list(p) + [F0] * (n - len(p))
    q = list(q) + [F0] * (n - len(q))
    return _trim([a - b for a, b in zip(p, q)])


def _pdivmod(p, q):
    p = list(p)
    dq = len(q) - 1
    quot = [F0] * max(len(p) - dq, 0)
    for i in range(len(p) - 1, dq - 1, -1):
        c = p[i] / q[-1]
        if c != 0:
            quot[i - dq] = c
            for j in range(dq + 1):
                p[i - dq + j] -= c * q[j]
    return _trim(quot), _trim(p)


_REF_PHI = {}


def ref_cyclotomic(n):
    if n not in _REF_PHI:
        num = (Fraction(-1),) + (F0,) * (n - 1) + (F1,)
        for d in range(1, n):
            if n % d == 0:
                num, r = _pdivmod(num, ref_cyclotomic(d))
                assert not r
        _REF_PHI[n] = num
    return _REF_PHI[n]


class Ref:
    """Reference cyclotomic number: reduced Fraction coefficients."""

    def __init__(self, order, coeffs):
        mod = ref_cyclotomic(order)
        phi = len(mod) - 1
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) > phi:
            _, coeffs = _pdivmod(coeffs, mod)
        self.order = order
        self.coeffs = tuple(coeffs) + (F0,) * (phi - len(coeffs))

    def promote(self, order):
        k = order // self.order
        out = [F0] * ((len(self.coeffs) - 1) * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] += c
        return Ref(order, out)

    def match(self, other):
        if not isinstance(other, Ref):
            other = Ref(self.order, (other,))
        n = self.order * other.order // gcd(self.order, other.order)
        return self.promote(n), other.promote(n)

    def __add__(self, other):
        a, b = self.match(other)
        return Ref(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __neg__(self):
        return Ref(self.order, [-x for x in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Ref) else -Fraction(other))

    def __mul__(self, other):
        a, b = self.match(other)
        return Ref(a.order, _pmul(a.coeffs, b.coeffs))

    def is_zero(self):
        return not any(self.coeffs)

    def inverse(self):
        r0, s0 = ref_cyclotomic(self.order), ()
        r1, s1 = _trim(self.coeffs), (F1,)
        while len(r1) > 1:
            q, r = _pdivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _psub(s0, _pmul(q, s1))
        return Ref(self.order, [x / r1[0] for x in s1])

    def __truediv__(self, other):
        a, b = self.match(other)
        return a * b.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = Ref(self.order, (F1,))
        for _ in range(k):
            out = out * self
        return out

    def hash_value(self):
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))


def same(x, ref):
    """x carries exactly the reference's order and reduced coefficients, and
    its integer form is normalized: positive denominator, gcd 1."""
    return (isinstance(x, CycNumber) and x.order == ref.order
            and x.coeffs == ref.coeffs
            and all(type(c) is Fraction for c in x.coeffs)
            and all(type(c) is int for c in x.nums)
            and x.den > 0 and gcd(x.den, *x.nums) == 1)


small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def pairs(draw, order):
    """A CycNumber and its reference twin, from a raw coefficient list that
    may be longer than phi(n), so construction exercises the reduction."""
    coeffs = draw(st.lists(small_fracs, min_size=0, max_size=order + 3))
    return CycNumber(order, coeffs), Ref(order, coeffs)


def test_cyclotomic_polys_match_reference():
    for n in range(1, 41):
        assert cyclotomic_poly(n) == ref_cyclotomic(n)
        assert euler_phi(n) == len(ref_cyclotomic(n)) - 1


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 16).flatmap(lambda n: st.tuples(pairs(n), pairs(n))),
       st.integers(-3, 5), st.integers(1, 3))
def test_kernel_matches_reference_same_order(ab, k, m):
    (a, ra), (b, rb) = ab
    assert same(a, ra) and same(b, rb)
    assert same(a + b, ra + rb) and same(a - b, ra - rb)
    assert same(a * b, ra * rb) and same(-a, -ra)
    assert same(a.promote(a.order * m), ra.promote(ra.order * m))
    assert (a == b) == (ra.coeffs == rb.coeffs)
    if rb.is_zero():
        with pytest.raises(ZeroDivisionError):
            b.inverse()
    else:
        assert same(b.inverse(), rb.inverse())
        assert same(a / b, ra / rb)
    if k >= 0 or not ra.is_zero():
        assert same(a ** k, ra ** k)


mixed_orders = st.sampled_from((1, 2, 3, 4, 6, 8, 12))


@settings(max_examples=100, deadline=None)
@given(mixed_orders.flatmap(pairs), mixed_orders.flatmap(pairs))
def test_kernel_matches_reference_mixed_orders(ap, bp):
    (a, ra), (b, rb) = ap, bp
    assert same(a + b, ra + rb) and same(b - a, rb - ra)
    assert same(a * b, ra * rb)
    ea, eb = ra.match(rb)
    assert (a == b) == (ea.coeffs == eb.coeffs)
    if not rb.is_zero():
        assert same(a / b, ra / rb)


@given(st.integers(1, 16).flatmap(pairs), small_fracs)
def test_hash_and_rational_equality_match_reference(ap, r):
    a, ra = ap
    assert a.coeffs == ra.coeffs
    assert hash(a) == ra.hash_value()
    x = CycNumber.from_rational(ra.order, r)
    assert x == r and hash(x) == hash(r)
    assert same(x + a, ra + r) and same(a * r, ra * r) and same(r - a, -(ra - r))
    if r.denominator == 1:
        assert x == int(r) and hash(x) == hash(int(r))
    rational = not any(ra.coeffs[1:])
    assert (a == ra.coeffs[0]) == rational
    if rational and ra.coeffs[0].denominator == 1:
        assert a == int(ra.coeffs[0])


def ref_solve_linear(M):
    """The former Gauss-Jordan, over the reference numbers."""
    rows = [list(r) for r in M]
    m, n = len(rows), len(rows[0])
    order = rows[0][0].order
    zero, one = Ref(order, ()), Ref(order, (F1,))
    pivots, r = [], 0
    for col in range(n):
        sel = next((i for i in range(r, m) if not rows[i][col].is_zero()), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and not rows[i][col].is_zero():
                c = rows[i][col]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    kernel = []
    for free in range(n):
        if free in pivots:
            continue
        vec = [zero] * n
        vec[free] = one
        for i, col in enumerate(pivots):
            vec[col] = -rows[i][free]
        kernel.append(tuple(vec))
    return tuple(kernel), len(pivots), tuple(pivots)


def ref_rref(vectors):
    out, pivots = [], []
    n = len(vectors[0])
    for v in vectors:
        v = list(v)
        for prow, pcol in zip(out, pivots):
            if not v[pcol].is_zero():
                c = v[pcol]
                v = [x - c * y for x, y in zip(v, prow)]
        lead = next((j for j in range(n) if not v[j].is_zero()), None)
        if lead is None:
            continue
        inv = v[lead].inverse()
        v = [x * inv for x in v]
        out.append(v)
        pivots.append(lead)
        for i, (prow, pcol) in enumerate(zip(out[:-1], pivots[:-1])):
            if not prow[lead].is_zero():
                c = prow[lead]
                out[i] = [x - c * y for x, y in zip(prow, v)]
    perm = sorted(range(len(out)), key=lambda i: pivots[i])
    return tuple(tuple(out[i]) for i in perm), tuple(pivots[i] for i in perm)


@st.composite
def root_matrices(draw):
    """A matrix of roots of unity and zeros, as CycNumbers and references,
    plus a vector of as many entries as rows; repeated rows force rank
    deficiency."""
    n = draw(st.sampled_from((2, 4, 8, 12)))
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    entry = st.one_of(st.none(), st.integers(0, n - 1))
    base = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=1, max_size=rows))
    exps = [base[draw(st.integers(0, len(base) - 1))] if draw(st.booleans()) else
            draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    rhs = draw(st.lists(entry, min_size=rows, max_size=rows))

    def cyc(e):
        return cyc_zero(n) if e is None else zeta(n, e)

    def ref(e):
        return Ref(n, ()) if e is None else Ref(n, (F0,) * e + (F1,))

    M = tuple(tuple(cyc(e) for e in row) for row in exps)
    R = tuple(tuple(ref(e) for e in row) for row in exps)
    return M, R, tuple(cyc(e) for e in rhs), tuple(ref(e) for e in rhs)


def _vec_same(v, rv):
    return len(v) == len(rv) and all(same(x, r) for x, r in zip(v, rv))


@settings(max_examples=30, deadline=None)
@given(root_matrices())
def test_solve_linear_and_rref_match_reference(case):
    M, R, _, _ = case
    sol = solve_linear(M)
    kernel, rank, pivots = ref_solve_linear(R)
    assert (sol.rank, sol.pivots) == (rank, pivots)
    assert len(sol.kernel) == len(kernel)
    assert all(_vec_same(v, rv) for v, rv in zip(sol.kernel, kernel))
    basis, piv = sol.rows, sol.pivots
    rbasis, rpiv = ref_rref(R)
    assert piv == rpiv and len(basis) == len(rbasis)
    assert all(_vec_same(v, rv) for v, rv in zip(basis, rbasis))


@settings(max_examples=30, deadline=None)
@given(root_matrices())
def test_matrix_products_match_reference(case):
    M, R, b, rb = case
    T = transpose(M)
    RT = tuple(zip(*R))

    def ref_dot(xs, ys):
        acc = Ref(xs[0].order, ())
        for x, y in zip(xs, ys):
            acc = acc + x * y
        return acc

    prod = mat_mul(M, T)
    assert all(_vec_same(row, [ref_dot(rrow, rcol) for rcol in R])
               for row, rrow in zip(prod, R))
    assert _vec_same(mat_vec(T, b), [ref_dot(rcol, rb) for rcol in RT])
    trace = Ref(R[0][0].order, ())
    for rrow in R:
        trace = trace + ref_dot(rrow, rrow)
    assert same(mat_trace(prod), trace)


# -- the prepared-block kernel against the plain matrix routines -----------
#
# The fused checks must answer exactly what building the products and
# comparing them answers, and the fraction-free invertibility test what the
# kernel of solve_linear says.

fused_orders = st.sampled_from((1, 2, 4, 8, 12))


@st.composite
def fused_entries(draw, n):
    """Zero, a rational, a root of unity (possibly of a smaller order
    dividing n), a rational multiple of one, or a sum of two such terms:
    the denominators of one matrix differ."""
    def term():
        d = draw(st.sampled_from([d for d in (1, 2, 3, 4, 6, 8, 12) if n % d == 0]))
        return zeta(d, draw(st.integers(0, d - 1))) * draw(small_fracs)
    kind = draw(st.sampled_from(("zero", "rational", "root", "term", "sum")))
    if kind == "zero":
        return cyc_zero(n)
    if kind == "rational":
        return CycNumber.from_rational(n, draw(small_fracs))
    if kind == "root":
        return zeta(n, draw(st.integers(0, n - 1)))
    return term() + term() if kind == "sum" else term()


def fused_matrices(n, rows, cols):
    return st.lists(st.lists(fused_entries(n), min_size=cols, max_size=cols)
                    .map(tuple), min_size=rows, max_size=rows).map(tuple)


@st.composite
def monomial_matrices(draw, n, k):
    """An invertible k x k matrix with one nonzero root-of-unity multiple
    per row and column, with its inverse."""
    perm = draw(st.permutations(range(k)))
    exps = [draw(st.integers(0, n - 1)) for _ in range(k)]
    nonzero = st.fractions(min_value=1, max_value=5, max_denominator=7)
    scales = [draw(nonzero) * draw(st.sampled_from((1, -1))) for _ in range(k)]
    zero = cyc_zero(n)
    M = tuple(tuple(zeta(n, exps[i]) * scales[i] if j == perm[i] else zero
                    for j in range(k)) for i in range(k))
    Minv = tuple(tuple(zeta(n, -exps[j]) * (1 / scales[j]) if i == perm[j] else zero
                       for j in range(k)) for i in range(k))
    return M, Minv


def _bump(M, i, j, delta):
    """M with delta added to entry (i, j)."""
    return tuple(tuple(x + delta if (r, c) == (i, j) else x
                       for c, x in enumerate(row)) for r, row in enumerate(M))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_scaled_product_check_matches_building_the_product(data):
    n = data.draw(fused_orders)
    r, k, c = (data.draw(st.integers(1, 5)) for _ in range(3))
    A = data.draw(fused_matrices(n, r, k))
    B = data.draw(fused_matrices(n, k, c))
    s = data.draw(fused_entries(n))
    exact = mat_scale(s, mat_mul(A, B))
    i, j = data.draw(st.integers(0, r - 1)), data.draw(st.integers(0, c - 1))
    off = _bump(exact, i, j, data.draw(fused_entries(n).filter(
        lambda x: not x.is_zero())))
    other = data.draw(fused_matrices(n, r, c))

    def fused(C):
        return mat_scaled_product_eq(s, mat_prepare(A, n), mat_prepare(B, n),
                                     mat_prepare(C, n))

    assert fused(exact) is True
    assert fused(off) is False
    assert fused(other) == mat_eq(exact, other)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_pair_check_matches_building_both_products(data):
    n = data.draw(fused_orders)
    r, k, c = (data.draw(st.integers(1, 5)) for _ in range(3))
    A = data.draw(fused_matrices(n, r, k))
    B = data.draw(fused_matrices(n, k, c))
    M, Minv = data.draw(monomial_matrices(n, k))
    # (A M)(M^-1 B) == A B: an equal pair built differently
    C, D = mat_mul(A, M), mat_mul(Minv, B)
    i, j = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, c - 1))
    D_off = _bump(D, i, j, data.draw(fused_entries(n)))
    k2 = data.draw(st.integers(1, 5))
    C2 = data.draw(fused_matrices(n, r, k2))
    D2 = data.draw(fused_matrices(n, k2, c))

    def fused(C, D):
        return mat_products_eq(*(mat_prepare(X, n) for X in (A, B, C, D)))

    assert fused(C, D) is True
    for C_, D_ in ((C, D_off), (C2, D2)):
        assert fused(C_, D_) == mat_eq(mat_mul(A, B), mat_mul(C_, D_))


@st.composite
def square_cases(draw):
    """A square matrix up to 8 x 8; some with a repeated row, some with a
    zero column, some monomial (always invertible)."""
    n = draw(fused_orders)
    k = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("random", "repeated row", "zero column",
                                 "monomial", "roots")))
    if kind == "monomial":
        return draw(monomial_matrices(n, k))[0]
    if kind == "roots":
        entry = st.one_of(st.just(None), st.integers(0, n - 1))
        return tuple(tuple(cyc_zero(n) if e is None else zeta(n, e) for e in row)
                     for row in draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                                              min_size=k, max_size=k)))
    M = [list(row) for row in draw(fused_matrices(n, k, k))]
    if kind == "repeated row" and k > 1:
        src, dst = draw(st.permutations(range(k)))[:2]
        M[dst] = list(M[src])
    if kind == "zero column":
        col = draw(st.integers(0, k - 1))
        for row in M:
            row[col] = cyc_zero(n)
    return tuple(tuple(row) for row in M)


@settings(max_examples=80, deadline=None)
@given(square_cases())
def test_reduced_rows_match_the_reference_on_square_cases(M):
    sol = solve_linear(M)
    assert (sol.rows, sol.pivots) == ref_rref(M)


def test_kernel_edge_cases():
    z = zeta(4)
    A = ((z, 0), (0, z))
    assert solve_linear(()).rank == 0 and solve_linear(()).rows == ()
    assert solve_linear(((z, 1),)).kernel
    assert solve_linear(((z, z), (z * 2, z * 2))).rows == ((1, 1),)
    # invertible means square and of full rank: a wide block of full row
    # rank is not, nor is a square one of lower rank
    assert _invertible(A) and _invertible(())
    assert not _invertible(((z, 1),)) and not _invertible(((z,), (1,)))
    assert not _invertible(((z, z), (z * 2, z * 2)))
    P = mat_prepare(A, 4)
    assert mat_scaled_product_eq(z, P, P, mat_prepare(mat_scale(z, mat_mul(A, A)), 4))
    assert not mat_scaled_product_eq(z, P, P, mat_prepare(((z,),), 4))
    ragged = mat_prepare(((-z, 0), (0, -z, 0)), 4)  # mat_eq sees a longer row
    assert not mat_scaled_product_eq(1, P, P, ragged)
    assert not mat_products_eq(P, P, mat_prepare(((z,),), 4), mat_prepare(((z, z),), 4))
    with pytest.raises(ValueError, match="different orders"):
        mat_scaled_product_eq(z, P, P, mat_prepare(A, 8))
    with pytest.raises(ValueError, match="inner dimensions"):
        mat_products_eq(P, mat_prepare(((z, z),), 4), P, P)


# -- exactness of the packed kernel on large entries ------------------------
#
# Numerators and denominators near 2^200: a packing width fixed in advance
# would wrap; the width derived from the data must still separate values
# that differ only in the lowest or only in the highest power-basis
# coefficient.

def _big_entry(rng, n):
    """phi(n) numerators near 2^200 over one denominator near 2^200."""
    den = rng.getrandbits(200) | 1 << 199 | 1
    return CycNumber(n, [Fraction(rng.getrandbits(200) - (1 << 199), den)
                         for _ in range(euler_phi(n))])


def _shifted(M, i, j, k, n):
    """M with 2^-200 z^k added to entry (i, j)."""
    coeffs = [0] * euler_phi(n)
    coeffs[k] = Fraction(1, 1 << 200)
    return _bump(M, i, j, CycNumber(n, coeffs))


@pytest.mark.parametrize("n", [8, 12, 24])
def test_packed_kernel_is_exact_on_large_entries(n):
    import random

    rng = random.Random(n)
    A = tuple(tuple(_big_entry(rng, n) for _ in range(3)) for _ in range(2))
    B = tuple(tuple(_big_entry(rng, n) for _ in range(2)) for _ in range(3))
    s = _big_entry(rng, n)
    AB = mat_mul(A, B)
    exact = mat_scale(s, AB)
    top = euler_phi(n) - 1
    cases = [exact, _shifted(exact, 0, 0, 0, n), _shifted(exact, 1, 1, top, n)]
    PA, PB = mat_prepare(A, n), mat_prepare(B, n)
    for C in cases:
        assert mat_scaled_product_eq(s, PA, PB, mat_prepare(C, n)) == mat_eq(exact, C)
    assert [mat_eq(exact, C) for C in cases] == [True, False, False]
    # A B == (A M)(M^-1 B) for a monomial M with large entries
    d = _big_entry(rng, n)
    M = tuple(tuple(d if j == (i + 1) % 3 else cyc_zero(n) for j in range(3))
              for i in range(3))
    Minv = tuple(tuple(d.inverse() if i == (j + 1) % 3 else cyc_zero(n) for j in range(3))
                 for i in range(3))
    C, D = mat_mul(A, M), mat_mul(Minv, B)
    for D_ in (D, _shifted(D, 0, 0, 0, n), _shifted(D, 2, 1, top, n)):
        assert (mat_products_eq(PA, PB, mat_prepare(C, n), mat_prepare(D_, n))
                == mat_eq(AB, mat_mul(C, D_)))
    assert mat_eq(AB, mat_mul(C, D))


@pytest.mark.parametrize("n", [8, 12, 24])
def test_packed_kernel_separates_multiples_of_phi_at_any_fixed_width(n):
    # With integer entries the difference of the two sides is exactly
    # Phi_n(2^k) z^j: a packing at the fixed width k would see it vanish.
    import random

    rng = random.Random(n)

    def integer_entry():
        return CycNumber(n, [rng.getrandbits(200) - (1 << 199)
                             for _ in range(euler_phi(n))])

    A = tuple(tuple(integer_entry() for _ in range(2)) for _ in range(2))
    B = tuple(tuple(integer_entry() for _ in range(2)) for _ in range(2))
    s = integer_entry()
    exact = mat_scale(s, mat_mul(A, B))
    PA, PB = mat_prepare(A, n), mat_prepare(B, n)
    assert mat_scaled_product_eq(s, PA, PB, mat_prepare(exact, n))
    for k in (16, 32, 64, 128, 256, 512):
        phi_at = sum(c << k * i for i, c in enumerate(cyclotomic_poly(n)))
        for j in (0, euler_phi(n) - 1):
            coeffs = [0] * euler_phi(n)
            coeffs[j] = phi_at
            C = _bump(exact, 1, 0, CycNumber(n, coeffs))
            assert not mat_scaled_product_eq(s, PA, PB, mat_prepare(C, n))
            assert not mat_products_eq(mat_prepare(exact, n), mat_prepare(mat_id(2, n), n),
                                       mat_prepare(C, n), mat_prepare(mat_id(2, n), n))


def test_packed_modulus_refuses_a_width_too_small_for_the_bound():
    bits = pack_bits(12, 2 ** 200)
    assert bits > 200
    packed_modulus(12, bits, 2 ** 200)
    with pytest.raises(InternalSoundnessError, match="needs"):
        packed_modulus(12, bits - 1, 2 ** 200)
