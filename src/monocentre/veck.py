"""Pointed linear backend: graded vector spaces over a finite group with a
root-of-unity associator, and extraction of simple centre objects by exact
cyclotomic linear algebra.

The skeleton has one object per group element; a carrier is a dimension
vector over the group, and a half-braiding on a carrier V is a family of
invertible blocks beta_x|g: V_g -> V_{x^-1 g x} with beta_e = id and an
omega-twisted multiplicativity law relating beta_{xy} to the composite of
beta_x and beta_y.  The twist exponent is derived by instantiating the
pasting equality of the set-level centre in this skeleton; two independent
checks keep the derivation honest: a trivial associator must reduce to
plain block composition, and the nontrivial Z2 class must yield exactly
four one-dimensional solutions with beta_a squaring to -1.

All scalars live in the cyclotomic field of order N = 2 * exp(G) * N0,
where N0 is the order of the associator values.  N is even, so the roots
of unity contained in the field are exactly the N-th ones; eigenvalues of
the finite-order maps met while splitting carriers therefore lie in the
finite searchable set mu_N.

Simple extraction solves one canonical carrier per conjugacy class (total
dimension |G|) in closed form and splits its fiber at the class
representative r under the twisted action h -> M_h of the centralizer H,
a projective representation.  A piece is simple when its commutant is
one-dimensional, read off as the character norm (1/|H|) sum_h tr(M_h)
tr(M_h^-1), where M_h^-1 = M_{h^-1} / c_h for the scalar c_h =
M_{h^-1} M_h.  Otherwise an eigenvector v (in mu_N) of a non-scalar M_h,
preferring one that commutes with every M_k, generates an invariant
subspace C: the action is projective, so the orbit span {M_h v} is
already invariant and one rref gives its canonical basis.  The kernel of
the Maschke average P = (1/|H|) sum_h M_h^-1 E M_h of a coordinate
projection E onto span C is an invariant complement, and each part's
action is read off the unit rows of its basis; the split carries actions
only, never an ambient basis.  Each closed form is checked, not trusted:
c_h is scalar, the norm a positive integer, P^2 = P and C R_h = M_h C.
Each distinct summand R is induced back to a graded carrier in closed
form: with t_g the least z such that z^-1 r z = g, the block of x at
grade g is R_h for h = t_g x t_{x^-1 g x}^-1 in H, times a root of
unity read off two twists.  Every returned object is re-verified against
the full half-braiding axioms, and distinct simples are certified by
the absence of nonzero intertwiners.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .centre import Certificate, compute_centre
from .config import GuardConfig, InternalSoundnessError, SizeGuardExceeded, resolve
from .cyclo import (
    CycNumber,
    cyc_zero,
    kron,
    mat_eq,
    mat_id,
    mat_invertible,
    mat_mul,
    mat_prepare,
    mat_products_eq,
    mat_scale,
    mat_scaled_product_eq,
    mat_trace,
    mat_vec,
    roots_of_unity,
    rref,
    solve_linear,
    transpose,
    zeta,
)
from .monoidal import (
    _REPORT_CAP, discrete_group_monoidal, group_table_report, identity_of,
)


# -- group table helpers ---------------------------------------------------


@lru_cache(maxsize=16)
def _identity(table) -> int:
    return identity_of(table)


@lru_cache(maxsize=16)
def group_inverses(table) -> tuple:
    e = _identity(table)
    n = len(table)
    out = []
    for a in range(n):
        b = next(b for b in range(n) if table[a][b] == e and table[b][a] == e)
        out.append(b)
    return tuple(out)


def element_order(table, g: int) -> int:
    e = _identity(table)
    k, acc = 1, g
    while acc != e:
        acc = table[acc][g]
        k += 1
    return k


def group_exponent(table) -> int:
    out = 1
    for g in range(len(table)):
        out = lcm(out, element_order(table, g))
    return out


def _conj(table, inv, x: int, g: int) -> int:
    """x^-1 g x."""
    return table[table[inv[x]][g]][x]


def conjugacy_classes(table) -> tuple:
    """Classes as sorted tuples, listed by their least element."""
    n = len(table)
    inv = group_inverses(table)
    seen = [False] * n
    out = []
    for g in range(n):
        if seen[g]:
            continue
        orbit = sorted({_conj(table, inv, x, g) for x in range(n)})
        for h in orbit:
            seen[h] = True
        out.append(tuple(orbit))
    return tuple(out)


def centralizer(table, g: int) -> tuple:
    return tuple(h for h in range(len(table)) if table[h][g] == table[g][h])


def group_centre(table) -> tuple:
    n = len(table)
    return tuple(g for g in range(n)
                 if all(table[g][x] == table[x][g] for x in range(n)))


# -- 3-cocycles ------------------------------------------------------------


class Cocycle3:
    """A normalized 3-cocycle stored by exponents of a root of unity.

    exponents[a][b][c] is the exponent at (a, b, c) of the primitive
    scalar_order-th root; value() returns the exact field element.  The
    constructor only normalizes residues; run check_cocycle for the full
    report.
    """

    def __init__(self, table, scalar_order, exponents):
        so = int(scalar_order)
        if so < 1:
            raise ValueError("scalar order must be a positive integer")
        self._table = tuple(tuple(int(v) for v in row) for row in table)
        self._scalar_order = so
        self._exponents = tuple(
            tuple(tuple(int(v) % so for v in row) for row in plane)
            for plane in exponents)

    @property
    def table(self):
        return self._table

    @property
    def scalar_order(self):
        return self._scalar_order

    @property
    def exponents(self):
        return self._exponents

    def value(self, a: int, b: int, c: int) -> CycNumber:
        return zeta(self._scalar_order, self._exponents[a][b][c])

    def __eq__(self, other):
        if not isinstance(other, Cocycle3):
            return NotImplemented
        return (self._table == other._table
                and self._scalar_order == other._scalar_order
                and self._exponents == other._exponents)

    def __hash__(self):
        return hash((self._table, self._scalar_order, self._exponents))

    def __repr__(self):
        return (f"Cocycle3(|G|={len(self._table)}, "
                f"scalar_order={self._scalar_order})")


def trivial_cocycle(table, scalar_order: int = 1) -> Cocycle3:
    n = len(table)
    zeros = tuple(tuple((0,) * n for _ in range(n)) for _ in range(n))
    return Cocycle3(table, scalar_order, zeros)


def z2_nontrivial_cocycle() -> Cocycle3:
    """The nontrivial class on Z2: value -1 at (a, a, a), 1 elsewhere."""
    table = ((0, 1), (1, 0))
    exps = [[[0, 0], [0, 0]], [[0, 0], [0, 1]]]
    return Cocycle3(table, 2, exps)


def coboundary_cocycle(table, scalar_order: int, cochain2) -> Cocycle3:
    """The coboundary of a normalized 2-cochain b: G x G -> Z_scalar_order.

    (db)(x, y, z) = b(y, z) - b(xy, z) + b(x, yz) - b(x, y), taken mod the
    scalar order.  Always a normalized cocycle when b is normalized.
    """
    n = len(table)
    e = identity_of(table)
    b = tuple(tuple(int(v) % scalar_order for v in row) for row in cochain2)
    if any(b[e][x] != 0 or b[x][e] != 0 for x in range(n)):
        raise ValueError("2-cochain is not normalized at the identity")
    exps = tuple(
        tuple(
            tuple((b[y][z] - b[table[x][y]][z] + b[x][table[y][z]] - b[x][y])
                  % scalar_order
                  for z in range(n))
            for y in range(n))
        for x in range(n))
    return Cocycle3(table, scalar_order, exps)


def check_cocycle(omega: Cocycle3) -> list:
    """Normalization and the exhaustive additive cocycle identity.

    Empty list iff omega is a normalized 3-cocycle; each failure names the
    offending tuple of group elements.
    """
    table = omega.table
    n = len(table)
    problems = group_table_report(table)
    if problems:
        return ["group table invalid: " + problems[0]]
    w = omega.exponents
    if len(w) != n or any(len(p) != n or any(len(r) != n for r in p) for p in w):
        return ["exponent table is not |G| x |G| x |G|"]
    e = _identity(table)
    report = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if e in (a, b, c) and w[a][b][c] != 0:
                    report.append(f"not normalized at ({a}, {b}, {c})")
                    if len(report) >= _REPORT_CAP:
                        return report
    if report:
        return report
    n0 = omega.scalar_order
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    s = (w[b][c][d] - w[table[a][b]][c][d]
                         + w[a][table[b][c]][d] - w[a][b][table[c][d]]
                         + w[a][b][c]) % n0
                    if s != 0:
                        report.append(
                            f"cocycle identity fails at (a={a}, b={b}, "
                            f"c={c}, d={d})")
                        if len(report) >= _REPORT_CAP:
                            return report
    return report


def _twist(table, inv, w, n0: int, g: int, x: int, y: int) -> int:
    """Exponent of the scalar in beta_{xy}|g = zeta^t (beta_y . beta_x).

    Derived by whiskering the carrier past the two tensor factors in the
    skeleton, where every associator component is the scalar omega value.
    """
    gx = _conj(table, inv, x, g)
    xy = table[x][y]
    gxy = _conj(table, inv, xy, g)
    return (-w[g][x][y] + w[x][gx][y] - w[x][y][gxy]) % n0


def field_order_for(table, omega: Cocycle3) -> int:
    """Working cyclotomic order: even, large enough for all eigenvalues."""
    return 2 * group_exponent(table) * omega.scalar_order


# -- graded carriers and half-braidings ------------------------------------


@dataclass(frozen=True)
class GradedObject:
    """Dimension vector over the group elements."""

    dims: tuple

    @property
    def support(self):
        return tuple(g for g, d in enumerate(self.dims) if d > 0)

    @property
    def total_dim(self):
        return sum(self.dims)


def delta_object(n: int, g: int, dim: int = 1) -> GradedObject:
    return GradedObject(tuple(dim if h == g else 0 for h in range(n)))


class HalfBraidingLin:
    """Half-braiding on a graded carrier, one cyclotomic block per pair.

    blocks maps (x, g) with dim V_g > 0 to the matrix of
    beta_x|g: V_g -> V_{x^-1 g x}, rows indexing the target grade.
    """

    def __init__(self, omega: Cocycle3, field_order: int, carrier: GradedObject,
                 blocks):
        self._omega = omega
        self._field_order = int(field_order)
        self._carrier = carrier
        self._blocks = dict(blocks)

    @property
    def omega(self):
        return self._omega

    @property
    def table(self):
        return self._omega.table

    @property
    def field_order(self):
        return self._field_order

    @property
    def carrier(self):
        return self._carrier

    @property
    def blocks(self):
        return self._blocks

    def block(self, x: int, g: int):
        return self._blocks[(x, g)]

    def serialize(self):
        items = tuple((key, tuple(tuple(v.coeffs for v in row)
                                  for row in mat))
                      for key, mat in sorted(self._blocks.items()))
        return (self._field_order, self._carrier.dims, items)

    def __eq__(self, other):
        if not isinstance(other, HalfBraidingLin):
            return NotImplemented
        return self.serialize() == other.serialize()

    def __hash__(self):
        return hash(self.serialize())

    def __repr__(self):
        supp = self._carrier.support
        return (f"HalfBraidingLin(total_dim={self._carrier.total_dim}, "
                f"support={supp})")


def _entry_order(*hbs) -> int:
    """lcm of the field orders and of the orders of every block entry."""
    return lcm(*(hb.field_order for hb in hbs),
               *(v.order for hb in hbs for blk in hb.blocks.values()
                 for row in blk for v in row))


def _prepared_blocks(hb: HalfBraidingLin, order: int) -> dict:
    return {key: mat_prepare(blk, order) for key, blk in hb.blocks.items()}


def check_half_braiding(hb: HalfBraidingLin) -> list:
    """Full axiom pass: shapes, unit, invertibility, multiplicativity.

    Multiplicativity is checked for every pair (x, y) and every supported
    grade, never only on generators.  Each block is prepared once, and
    every multiplicativity equation runs through the fused product check
    mat_scaled_product_eq; invertibility is the fraction-free test
    mat_invertible on every block.
    """
    table = hb.table
    n = len(table)
    inv = group_inverses(table)
    dims = hb.carrier.dims
    if len(dims) != n or any(d < 0 for d in dims):
        return ["carrier dimension vector does not match the group"]
    supp = hb.carrier.support
    report = []
    for x in range(n):
        for g in supp:
            g2 = _conj(table, inv, x, g)
            if dims[g] != dims[g2]:
                report.append(
                    f"grading mismatch: dim {dims[g]} at grade {g} but "
                    f"dim {dims[g2]} at {g2} (x={x})")
                if len(report) >= _REPORT_CAP:
                    return report
    if report:
        return report
    want = {(x, g) for x in range(n) for g in supp}
    have = set(hb.blocks)
    if want != have:
        missing = sorted(want - have)
        extra = sorted(have - want)
        if missing:
            report.append(f"missing blocks: {missing[:4]}")
        if extra:
            report.append(f"unexpected blocks: {extra[:4]}")
        return report
    for x in range(n):
        for g in supp:
            mat = hb.block(x, g)
            g2 = _conj(table, inv, x, g)
            if len(mat) != dims[g2] or any(len(row) != dims[g] for row in mat):
                report.append(f"block ({x}, {g}) has the wrong shape")
                if len(report) >= _REPORT_CAP:
                    return report
    if report:
        return report
    e = _identity(table)
    ident_cache = {}
    for g in supp:
        d = dims[g]
        if d not in ident_cache:
            ident_cache[d] = mat_id(d, hb.field_order)
        if not mat_eq(hb.block(e, g), ident_cache[d]):
            report.append(f"unit block at grade {g} is not the identity")
            if len(report) >= _REPORT_CAP:
                return report
    for x in range(n):
        for g in supp:
            if not mat_invertible(hb.block(x, g)):
                report.append(f"block ({x}, {g}) is not invertible")
                if len(report) >= _REPORT_CAP:
                    return report
    if report:
        return report
    w = hb.omega.exponents
    n0 = hb.omega.scalar_order
    scale = hb.field_order // n0
    prep = _prepared_blocks(hb, _entry_order(hb))
    for x in range(n):
        for y in range(n):
            xy = table[x][y]
            for g in supp:
                gx = _conj(table, inv, x, g)
                t = _twist(table, inv, w, n0, g, x, y)
                if not mat_scaled_product_eq(zeta(hb.field_order, t * scale),
                                             prep[(y, gx)], prep[(x, g)],
                                             prep[(xy, g)]):
                    report.append(
                        f"multiplicativity fails at (x={x}, y={y}, g={g})")
                    if len(report) >= _REPORT_CAP:
                        return report
    return report


def canonical_class_carrier(omega: Cocycle3, field_order: int,
                            class_rep: int) -> HalfBraidingLin:
    """The closed-form solved carrier supported on one conjugacy class.

    Basis v_z for z in G, graded by z^-1 r z; the block action is
    beta_y(v_z) = zeta^{-tau(r; z, y)} v_{z y}.  The result is re-verified
    against the full axioms before being returned.
    """
    table = omega.table
    n = len(table)
    inv = group_inverses(table)
    r = class_rep
    grade = [_conj(table, inv, z, r) for z in range(n)]
    by_grade = {}
    for z in range(n):
        by_grade.setdefault(grade[z], []).append(z)
    pos = {}
    for g, zs in by_grade.items():
        for i, z in enumerate(zs):
            pos[z] = i
    dims = tuple(len(by_grade.get(g, ())) for g in range(n))
    w = omega.exponents
    n0 = omega.scalar_order
    scale = field_order // n0
    zero = cyc_zero(field_order)
    blocks = {}
    for x in range(n):
        for g in sorted(by_grade):
            src = by_grade[g]
            g2 = _conj(table, inv, x, g)
            dst = by_grade[g2]
            mat = [[zero] * len(src) for _ in range(len(dst))]
            for col, z in enumerate(src):
                z2 = table[z][x]
                t = _twist(table, inv, w, n0, r, z, x)
                mat[pos[z2]][col] = zeta(field_order, (-t) % n0 * scale)
            blocks[(x, g)] = tuple(tuple(row) for row in mat)
    hb = HalfBraidingLin(omega, field_order, GradedObject(dims), blocks)
    errs = check_half_braiding(hb)
    if errs:
        raise InternalSoundnessError(
            "canonical class carrier failed its own verification: " + errs[0])
    return hb


# -- the scalar half-braiding search ----------------------------------------


def half_braiding_space(carrier: GradedObject, omega: Cocycle3,
                        cfg: GuardConfig | None = None) -> tuple:
    """Every half-braiding on a multiplicity-free carrier, sorted.

    The carrier must be multiplicity-free (every graded dimension 0 or 1);
    a larger one raises ValueError.  The grading constraint is decided
    first, and () returned when it rules every solution out.  Otherwise
    all blocks are scalars, and every solution scalar is a root of unity
    in the working field, so the search over mu_N with constraint
    propagation is complete.
    """
    cfg = resolve(cfg)
    table = omega.table
    n = len(table)
    if n > cfg.vec_max_group:
        raise SizeGuardExceeded("group order", n, cfg.vec_max_group,
                                hint="raise vec_max_group")
    dims = carrier.dims
    if len(dims) != n:
        raise ValueError("carrier dimension vector does not match the group")
    if any(d > 1 for d in dims):
        raise ValueError("the scalar search takes only multiplicity-free "
                         "carriers (every graded dimension 0 or 1)")
    inv = group_inverses(table)
    supp = carrier.support
    if any(dims[_conj(table, inv, x, g)] != dims[g]
           for x in range(n) for g in supp):
        return ()

    field_order = field_order_for(table, omega)
    w = omega.exponents
    n0 = omega.scalar_order
    scale = field_order // n0
    conj_of = {(x, g): _conj(table, inv, x, g) for x in range(n) for g in supp}
    rels = []
    for x in range(n):
        for y in range(n):
            xy = table[x][y]
            for g in supp:
                gx = conj_of[(x, g)]
                t = _twist(table, inv, w, n0, g, x, y) * scale % field_order
                rels.append(((x, g), (y, gx), (xy, g), t))
    keys = sorted((x, g) for x in range(n) for g in supp)

    budget = [0]

    def propagate(assign) -> bool:
        changed = True
        while changed:
            changed = False
            for ka, kb, kc, t in rels:
                a = assign.get(ka)
                b = assign.get(kb)
                c = assign.get(kc)
                known = (a is not None) + (b is not None) + (c is not None)
                if known < 2:
                    continue
                if known == 3:
                    if (a + b + t) % field_order != c:
                        return False
                    continue
                if c is None:
                    assign[kc] = (a + b + t) % field_order
                elif a is None:
                    assign[ka] = (c - b - t) % field_order
                else:
                    assign[kb] = (c - a - t) % field_order
                changed = True
        return True

    solutions = []

    def search(assign):
        free = next((k for k in keys if k not in assign), None)
        if free is None:
            solutions.append(dict(assign))
            return
        for val in range(field_order):
            budget[0] += 1
            if budget[0] > cfg.max_branch:
                raise SizeGuardExceeded("scalar half-braiding search",
                                        budget[0], cfg.max_branch,
                                        hint="raise max_branch")
            trial = dict(assign)
            trial[free] = val
            if propagate(trial):
                search(trial)

    seed = {(_identity(table), g): 0 for g in supp}
    if propagate(seed):
        search(seed)

    out = []
    for assign in solutions:
        blocks = {(x, g): ((zeta(field_order, assign[(x, g)]),),)
                  for x in range(n) for g in supp}
        hb = HalfBraidingLin(omega, field_order, carrier, blocks)
        errs = check_half_braiding(hb)
        if errs:
            raise InternalSoundnessError(
                "scalar search produced an invalid half-braiding: " + errs[0])
        out.append(hb)
    out.sort(key=lambda h: h.serialize())
    return tuple(out)


# -- splitting the fiber action --------------------------------------------


def _mat_pow(M, m: int):
    out = M
    for _ in range(m - 1):
        out = mat_mul(out, M)
    return out


def _is_scalar(M) -> bool:
    return all(M[i][j] == M[0][0] if i == j else M[i][j].is_zero()
               for i in range(len(M)) for j in range(len(M)))


def _hcat(blocks):
    """Matrices with the same number of rows, side by side."""
    return tuple(tuple(x for blk in blocks for x in blk[i])
                 for i in range(len(blocks[0])))


def _action_inverses(table, mats) -> dict:
    """M_h^-1 for every h, as M_{h^-1} / c_h with c_h = M_{h^-1} M_h.

    The action is projective, so c_h is a root of unity, not always 1;
    that the product is scalar is checked, not assumed.
    """
    inv = group_inverses(table)
    out = {}
    for h, M in mats.items():
        Mi = mats[inv[h]]
        c = mat_mul(Mi, M)
        if not _is_scalar(c) or c[0][0].is_zero():
            raise InternalSoundnessError(
                "fiber action of an inverse is not a scalar inverse")
        out[h] = Mi if c[0][0].is_one() else mat_scale(c[0][0].inverse(), Mi)
    return out


def _commutant_dim(mats, inverses) -> int:
    """Dimension of {T : T M_h = M_h T for all h}, as a character norm.

    X -> M_h X M_h^-1 is a genuine representation on matrices even when
    the action is projective; its character is tr(M_h) tr(M_h^-1), and the
    commutant is its fixed space, of dimension the average character.
    """
    total = sum(mat_trace(M) * mat_trace(inverses[h]) for h, M in mats.items())
    avg = total.coeffs[0] / len(mats)
    if not total.is_rational() or avg.denominator != 1 or avg < 1:
        raise InternalSoundnessError(
            "character norm of the fiber action is not a positive integer")
    return int(avg)


def _cyclic_closure(v, mats):
    """Canonical column basis of the invariant subspace generated by v,
    and its unit rows (the rref pivots).

    The action is projective, M_k M_h = c M_{hk} for a scalar c, so the
    orbit span {M_h v : h in H} is already invariant and, as M_e = 1,
    contains v.
    """
    basis_rows, pivots = rref([mat_vec(mats[h], v) for h in sorted(mats)])
    return transpose(basis_rows), pivots


def _restrict_action(mats, C, units):
    """Matrices of the action in the column basis C of an invariant space.

    Row units[j] of C is the j-th unit vector, so the coordinates of M_h C
    are its rows at units.  C R_h = M_h C is checked for all h by one
    product.
    """
    hs = sorted(mats)
    images = [mat_mul(mats[h], C) for h in hs]
    out = {h: tuple(img[i] for i in units) for h, img in zip(hs, images)}
    if not mat_eq(mat_mul(C, _hcat([out[h] for h in hs])), _hcat(images)):
        raise InternalSoundnessError(
            "claimed invariant subspace is not invariant")
    return out


def _invariant_projection(mats, inverses, C, units):
    """Idempotent onto the span of C commuting with the whole action.

    E = C S, with S reading the unit rows of C, projects onto span C; its
    Maschke average P = (1/|H|) sum_h M_h^-1 E M_h over the acting group H
    commutes with every M_h and still fixes the invariant span C.  P^2 = P
    is checked.
    """
    hs = sorted(mats)
    left = _hcat([mat_mul(inverses[h], C) for h in hs])
    right = tuple(mats[h][i] for h in hs for i in units)
    P = mat_scale(Fraction(1, len(hs)), mat_mul(left, right))
    if not mat_eq(mat_mul(P, P), P):
        raise InternalSoundnessError("averaged projection is not idempotent")
    return P


def _split_rec(table, mats, order: int, roots, out) -> bool:
    """Decompose the action h -> mats[h]; True when complete.

    Appends (action, certified) per piece; a piece stays uncertified when
    no eigenvector of the chosen matrix has a proper closure.  The choice
    is the least non-scalar M_h commuting with every M_k, else the least
    non-scalar M_h: a central M_h has eigenspaces that are sums of
    isotypic parts, so no closure inside one straddles two irreducibles.
    """
    k = len(next(iter(mats.values())))
    inverses = _action_inverses(table, mats) if k > 1 else None
    if k == 1 or _commutant_dim(mats, inverses) == 1:
        out.append((mats, True))
        return True
    if all(_is_scalar(M) for M in mats.values()):
        sub = {h: ((M[0][0],),) for h, M in sorted(mats.items())}
        out.extend((sub, True) for _ in range(k))
        return True
    nonscalar = sorted(h for h, M in mats.items() if not _is_scalar(M))
    prep = {h: mat_prepare(mats[h], order) for h in nonscalar}
    h0 = next((h for h in nonscalar
               if all(mat_products_eq(prep[h], prep[g], prep[g], prep[h])
                      for g in nonscalar)), nonscalar[0])
    M0 = mats[h0]
    m = element_order(table, h0)
    P = _mat_pow(M0, m)
    if not _is_scalar(P):
        raise InternalSoundnessError(
            "power of a fiber action matrix is not scalar")
    c = P[0][0]
    for lam in roots:
        if lam ** m != c:
            continue
        ker = solve_linear(tuple(tuple(x - lam if i == j else x
                                       for j, x in enumerate(row))
                                 for i, row in enumerate(M0))).kernel
        if not ker or len(ker) == k:
            continue
        for v in ker:
            C, units = _cyclic_closure(v, mats)
            d = len(C[0])
            if d == k:
                continue
            sol = solve_linear(_invariant_projection(mats, inverses, C, units))
            if len(sol.kernel) != k - d:
                raise InternalSoundnessError(
                    "invariant projection kernel has the wrong dimension")
            K = transpose(sol.kernel)
            free = tuple(j for j in range(k) if j not in sol.pivots)
            ok_u = _split_rec(table, _restrict_action(mats, C, units),
                              order, roots, out)
            ok_k = _split_rec(table, _restrict_action(mats, K, free),
                              order, roots, out)
            return ok_u and ok_k
    out.append((mats, False))
    return False


# -- simple centre objects -------------------------------------------------


@dataclass(frozen=True)
class VecSimple:
    """One simple centre object: solved carrier plus bookkeeping."""

    class_rep: int
    hb: HalfBraidingLin
    total_dim: int
    fiber_character: tuple


@dataclass(frozen=True)
class VecCentreResult:
    table: tuple
    omega: Cocycle3
    field_order: int
    simples: tuple
    complete: bool
    certificates: tuple

    @property
    def sum_of_squares(self):
        return sum(s.total_dim ** 2 for s in self.simples)

    @property
    def all_passed(self):
        return all(c.ok for c in self.certificates)


def _fiber_character(mats) -> tuple:
    return tuple((h, mat_trace(M).coeffs) for h, M in sorted(mats.items()))


def _induce_simple(omega, field_order, class_rep, action):
    """Transport a simple fiber summand h -> R_h to a graded half-braiding.

    Grade g of the class of r takes the basis beta_{t_g}|r of the fiber
    summand, t_g the least z with z^-1 r z = g.  For x taking g to g2,
    h = t_g x t_g2^-1 centralizes r, and multiplicativity at r gives the
    block in closed form: beta'_x|g = zeta^(tau(r; h, t_g2) - tau(r; t_g, x))
    R_h, with tau = _twist.
    """
    table = omega.table
    n = len(table)
    inv = group_inverses(table)
    r = class_rep
    w = omega.exponents
    n0 = omega.scalar_order
    scale = field_order // n0
    transversal = {}
    for z in range(n):
        transversal.setdefault(_conj(table, inv, z, r), z)
    d = len(action[r])
    dims = tuple(d if g in transversal else 0 for g in range(n))
    blocks = {}
    for x in range(n):
        for g, tg in sorted(transversal.items()):
            t2 = transversal[_conj(table, inv, x, g)]
            h = table[table[tg][x]][inv[t2]]
            t = (_twist(table, inv, w, n0, r, h, t2)
                 - _twist(table, inv, w, n0, r, tg, x)) % n0
            blk = action[h]
            if t:
                blk = mat_scale(zeta(field_order, t * scale), blk)
            blocks[(x, g)] = blk
    return HalfBraidingLin(omega, field_order, GradedObject(dims), blocks)


def intertwiner_dim(A: HalfBraidingLin, B: HalfBraidingLin) -> int:
    """Dimension of the space of grade-preserving maps T with
    T beta^A = beta^B T blockwise."""
    table = A.table
    n = len(table)
    inv = group_inverses(table)
    da, db = A.carrier.dims, B.carrier.dims
    common = [g for g in range(n) if da[g] > 0 and db[g] > 0]
    if not common:
        return 0
    offsets = {}
    total = 0
    for g in common:
        offsets[g] = total
        total += db[g] * da[g]
    rows = []
    for x in range(n):
        for g in common:
            g2 = _conj(table, inv, x, g)
            bA = A.block(x, g)
            bB = B.block(x, g)
            for i in range(db[g2]):
                for j in range(da[g]):
                    row = [0] * total
                    base2 = offsets[g2]
                    for l in range(da[g2]):
                        row[base2 + i * da[g2] + l] = (
                            row[base2 + i * da[g2] + l] + bA[l][j])
                    base = offsets[g]
                    for l in range(db[g]):
                        row[base + l * da[g] + j] = (
                            row[base + l * da[g] + j] - bB[i][l])
                    rows.append(row)
    return len(solve_linear(rows).kernel)


def centre_simples(table, omega: Cocycle3 | None = None,
                   cfg: GuardConfig | None = None) -> VecCentreResult:
    """All simple centre objects of the graded backend, with certificates.

    One canonical carrier per conjugacy class is solved and split; the
    distinct summands, deduplicated by fiber character, are induced back
    to graded carriers.  Every class carrier has total dimension |G|, so
    the group order, bounded by vec_max_group, is the only size guard.  A
    fiber piece the split cannot resolve flags the run incomplete.
    """
    cfg = resolve(cfg)
    table = tuple(tuple(int(v) for v in row) for row in table)
    problems = group_table_report(table)
    if problems:
        raise ValueError("not a group table: " + problems[0])
    if omega is None:
        omega = trivial_cocycle(table)
    if omega.table != table:
        raise ValueError("cocycle is defined over a different group table")
    problems = check_cocycle(omega)
    if problems:
        raise ValueError("invalid 3-cocycle: " + problems[0])
    n = len(table)
    if n > cfg.vec_max_group:
        raise SizeGuardExceeded("group order", n, cfg.vec_max_group,
                                hint="raise vec_max_group")
    field_order = field_order_for(table, omega)
    roots = roots_of_unity(field_order)
    inv = group_inverses(table)
    classes = conjugacy_classes(table)

    simples = []
    unresolved = 0
    complete = True
    verify_failures = []
    for cls in classes:
        r = cls[0]
        carrier = canonical_class_carrier(omega, field_order, r)
        cent = centralizer(table, r)
        mats = {h: carrier.block(h, r) for h in cent}
        pieces = []
        split_ok = _split_rec(table, mats, field_order, roots, pieces)
        if not split_ok:
            complete = False
            unresolved += sum(1 for _, cert in pieces if not cert)
        by_char = {}
        for sub, cert in pieces:
            if cert:
                by_char.setdefault(_fiber_character(sub), []).append(sub)
        if split_ok:
            for char, group in by_char.items():
                d = len(group[0][r])
                if any(len(sub[r]) != d for sub in group):
                    raise InternalSoundnessError(
                        "equal fiber characters with unequal dimensions")
                if len(group) != d:
                    raise InternalSoundnessError(
                        "fiber multiplicity does not match summand dimension")
            if sum(len(g[0][r]) ** 2 for g in by_char.values()) != len(cent):
                raise InternalSoundnessError(
                    "fiber sum rule failed on a complete split")
        for char in sorted(by_char):
            hb = _induce_simple(omega, field_order, r, by_char[char][0])
            errs = check_half_braiding(hb)
            if errs:
                verify_failures.append(f"class {r}: {errs[0]}")
                continue
            simples.append(VecSimple(r, hb, hb.carrier.total_dim, char))

    def order_key(s):
        beta_at_rep = tuple(
            tuple(tuple(v.coeffs for v in row) for row in s.hb.block(x, s.class_rep))
            for x in range(n))
        return (s.class_rep, s.total_dim, beta_at_rep)

    simples.sort(key=order_key)

    support_ok = True
    support_detail = ""
    for s in simples:
        members = sorted({_conj(table, inv, x, s.class_rep) for x in range(n)})
        dims = s.hb.carrier.dims
        vals = {dims[g] for g in members}
        off = [g for g in range(n) if g not in members and dims[g] != 0]
        if len(vals) != 1 or off:
            support_ok = False
            support_detail = f"class {s.class_rep}"
            break

    inter_ok = True
    inter_detail = ""
    endo_ok = True
    endo_detail = ""
    for i, s in enumerate(simples):
        if intertwiner_dim(s.hb, s.hb) != 1:
            endo_ok = False
            endo_detail = f"simple {i} has endomorphism dimension != 1"
            break
        for j in range(i + 1, len(simples)):
            t = simples[j]
            if s.class_rep != t.class_rep:
                continue
            dim = intertwiner_dim(s.hb, t.hb)
            if dim != 0:
                inter_ok = False
                inter_detail = (f"simples {i} and {j} share a nonzero "
                                f"intertwiner (dim {dim})")
                break
        if not inter_ok:
            break

    total_sq = sum(s.total_dim ** 2 for s in simples)
    sum_ok = complete and total_sq == n * n
    sum_detail = f"sum {total_sq}, target {n * n}"
    if not complete:
        sum_detail += " (enumeration incomplete)"

    certs = (
        Certificate("half-braiding re-verification (all pairs, all grades)",
                    not verify_failures,
                    verify_failures[0] if verify_failures else
                    f"{len(simples)} simples"),
        Certificate("supports constant on one conjugacy class",
                    support_ok, support_detail),
        Certificate("endomorphism algebras one-dimensional",
                    endo_ok, endo_detail),
        Certificate("no intertwiners between distinct simples",
                    inter_ok, inter_detail),
        Certificate("sum rule: squared dimensions add to |G|^2",
                    sum_ok, sum_detail),
        Certificate("enumeration complete", complete,
                    f"{unresolved} unresolved summands" if unresolved else ""),
    )
    return VecCentreResult(table, omega, field_order, tuple(simples),
                           complete, certs)


# -- tensor, braiding, and the structure battery ----------------------------


def _pair_layout(A: HalfBraidingLin, B: HalfBraidingLin):
    """Component layout of the graded tensor product carrier.

    Returns (dims, offset): offset maps (g, h) to the position of the
    V_g (x) W_h component inside grade g h, where the components of one
    grade are laid out in lexicographic order.
    """
    table = A.table
    dims = [0] * len(table)
    offset = {}
    for g in A.carrier.support:
        for h in B.carrier.support:
            k = table[g][h]
            offset[(g, h)] = dims[k]
            dims[k] += A.carrier.dims[g] * B.carrier.dims[h]
    return tuple(dims), offset


def _tensor_twist(omega: Cocycle3, inv, x: int, g: int, h: int) -> int:
    """Additive exponent of the associator scalars in the tensor block."""
    table = omega.table
    w = omega.exponents
    gx = _conj(table, inv, x, g)
    hx = _conj(table, inv, x, h)
    return (w[x][gx][hx] - w[g][x][hx] + w[g][h][x]) % omega.scalar_order


def _tensor_parts(A: HalfBraidingLin, B: HalfBraidingLin) -> dict:
    """The blocks of the tensor product A (x) B between its components.

    (x, g, h), for g and h in the supports of A and B, keys the block from
    V_g (x) W_h to V_{x^-1 g x} (x) W_{x^-1 h x}: the Kronecker product of
    the factors' blocks scaled by three associator values.
    """
    if A.omega != B.omega or A.field_order != B.field_order:
        raise ValueError("tensor factors live over different backends")
    omega = A.omega
    inv = group_inverses(omega.table)
    N = A.field_order
    scale = N // omega.scalar_order
    parts = {}
    for x in range(len(omega.table)):
        for g in A.carrier.support:
            for h in B.carrier.support:
                sub = kron(A.block(x, g), B.block(x, h))
                t = _tensor_twist(omega, inv, x, g, h)
                if t:
                    sub = mat_scale(zeta(N, t * scale), sub)
                parts[(x, g, h)] = sub
    return parts


def _tensor(A: HalfBraidingLin, B: HalfBraidingLin,
            parts: dict) -> HalfBraidingLin:
    """The tensor product of two solved carriers, from its _tensor_parts.

    The grading routes the (g, h) component to (x^-1 g x, x^-1 h x)
    inside the conjugated total grade.
    """
    table = A.table
    n = len(table)
    inv = group_inverses(table)
    dims, offset = _pair_layout(A, B)
    zero = cyc_zero(A.field_order)
    mats = {(x, k): [[zero] * dims[k] for _ in range(dims[_conj(table, inv, x, k)])]
            for x in range(n) for k in range(n) if dims[k]}
    for (x, g, h), part in parts.items():
        mat = mats[(x, table[g][h])]
        roff = offset[(_conj(table, inv, x, g), _conj(table, inv, x, h))]
        coff = offset[(g, h)]
        for i, row in enumerate(part):
            for j, v in enumerate(row):
                mat[roff + i][coff + j] = v
    blocks = {key: tuple(tuple(row) for row in mat) for key, mat in mats.items()}
    return HalfBraidingLin(A.omega, A.field_order, GradedObject(dims), blocks)


def _braid_block(A: HalfBraidingLin, B: HalfBraidingLin, g: int, h: int):
    """Component of the braiding on V_g x W_h: swap after beta^A_h|g.

    Maps into W_h x V_{h^-1 g h}; rows are indexed (j, i') and columns
    (i, j) in row-major layout.
    """
    blk = A.block(h, g)
    da = len(blk[0])
    da2 = len(blk)
    db = B.carrier.dims[h]
    zero = cyc_zero(A.field_order)
    mat = [[zero] * (da * db) for _ in range(db * da2)]
    for j in range(db):
        for i2 in range(da2):
            for i in range(da):
                mat[j * da2 + i2][i * db + j] = blk[i2][i]
    return tuple(tuple(row) for row in mat)


def _braiding_witnesses(A: HalfBraidingLin, B: HalfBraidingLin, ab: dict,
                        ba: dict, order: int):
    """The first failures of the braiding of V = A past W = B.

    Returns the first (g, h) whose braid component is not invertible and
    the first (g, h, x) where naturality theta_ba c_{g,h} = c_{gx,hx}
    theta_ab fails, or None for each; theta_ab and theta_ba are read from
    ab and ba, the prepared _tensor_parts of A (x) B and of B (x) A.
    """
    table = A.table
    inv = group_inverses(table)
    inv_bad = None
    braids = {}
    for g in A.carrier.support:
        for h in B.carrier.support:
            blk = _braid_block(A, B, g, h)
            if inv_bad is None and not mat_invertible(blk):
                inv_bad = (g, h)
            braids[(g, h)] = mat_prepare(blk, order)
    for (g, h), cblk in braids.items():
        g2 = _conj(table, inv, h, g)
        for x in range(len(table)):
            gx, hx = _conj(table, inv, x, g), _conj(table, inv, x, h)
            if not mat_products_eq(ba[(x, h, g2)], cblk, braids[(gx, hx)],
                                   ab[(x, g, h)]):
                return inv_bad, (g, h, x)
    return inv_bad, None


def _pair_failures(simples, i: int, j: int, order: int):
    """Hexagon 2, braid invertibility and naturality on the ordered pairs
    (i, j) and (j, i), which share the Kronecker parts of their two
    tensors.

    Yields (check, (a, b), detail) for each check that fails on an ordered
    pair (a, b), with check one of "hex2", "inv", "nat".
    """
    ordered = sorted({(i, j), (j, i)})
    parts = {(a, b): _tensor_parts(simples[a].hb, simples[b].hb)
             for a, b in ordered}
    comps = {pair: {key: mat_prepare(blk, order) for key, blk in p.items()}
             for pair, p in parts.items()}
    for a, b in ordered:
        errs = check_half_braiding(
            _tensor(simples[a].hb, simples[b].hb, parts[(a, b)]))
        if errs:
            yield "hex2", (a, b), f"pair ({a}, {b}): {errs[0]}"
        inv_w, nat_w = _braiding_witnesses(simples[a].hb, simples[b].hb,
                                           comps[(a, b)], comps[(b, a)], order)
        if inv_w:
            g, h = inv_w
            yield "inv", (a, b), f"pair ({a}, {b}) at (g={g}, h={h})"
        if nat_w:
            g, h, x = nat_w
            yield "nat", (a, b), f"pair ({a}, {b}) at (x={x}, g={g}, h={h})"


def certify_centre_structure(result: VecCentreResult) -> tuple:
    """Braided-structure battery over the computed simples.

    Exact checks: the associator's pentagon and triangle, the first
    hexagon as multiplicativity against raw associator values, the second
    hexagon as the tensor of any two simples being a half-braiding again,
    invertibility and the centre-morphism property of the braiding, and
    the structural strong monoidality and faithfulness of the projection
    to graded carriers.

    Every check runs on every (x, y, g), every grade and every ordered
    pair of simples.  The first hexagon takes its raw associator scalar
    once per (g, x, y) and checks each equation with the fused
    mat_scaled_product_eq on blocks prepared once per simple.  Each
    unordered pair {i, j} is handled once: the Kronecker parts of the
    tensors for (i, j) and (j, i) are built once, each tensor is assembled
    from them and checked by check_half_braiding, and the same parts,
    prepared, serve as theta_ab and theta_ba of the naturality check,
    which is the fused mat_products_eq; only one pair's parts are alive
    at a time.  Braid components are tested by mat_invertible.  A failing
    certificate names the least failing ordered pair, as a scan in pair
    order would.
    """
    omega = result.omega
    table = result.table
    n = len(table)
    inv = group_inverses(table)
    e = _identity(table)
    N = result.field_order
    simples = result.simples
    order = lcm(N, _entry_order(*(s.hb for s in simples)))

    pentagon = check_cocycle(omega)
    pent_cert = Certificate("associator pentagon (3-cocycle identity)",
                            not pentagon, pentagon[0] if pentagon else "")

    tri_bad = [(a, b) for a in range(n) for b in range(n)
               if omega.exponents[a][e][b] != 0]
    tri_cert = Certificate("unit triangle (normalization at the unit)",
                           not tri_bad,
                           f"fails at {tri_bad[0]}" if tri_bad else "")

    scalars = {}
    for g in range(n):
        for x in range(n):
            gx = _conj(table, inv, x, g)
            for y in range(n):
                gxy = _conj(table, inv, table[x][y], g)
                scalars[(g, x, y)] = (omega.value(g, x, y).inverse()
                                      * omega.value(x, gx, y)
                                      * omega.value(x, y, gxy).inverse()
                                      ).promote(order)
    hex1_bad = None
    for idx, s in enumerate(simples):
        prep = _prepared_blocks(s.hb, order)
        hex1_bad = next(
            (f"simple {idx} at (x={x}, y={y}, g={g})"
             for x in range(n) for y in range(n) for g in s.hb.carrier.support
             if not mat_scaled_product_eq(
                 scalars[(g, x, y)], prep[(y, _conj(table, inv, x, g))],
                 prep[(x, g)], prep[(table[x][y], g)])),
            None)
        if hex1_bad:
            break
    hex1_cert = Certificate(
        "hexagon 1 (multiplicativity against raw associator values)",
        hex1_bad is None, hex1_bad or f"{len(simples)} simples")

    # the least failing ordered pair is reported, as a scan in order would
    bad = {"hex2": [], "inv": [], "nat": []}
    for i in range(len(simples)):
        for j in range(i, len(simples)):
            for check, pair, detail in _pair_failures(simples, i, j, order):
                bad[check].append((pair, detail))
    hex2_bad, braid_inv_bad, nat_bad = (min(bad[k])[1] if bad[k] else None
                                        for k in ("hex2", "inv", "nat"))
    pairs = len(simples) ** 2
    hex2_cert = Certificate(
        "hexagon 2 (tensor of two simples is again a half-braiding)",
        hex2_bad is None, hex2_bad or f"{pairs} ordered pairs")
    braid_inv_cert = Certificate("braiding components invertible",
                                 braid_inv_bad is None, braid_inv_bad or "")
    nat_cert = Certificate(
        "braiding naturality (centre-morphism property, blockwise)",
        nat_bad is None, nat_bad or f"{pairs} ordered pairs")

    mono_bad = None
    for i, s in enumerate(simples):
        for j, t in enumerate(simples):
            dims, _ = _pair_layout(s.hb, t.hb)
            expected = [0] * n
            for g in range(n):
                for h in range(n):
                    expected[table[g][h]] += (s.hb.carrier.dims[g]
                                              * t.hb.carrier.dims[h])
            if dims != tuple(expected):
                mono_bad = f"pair ({i}, {j})"
                break
        if mono_bad:
            break
    mono_cert = Certificate(
        "projection strong monoidality (tensor carrier is the graded tensor)",
        mono_bad is None, mono_bad or "")

    faith_cert = Certificate(
        "projection faithfulness (morphisms are underlying linear maps)",
        True, "identity-on-morphisms inclusion")

    return (pent_cert, tri_cert, hex1_cert, hex2_cert, braid_inv_cert,
            nat_cert, mono_cert, faith_cert)


# -- cross-backend harness ---------------------------------------------------


@dataclass(frozen=True)
class CrossBackendReport:
    """Per-element agreement between three centre-membership routes."""

    rows: tuple

    @property
    def agree(self):
        return all(lin == set_lvl == grp for _, lin, set_lvl, grp in self.rows)

    @property
    def verdict(self):
        return "agree" if self.agree else "disagree"


def verify_linear_against_bruteforce(table,
                                     cfg: GuardConfig | None = None
                                     ) -> CrossBackendReport:
    """Compare linear half-braiding existence on single-element supports
    against the set-level centre and the group-theoretic centre.

    Runs with the trivial associator: a one-dimensional carrier at g
    admits a half-braiding exactly when g is central, which is also when
    the discrete backend lists an object over g.
    """
    cfg = resolve(cfg)
    table = tuple(tuple(int(v) for v in row) for row in table)
    problems = group_table_report(table)
    if problems:
        raise ValueError("not a group table: " + problems[0])
    n = len(table)
    omega = trivial_cocycle(table)
    zc = compute_centre(discrete_group_monoidal(table), cfg)
    set_members = {o.a for o in zc.objects}
    grp = set(group_centre(table))
    rows = []
    for g in range(n):
        linear = bool(half_braiding_space(delta_object(n, g), omega, cfg))
        rows.append((g, linear, g in set_members, g in grp))
    return CrossBackendReport(tuple(rows))
