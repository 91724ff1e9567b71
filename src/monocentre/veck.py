"""Pointed linear backend: extraction of simple centre objects of
Vec_G^omega by exact cyclotomic linear algebra, and the braided-structure
battery over them.  The values that fix Vec_G^omega (the group, the
3-cocycle, graded carriers and half-braidings) and the half-braiding axiom
check are in graded.

Simple extraction splits, for each conjugacy class with representative
r, the twisted regular action of the centralizer H of r: M_h v_z =
zeta^(-tau(r; z, h)) v_{zh} on the basis H, tau the twist exponent of
multiplicativity.  It is a projective representation, and its law
zeta^tau(r; x, y) M_y M_x = M_xy is checked before the split.  A piece
is simple when its commutant is one-dimensional, read off as the
character norm (1/|H|) sum_h tr(M_h) tr(M_h^-1), where M_h^-1 = M_{h^-1}
/ c_h for the scalar c_h = M_{h^-1} M_h.  Otherwise an eigenvector v (in
mu_N) of a non-scalar M_h, preferring one that commutes with every M_k,
generates an invariant subspace C: the action is projective, so the
orbit span {M_h v} is already invariant and the reduced rows of one
solve_linear are its canonical basis.  The kernel of the Maschke average
P = (1/|H|) sum_h M_h^-1 E M_h of a coordinate projection E onto span C
is an invariant complement, and each part's action is read off the unit
rows of its basis; the split carries actions only, never an ambient
basis.  Each closed form is checked, not trusted: c_h is scalar, the
norm a positive integer, P^2 = P and C R_h = M_h C.  Each distinct
summand R is induced back to a graded carrier in closed form: with t_g
the least z such that z^-1 r z = g, the block of x at grade g is R_h for
h = t_g x t_{x^-1 g x}^-1 in H, times a root of unity read off two
twists.  Every returned object is re-verified against the full
half-braiding axioms, and distinct simples are certified by the absence
of nonzero intertwiners.
"""

from __future__ import annotations

from itertools import chain, filterfalse
from math import lcm
from operator import mul

from .config import DEFAULT, GuardConfig, InternalSoundnessError, _report
from .cyclo import (
    cyc_one, cyc_zero, mat_mul, mat_prepare, mat_products_eq, mat_scale, mat_scaled_product_eq,
    mat_trace, mat_vec, pack_bits, packed_modulus, roots_of_unity, solve_linear,
    transpose, zeta,
)
from .graded import (
    Cocycle3, GradedObject, Group, HalfBraidingLin, _Pack, _axiom_failures, _entry_order,
    _fill, _grading_failures, _pack, _product_failures, _require_valid, _shape_failures,
    _twist_packs, check_half_braiding,
)
from .record import Certificate, Record


# -- splitting the fiber action --------------------------------------------


def _fibre_action(omega: Cocycle3, r: int) -> dict:
    """The twisted regular action h -> M_h of the centralizer H of r:
    M_h v_z = zeta^(-tau(r; z, h)) v_{zh} on the basis H in increasing
    order, tau = omega.twist.

    The split relies on the law M_e = 1 and zeta^tau(r; x, y) M_y M_x =
    M_xy for every x, y in H; it is checked on the prepared matrices.
    """
    group, twist, order = omega.group, omega.twist[r], omega.field_order
    table, cent = group.table, group.centralizer(r)
    pos, scale = {z: i for i, z in enumerate(cent)}, order // omega.scalar_order
    mats = {}
    for h in cent:
        M = [[cyc_zero(order)] * len(cent) for _ in cent]
        for z in cent:
            M[pos[table[z][h]]][pos[z]] = zeta(order, -twist[z][h] * scale)
        mats[h] = tuple(map(tuple, M))
    if any(v != int(i == j) for i, row in enumerate(mats[group.identity])
           for j, v in enumerate(row)):
        raise InternalSoundnessError(f"fibre action of class {r}: M_e is not the identity")
    prep = {h: mat_prepare(M, order) for h, M in mats.items()}
    for x in cent:
        for y in cent:
            if not mat_scaled_product_eq(zeta(order, twist[x][y] * scale),
                                         prep[y], prep[x], prep[table[x][y]]):
                raise InternalSoundnessError(
                    f"fibre action of class {r} fails its law at (x={x}, y={y})")
    return mats


def _is_scalar(M) -> bool:
    return all(M[i][j] == M[0][0] if i == j else M[i][j].is_zero()
               for i in range(len(M)) for j in range(len(M)))


def _hcat(blocks):
    """Matrices with the same number of rows, side by side."""
    return tuple(tuple(x for blk in blocks for x in blk[i])
                 for i in range(len(blocks[0])))


def _action_inverses(group: Group, mats, prep) -> dict:
    """M_h^-1 for every h, as M_{h^-1} / c_h with c_h I = M_{h^-1} M_h;
    prep[h] is M_h prepared.

    The action is projective, so c_h is a root of unity, not always 1.
    It is read off the first entry of the product, and that the whole
    product is c_h I is checked on the prepared matrices, not assumed.
    """
    inv = group.inverses
    k, order = len(next(iter(mats.values()))), next(iter(prep.values())).order
    eye = mat_prepare(tuple(tuple(int(i == j) for j in range(k)) for i in range(k)), order)
    out = {}
    for h, M in mats.items():
        Mi = mats[inv[h]]
        c = mat_vec(Mi[:1], [row[0] for row in M])[0]
        s = None if c.is_zero() else c.inverse()
        if s is None or not mat_scaled_product_eq(s, prep[inv[h]], prep[h], eye):
            raise InternalSoundnessError(
                "fiber action of an inverse is not a scalar inverse")
        out[h] = Mi if c.is_one() else mat_scale(s, Mi)
    return out


def _commutant_dim(mats, inverses) -> int:
    """Dimension of {T : T M_h = M_h T for all h}, as a character norm.

    X -> M_h X M_h^-1 is a genuine representation on matrices even when
    the action is projective; its character is tr(M_h) tr(M_h^-1), and the
    commutant is its fixed space, of dimension the average character.
    """
    total = sum(mat_trace(M) * mat_trace(inverses[h]) for h, M in mats.items())
    num, den = total.nums[0], total.den * len(mats)
    if not total.is_rational() or num % den or num < den:
        raise InternalSoundnessError(
            "character norm of the fiber action is not a positive integer")
    return num // den


def _cyclic_closure(v, mats):
    """Canonical column basis of the invariant subspace generated by v,
    and its unit rows (the pivots of the reduced rows).

    The action is projective, M_k M_h = c M_{hk} for a scalar c, so the
    orbit span {M_h v : h in H} is already invariant and, as M_e = 1,
    contains v.
    """
    sol = solve_linear([mat_vec(mats[h], v) for h in sorted(mats)])
    return transpose(sol.rows), sol.pivots


def _restrict_action(mats, prep, C, units):
    """Matrices of the action in the column basis C of an invariant space;
    prep[h] is M_h prepared.

    Row units[j] of C is the j-th unit vector, so the coordinates of M_h C
    are its rows at units: R_h is the unit rows of M_h times C, all h in
    one product.  C R_h = M_h C is checked for every h on the prepared
    matrices.
    """
    hs, d = sorted(mats), len(units)
    rows = mat_mul(tuple(mats[h][i] for h in hs for i in units), C)
    out = {h: rows[j * d:(j + 1) * d] for j, h in enumerate(hs)}
    order = prep[hs[0]].order
    Cp = mat_prepare(C, order)
    if not all(mat_products_eq(Cp, mat_prepare(out[h], order), prep[h], Cp) for h in hs):
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
    total = mat_mul(left, right)
    order = total[0][0].order
    P = mat_scale(cyc_one(order) / len(hs), total)
    prep = mat_prepare(P, order)
    if not mat_scaled_product_eq(1, prep, prep, prep):
        raise InternalSoundnessError("averaged projection is not idempotent")
    return P


def _split_rec(group: Group, mats, order: int, roots, out) -> bool:
    """Decompose the action h -> mats[h]; True when complete.

    Appends (action, certified) per piece; a piece stays uncertified when
    no eigenvector of any non-scalar M_h has a proper closure.  The
    matrices are tried in order, those commuting with every M_k first: a
    central M_h has eigenspaces that are sums of isotypic parts, so no
    closure inside one straddles two irreducibles.
    """
    k = len(next(iter(mats.values())))
    if k == 1:
        out.append((mats, True))
        return True
    prep = {h: mat_prepare(M, order) for h, M in mats.items()}
    inverses = _action_inverses(group, mats, prep)
    if _commutant_dim(mats, inverses) == 1:
        out.append((mats, True))
        return True
    if all(_is_scalar(M) for M in mats.values()):
        sub = {h: ((M[0][0],),) for h, M in sorted(mats.items())}
        out.extend((sub, True) for _ in range(k))
        return True
    nonscalar = sorted(h for h, M in mats.items() if not _is_scalar(M))
    def central(h):
        return all(mat_products_eq(prep[h], prep[g], prep[g], prep[h]) for g in nonscalar)
    for h0 in chain(filter(central, nonscalar), filterfalse(central, nonscalar)):
        M0 = mats[h0]
        m = group.orders[h0]
        P = M0
        for _ in range(m - 1):
            P = mat_mul(P, M0)
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
                ok_u = _split_rec(group, _restrict_action(mats, prep, C, units),
                                  order, roots, out)
                ok_k = _split_rec(group, _restrict_action(mats, prep, K, free),
                                  order, roots, out)
                return ok_u and ok_k
    out.append((mats, False))
    return False


# -- simple centre objects -------------------------------------------------


class VecSimple(Record):
    """One simple centre object: solved carrier plus bookkeeping."""

    __slots__ = ("class_rep", "hb", "total_dim")


class VecCentreResult(Record):
    __slots__ = ("omega", "simples", "complete", "certificates")

    @property
    def sum_of_squares(self):
        return sum(s.total_dim ** 2 for s in self.simples)

    @property
    def all_passed(self):
        return all(c.ok for c in self.certificates)


def _induce_simple(omega, class_rep, action):
    """Transport a simple fiber summand h -> R_h to a graded half-braiding.

    Grade g of the class of r takes the basis beta_{t_g}|r of the fiber
    summand, t_g the least z with z^-1 r z = g.  For x taking g to g2,
    h = t_g x t_g2^-1 centralizes r, and multiplicativity at r gives the
    block in closed form: beta'_x|g = zeta^(tau(r; h, t_g2) - tau(r; t_g, x))
    R_h, with tau = _twist.
    """
    group, twist = omega.group, omega.twist
    table, inv, conj = group.table, group.inverses, group.conj
    n = len(table)
    r = class_rep
    n0, field_order = omega.scalar_order, omega.field_order
    transversal = {}
    for z in range(n):
        transversal.setdefault(conj[z][r], z)
    d = len(action[r])
    dims = tuple(d if g in transversal else 0 for g in range(n))
    blocks = {}
    for x in range(n):
        for g, tg in sorted(transversal.items()):
            t2 = transversal[conj[x][g]]
            h = table[table[tg][x]][inv[t2]]
            t = (twist[r][h][t2] - twist[r][tg][x]) % n0
            blocks[(x, g)] = (mat_scale(zeta(field_order, t * (field_order // n0)),
                                        action[h]) if t else action[h])
    return HalfBraidingLin(omega, GradedObject(dims), blocks)


def intertwiner_dim(A: HalfBraidingLin, B: HalfBraidingLin) -> int:
    """Dimension of the space of grade-preserving maps T with
    T beta^A = beta^B T blockwise."""
    conj = A.omega.group.conj
    n = len(conj)
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
            g2 = conj[x][g]
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


def _over(v, den):
    """The numerators of v over den, a multiple of v.den: over one den,
    tuples of these order as the Fraction coefficients do."""
    return tuple(c * (den // v.den) for c in v.nums)


def centre_simples(omega: Cocycle3, cfg: GuardConfig = DEFAULT) -> VecCentreResult:
    """All simple centre objects of the graded backend, with certificates.

    The fibre action of each conjugacy class (_fibre_action) is split; the
    distinct summands, deduplicated by fiber character, are induced back
    to graded carriers and re-verified.  The group order, bounded by
    vec_max_group, is the only size guard: the cocycle check is quartic in
    |G|, and the induced simples and the battery grow with |G|.  It is
    checked after the group table and before the cocycle check.  A fiber
    piece the split cannot resolve flags the run incomplete.
    """
    _require_valid(omega, cfg)
    group = omega.group
    n = len(group.table)
    field_order = omega.field_order
    roots = roots_of_unity(field_order)
    classes = group.classes

    simples = []
    unresolved = 0
    complete = True
    verify_failures = []
    splits = {}  # classes with the same fibre action share its split
    for cls in classes:
        r = cls[0]
        mats = _fibre_action(omega, r)
        key = tuple(sorted(mats.items()))
        if key not in splits:
            pieces = []
            splits[key] = (_split_rec(group, mats, field_order, roots, pieces), pieces)
        split_ok, pieces = splits[key]
        if not split_ok:
            complete = False
            unresolved += sum(1 for _, cert in pieces if not cert)
        chars = [(sub, tuple((h, mat_trace(M)) for h, M in sorted(sub.items())))
                 for sub, cert in pieces if cert]
        den = lcm(*(t.den for _, char in chars for _, t in char))
        by_char = {}
        for sub, char in chars:
            by_char.setdefault(tuple((h, _over(t, den)) for h, t in char), []).append(sub)
        if split_ok:
            for same in by_char.values():
                if len(same) != len(same[0][r]):
                    raise InternalSoundnessError(
                        "fiber multiplicity does not match summand dimension")
            if sum(len(g[0][r]) ** 2 for g in by_char.values()) != len(mats):
                raise InternalSoundnessError(
                    "fiber sum rule failed on a complete split")
        for char in sorted(by_char):
            hb = _induce_simple(omega, r, by_char[char][0])
            errs = check_half_braiding(hb)
            if errs:
                verify_failures.append(f"class {r}: {errs[0]}")
                continue
            simples.append(VecSimple(r, hb, hb.carrier.total_dim))

    den = lcm(*(v.den for s in simples for x in range(n)
                for row in s.hb.block(x, s.class_rep) for v in row))

    def order_key(s):
        beta_at_rep = tuple(
            tuple(tuple(_over(v, den) for v in row) for row in s.hb.block(x, s.class_rep))
            for x in range(n))
        return (s.class_rep, s.total_dim, beta_at_rep)

    simples.sort(key=order_key)

    class_of = {c[0]: c for c in classes}
    support_detail = next((
        f"class {s.class_rep}" for s in simples
        if len({s.hb.carrier.dims[g] for g in class_of[s.class_rep]}) != 1
        or set(s.hb.carrier.support) - set(class_of[s.class_rep])), "")
    support_ok = not support_detail

    endo_detail = inter_detail = ""
    for i, s in enumerate(simples):
        if intertwiner_dim(s.hb, s.hb) != 1:
            endo_detail = f"simple {i} has endomorphism dimension != 1"
            break
        inter_detail = next((f"simples {i} and {j} share a nonzero intertwiner (dim {dim})"
                             for j, t in enumerate(simples[i + 1:], i + 1)
                             if s.class_rep == t.class_rep
                             for dim in [intertwiner_dim(s.hb, t.hb)] if dim), "")
        if inter_detail:
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
                    not endo_detail, endo_detail),
        Certificate("no intertwiners between distinct simples",
                    not inter_detail, inter_detail),
        Certificate("sum rule: squared dimensions add to |G|^2",
                    sum_ok, sum_detail),
        Certificate("enumeration complete", complete,
                    f"{unresolved} unresolved summands" if unresolved else ""),
    )
    return VecCentreResult(omega, tuple(simples), complete, certs)


# -- tensor, braiding, and the structure battery ----------------------------


class _Battery:
    """The packed state of one battery run: every simple packed once, at
    one width derived from the data, with the group's conjugation and
    twist tables and the packed roots of unity.  A tensor of two simples
    is never assembled: parts builds its Kronecker parts, and
    tensor_failures and naturality_failure read them directly."""

    def __init__(self, result: VecCentreResult):
        omega = result.omega
        self.group = omega.group
        self.w, self.n0 = omega.exponents, omega.scalar_order
        N = omega.field_order
        self.order = order = lcm(N, _entry_order(*(s.hb for s in result.simples)))
        self.step = N // self.n0 * (order // N)
        packs = [_pack(s.hb, order) for s in result.simples]
        # a tensor entry is a product of two simples' entries, so every unit,
        # multiplicativity and naturality difference below fits this bound
        norm = max((P.norm for P, _ in packs), default=0)
        den = max((P.den for P, _ in packs), default=1)
        m = max((sum(P.dims) for P, _ in packs), default=1) ** 2
        bound = 2 * m * (norm ** 4 + norm ** 3 + 1) * den ** 2
        self.bits = pack_bits(order, bound)
        self.M, self.roots = packed_modulus(order, self.bits, bound)
        self.scal = _twist_packs(omega, order, self.roots)
        self.packs = [_fill(P, prep, self.bits) for P, prep in packs]

    def modulus(self, bound: int) -> int:
        return packed_modulus(self.order, self.bits, bound)[0]

    def parts(self, A: _Pack, B: _Pack) -> dict:
        """The packed blocks of A (x) B between its components: (x, g, h)
        keys the block from V_g (x) W_h to V_{x^-1 g x} (x) W_{x^-1 h x},
        the Kronecker product of the factors' blocks scaled by three
        associator values."""
        w, n0, step, roots, M = self.w, self.n0, self.step, self.roots, self.M
        parts = {}
        for x, cx in enumerate(self.group.conj):
            wx, ab, bb = w[x], A.blocks[x], B.blocks[x]
            for g in A.support:
                gx, wg = cx[g], w[g]
                for h in B.support:
                    hx = cx[h]
                    s = roots[(wx[gx][hx] - wg[x][hx] + wg[h][x]) % n0 * step]
                    rows = tuple(tuple(u * b % M for u in srow for b in brow)
                                 for srow in [[a * s % M for a in arow]
                                              for arow in ab[g][0]]
                                 for brow in bb[h][0])
                    parts[(x, g, h)] = (rows, tuple(zip(*rows)))
        return parts

    def tensor_failures(self, A: _Pack, B: _Pack, parts: dict) -> list:
        """check_half_braiding's report on the tensor A (x) B, read off
        parts: the carrier is the graded tensor, whose components at grade
        k are the pairs (g, h) with g h = k, and beta_x takes (g, h) to
        (x^-1 g x, x^-1 h x) by the part (x, g, h).  A block is the direct
        sum of its parts, each invertible iff both factors' blocks are."""
        table, conj = self.group.table, self.group.conj
        pairs = sorted((table[g][h], g, h) for g in A.support for h in B.support)
        dims = [0] * len(table)
        for k, g, h in pairs:
            dims[k] += A.dims[g] * B.dims[h]
        supp = tuple(k for k in range(len(table)) if dims[k])
        report = _report(_grading_failures(conj, dims, supp))
        if report:
            return report
        index = {(g, h): c for c, (_, g, h) in enumerate(pairs)}
        P = _Pack([[parts[(x, g, h)] for _, g, h in pairs] for x in range(len(table))],
                  A.den * B.den, A.norm * B.norm, supp, dims,
                  lambda x, k: all(A.invertible(x, g) and B.invertible(x, h)
                                   for kk, g, h in pairs if kk == k),
                  [(k, c) for c, (k, _, _) in enumerate(pairs)],
                  [[index[(cx[g], cx[h])] for _, g, h in pairs] for cx in conj])
        return _axiom_failures(self.group, P, self.scal, self.modulus(P.bound()))

    def naturality_failure(self, A: _Pack, B: _Pack, ab: dict, ba: dict):
        """The first (g, h, x) where theta_ba c_{g,h} != c_{gx,hx} theta_ab,
        or None; c_{g,h}, the swap after A's block (h, g), has row (j, i')
        and column (i, j) in row-major layout.  Both sides lie over
        den(A)^2 den(B), so each entry is one difference mod M; the shapes
        agree as the blocks have their carriers' shapes."""
        conj = self.group.conj
        M = self.modulus(2 * max(A.dims) * max(B.dims) * A.norm ** 2 * B.norm)
        braids = {}
        for g in A.support:
            for h in B.support:
                db, rows = B.dims[h], []
                for j in range(db):
                    for r in A.blocks[h][g][0]:
                        row = [0] * (len(r) * db)
                        row[j::db] = r
                        rows.append(tuple(row))
                braids[(g, h)] = (tuple(rows), tuple(zip(*rows)))
        for (g, h), (_, ccols) in braids.items():
            g2 = conj[h][g]
            for x, cx in enumerate(conj):
                tcols = ab[(x, g, h)][1]
                for lrow, rrow in zip(ba[(x, h, g2)][0], braids[(cx[g], cx[h])][0]):
                    if any((sum(map(mul, lrow, ccol)) - sum(map(mul, rrow, tcol))) % M
                           for ccol, tcol in zip(ccols, tcols)):
                        return g, h, x
        return None


def _pair_failures(bat: _Battery, i: int, j: int):
    """Hexagon 2, braid invertibility and naturality on the ordered pairs
    (i, j) and (j, i), which share the packed Kronecker parts of their two
    tensors.

    Yields (check, (a, b), detail) for each check that fails on an ordered
    pair (a, b), with check one of "hex2", "inv", "nat".
    """
    ordered = sorted({(i, j), (j, i)})
    packs = bat.packs
    parts = {(a, b): bat.parts(packs[a], packs[b]) for a, b in ordered}
    for a, b in ordered:
        A, B = packs[a], packs[b]
        errs = bat.tensor_failures(A, B, parts[(a, b)])
        if errs:
            yield "hex2", (a, b), f"pair ({a}, {b}): {errs[0]}"
        # a braid component is invertible iff the block it swaps is
        inv_w = next(((g, h) for g in A.support for h in B.support
                      if not A.invertible(h, g)), None)
        if inv_w:
            yield "inv", (a, b), "pair ({}, {}) at (g={}, h={})".format(a, b, *inv_w)
        nat_w = bat.naturality_failure(A, B, parts[(a, b)], parts[(b, a)])
        if nat_w:
            g, h, x = nat_w
            yield "nat", (a, b), f"pair ({a}, {b}) at (x={x}, g={g}, h={h})"


def _raw_scalar_packs(bat: _Battery, omega: Cocycle3) -> list:
    """scal[x][y][g]: the pack of omega(g,x,y)^-1 omega(x,gx,y)
    omega(x,y,gxy)^-1, computed in the field from the raw associator
    values, not from _twist."""
    table, conj, order, w = bat.group.table, bat.group.conj, bat.order, omega.exponents
    exps = {zeta(order, k): k for k in range(order)}
    memo = {}  # the scalar depends on the three exponents only

    def pack(g, x, y):
        gx, gxy = conj[x][g], conj[table[x][y]][g]
        key = (w[g][x][y], w[x][gx][y], w[x][y][gxy])
        if key not in memo:
            v = (omega.value(g, x, y).inverse() * omega.value(x, gx, y)
                 * omega.value(x, y, gxy).inverse()).promote(order)
            if v not in exps:
                raise InternalSoundnessError(
                    "associator scalar is not a root of unity of the field")
            memo[key] = bat.roots[exps[v]]
        return memo[key]
    G = range(len(table))
    return [[[pack(g, x, y) for g in G] for y in G] for x in G]


def certify_centre_structure(result: VecCentreResult) -> tuple:
    """Braided-structure battery over the computed simples.

    Exact checks: the associator's pentagon (the cocycle's problems) and
    triangle, the first hexagon as multiplicativity against raw associator
    values, the second hexagon as the tensor of any two simples being a
    half-braiding again, and invertibility and the centre-morphism
    property of the braiding.  The last two lines, strong monoidality and
    faithfulness of the projection to graded carriers, hold by
    construction and are not checks: a tensor's carrier is built as the
    graded tensor of its factors' carriers, and a centre morphism is its
    underlying linear map.

    Every check runs on every (x, y, g), every grade and every ordered
    pair of simples, on blocks packed once at one width (_Battery).  The
    first hexagon is one fused multiplicativity pass per simple, with the
    scalars computed from the raw associator values.  Each unordered pair
    {i, j} is handled once: the packed Kronecker parts of the tensors for
    (i, j) and (j, i) are built once; each tensor is checked on them like
    check_half_braiding, by the unit check and the same fused pass, part
    by part, and the same parts serve as theta_ab and theta_ba of one
    naturality pass per ordered pair.  A failing certificate names the
    least failing ordered pair, as a scan in pair order would.
    """
    omega = result.omega
    n, e = len(omega.group.table), omega.group.identity
    simples = result.simples

    pentagon = omega.problems
    pent_cert = Certificate("associator pentagon (3-cocycle identity)",
                            not pentagon, pentagon[0] if pentagon else "")

    tri_bad = [(a, b) for a in range(n) for b in range(n)
               if omega.exponents[a][e][b] != 0]
    tri_cert = Certificate("unit triangle (normalization at the unit)",
                           not tri_bad,
                           f"fails at {tri_bad[0]}" if tri_bad else "")

    bat = _Battery(result)
    raw = _raw_scalar_packs(bat, omega)
    hex1_bad = None
    for idx, P in enumerate(bat.packs):
        shape = next(_shape_failures(simples[idx].hb), None)
        if shape:
            hex1_bad = f"simple {idx}: {shape}"
            break
        fail = next(_product_failures(bat.group, P, raw, bat.modulus(P.bound())),
                    None)
        if fail:
            x, y, g = fail
            hex1_bad = f"simple {idx} at (x={x}, y={y}, g={g})"
            break
    hex1_cert = Certificate(
        "hexagon 1 (multiplicativity against raw associator values)",
        hex1_bad is None, hex1_bad or f"{len(simples)} simples")

    # the least failing ordered pair is reported, as a scan in order would
    bad = {"hex2": [], "inv": [], "nat": []}
    for i in range(len(simples)):
        for j in range(i, len(simples)):
            for check, pair, detail in _pair_failures(bat, i, j):
                bad[check].append((pair, detail))
    hex2_bad, braid_inv_bad, nat_bad = (
        min(bad[k])[1] if bad[k] else None for k in ("hex2", "inv", "nat"))
    pairs = len(simples) ** 2
    hex2_cert = Certificate(
        "hexagon 2 (tensor of two simples is again a half-braiding)",
        hex2_bad is None, hex2_bad or f"{pairs} ordered pairs")
    braid_inv_cert = Certificate("braiding components invertible",
                                 braid_inv_bad is None, braid_inv_bad or "")
    nat_cert = Certificate(
        "braiding naturality (centre-morphism property, blockwise)",
        nat_bad is None, nat_bad or f"{pairs} ordered pairs")

    mono_cert = Certificate(
        "projection strong monoidality (tensor carrier is the graded tensor)",
        True, "")

    faith_cert = Certificate(
        "projection faithfulness (morphisms are underlying linear maps)",
        True, "identity-on-morphisms inclusion")

    return (pent_cert, tri_cert, hex1_cert, hex2_cert, braid_inv_cert,
            nat_cert, mono_cert, faith_cert)
