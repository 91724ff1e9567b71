"""Values that fix Vec_G^omega and the half-braiding axiom check: the
group and the 3-cocycle, graded carriers, half-braidings on them, and the
scalar half-braiding search, the oracle the linear backend's simples are
checked against.

Vec_G^omega is fixed by the pair (G, omega), and so is every table below:
a Group checks its multiplication table once and keeps the identity,
inverses, conjugation table, classes and element orders; a Cocycle3
holds its Group and keeps its check_cocycle report and twist table.
Each is computed on first use, and every function reads it from there.

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
the finite-order maps met while splitting fibres therefore lie in the
finite searchable set mu_N.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain
from math import lcm
from operator import mul

from .config import DEFAULT, Budget, GuardConfig, InternalSoundnessError, _report
from .cyclo import (
    CycNumber, mat_prepare, pack_bits, packed_modulus, solve_linear, zeta,
)
from .fincat import _schedule, _search
from .monoidal import group_table_report, identity_of
from .record import Record


# -- the group and the 3-cocycle ------------------------------------------


class Group(Record):
    """A finite group given by its multiplication table.

    problems is group_table_report's report, computed on first use, as is
    every other fact; those hold only when problems is empty: the
    identity, the inverses, conj[x][g] = x^-1 g x, the conjugacy classes
    (sorted tuples, listed by their least element) and the element orders.
    """

    __slots__ = ("table", "__dict__")

    def __init__(self, table):
        super().__init__(tuple(map(tuple, table)))

    @cached_property
    def problems(self) -> tuple:
        return tuple(group_table_report(self.table))

    @cached_property
    def identity(self) -> int:
        return identity_of(self.table)

    @cached_property
    def inverses(self) -> tuple:
        e, G = self.identity, range(len(self.table))
        return tuple(next(b for b in G if self.table[a][b] == e) for a in G)

    @cached_property
    def conj(self) -> tuple:
        t, inv, G = self.table, self.inverses, range(len(self.table))
        return tuple(tuple(t[t[inv[x]][g]][x] for g in G) for x in G)

    @cached_property
    def classes(self) -> tuple:
        seen, out = set(), []
        for g, orbit in enumerate(zip(*self.conj)):  # column g: x^-1 g x over x
            if g not in seen:
                out.append(tuple(sorted(set(orbit))))
                seen.update(orbit)
        return tuple(out)

    @cached_property
    def orders(self) -> tuple:
        def order(g):
            k, acc = 1, g
            while acc != self.identity:
                acc, k = self.table[acc][g], k + 1
            return k
        return tuple(map(order, range(len(self.table))))

    @property
    def exponent(self) -> int:
        return lcm(*self.orders)

    def centralizer(self, g: int) -> tuple:
        return tuple(h for h, ch in enumerate(self.conj) if ch[g] == g)


def group_centre(table) -> tuple:
    """The centre by a direct scan of the table, apart from Group: the
    oracle for which grades carry a centre object at the trivial cocycle."""
    n = len(table)
    return tuple(g for g in range(n)
                 if all(table[g][x] == table[x][g] for x in range(n)))


class Cocycle3(Record):
    """A normalized 3-cocycle on a Group, stored by exponents of a root of
    unity.

    exponents[a][b][c] is the exponent at (a, b, c) of the primitive
    scalar_order-th root; value() returns the exact field element.  The
    constructor only normalizes residues; problems is check_cocycle's
    report, and twist the exponent table of multiplicativity, each
    computed on first use.
    """

    __slots__ = ("group", "scalar_order", "exponents", "__dict__")

    def __init__(self, group: Group, scalar_order, exponents):
        if scalar_order < 1:
            raise ValueError("scalar order must be a positive integer")
        super().__init__(group, scalar_order,
                         tuple(tuple(tuple(v % scalar_order for v in row) for row in plane)
                               for plane in exponents))

    @cached_property
    def problems(self) -> tuple:
        return tuple(check_cocycle(self))

    @cached_property
    def field_order(self) -> int:
        """Working cyclotomic order: even, large enough for all eigenvalues."""
        return 2 * self.group.exponent * self.scalar_order

    @cached_property
    def twist(self) -> tuple:
        """twist[g][x][y]: the exponent t in beta_{xy}|g = zeta^t (beta_y .
        beta_x).

        Derived by whiskering the carrier past the two tensor factors in the
        skeleton, where every associator component is the scalar omega value.
        """
        t, conj, w = self.group.table, self.group.conj, self.exponents
        G = range(len(t))
        return tuple(tuple(tuple((-w[g][x][y] + w[x][conj[x][g]][y]
                                  - w[x][y][conj[t[x][y]][g]]) % self.scalar_order
                                 for y in G) for x in G) for g in G)

    def value(self, a: int, b: int, c: int) -> CycNumber:
        return zeta(self.scalar_order, self.exponents[a][b][c])


def trivial_cocycle(group: Group, scalar_order: int = 1) -> Cocycle3:
    n = len(group.table)
    zeros = tuple(tuple((0,) * n for _ in range(n)) for _ in range(n))
    return Cocycle3(group, scalar_order, zeros)


def z2_nontrivial_cocycle() -> Cocycle3:
    """The nontrivial class on Z2: value -1 at (a, a, a), 1 elsewhere."""
    return Cocycle3(Group(((0, 1), (1, 0))), 2, [[[0, 0], [0, 0]], [[0, 0], [0, 1]]])


def check_cocycle(omega: Cocycle3) -> list:
    """Normalization and the exhaustive additive cocycle identity.

    Empty list iff omega is a normalized 3-cocycle; each failure names the
    offending tuple of group elements.  omega.problems keeps the report.
    """
    group = omega.group
    if group.problems:
        return ["group table invalid: " + group.problems[0]]
    table = group.table
    n = len(table)
    w = omega.exponents
    if len(w) != n or any(len(p) != n or any(len(r) != n for r in p) for p in w):
        return ["exponent table is not |G| x |G| x |G|"]
    e, n0, G = group.identity, omega.scalar_order, range(n)
    return _report(
        (f"not normalized at ({a}, {b}, {c})" for a in G for b in G for c in G
         if e in (a, b, c) and w[a][b][c]),
        (f"cocycle identity fails at (a={a}, b={b}, c={c}, d={d})"
         for a in G for b in G for c in G for d in G
         if (w[b][c][d] - w[table[a][b]][c][d] + w[a][table[b][c]][d]
             - w[a][b][table[c][d]] + w[a][b][c]) % n0))


def _require_valid(omega: Cocycle3, cfg: GuardConfig) -> None:
    """Refuse a bad group table, then an oversized group, then a bad
    cocycle: the size guard runs before the quartic cocycle check."""
    if omega.group.problems:
        raise ValueError("not a group table: " + omega.group.problems[0])
    cfg.bound("group order", len(omega.group.table), "vec_max_group")
    if omega.problems:
        raise ValueError("invalid 3-cocycle: " + omega.problems[0])


# -- graded carriers and half-braidings ------------------------------------


class GradedObject(Record):
    """Dimension vector over the group elements."""

    __slots__ = ("dims", "__dict__")

    @cached_property
    def support(self):
        return tuple(g for g, d in enumerate(self.dims) if d > 0)

    @property
    def total_dim(self):
        return sum(self.dims)


def delta_object(n: int, g: int) -> GradedObject:
    return GradedObject(tuple(int(h == g) for h in range(n)))


class HalfBraidingLin(Record):
    """Half-braiding on a graded carrier, one cyclotomic block per pair.

    blocks maps (x, g) with dim V_g > 0 to the matrix of
    beta_x|g: V_g -> V_{x^-1 g x}, rows indexing the target grade.
    """

    __slots__ = ("omega", "carrier", "blocks")

    def __init__(self, omega: Cocycle3, carrier: GradedObject, blocks):
        super().__init__(omega, carrier, {k: tuple(map(tuple, m)) for k, m in blocks.items()})

    def block(self, x: int, g: int):
        return self.blocks[(x, g)]

    def serialize(self):
        items = tuple((key, tuple(tuple(v.coeffs for v in row) for row in mat))
                      for key, mat in sorted(self.blocks.items()))
        return (self.omega.field_order, self.carrier.dims, items)


def _entry_order(*hbs) -> int:
    """lcm of the field orders and of the orders of every block entry."""
    return lcm(*(hb.omega.field_order for hb in hbs),
               *(v.order for hb in hbs for blk in hb.blocks.values()
                 for row in blk for v in row))


class _Pack:
    """A half-braiding's blocks packed at one width: blocks[x][g] is (rows,
    cols) of beta_x|g over den.  norm bounds each entry's numerator L1
    norm, and invertible(x, g) decides whether block (x, g) is
    invertible."""

    __slots__ = ("blocks", "den", "norm", "support", "dims", "invertible")

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            setattr(self, name, value)

    def bound(self) -> int:
        """L1 bound of the difference in a unit or multiplicativity entry."""
        return max(self.dims) * self.norm ** 2 + self.den * self.norm + self.den


@lru_cache(maxsize=1024)
def _invertible(blk) -> bool:
    """Whether blk is square and invertible, cached as blocks repeat values."""
    return all(len(row) == len(blk) for row in blk) and solve_linear(blk).rank == len(blk)


def _pack(hb: HalfBraidingLin, order: int) -> tuple:
    """(pack, prepared): hb's blocks prepared at the order over one
    denominator, the lcm of the entries' (promotion keeps it); the pack's
    blocks are filled by _fill at a width."""
    den = lcm(*(v.den for blk in hb.blocks.values() for row in blk for v in row))
    prep = {key: mat_prepare(blk, order, den) for key, blk in hb.blocks.items()}
    return _Pack(None, den, max((P.norm for P in prep.values()), default=0),
                 hb.carrier.support, hb.carrier.dims,
                 lambda x, g: _invertible(hb.block(x, g))), prep


def _fill(pack: _Pack, prep: dict, bits: int) -> _Pack:
    n = len(pack.dims)
    pack.blocks = [[None] * n for _ in range(n)]
    for (x, g), P in prep.items():
        pack.blocks[x][g] = P.packed(bits)
    return pack


class _Products:
    """A packed half-braiding's tables mod M, blocks of sound shapes.  Each
    lists one block's entries per grade g of the support, row-major:
    prod[x|G| + y] of beta_y|gx beta_x|g, target[z] of den beta_z|g, and
    grades[z] their g.  unit[g] is (beta_e|g, den I)."""

    __slots__ = ("support", "dims", "blocks", "grades", "target", "prod", "unit")

    def __init__(self, P: _Pack, group: Group, M: int):
        supp, dims, den, blocks, conj = P.support, P.dims, P.den, P.blocks, group.conj
        self.support, self.dims, self.blocks = supp, dims, blocks
        self.grades = [tuple(g for g in supp for _ in range(dims[cz[g]] * dims[g]))
                       for cz in conj]
        self.target = [tuple(den * v % M for g in supp for row in bz[g][0] for v in row)
                       for bz in blocks]
        self.prod = [tuple(sum(map(mul, row, col)) % M
                           for g in supp for row in by[cx[g]][0] for col in bx[g][1])
                     for cx, bx in zip(conj, blocks) for by in blocks]
        self.unit = {g: (tuple(chain.from_iterable(blocks[group.identity][g][0])),
                         tuple(den * (i == j) for i in range(dims[g]) for j in range(dims[g])))
                     for g in supp}


def _product_failures(group: Group, T: _Products, scal, M):
    """The fused multiplicativity pass: yield each (x, y, g), in scan
    order, where s beta_y|gx beta_x|g != beta_xy|g mod M at some entry,
    s = scal[x][y][g] the pack of a root of unity."""
    n = len(group.table)
    for x, (tx, sx) in enumerate(zip(group.table, scal)):
        for y, (xy, sxy) in enumerate(zip(tx, sx)):
            failed = None
            for g, p, t in zip(T.grades[xy], T.prod[x * n + y], T.target[xy]):
                if g != failed and (sxy[g] * p - t) % M:
                    failed = g
                    yield x, y, g


def _axiom_failures(units, singular, mult) -> list:
    """check_half_braiding's report from lazy witnesses in scan order: the
    grades whose unit block is not the identity, the singular blocks (x,
    g) and the (x, y, g) where multiplicativity fails.  With unit blocks
    the identity, multiplicativity at (x, x^-1, g) gives every block a
    left inverse, so singular is read only to name blocks on a failure."""
    report = _report(f"unit block at grade {g} is not the identity" for g in units)
    mult = [] if report else _report(
        "multiplicativity fails at (x={}, y={}, g={})".format(*w) for w in mult)
    if not (report or mult):
        return []
    return _report(chain(report, ("block ({}, {}) is not invertible".format(*b)
                                  for b in singular)), mult)


def check_half_braiding(hb: HalfBraidingLin) -> list:
    """Full axiom pass: shapes, unit, invertibility, multiplicativity.

    Multiplicativity is checked for every pair (x, y) and every supported
    grade, never only on generators, by one fused pass over the table of
    block products (_product_failures); invertibility follows from it.
    """
    omega, group = hb.omega, hb.omega.group
    n = len(group.table)
    dims = hb.carrier.dims
    if len(dims) != n or any(d < 0 for d in dims):
        return ["carrier dimension vector does not match the group"]
    supp = hb.carrier.support
    report = _report(_grading_failures(group.conj, dims, supp))
    if report:
        return report
    want, have = {(x, g) for x in range(n) for g in supp}, set(hb.blocks)
    missing, extra = sorted(want - have), sorted(have - want)
    if missing or extra:
        return ([f"missing blocks: {missing[:4]}"] if missing else []) + (
            [f"unexpected blocks: {extra[:4]}"] if extra else [])
    report = _report(_shape_failures(hb))
    if report:
        return report
    order = _entry_order(hb)
    P, prep = _pack(hb, order)
    bits = pack_bits(order, P.bound())
    M, roots = packed_modulus(order, bits, P.bound())
    T = _Products(_fill(P, prep, bits), group, M)
    twist, step, G = omega.twist, order // omega.scalar_order, range(n)
    scal = [[[roots[twist[g][x][y] * step] for g in G] for y in G] for x in G]
    return _axiom_failures(
        (g for g in supp if any((p - s) % M for p, s in zip(*T.unit[g]))),
        ((x, g) for x in G for g in supp if not P.invertible(x, g)),
        _product_failures(group, T, scal, M))


def _shape_failures(hb: HalfBraidingLin):
    """The blocks (x, g) not of shape dim V_{x^-1 g x} x dim V_g."""
    dims, conj = hb.carrier.dims, hb.omega.group.conj
    return (f"block ({x}, {g}) has the wrong shape"
            for (x, g), mat in sorted(hb.blocks.items())
            if len(mat) != dims[conj[x][g]] or any(len(row) != dims[g] for row in mat))


def _grading_failures(conj, dims, supp):
    return (f"grading mismatch: dim {dims[g]} at grade {g} but dim "
            f"{dims[cx[g]]} at {cx[g]} (x={x})"
            for x, cx in enumerate(conj) for g in supp if dims[g] != dims[cx[g]])


# -- the scalar half-braiding search ----------------------------------------


def half_braiding_space(carrier: GradedObject, omega: Cocycle3,
                        cfg: GuardConfig = DEFAULT) -> tuple:
    """Every half-braiding on a multiplicity-free carrier, sorted.

    The group and the cocycle are refused as in centre_simples.  The
    carrier must be multiplicity-free (every graded dimension 0 or 1);
    a larger one raises ValueError.  The grading constraint is decided
    first, and () returned when it rules every solution out.  Otherwise
    all blocks are scalars, and every solution scalar is a root of unity
    in the working field, so one _search over the exponents in Z/N of
    the blocks (x, g), each trying every residue, is complete: each
    exponent relation of multiplicativity is checked once its last block
    is set.
    """
    _require_valid(omega, cfg)
    table = omega.group.table
    n = len(table)
    dims = carrier.dims
    if len(dims) != n or any(d < 0 for d in dims):
        raise ValueError("carrier dimension vector does not match the group")
    if any(d > 1 for d in dims):
        raise ValueError("the scalar search takes only multiplicity-free "
                         "carriers (every graded dimension 0 or 1)")
    conj, twist = omega.group.conj, omega.twist
    supp = carrier.support
    if any(dims[conj[x][g]] != dims[g] for x in range(n) for g in supp):
        return ()

    N = omega.field_order
    scale = N // omega.scalar_order
    keys = sorted((x, g) for x in range(n) for g in supp)
    # beta_xy|g = zeta^t beta_y|x^-1gx beta_x|g, as exponents (x|g, y|x^-1gx, xy|g, t)
    rels = [((x, g), (y, conj[x][g]), (table[x][y], g), twist[g][x][y] * scale)
            for x in range(n) for y in range(n) for g in supp]
    exps, out = {}, []

    def failures(checks):
        return (r for r in checks if (exps[r[0]] + exps[r[1]] + r[3] - exps[r[2]]) % N)

    def emit():
        hb = HalfBraidingLin(omega, carrier, {k: ((zeta(N, e),),) for k, e in exps.items()})
        errs = check_half_braiding(hb)
        if errs:
            raise InternalSoundnessError(
                "scalar search produced an invalid half-braiding: " + errs[0])
        out.append(hb)

    _search(exps, keys, lambda k: range(N), _schedule(keys, ((r, r[:3]) for r in rels)),
            failures, Budget(cfg.max_branch, "scalar half-braiding search"), emit)
    out.sort(key=HalfBraidingLin.serialize)
    return tuple(out)
