"""The braided-structure battery over the simple centre objects of
Vec_G^omega that veck computes: certify_centre_structure.  It reads only
the VecCentreResult, and is a module of its own so that importing veck
alone does not compile it.

A tensor A (x) B of two simples is never assembled.  Its block from
V_g (x) W_h to V_gx (x) W_hx (gx = x^-1 g x) is the part sigma(x, g, h)
A_x|g (x) B_x|h, sigma a root of unity read off three associator values,
so by the mixed-product rule (P (x) Q)(R (x) S) = PR (x) QS each entry
of a product of two parts is sigma sigma' times an entry of A_y|gx A_x|g
times one of B_y|hx B_x|h.  Each simple's blocks are packed once, at one
width, with this table of products (_Products), and each check on a pair
reads its entries one by one from the two tables.  Each difference so
checked is the assembled tensor's difference entry times a root of unity,
which keeps its L1 norm, so the bound of the tensor's entries (_Battery)
decides it exactly mod M.
"""

from __future__ import annotations

from itertools import groupby
from math import lcm
from operator import itemgetter

from .config import InternalSoundnessError
from .cyclo import pack_bits, packed_modulus, zeta
from .graded import (
    Cocycle3, _Products, _axiom_failures, _entry_order, _fill, _grading_failures, _pack,
    _product_failures, _shape_failures,
)
from .record import Certificate
from .veck import VecCentreResult


def _part_exponents(omega: Cocycle3, order: int) -> list:
    """sig[x][g][h]: the exponent, at the order, of the root of unity
    omega(x, gx, hx) omega(g, x, hx)^-1 omega(g, h, x) that scales the
    part (x, g, h) of every tensor of two simples."""
    w, conj, step = omega.exponents, omega.group.conj, order // omega.scalar_order
    G = range(len(conj))
    return [[[(w[x][cx[g]][cx[h]] - w[g][x][cx[h]] + w[g][h][x]) * step % order
              for h in G] for g in G] for x, cx in enumerate(conj)]


class _Battery:
    """The packed state of one battery run: every simple's _Products at
    one width derived from the data, and noninv[a] the set of (x, g) whose
    block is singular in simple a; the part exponents and the packed
    roots of unity."""

    def __init__(self, result: VecCentreResult):
        omega = result.omega
        self.group, self.twist = omega.group, omega.twist
        self.order = order = lcm(omega.field_order, _entry_order(*(s.hb for s in result.simples)))
        self.step = order // omega.scalar_order
        packs = [_pack(s.hb, order) for s in result.simples]
        # a tensor entry is a product of two simples' entries, so every unit,
        # multiplicativity and naturality difference below fits this bound
        norm = max((P.norm for P, _ in packs), default=0)
        den = max((P.den for P, _ in packs), default=1)
        m = max((sum(P.dims) for P, _ in packs), default=1) ** 2
        bound = 2 * m * (norm ** 4 + norm ** 3 + 1) * den ** 2
        bits = pack_bits(order, bound)
        self.M, self.roots = packed_modulus(order, bits, bound)
        self.sig = _part_exponents(omega, order)
        self.tables = [_Products(_fill(P, prep, bits), self.group, self.M)
                       for P, prep in packs]
        self.noninv = [{(x, g) for x in range(len(self.sig)) for g in P.support
                        if not P.invertible(x, g)} for P, _ in packs]

    def multiplicativity(self) -> dict:
        """{(a, b): (x, y, k)}: the first failure in scan order of the
        tensor's multiplicativity, for each ordered pair where it fails.

        At (x, y) and the component (g, h) of grade k = g h, zeta^t sig(y,
        gx, hx) sig(x, g, h) PA (x) PB = den sig(xy, g, h) A_xy|g (x)
        B_xy|h, t the twist at k and PA, PB the factors' products: checked
        over sig(xy, g, h), every entry of A's against every one of B's.
        """
        table, conj, twist = self.group.table, self.group.conj, self.twist
        roots, sig, M, order, step = self.roots, self.sig, self.M, self.order, self.step
        tables, n = self.tables, len(table)
        first = {}
        for x, cx in enumerate(conj):
            tx, sx = table[x], sig[x]
            for y, sy in enumerate(sig):
                xy, xn, sxy = tx[y], x * n + y, sig[tx[y]]
                R = [[roots[(twist[tg[h]][x][y] * step + sy[cx[g]][cx[h]] + sx[g][h]
                             - sxy[g][h]) % order] for h in range(n)]
                     for g, tg in enumerate(table)]
                col = [(b, h, q, t) for b, B in enumerate(tables)
                       for h, q, t in zip(B.grades[xy], B.prod[xn], B.target[xy])]
                hits = {}
                for a, A in enumerate(tables):
                    for g, p, s in zip(A.grades[xy], A.prod[xn], A.target[xy]):
                        Rg, tg = R[g], table[g]
                        for b, h in [(b, h) for b, h, q, t in col
                                     if (Rg[h] * p * q - s * t) % M]:
                            hits[a, b] = min(hits.get((a, b), tg[h]), tg[h])
                for pair, k in hits.items():
                    first.setdefault(pair, (x, y, k))
        return first

    def tensor_failure(self, a: int, b: int, mult):
        """The first line of check_half_braiding's report on the tensor of
        simples a and b, or None; mult is where its multiplicativity first
        fails, or None.  The carrier's grade k holds the components (g, h)
        with g h = k; a block is the direct sum of its parts, each
        invertible iff both factors' blocks are."""
        A, B, M, u = self.tables[a], self.tables[b], self.M, self.sig[self.group.identity]
        na, nb = self.noninv[a], self.noninv[b]
        table, conj, roots = self.group.table, self.group.conj, self.roots
        comps = sorted((table[g][h], g, h) for g in A.support for h in B.support)
        dims = [0] * len(table)
        for k, g, h in comps:
            dims[k] += A.dims[g] * B.dims[h]
        supp = tuple(k for k, d in enumerate(dims) if d)
        grading = next(_grading_failures(conj, dims, supp), None)
        if grading:
            return grading
        grades = [(k, [(g, h) for _, g, h in c]) for k, c in groupby(comps, itemgetter(0))]
        report = _axiom_failures(
            (k for k, gh in grades if any(  # sigma A_e|g (x) B_e|h = den I
                (roots[u[g][h]] * p * q - s * t) % M for g, h in gh
                for p, s in zip(*A.unit[g]) for q, t in zip(*B.unit[h]))),
            ((x, k) for x in range(len(table)) for k, gh in grades
             if any((x, g) in na or (x, h) in nb for g, h in gh)),
            () if mult is None else (mult,))
        return report[0] if report else None

    def naturality_failure(self):
        """The witness "pair (a, b) at (x, g, h)" of the least ordered pair
        and its first (g, h, x) where theta_ba c_{g,h} != c_{gx,hx}
        theta_ab, or None.

        c_{g,h} is the swap after A's block (h, g), so the two sides are
        B_x|h (x) (A_x|gh A_h|g) and B_x|h (x) (A_hx|gx A_x|g) times
        sig(x, h, gh) and sig(x, g, h).  Over the latter, each entry is one
        of B_x|h times one of D = zeta^s PA[h][x] - PA[x][hx], s the
        exponents' difference, and is 0 where D's is.
        """
        table, conj = self.group.table, self.group.conj
        roots, sig, M, order, n = self.roots, self.sig, self.M, self.order, len(table)
        for a, A in enumerate(self.tables):
            nonzero = []  # (g, h, x, c): an entry c of D at g that is not 0 mod M
            for h, ch in enumerate(conj):
                for x, sx in enumerate(sig):
                    # PA[h][x] and PA[x][hx] both have the layout grades[hx]
                    nonzero += [(g, h, x, c) for g, p, q in zip(
                        A.grades[table[h][x]], A.prod[h * n + x], A.prod[x * n + conj[x][h]])
                        for c in [(roots[(sx[h][ch[g]] - sx[g][h]) % order] * p - q) % M] if c]
            nonzero.sort()
            for b, B in enumerate(self.tables):
                for g, h, x, c in nonzero:
                    if h in B.support and any(c * q % M for row in B.blocks[x][h][0] for q in row):
                        return f"pair ({a}, {b}) at (x={x}, g={g}, h={h})"
        return None


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

    Every check runs entry by entry, on every (x, y, g), every grade and
    every ordered pair of simples, reading the simples' tables of products
    (_Products): hexagon 1 is check_half_braiding's multiplicativity pass
    (_product_failures) with the raw associator values in place of the
    twist; hexagon 2 reports each tensor as check_half_braiding would
    (_axiom_failures); naturality reads the same products.  A failing
    certificate names the least failing ordered pair and the witness a
    scan of it finds first.
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
    for idx, A in enumerate(bat.tables):
        shape = next(_shape_failures(simples[idx].hb), None)
        fail = None if shape else next(_product_failures(omega.group, A, raw, bat.M), None)
        if shape or fail:
            hex1_bad = f"simple {idx}: {shape}" if shape else (
                "simple {} at (x={}, y={}, g={})".format(idx, *fail))
            break
    hex1_cert = Certificate(
        "hexagon 1 (multiplicativity against raw associator values)",
        hex1_bad is None, hex1_bad or f"{len(simples)} simples")

    ordered = [(a, b) for a in range(len(simples)) for b in range(len(simples))]
    mult = bat.multiplicativity()
    hex2_bad = next((f"pair ({a}, {b}): {err}" for a, b in ordered
                     for err in [bat.tensor_failure(a, b, mult.get((a, b)))] if err), None)
    # a braid component is invertible iff the block it swaps is
    braid_inv_bad = next(("pair ({}, {}) at (g={}, h={})".format(a, b, g, h)
                          for a, b in ordered for g in bat.tables[a].support
                          for h in bat.tables[b].support
                          if (h, g) in bat.noninv[a]), None)
    nat = bat.naturality_failure()
    pairs = len(simples) ** 2
    hex2_cert = Certificate(
        "hexagon 2 (tensor of two simples is again a half-braiding)",
        hex2_bad is None, hex2_bad or f"{pairs} ordered pairs")
    braid_inv_cert = Certificate("braiding components invertible",
                                 braid_inv_bad is None, braid_inv_bad or "")
    nat_cert = Certificate(
        "braiding naturality (centre-morphism property, blockwise)",
        nat is None, nat or f"{pairs} ordered pairs")

    mono_cert = Certificate(
        "projection strong monoidality (tensor carrier is the graded tensor)",
        True, "")
    faith_cert = Certificate(
        "projection faithfulness (morphisms are underlying linear maps)",
        True, "identity-on-morphisms inclusion")

    return (pent_cert, tri_cert, hex1_cert, hex2_cert, braid_inv_cert,
            nat_cert, mono_cert, faith_cert)
