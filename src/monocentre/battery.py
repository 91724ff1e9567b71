"""The braided-structure battery over the simple centre objects of
Vec_G^omega that veck computes.

certify_centre_structure checks the associator's pentagon and triangle,
both hexagons, and invertibility and naturality of the braiding, on every
(x, y, g), every grade and every ordered pair of simples.  It reads only
the VecCentreResult; the half-braiding packs and the fused
multiplicativity pass it runs on are graded's.  It is a module of its
own, apart from the split and the induction in veck, so that importing
veck alone does not compile it.
"""

from __future__ import annotations

from math import lcm
from operator import mul

from .config import InternalSoundnessError, _report
from .cyclo import pack_bits, packed_modulus, zeta
from .graded import (
    Cocycle3, _Pack, _axiom_failures, _entry_order, _fill, _grading_failures, _pack,
    _product_failures, _shape_failures, _twist_packs,
)
from .record import Certificate
from .veck import VecCentreResult


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
