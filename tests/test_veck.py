"""Frozen-oracle and property tests for the graded linear backend."""

import pathlib
import re
import subprocess
import sys
from itertools import permutations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monocentre import battery, veck
from monocentre.config import GuardConfig, InternalSoundnessError, SizeGuardExceeded
from monocentre.graded import (
    Cocycle3,
    GradedObject,
    Group,
    HalfBraidingLin,
    check_cocycle,
    check_half_braiding,
    delta_object,
    group_centre,
    half_braiding_space,
    trivial_cocycle,
    z2_nontrivial_cocycle,
)
from monocentre.examples import D4, S3, Z2, Z2_CUBED, Z3, Z4
from monocentre.battery import certify_centre_structure
from monocentre.veck import (
    VecCentreResult,
    VecSimple,
    _action_inverses,
    _commutant_dim,
    _fibre_action,
    _induce_simple,
    _invariant_projection,
    _restrict_action,
    _split_rec,
    centre_simples,
    intertwiner_dim,
)
from monocentre.cyclo import (
    cyc_one, cyc_zero, mat_mul, mat_prepare, mat_scale, mat_vec, roots_of_unity,
    solve_linear, transpose, zeta,
)

from helpers import coboundary_cocycle, one_dimensional_centres, type_i_cocycle


def trivial(table, scalar_order=1):
    """The trivial cocycle on the group of a multiplication table."""
    return trivial_cocycle(Group(table), scalar_order)


def mat_eq(A, B):
    """Entrywise equality of two matrices."""
    return len(A) == len(B) and all(ra == rb for ra, rb in zip(A, B))


def subgroup_table(table, members):
    """Reindexed multiplication table of a subgroup given by its elements."""
    return tuple(tuple(members.index(table[a][b]) for b in members)
                 for a in members)


def character_count_oracle(table, class_rep):
    """Number of irreducible characters of the centralizer, computed from
    group data alone (class count of the reindexed subgroup table)."""
    cent = list(Group(table).centralizer(class_rep))
    return len(Group(subgroup_table(table, cent)).classes)


def test_group_helpers_s3():
    G = Group(S3)
    assert G.classes == ((0,), (1, 2, 5), (3, 4))
    assert G.centralizer(1) == (0, 1)
    assert G.centralizer(3) == (0, 3, 4)
    assert group_centre(S3) == (0,)
    assert G.exponent == 6
    assert group_centre(Z4) == (0, 1, 2, 3)


def test_trivial_and_nontrivial_cocycles_pass():
    assert check_cocycle(trivial(S3)) == []
    assert check_cocycle(z2_nontrivial_cocycle()) == []


def test_normalization_violation_is_localized():
    exps = [[[0, 0], [0, 0]], [[0, 0], [1, 1]]]
    report = check_cocycle(Cocycle3(Group(Z2), 2, exps))
    assert report and report[0] == "not normalized at (1, 1, 0)"


def test_non_cocycle_rejected_with_witness():
    exps = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    exps[1][1][1] = 1
    report = check_cocycle(Cocycle3(Group(Z3), 3, exps))
    assert report and "cocycle identity fails at (a=1, b=1, c=1, d=1)" in report[0]
    with pytest.raises(ValueError, match="cocycle identity fails"):
        centre_simples(Cocycle3(Group(Z3), 3, exps))


def test_twist_exponents():
    triv = trivial(S3)
    assert all(v == 0 for plane in triv.twist for row in plane for v in row)
    omega = z2_nontrivial_cocycle()
    assert omega.twist[1][1][1] == 1
    assert omega.twist[0][1][1] == 0


def test_canonical_carrier_shapes():
    # the fibre of a class is acted on by its centralizer, and inducing it
    # gives the class carrier of total dimension |G|
    for omega, r, cent, dims in ((trivial(S3), 1, (0, 1), (0, 2, 2, 0, 0, 2)),
                                 (z2_nontrivial_cocycle(), 1, (0, 1), (0, 2))):
        mats = _fibre_action(omega, r)
        assert tuple(mats) == cent
        assert all(len(M) == len(cent) and all(len(row) == len(cent) for row in M)
                   for M in mats.values())
        assert _induce_simple(omega, r, mats).carrier.dims == dims


def test_scalar_systems_on_z2_trivial():
    omega = trivial(Z2)
    for g in (0, 1):
        vals = {hb.block(1, g)[0][0]
                for hb in half_braiding_space(delta_object(2, g), omega)}
        assert vals == {1, -1}


def test_scalar_systems_on_z2_nontrivial():
    omega = z2_nontrivial_cocycle()
    unit_sols = half_braiding_space(delta_object(2, 0), omega)
    assert {hb.block(1, 0)[0][0] for hb in unit_sols} == {1, -1}
    sols_a = half_braiding_space(delta_object(2, 1), omega)
    assert len(sols_a) == 2
    v, w = (hb.block(1, 1)[0][0] for hb in sols_a)
    assert v != w
    assert v * v == -1 and w * w == -1


def test_noncentral_support_has_no_half_braiding():
    assert half_braiding_space(delta_object(6, 1), trivial(S3)) == ()


def test_unit_support_on_s3_gives_the_two_characters():
    assert len(half_braiding_space(delta_object(6, 0), trivial(S3))) == 2


def test_scalar_search_budget_guard():
    with pytest.raises(SizeGuardExceeded, match=r"scalar half-braiding search needs more "
                                                r"than 7 steps, limit 7 \(raise max_branch\)"):
        half_braiding_space(delta_object(6, 0), trivial(S3), GuardConfig(max_branch=7))


def test_higher_dimensional_carrier_is_refused():
    with pytest.raises(ValueError, match="multiplicity-free"):
        half_braiding_space(GradedObject((2, 0)), trivial(Z2))


@pytest.mark.parametrize("dims", [(-1, 0), (0, 1, 0)], ids=["negative", "too-long"])
def test_carrier_that_does_not_fit_the_group_is_bad_input(dims):
    with pytest.raises(ValueError, match="^carrier dimension vector does not match "
                                         "the group$"):
        half_braiding_space(GradedObject(dims), trivial(Z2))


def test_scalar_search_refuses_what_centre_simples_refuses():
    # the exponents of a Z2 cocycle bound to Z3, then a cocycle over a monoid
    wrong = Cocycle3(Group(Z3), 2, z2_nontrivial_cocycle().exponents)
    with pytest.raises(ValueError, match=r"^invalid 3-cocycle: exponent table "
                                         r"is not \|G\| x \|G\| x \|G\|$"):
        half_braiding_space(delta_object(3, 0), wrong)
    monoid = Cocycle3(Group([[0, 1], [1, 1]]), 2, z2_nontrivial_cocycle().exponents)
    with pytest.raises(ValueError, match="^not a group table: element 1 has no inverse$"):
        half_braiding_space(delta_object(2, 0), monoid)
    broken = Cocycle3(Group(Z2), 2, [[[0, 0], [0, 0]], [[0, 0], [1, 1]]])
    with pytest.raises(SizeGuardExceeded, match="group order"):
        half_braiding_space(delta_object(2, 0), broken, GuardConfig(vec_max_group=1))


def test_centre_simples_z2_trivial():
    result = centre_simples(trivial(Z2))
    assert len(result.simples) == 4
    assert [s.total_dim for s in result.simples] == [1, 1, 1, 1]
    assert result.complete and result.all_passed
    assert result.sum_of_squares == 4
    # independent oracle: per-support brute-force one-dimensional counts
    omega = trivial(Z2)
    oracle = sum(len(half_braiding_space(delta_object(2, g), omega))
                 for g in (0, 1))
    assert oracle == 4


def test_centre_simples_z2_nontrivial_has_fourth_roots():
    result = centre_simples(z2_nontrivial_cocycle())
    assert len(result.simples) == 4
    assert result.complete and result.all_passed
    vals = [s.hb.block(1, 1)[0][0] for s in result.simples if s.class_rep == 1]
    assert len(vals) == 2 and vals[0] != vals[1]
    assert all(v * v == -1 for v in vals)
    oracle = sum(
        len(half_braiding_space(delta_object(2, g), z2_nontrivial_cocycle()))
        for g in (0, 1))
    assert oracle == 4


def test_centre_simples_abelian_counts():
    assert len(centre_simples(trivial(Z3)).simples) == 9
    r4 = centre_simples(trivial(Z4))
    assert len(r4.simples) == 16
    assert all(s.total_dim == 1 for s in r4.simples)
    assert r4.all_passed


def test_centre_simples_s3():
    result = centre_simples(trivial(S3))
    assert len(result.simples) == 8
    assert sorted(s.total_dim for s in result.simples) == [1, 1, 2, 2, 2, 2, 3, 3]
    assert result.sum_of_squares == 36
    assert result.complete and result.all_passed
    per_class = {}
    for s in result.simples:
        per_class[s.class_rep] = per_class.get(s.class_rep, 0) + 1
    assert per_class == {0: 3, 1: 2, 3: 3}
    # independent oracle: character counts of the centralizers
    assert per_class == {r: character_count_oracle(S3, r) for r in (0, 1, 3)}


def _dihedral(n):
    """Multiplication table of the dihedral group of order 2n, r^i s^j at
    index i + n j, with s r = r^-1 s."""
    def mul(a, b):
        i, j, k, l = a % n, a // n, b % n, b // n
        return (i + (-k if j else k)) % n + n * ((j + l) % 2)
    return tuple(tuple(mul(a, b) for b in range(2 * n)) for a in range(2 * n))


def _symmetric(n):
    """Multiplication table of S_n, composing right to left."""
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return tuple(tuple(index[tuple(p[q[k]] for k in range(n))] for q in perms)
                 for p in perms)


@pytest.mark.parametrize("table, n_simples", [(_dihedral(8), 46), (_symmetric(4), 21)],
                         ids=["d8", "s4"])
def test_fibre_split_tries_every_matrix_before_giving_up(table, n_simples):
    # the first choice of matrix alone leaves D8 short of two simples per
    # central class and S4 with two unresolved summands
    result = centre_simples(trivial(table), GuardConfig(vec_max_group=24))
    assert result.complete
    assert len(result.simples) == n_simples
    assert result.sum_of_squares == len(table) ** 2
    per_class = {}
    for s in result.simples:
        per_class[s.class_rep] = per_class.get(s.class_rep, 0) + 1
    assert per_class == {cls[0]: character_count_oracle(table, cls[0])
                         for cls in Group(table).classes}
    assert result.all_passed


def test_group_order_guard():
    with pytest.raises(SizeGuardExceeded):
        centre_simples(trivial(Z4), cfg=GuardConfig(vec_max_group=2))


def test_group_order_guard_precedes_the_cocycle_check():
    broken = Cocycle3(Group(Z2), 2, [[[0, 0], [0, 0]], [[0, 0], [1, 1]]])
    with pytest.raises(ValueError, match="not normalized at"):
        centre_simples(broken)
    with pytest.raises(SizeGuardExceeded, match="group order"):
        centre_simples(broken, cfg=GuardConfig(vec_max_group=1))


def test_cocycle_over_wrong_group_rejected():
    # the exponents of a Z2 cocycle bound to Z3
    wrong = Cocycle3(Group(Z3), 2, z2_nontrivial_cocycle().exponents)
    with pytest.raises(ValueError, match=r"exponent table is not \|G\| x \|G\| x \|G\|"):
        centre_simples(wrong)


def test_cocycle_over_a_table_that_is_not_a_group_is_refused():
    omega = Cocycle3(Group([[0, 1], [1, 1]]), 2, z2_nontrivial_cocycle().exponents)
    assert omega.group.problems == ("element 1 has no inverse",)
    with pytest.raises(ValueError, match="^not a group table: element 1 has no inverse$"):
        centre_simples(omega)


def test_corrupted_block_rejected_with_witness():
    omega = trivial(Z2)
    order = omega.field_order
    two = zeta(order, 0) + zeta(order, 0)
    blocks = {(0, 1): ((zeta(order, 0),),), (1, 1): ((two,),)}
    bad = HalfBraidingLin(omega, delta_object(2, 1), blocks)
    report = check_half_braiding(bad)
    assert report and "multiplicativity fails at (x=1, y=1, g=1)" in report[0]


def test_singular_block_is_reported_not_invertible():
    omega = trivial(S3)
    hb = _induce_simple(omega, 1, _fibre_action(omega, 1))
    assert check_half_braiding(hb) == []
    key = (3, 2)
    row = hb.block(*key)[0]
    blocks = {**hb.blocks, key: (row, row)}
    bad = HalfBraidingLin(omega, hb.carrier, blocks)
    assert check_half_braiding(bad) == ["block (3, 2) is not invertible"]


# -- negative controls for the structure battery ----------------------------
#
# Each reference below is the battery's former formulation, built from the
# plain matrix routines; the battery must report the same witness.


def _conj(group, x, g):
    table, inv = group.table, group.inverses
    return table[table[inv[x]][g]][x]


def _ref_hexagon1(result):
    omega = result.omega
    group, table, n = omega.group, omega.group.table, len(omega.group.table)
    for idx, s in enumerate(result.simples):
        for x in range(n):
            for y in range(n):
                xy = table[x][y]
                for g in s.hb.carrier.support:
                    gx, gxy = _conj(group, x, g), _conj(group, xy, g)
                    scalar = (omega.value(g, x, y).inverse() * omega.value(x, gx, y)
                              * omega.value(x, y, gxy).inverse())
                    rhs = mat_scale(scalar, mat_mul(s.hb.block(y, gx), s.hb.block(x, g)))
                    if not mat_eq(s.hb.block(xy, g), rhs):
                        return f"simple {idx} at (x={x}, y={y}, g={g})"
    return None


def _plain_parts(result):
    return lambda i, j: _tensor_parts(result.simples[i].hb, result.simples[j].hb)


def _ref_hexagon2(result, parts_of=None):
    parts_of = parts_of or _plain_parts(result)
    for i, s in enumerate(result.simples):
        for j, t in enumerate(result.simples):
            errs = check_half_braiding(_tensor(s.hb, t.hb, parts_of(i, j)))
            if errs:
                return f"pair ({i}, {j}): {errs[0]}"
    return None


def kron(A, B):
    return tuple(tuple(a * b for a in arow for b in brow) for arow in A for brow in B)


def _tensor_parts(A, B):
    """The blocks of A (x) B between its components: (x, g, h) keys the
    Kronecker product of the factors' blocks (x, g) and (x, h), scaled by
    three associator values."""
    omega, N = A.omega, A.omega.field_order
    w, so = omega.exponents, omega.scalar_order
    parts = {}
    for x in range(len(omega.group.table)):
        for g in A.carrier.support:
            for h in B.carrier.support:
                gx, hx = _conj(omega.group, x, g), _conj(omega.group, x, h)
                t = (w[x][gx][hx] - w[g][x][hx] + w[g][h][x]) % so
                parts[(x, g, h)] = mat_scale(zeta(N, t * (N // so)),
                                             kron(A.block(x, g), B.block(x, h)))
    return parts


def _tensor(A, B, parts):
    """The tensor product carrier assembled from _tensor_parts: the (g, h)
    component goes to (x^-1 g x, x^-1 h x) inside the conjugated grade,
    components of one grade in lexicographic order."""
    group = A.omega.group
    table, n = group.table, len(group.table)
    dims, offset = [0] * n, {}
    for g in A.carrier.support:
        for h in B.carrier.support:
            k = table[g][h]
            offset[(g, h)] = dims[k]
            dims[k] += A.carrier.dims[g] * B.carrier.dims[h]
    zero = cyc_zero(A.omega.field_order)
    mats = {(x, k): [[zero] * dims[k] for _ in range(dims[_conj(group, x, k)])]
            for x in range(n) for k in range(n) if dims[k]}
    for (x, g, h), part in parts.items():
        mat = mats[(x, table[g][h])]
        roff = offset[(_conj(group, x, g), _conj(group, x, h))]
        for i, row in enumerate(part):
            for j, v in enumerate(row):
                mat[roff + i][offset[(g, h)] + j] = v
    blocks = {key: tuple(map(tuple, mat)) for key, mat in mats.items()}
    return HalfBraidingLin(A.omega, GradedObject(tuple(dims)), blocks)


def _braid_block(A, B, g, h):
    """Component of the braiding on V_g x W_h: swap after beta^A_h|g, with
    rows (j, i') and columns (i, j) in row-major layout."""
    blk = A.block(h, g)
    da, da2, db = len(blk[0]), len(blk), B.carrier.dims[h]
    zero = cyc_zero(A.omega.field_order)
    mat = [[zero] * (da * db) for _ in range(db * da2)]
    for j in range(db):
        for i2 in range(da2):
            for i in range(da):
                mat[j * da2 + i2][i * db + j] = blk[i2][i]
    return tuple(tuple(row) for row in mat)


def _ref_naturality(result, parts_of=None):
    group = result.omega.group
    parts_of = parts_of or _plain_parts(result)
    for i, s in enumerate(result.simples):
        for j, t in enumerate(result.simples):
            ab, ba = parts_of(i, j), parts_of(j, i)
            for g in s.hb.carrier.support:
                for h in t.hb.carrier.support:
                    cblk = _braid_block(s.hb, t.hb, g, h)
                    for x in range(len(group.table)):
                        g2 = _conj(group, h, g)
                        gx, hx = _conj(group, x, g), _conj(group, x, h)
                        lhs = mat_mul(ba[(x, h, g2)], cblk)
                        rhs = mat_mul(_braid_block(s.hb, t.hb, gx, hx), ab[(x, g, h)])
                        if not mat_eq(lhs, rhs):
                            return f"pair ({i}, {j}) at (x={x}, g={g}, h={h})"
    return None


def _with_simple(result, idx, hb):
    simples = list(result.simples)
    simples[idx] = VecSimple(simples[idx].class_rep, hb, hb.carrier.total_dim)
    return VecCentreResult(result.omega, tuple(simples), result.complete,
                           result.certificates)


def test_corrupted_simple_fails_the_hexagons_with_witnesses():
    result = centre_simples(trivial(S3))
    hb = result.simples[3].hb  # a transposition-class simple, grades 1, 2, 5
    key = (3, 2)
    blocks = {**hb.blocks, key: mat_scale(-1, hb.block(*key))}
    bad = _with_simple(result, 3, HalfBraidingLin(hb.omega, hb.carrier, blocks))
    certs = {c.name: c for c in certify_centre_structure(bad)}
    hex1 = certs["hexagon 1 (multiplicativity against raw associator values)"]
    hex2 = certs["hexagon 2 (tensor of two simples is again a half-braiding)"]
    nat = certs["braiding naturality (centre-morphism property, blockwise)"]
    assert not hex1.ok and hex1.detail == _ref_hexagon1(bad)
    assert hex1.detail.startswith("simple 3 at ")
    assert not hex2.ok and hex2.detail == _ref_hexagon2(bad)
    assert not nat.ok and nat.detail == _ref_naturality(bad)
    assert all(c.ok for c in certs.values() if c not in (hex1, hex2, nat))


def _times(M, factor):
    """M with its (0, 0) entry multiplied by factor."""
    return tuple(tuple(v * factor if (r, c) == (0, 0) else v for c, v in enumerate(row))
                 for r, row in enumerate(M))


def _corrupt_part(monkeypatch, result, key):
    """Multiply the part at key = (x, g, h) of every tensor of two simples
    by zeta_N, N the field order: the battery reads the part's scalar
    sigma from _part_exponents, and the returned parts_of gives the plain
    references the same corruption."""
    N, exponents = result.omega.field_order, battery._part_exponents
    x, g, h = key

    def corrupted(omega, order):
        sig = exponents(omega, order)
        sig[x][g][h] = (sig[x][g][h] + order // N) % order
        return sig

    def parts_of(i, j):
        out = _plain_parts(result)(i, j)
        if key in out:
            out[key] = mat_scale(zeta(N), out[key])
        return out

    monkeypatch.setattr(battery, "_part_exponents", corrupted)
    return parts_of


def _one_simple_per_class(result, keep):
    """result with one simple per conjugacy class, in their order: those
    in keep, and the first of each other class.  Also returns the new
    indices of keep."""
    chosen = {}
    for i, s in enumerate(result.simples):
        if i in keep or s.class_rep not in chosen:
            chosen[s.class_rep] = i
    order = sorted(chosen.values())
    sub = VecCentreResult(result.omega, tuple(result.simples[i] for i in order),
                          result.complete, result.certificates)
    return sub, [order.index(i) for i in keep]


@pytest.mark.parametrize("table", [S3, Z4], ids=["S3", "Z4"])
@pytest.mark.parametrize("where", ["simple", "tensor", "pair"])
def test_fused_passes_report_the_least_failure_of_the_plain_scan(table, where,
                                                                  monkeypatch):
    # One entry times zeta, in a block of simple 5, or the part (x, g, h)
    # times zeta, with g and h the first grades of simples 5 and 2, which
    # the tensor of that pair and both of its naturality checks read: in
    # every tensor, or ("pair") in a result that keeps one simple per
    # class, where only the ordered pair of simples 5 and 2 has that part.
    # The plain references get the same corruption.
    result = centre_simples(trivial(table))
    N, a, b = result.omega.field_order, 5, 2
    A, B = result.simples[a].hb, result.simples[b].hb
    parts_of = None
    if where == "simple":
        key = (1, A.carrier.support[0])
        blocks = {**A.blocks, key: _times(A.block(*key), zeta(N))}
        result = _with_simple(result, a, HalfBraidingLin(A.omega, A.carrier, blocks))
    else:
        key = (1, A.carrier.support[0], B.carrier.support[0])
        if where == "pair":
            result, (a, b) = _one_simple_per_class(result, (a, b))
            k = len(result.simples)
            assert [(i, j) for i in range(k) for j in range(k)
                    if key in _plain_parts(result)(i, j)] == [(a, b)]
        parts_of = _corrupt_part(monkeypatch, result, key)
    certs = {c.name: c for c in certify_centre_structure(result)}
    hex1 = certs["hexagon 1 (multiplicativity against raw associator values)"]
    hex2 = certs["hexagon 2 (tensor of two simples is again a half-braiding)"]
    nat = certs["braiding naturality (centre-morphism property, blockwise)"]
    if where == "simple":
        assert not hex1.ok and hex1.detail == _ref_hexagon1(result)
    else:
        assert hex1.ok and _ref_hexagon1(result) is None
    assert not hex2.ok and hex2.detail == _ref_hexagon2(result, parts_of)
    if where == "pair":
        assert hex2.detail.startswith(f"pair ({a}, {b}): ")
    ref_nat = _ref_naturality(result, parts_of)
    # on Z4 both sides of naturality carry the same 1 x 1 block of a simple
    assert (ref_nat is None) == (table is Z4 and where == "simple")
    assert nat.ok == (ref_nat is None) and (nat.ok or nat.detail == ref_nat)


@pytest.mark.parametrize("x", [0, 1], ids=["unit", "multiplicativity"])
def test_tensor_pass_reads_every_component_of_a_grade(x, monkeypatch):
    # The tensor of the transposition-class simple 3 of S3 with itself has
    # grades made of several components (g, h); the part at x of the last
    # component of such a grade is multiplied by zeta in every tensor, which
    # a check that stopped at a grade's first component would miss.  Simple
    # 3 is the first whose support holds g and h, so (3, 3) is the least
    # failing pair.  The reference is the plain scan over the assembled
    # tensor.
    result = centre_simples(trivial(S3))
    a = 3
    supp = result.simples[a].hb.carrier.support
    pairs = sorted((S3[g][h], g, h) for g in supp for h in supp)
    _, g, h = max(p for p in pairs if sum(q[0] == p[0] for q in pairs) > 1)
    parts_of = _corrupt_part(monkeypatch, result, (x, g, h))
    certs = {c.name: c for c in certify_centre_structure(result)}
    hex2 = certs["hexagon 2 (tensor of two simples is again a half-braiding)"]
    assert not hex2.ok and hex2.detail == _ref_hexagon2(result, parts_of)
    assert hex2.detail.startswith(f"pair ({a}, {a}): ")


def _zeta_mutant(result, idx):
    """result with one entry of simple idx times zeta_N, N the field order:
    the last nonzero entry, row-major, of its block (idx mod |G|, g), g its
    least grade (off the diagonal in the 2 x 2 blocks the tests pick)."""
    hb = result.simples[idx].hb
    n, N = len(hb.omega.group.table), hb.omega.field_order
    key = (idx % n, hb.carrier.support[0])
    M = [list(row) for row in hb.block(*key)]
    r, c = max((r, c) for r, row in enumerate(M) for c, v in enumerate(row) if not v.is_zero())
    M[r][c] = M[r][c] * zeta(N)
    blocks = {**hb.blocks, key: tuple(map(tuple, M))}
    return _with_simple(result, idx, HalfBraidingLin(hb.omega, hb.carrier, blocks))


@pytest.mark.parametrize("omega, simples", [
    (trivial(S3), range(8)), (trivial(Z4), range(16)), (z2_nontrivial_cocycle(), range(4)),
    (trivial(D4), [13]),
], ids=["S3", "Z4", "semion", "D4"])
def test_battery_matches_the_plain_references_on_zeta_mutants(omega, simples):
    # One mutant per simple, one entry times zeta; simple 2 of S3 and
    # simple 13 of D4 are mutated off the diagonal of a 2 x 2 block.  Each
    # of the three certificates the tables decide must give the verdict and
    # the witness of the plain scan over assembled tensors.
    result = centre_simples(omega)
    for idx in simples:
        bad = _zeta_mutant(result, idx)
        certs = {c.name: c for c in certify_centre_structure(bad)}
        for name, ref in (
                ("hexagon 1 (multiplicativity against raw associator values)",
                 _ref_hexagon1(bad)),
                ("hexagon 2 (tensor of two simples is again a half-braiding)",
                 _ref_hexagon2(bad)),
                ("braiding naturality (centre-morphism property, blockwise)",
                 _ref_naturality(bad))):
            cert = certs[name]
            assert (cert.ok, None if cert.ok else cert.detail) == (ref is None, ref), (idx, name)


def test_non_square_braid_component_fails_invertibility():
    # A carrier on the transposition class {1, 2, 5} of S3 whose dimension
    # is not constant on the class: blocks are rectangular identities, so
    # every square braid component is invertible and the others are not.
    # The first non-square block in the scan, (x=2, g=1), is tall (2 x 1)
    # on the first carrier and wide (1 x 2, of full row rank) on the second.
    omega = trivial(S3)
    G, order = omega.group, omega.field_order
    one, zero = cyc_one(order), cyc_zero(order)
    for dims in ((0, 1, 1, 0, 0, 2), (0, 2, 1, 0, 0, 1)):
        blocks = {(x, g): tuple(tuple(one if i == j else zero for j in range(dims[g]))
                                for i in range(dims[_conj(G, x, g)]))
                  for x in range(6) for g in (1, 2, 5)}
        hb = HalfBraidingLin(omega, GradedObject(dims), blocks)
        result = VecCentreResult(omega, (VecSimple(1, hb, 4),), True, ())
        certs = {c.name: c for c in certify_centre_structure(result)}
        braid = certs["braiding components invertible"]
        assert not braid.ok
        assert braid.detail == "pair (0, 0) at (g=1, h=2)"


def test_intertwiner_dimensions():
    result = centre_simples(trivial(Z2))
    for s in result.simples:
        assert intertwiner_dim(s.hb, s.hb) == 1
    a, b = [s.hb for s in result.simples if s.class_rep == 1]
    assert intertwiner_dim(a, b) == 0


@pytest.mark.parametrize("dims, endo, inter", [
    ((1, 3), "", "simples 0 and 1 share a nonzero intertwiner (dim 3)"),
    ((2, 0), "simple 0 has endomorphism dimension != 1", ""),
    ((1, 0), "", ""),
], ids=["shared", "endomorphisms", "sound"])
def test_intertwiner_certificates_name_the_first_failure(monkeypatch, dims, endo, inter):
    # intertwiner_dim replaced: dims[0] on a simple with itself, dims[1]
    # between two simples of one class
    monkeypatch.setattr(veck, "intertwiner_dim", lambda A, B: dims[A is not B])
    certs = {c.name: c for c in centre_simples(trivial(Z2)).certificates}
    for name, detail in (("endomorphism algebras one-dimensional", endo),
                         ("no intertwiners between distinct simples", inter)):
        assert (certs[name].ok, certs[name].detail) == (not detail, detail)


def test_tensor_of_semions_is_a_half_braiding():
    result = centre_simples(z2_nontrivial_cocycle())
    a, b = [s.hb for s in result.simples if s.class_rep == 1]
    ts = _tensor(a, b, _tensor_parts(a, b))
    assert ts.carrier.dims == (1, 0)
    assert check_half_braiding(ts) == []


@pytest.mark.parametrize("omega_factory",
                         [lambda: trivial(Z2), z2_nontrivial_cocycle])
def test_certify_battery_on_z2(omega_factory):
    result = centre_simples(omega_factory())
    certs = certify_centre_structure(result)
    assert all(c.ok for c in certs), [c.name for c in certs if not c.ok]
    names = {c.name for c in certs}
    assert "associator pentagon (3-cocycle identity)" in names
    assert "hexagon 2 (tensor of two simples is again a half-braiding)" in names


def test_certify_battery_on_s3():
    result = centre_simples(trivial(S3))
    certs = certify_centre_structure(result)
    assert all(c.ok for c in certs), [c.name for c in certs if not c.ok]


@pytest.mark.parametrize("omega,n", [
    (trivial(Z2), 2), (z2_nontrivial_cocycle(), 4), (trivial(Z3), 3), (trivial(S3), 2),
    (trivial(D4), 2), (type_i_cocycle(3), 9), (type_i_cocycle(4), 16),
], ids=["z2", "z2_semion", "z3", "s3", "d4", "z3_type_i", "z4_type_i"])
def test_set_level_centre_equals_the_one_dimensional_simples(omega, n):
    # n is the lcm of the orders of the one-dimensional simples' scalars,
    # so the 2-group with automorphisms Z_n sees every one of them; the
    # type-I row is not self-conjugate, so it pins the sign of the
    # associator against the linear backend's twist.  Each group is cyclic
    # or its cocycle trivial, so every central grade carries such a simple
    set_level, simples, search = one_dimensional_centres(omega, n)
    assert set_level == simples == search
    assert {g for g, _ in set_level} == set(group_centre(omega.group.table))


def test_all_z2_coboundaries_vanish():
    # Normalized 2-cochains on Z2 with order-2 values leave only b(a, a)
    # free; both choices have an identically zero coboundary, so the two
    # cocycle fixtures really are in distinct classes.
    for b11 in (0, 1):
        cochain = ((0, 0), (0, b11))
        db = coboundary_cocycle(Group(Z2), 2, cochain)
        assert all(v == 0 for plane in db.exponents for row in plane for v in row)


def test_coboundary_twist_bijection_on_z4():
    cochain = [[0] * 4 for _ in range(4)]
    cochain[1][1] = 1
    db = coboundary_cocycle(Group(Z4), 4, cochain)
    assert any(v != 0 for plane in db.exponents for row in plane for v in row)
    assert check_cocycle(db) == []
    base = centre_simples(trivial(Z4, 4))
    twisted = centre_simples(db)
    assert base.all_passed and twisted.all_passed
    key = lambda r: sorted((s.class_rep, s.hb.carrier.dims) for s in r.simples)
    assert key(base) == key(twisted)
    assert len(base.simples) == 16


@settings(max_examples=25, deadline=None)
@given(st.tuples(st.integers(0, 2), st.integers(0, 2),
                 st.integers(0, 2), st.integers(0, 2)))
def test_coboundaries_are_cocycles_on_z3(free):
    cochain = ((0, 0, 0), (0, free[0], free[1]), (0, free[2], free[3]))
    assert check_cocycle(coboundary_cocycle(Group(Z3), 3, cochain)) == []


# -- the fibre split: closed forms against the former linear systems ---------


def type_iii_cocycle():
    """omega(a, b, c) = (-1)^(a_1 b_2 c_3) on Z2^3, where beta is genuinely
    projective on every nontrivial class."""
    bit = lambda a, i: a >> i & 1
    return Cocycle3(Group(Z2_CUBED), 2, [[[bit(a, 0) * bit(b, 1) * bit(c, 2)
                                    for c in range(8)] for b in range(8)]
                                  for a in range(8)])


def sign_pullback_cocycle():
    """The nontrivial class on Z2 pulled back along the sign of S3: a twist
    on a nonabelian group, so transversals and their twists are not all
    trivial."""
    odd = [int(a in Group(S3).classes[1]) for a in range(6)]
    w = z2_nontrivial_cocycle().exponents
    return Cocycle3(Group(S3), 2, [[[w[odd[a]][odd[b]][odd[c]] for c in range(6)]
                             for b in range(6)] for a in range(6)])


SPLIT_INPUTS = [
    pytest.param(Z2, None, id="z2"),
    pytest.param(Z2, z2_nontrivial_cocycle, id="z2_nontrivial"),
    pytest.param(Z3, None, id="z3"),
    pytest.param(Z4, None, id="z4"),
    pytest.param(S3, None, id="s3"),
    pytest.param(S3, sign_pullback_cocycle, id="s3_sign_pullback"),
    pytest.param(D4, None, id="d4"),
    pytest.param(Z2_CUBED, None, id="z2cubed"),
    pytest.param(Z2_CUBED, type_iii_cocycle, id="z2cubed_type_iii"),
]


def type_i_z3_cocycle():
    """omega(a, b, c) = zeta_3^(a [b + c >= 3]) on Z3, a type-I class."""
    return Cocycle3(Group(Z3), 3, [[[a * (b + c >= 3) for c in range(3)] for b in range(3)]
                                   for a in range(3)])



def dpr_count_oracle(omega, g):
    """Number of theta_g-regular conjugacy classes of the centralizer C(g),
    which counts the simples over the class of g (Dijkgraaf-Pasquier-Roche
    1990), computed from the table and the cocycle exponents alone:
    theta_g(x, y) = omega(g, x, y) omega(x, y, g) / omega(x, g, y) on C(g),
    and the class of x is regular when theta_g(x, y) = theta_g(y, x) for
    every y in C(g) that commutes with x."""
    t, w, order = omega.group.table, omega.exponents, omega.scalar_order
    n = len(t)
    e = next(a for a in range(n) if all(t[a][x] == x for x in range(n)))
    inv = [next(y for y in range(n) if t[x][y] == e) for x in range(n)]
    cent = [x for x in range(n) if t[x][g] == t[g][x]]

    def theta(x, y):
        return (w[g][x][y] + w[x][y][g] - w[x][g][y]) % order

    seen, count = set(), 0
    for x in cent:
        if x in seen:
            continue
        seen.update(t[t[inv[y]][x]][y] for y in cent)
        count += all(theta(x, y) == theta(y, x) for y in cent if t[x][y] == t[y][x])
    return count


@pytest.mark.parametrize("omega_factory", [
    z2_nontrivial_cocycle, lambda: trivial(S3), lambda: trivial(Z4), type_i_z3_cocycle,
    sign_pullback_cocycle, type_iii_cocycle,
], ids=["z2_nontrivial", "s3", "z4", "z3_type_i", "s3_sign_pullback", "z2cubed_type_iii"])
def test_twisted_simples_match_the_dpr_count(omega_factory):
    omega = omega_factory()
    result = centre_simples(omega)
    assert result.complete
    per_class = {}
    for s in result.simples:
        per_class[s.class_rep] = per_class.get(s.class_rep, 0) + 1
    assert per_class == {cls[0]: dpr_count_oracle(omega, cls[0])
                         for cls in omega.group.classes}
    # the scalar oracle finds exactly the one-dimensional simples, grade by grade
    n = len(omega.group.table)
    for g in range(n):
        assert len(half_braiding_space(delta_object(n, g), omega)) == sum(
            s.total_dim == 1 and s.hb.carrier.support == (g,) for s in result.simples)


def _ref_class_carrier(omega, r):
    """The former closed-form class carrier: basis v_z for z in G, graded
    by z^-1 r z, with beta_y(v_z) = zeta^(-tau(r; z, y)) v_{zy}."""
    table, n, order = omega.group.table, len(omega.group.table), omega.field_order
    by_grade = {}
    for z in range(n):
        by_grade.setdefault(_conj(omega.group, z, r), []).append(z)
    pos = {z: i for zs in by_grade.values() for i, z in enumerate(zs)}
    blocks = {}
    for x in range(n):
        for g, src in by_grade.items():
            mat = [[cyc_zero(order)] * len(src)
                   for _ in by_grade[_conj(omega.group, x, g)]]
            for col, z in enumerate(src):
                mat[pos[table[z][x]]][col] = zeta(order, -omega.twist[r][z][x]
                                                  * (order // omega.scalar_order))
            blocks[(x, g)] = mat
    dims = tuple(len(by_grade.get(g, ())) for g in range(n))
    return HalfBraidingLin(omega, GradedObject(dims), blocks)


@pytest.mark.parametrize("omega_factory", [
    lambda: trivial(S3), lambda: trivial(Z4), lambda: trivial(D4),
    lambda: trivial(Z2_CUBED), type_iii_cocycle, z2_nontrivial_cocycle,
    type_i_z3_cocycle,
], ids=["s3", "z4", "d4", "z2cubed", "z2cubed_type_iii", "z2_nontrivial", "z3_type_i"])
def test_fibre_action_is_the_fibre_of_the_class_carrier(omega_factory):
    # the split receives exactly the matrices the class carrier had at r
    omega = omega_factory()
    for r, *_ in omega.group.classes:
        carrier = _ref_class_carrier(omega, r)
        assert check_half_braiding(carrier) == []
        assert _fibre_action(omega, r) == {h: carrier.block(h, r)
                                           for h in omega.group.centralizer(r)}


@pytest.mark.parametrize("omega_factory", [sign_pullback_cocycle, type_iii_cocycle],
                         ids=["s3_sign_pullback", "z2cubed_type_iii"])
def test_split_receives_the_class_carrier_fibres(omega_factory, monkeypatch):
    # the top-level calls of _split_rec, one per distinct fibre in class
    # order, get the fibres of the closed-form class carriers
    omega, calls, depth = omega_factory(), [], [0]
    split = veck._split_rec

    def recorded(group, mats, *rest):
        if not depth[0]:
            calls.append(mats)
        depth[0] += 1
        try:
            return split(group, mats, *rest)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(veck, "_split_rec", recorded)
    assert centre_simples(omega).all_passed
    fibres = {}
    for r, *_ in omega.group.classes:
        carrier = _ref_class_carrier(omega, r)
        mats = {h: carrier.block(h, r) for h in omega.group.centralizer(r)}
        fibres.setdefault(tuple(sorted(mats.items())), mats)
    assert calls == list(fibres.values())


def test_fibre_action_refuses_a_changed_twist():
    # tau(0; 1, 1) raised by one: the law first fails at the least (x, y)
    # where the changed tau(0; -, -) is no longer a 2-cocycle on Z3
    omega = type_i_z3_cocycle()
    twist = [[list(row) for row in plane] for plane in omega.twist]
    twist[0][1][1] += 1
    omega.__dict__["twist"] = twist
    t, G = omega.group.table, range(3)
    x, y = next((x, y) for x in G for y in G if any(
        (twist[0][x][y] + twist[0][z][t[x][y]] - twist[0][z][x] - twist[0][t[z][x]][y]) % 3
        for z in G))
    with pytest.raises(InternalSoundnessError,
                       match=rf"^fibre action of class 0 fails its law at \(x={x}, y={y}\)$"):
        _fibre_action(omega, 0)
    twist[0][1][1] -= 1
    twist[0][2][0] += 1  # M_e sends v_2 to zeta_3^-1 v_2
    with pytest.raises(InternalSoundnessError,
                       match=r"^fibre action of class 0: M_e is not the identity$"):
        _fibre_action(omega, 0)


def _ref_commutant_dim(mats):
    """The former k^2-unknown system for {T : T M_h = M_h T for all h}."""
    k = len(next(iter(mats.values())))
    rows = []
    for h in sorted(mats):
        M = mats[h]
        for i in range(k):
            for j in range(k):
                row = [0] * (k * k)
                for q in range(k):
                    row[i * k + q] = row[i * k + q] + M[q][j]
                for p in range(k):
                    row[p * k + j] = row[p * k + j] - M[i][p]
                rows.append(row)
    return len(solve_linear(rows).kernel)


def _prepared(mats):
    """Each matrix of an action prepared at the lcm of its entries' orders."""
    order = lcm(*(x.order for M in mats.values() for row in M for x in row))
    return {h: mat_prepare(M, order) for h, M in mats.items()}


def _fibre_splits(table, omega):
    """(cocycle, class representative, fibre action, split pieces) for
    every class; omega None is the trivial cocycle."""
    omega = trivial(table) if omega is None else omega
    group, order = omega.group, omega.field_order
    for cls in group.classes:
        mats = _fibre_action(omega, cls[0])
        pieces = []
        _split_rec(group, mats, order, roots_of_unity(order), pieces)
        yield omega, cls[0], mats, pieces


@pytest.mark.parametrize("table, omega_factory", SPLIT_INPUTS)
def test_character_norm_matches_the_commutant_system(table, omega_factory,
                                                     monkeypatch):
    # every action the split asks about (each class fibre first), then
    # every piece it returns
    asked = []

    def recorded(mats, inverses):
        asked.append(mats)
        return _commutant_dim(mats, inverses)

    monkeypatch.setattr(veck, "_commutant_dim", recorded)
    omega = omega_factory() if omega_factory else None
    pieces = [sub for *_, split in _fibre_splits(table, omega)
              for sub, _ in split]
    assert len(asked) >= len(Group(table).classes)
    for mats in asked + pieces:
        assert (_commutant_dim(mats, _action_inverses(Group(table), mats, _prepared(mats)))
                == _ref_commutant_dim(mats))


@pytest.mark.parametrize("table, omega_factory", SPLIT_INPUTS)
def test_maschke_average_is_an_invariant_idempotent(table, omega_factory,
                                                    monkeypatch):
    # every (mats, C, units) the split averages over, at every level
    asked = []
    projection = veck._invariant_projection

    def recorded(mats, inverses, C, units):
        P = projection(mats, inverses, C, units)
        asked.append((mats, C, units, P))
        return P

    monkeypatch.setattr(veck, "_invariant_projection", recorded)
    omega = omega_factory() if omega_factory else None
    for _ in _fibre_splits(table, omega):
        pass
    assert asked
    for mats, C, units, P in asked:
        k, d = len(C), len(units)
        assert mat_eq(mat_mul(P, P), P)
        assert mat_eq(mat_mul(P, C), C)
        assert all(mat_eq(mat_mul(P, M), mat_mul(M, P)) for M in mats.values())
        assert len(solve_linear(P).kernel) == k - d
        restricted = _restrict_action(mats, _prepared(mats), C, units)
        assert all(mat_eq(mat_mul(C, restricted[h]), mat_mul(M, C))
                   for h, M in mats.items())


def _ref_cyclic_closure(v, mats):
    """The former worklist closure: the reduced rows of the whole grown
    basis for every image, until no image is new."""
    sol = solve_linear([v])
    worklist = [v]
    while worklist:
        u = worklist.pop(0)
        for h in sorted(mats):
            wv = mat_vec(mats[h], u)
            grown = solve_linear(list(sol.rows) + [wv])
            if grown.rank > sol.rank:
                sol = grown
                worklist.append(wv)
    return transpose(sol.rows), sol.pivots


def _solve(M, b):
    """The unique x with M x = b, read off the kernel of [M | -b]: its one
    canonical vector has last coordinate 1."""
    kernel = solve_linear([tuple(row) + (-y,) for row, y in zip(M, b)]).kernel
    assert len(kernel) == 1 and kernel[0][-1] == 1
    return kernel[0][:-1]


def _ref_induce_simple(omega, carrier_hb, class_rep, fiber_cols):
    """The former induction: grade bases are the fibre basis moved by the
    carrier's blocks at a transversal, and each block is solved for, one
    linear system per column."""
    table = omega.group.table
    n = len(table)
    r = class_rep
    transversal = {}
    for z in range(n):
        transversal.setdefault(_conj(omega.group, z, r), z)
    d = len(fiber_cols[0])
    basis = {g: mat_mul(carrier_hb.block(z, r), fiber_cols)
             for g, z in transversal.items()}
    dims = tuple(d if g in basis else 0 for g in range(n))
    blocks = {}
    for x in range(n):
        for g in sorted(basis):
            rhs = mat_mul(carrier_hb.block(x, g), basis[g])
            target = basis[_conj(omega.group, x, g)]
            blocks[(x, g)] = transpose([_solve(target, [row[j] for row in rhs])
                                        for j in range(d)])
    return HalfBraidingLin(omega, GradedObject(dims), blocks)


def _fibre_basis(mats, action):
    """Columns B in the fibre with M_h B = B R_h for every h: the first
    solution of that system, injective by Schur's lemma as R is simple."""
    k, d = len(mats[min(mats)]), len(action[min(action)])
    rows = []
    for h in sorted(mats):
        M, R = mats[h], action[h]
        for i in range(k):
            for j in range(d):
                row = [0] * (k * d)  # B[p][q] is unknown p * d + q
                for p in range(k):
                    row[p * d + j] = row[p * d + j] + M[i][p]
                for q in range(d):
                    row[i * d + q] = row[i * d + q] - R[q][j]
                rows.append(row)
    vec = solve_linear(rows).kernel[0]
    return tuple(tuple(vec[p * d + q] for q in range(d)) for p in range(k))


@pytest.mark.parametrize("table, omega_factory", SPLIT_INPUTS)
def test_closed_forms_match_the_former_linear_systems(table, omega_factory,
                                                      monkeypatch):
    # every eigenvector the split tries is closed both ways
    tried = []
    closure = veck._cyclic_closure

    def recorded(v, mats):
        tried.append((v, mats))
        return closure(v, mats)

    monkeypatch.setattr(veck, "_cyclic_closure", recorded)
    omega = omega_factory() if omega_factory else None
    induced = 0
    for omega, r, mats, pieces in _fibre_splits(table, omega):
        carrier = _ref_class_carrier(omega, r)
        for sub, certified in pieces:
            assert certified
            basis = _fibre_basis(mats, sub)
            assert (_induce_simple(omega, r, sub)
                    == _ref_induce_simple(omega, carrier, r, basis))
            induced += 1
    assert induced >= len(Group(table).classes)
    assert tried
    for v, mats in tried:
        assert closure(v, mats) == _ref_cyclic_closure(v, mats)


@pytest.mark.parametrize("m_h", [2, -1, zeta(4)], ids=["3/2", "0", "(1 + i)/2"])
def test_character_norm_that_is_not_a_positive_integer_is_refused(m_h):
    # hand-built matrices, not an action: M_e = [[1]] and M_h = [[m_h]],
    # both "inverses" [[1]], so the average of tr(M_h) tr(M_h^-1) is the id
    one = cyc_one(4)
    mats = {0: ((one,),), 1: ((one * m_h,),)}
    inverses = {0: ((one,),), 1: ((one,),)}
    with pytest.raises(InternalSoundnessError,
                       match="^character norm of the fiber action is not a positive integer$"):
        _commutant_dim(mats, inverses)


def test_swapped_fibre_action_fails_multiplicativity():
    # the 2-dimensional simple of the S3 fibre at the identity, with the
    # matrices of a transposition and a 3-cycle exchanged
    omega, r, _, pieces = next(_fibre_splits(S3, None))
    action = next(sub for sub, _ in pieces if len(sub[r]) == 2)
    assert check_half_braiding(_induce_simple(omega, r, action)) == []
    swapped = {**action, 1: action[3], 3: action[1]}
    report = check_half_braiding(_induce_simple(omega, r, swapped))
    assert report and report[0].startswith("multiplicativity fails at ")


def test_non_invariant_space_is_refused():
    omega = trivial(S3)
    order = omega.field_order
    mats = _fibre_action(omega, 0)
    one, zero = cyc_one(order), cyc_zero(order)
    C = tuple((one if i == 0 else zero,) for i in range(6))
    with pytest.raises(InternalSoundnessError, match="not invariant"):
        _restrict_action(mats, _prepared(mats), C, (0,))
    # on the regular fibre the average of e_0 e_0^T is I/6, not idempotent
    with pytest.raises(InternalSoundnessError, match="not idempotent"):
        _invariant_projection(mats, _action_inverses(omega.group, mats, _prepared(mats)),
                              C, (0,))


def test_non_projective_action_is_refused():
    omega = trivial(Z4)
    order = omega.field_order
    mats = _fibre_action(omega, 0)
    one, zero = cyc_one(order), cyc_zero(order)
    D = tuple(tuple((-one if i % 2 else one) if i == j else zero for j in range(4))
              for i in range(4))
    mats[3] = mat_mul(D, mats[3])  # M_3 M_1 = D is not scalar
    with pytest.raises(InternalSoundnessError, match="not a scalar inverse"):
        _action_inverses(omega.group, mats, _prepared(mats))


def test_centre_simples_d4():
    result = centre_simples(trivial(D4))
    assert sorted(s.total_dim for s in result.simples) == [1] * 8 + [2] * 14
    assert result.complete and result.all_passed
    per_class = {}
    for s in result.simples:
        per_class[s.class_rep] = per_class.get(s.class_rep, 0) + 1
    assert per_class == {r: character_count_oracle(D4, r) for r in (0, 1, 2, 4, 5)}
    certs = certify_centre_structure(result)
    assert all(c.ok for c in certs), [c.name for c in certs if not c.ok]


def test_centre_simples_trivial_z2_cubed():
    result = centre_simples(trivial(Z2_CUBED))
    assert len(result.simples) == 64
    assert all(s.total_dim == 1 for s in result.simples)
    assert result.complete and result.all_passed
    certs = certify_centre_structure(result)
    assert all(c.ok for c in certs), [c.name for c in certs if not c.ok]


def test_type_iii_z2_cubed_is_never_reported_complete_with_a_wrong_count():
    # The full answer has 22 simples: 8 of dimension 1 over the identity and
    # 2 of dimension 2 over each other element.  On six classes the least
    # non-scalar M_h is not central and each of its eigenvectors straddles
    # two irreducibles, so the split must take the central M_r instead.
    result = centre_simples(type_iii_cocycle())
    assert sorted(s.total_dim for s in result.simples) == [1] * 8 + [2] * 14
    assert result.complete and result.all_passed
    assert all(c.ok for c in result.certificates)
    certs = certify_centre_structure(result)
    assert all(c.ok for c in certs), [c.name for c in certs if not c.ok]


def test_survey_script_reports_every_group():
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "vec_centre_survey.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [re.search(r"simples=\s*(\d+) .*\[(\w+), [\d.]+s\]\s+battery (\w+) ", line)
            for line in proc.stdout.splitlines()]
    assert len(rows) == 10 and all(rows), proc.stdout
    assert all(row.group(2, 3) == ("ok", "PASS") for row in rows), proc.stdout
    assert [int(row[1]) for row in rows] == [4, 9, 16, 25, 36, 4, 8, 22, 64, 22]
