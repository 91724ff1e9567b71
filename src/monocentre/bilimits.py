"""Finite 2-categorical limit gadgets: iso-inserters, equifiers, and descent
objects of truncated pseudo-cosimplicial diagrams.

Each is a category over its base (the source of the inserted pair, the
equified category, level zero of the diagram), built by
fincat.category_over from the objects and the test its morphisms pass.

The descent object is computed twice on every call: once directly from its
defining conditions and once through the inserter-then-equifier pipeline.
The two answers are compared morphism by morphism and a mismatch raises
InternalSoundnessError, so neither construction is ever trusted alone.
A diagram keeps its validate_cosimplicial report as problems, computed on
first use, so the check its builder makes is the one descent_object reads.
"""

from __future__ import annotations

from functools import cached_property

from .config import DEFAULT, GuardConfig, InternalSoundnessError, _report
from .fincat import (
    Functor, NatTransf, category_over, validate_functor, validate_nat_transf,
)
from .record import Record


class Inserter(Record):
    """Universal category of pairs (object of the source, invertible
    comparison between the two functor images)."""

    __slots__ = (
        "category",
        "objects",  # (a, iso id in the target)
        "mor_table",  # (src idx, dst idx, source-category morphism)
        "projection",
    )


def inserter_objects(F: Functor, G: Functor) -> list:
    """The inserter's objects: each a in the source with each invertible
    m: F a -> G a."""
    return [(a, m) for a in F.src.objects
            for m in F.dst.invertible_hom(F.obj_map[a], G.obj_map[a])]


def iso_inserter(F: Functor, G: Functor, cfg: GuardConfig = DEFAULT) -> Inserter:
    if F.src != G.src or F.dst != G.dst:
        raise ValueError("iso_inserter needs a parallel pair of functors")
    A, B = F.src, F.dst
    objs = inserter_objects(F, G)

    def commutes(i, j, f):   # G f . m_i = m_j . F f
        return B.compose(G.mor_map[f], objs[i][1]) == B.compose(objs[j][1], F.mor_map[f])

    cat, mor_table, _, proj = category_over(A, [a for a, _ in objs], commutes, "inserter", cfg)
    return Inserter(cat, tuple(objs), tuple(mor_table), proj)


class Equifier(Record):
    __slots__ = (
        "category",
        "kept",  # retained object ids of the ambient category
        "inclusion",
    )


def equifier(sigma: NatTransf, tau: NatTransf,
             cfg: GuardConfig = DEFAULT) -> Equifier:
    """Full subcategory where two parallel transformations agree."""
    if sigma.src != tau.src or sigma.dst != tau.dst:
        raise ValueError("equifier needs a parallel pair of transformations")
    A = sigma.src.src
    kept = tuple(a for a in A.objects
                 if sigma.components[a] == tau.components[a])
    cat, _, _, inclusion = category_over(A, kept, lambda i, j, f: True, "equifier", cfg)
    return Equifier(cat, kept, inclusion)


# -- truncated pseudo-cosimplicial diagrams and their descent objects ------


class TruncatedCosimplicial(Record):
    """Three levels, two cofaces up, three cofaces up again, and the three
    invertible coherence cells replacing the strict cosimplicial identities:

        coh00: e0.d0 => e1.d0    coh01: e0.d1 => e2.d0    coh21: e2.d1 => e1.d1
    """

    __slots__ = ("X0", "X1", "X2", "d0", "d1", "e0", "e1", "e2", "coh00", "coh01",
                 "coh21", "__dict__", "__weakref__")

    @cached_property
    def problems(self) -> tuple:
        return tuple(validate_cosimplicial(self))


def validate_cosimplicial(T: TruncatedCosimplicial) -> list[str]:
    return _report(_coface_failures(T), _coherence_cell_failures(T))


def _coface_failures(T: TruncatedCosimplicial):
    for name, F, s, d in (("d0", T.d0, T.X0, T.X1), ("d1", T.d1, T.X0, T.X1),
                          ("e0", T.e0, T.X1, T.X2), ("e1", T.e1, T.X1, T.X2),
                          ("e2", T.e2, T.X1, T.X2)):
        if F.src != s or F.dst != d:
            yield f"{name} has wrong endpoints"
        else:
            yield from (f"{name}: {line}" for line in validate_functor(F))


def _coherence_cell_failures(T: TruncatedCosimplicial):
    cells = (("coh00", T.coh00, T.d0.then(T.e0), T.d0.then(T.e1)),
             ("coh01", T.coh01, T.d1.then(T.e0), T.d0.then(T.e2)),
             ("coh21", T.coh21, T.d1.then(T.e2), T.d1.then(T.e1)))
    for name, cell, want_src, want_dst in cells:
        if cell.src != want_src or cell.dst != want_dst:
            yield f"{name} does not sit between the required composites"
            continue
        yield from (f"{name}: {line}" for line in validate_nat_transf(cell))
        for x in T.X0.objects:
            if not T.X2.is_invertible(cell.components[x]):
                yield f"{name} component at {x} is not invertible"


class DescentResult(Record):
    __slots__ = (
        "category",
        "objects",  # (x in X0, gluing iso in X1)
        "mor_table",  # (src idx, dst idx, X0 morphism)
        "projection",
    )


def _cocycle_sides(T: TruncatedCosimplicial, x, m):
    lhs = T.X2.compose(T.e1.mor_map[m], T.coh00.components[x])
    rhs = T.X2.compose_chain(T.coh21.components[x], T.e2.mor_map[m],
                             T.coh01.components[x], T.e0.mor_map[m])
    return lhs, rhs


def descent_object(T: TruncatedCosimplicial,
                   cfg: GuardConfig = DEFAULT) -> DescentResult:
    """Objects are pairs (x, m: d0 x -> d1 x invertible) whose two induced
    level-two composites agree; morphisms are X0-morphisms compatible with
    the gluing."""
    if T.problems:
        raise ValueError("not a valid truncated diagram: " + T.problems[0])

    objs = []
    for x in T.X0.objects:
        for m in T.X1.invertible_hom(T.d0.obj_map[x], T.d1.obj_map[x]):
            lhs, rhs = _cocycle_sides(T, x, m)
            if lhs == rhs:
                objs.append((x, m))

    def glues(i, j, f):   # d1 f . m_i = m_j . d0 f
        return (T.X1.compose(T.d1.mor_map[f], objs[i][1])
                == T.X1.compose(objs[j][1], T.d0.mor_map[f]))

    cat, mor_table, _, proj = category_over(T.X0, [x for x, _ in objs], glues, "descent", cfg)

    # independent route: inserter on the cofaces, then equify the two
    # induced level-two cells
    ins = iso_inserter(T.d0, T.d1, cfg)
    S = ins.projection.then(T.d0).then(T.e0)
    D = ins.projection.then(T.d1).then(T.e1)
    sig, tau = [], []
    for (x, m) in ins.objects:
        lhs, rhs = _cocycle_sides(T, x, m)
        sig.append(lhs)
        tau.append(rhs)
    sigma_cell = NatTransf(S, D, tuple(sig))
    tau_cell = NatTransf(S, D, tuple(tau))
    for name, cell in (("first induced cell", sigma_cell),
                       ("second induced cell", tau_cell)):
        bad = validate_nat_transf(cell)
        if bad:
            raise InternalSoundnessError(f"{name} is not natural: {bad[0]}")
    eq = equifier(sigma_cell, tau_cell, cfg)
    pipeline_objs = tuple(ins.objects[k] for k in eq.kept)
    if pipeline_objs != tuple(objs):
        raise InternalSoundnessError("descent routes disagree on objects")
    via = eq.inclusion.then(ins.projection)
    pipeline_mors = sorted((eq.category.src(m), eq.category.dst(m), via.mor_map[m])
                           for m in eq.category.morphisms)
    if pipeline_mors != mor_table:
        raise InternalSoundnessError("descent routes disagree on morphisms")
    return DescentResult(cat, tuple(objs), tuple(mor_table), proj)
