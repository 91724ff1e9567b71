"""Day convolution of finite Set-valued functors over a finite monoidal base.

A set functor is stored as one size per object and one table per morphism.
The convolution (F (*) G)(a) is the quotient of the generator set

    (b, c, h: b(x)c -> a, s in Fb, t in Gc)

by the smallest relation identifying (b, c, h.(u(x)v), s, t) with
(b', c', h, Fu s, Gv t) for u: b -> b', v: c -> c'.  Classes are numbered by
their least generator in lexicographic order, which makes every map here
deterministic.  Every map out of a convolution (the action of each
morphism, the two unit comparisons and the Yoneda comparison) is read off
by one class rule, _class_map: it is applied to every generator, and a
class given two values, or none, raises InternalSoundnessError.

certify_representables certifies Day's laws on representables (Day, "On
closed categories of functors", 1970) from one convolution of each
ordered pair: the unit J is y_unit, so the unit laws are read off the
pairs that the Yoneda law already convolves.
"""

from __future__ import annotations

from .config import DEFAULT, Budget, GuardConfig, InternalSoundnessError, _report
from .fincat import FinCategory
from .monoidal import MonoidalStructure
from .record import Certificate, Record


class SetFunctor(Record):
    """Finite Set-valued functor: element i of F(a) is the pair (a, i)."""

    __slots__ = ("cat", "sizes", "maps")

    def __init__(self, cat: FinCategory, sizes, maps):
        super().__init__(cat, tuple(sizes), tuple(map(tuple, maps)))

    def apply(self, f, i):
        return self.maps[f][i]


def validate_set_functor(F: SetFunctor) -> list[str]:
    cat = F.cat
    if len(F.sizes) != cat.n_objects:
        return [f"{len(F.sizes)} sizes for {cat.n_objects} objects"]
    if len(F.maps) != cat.n_morphisms:
        return [f"{len(F.maps)} maps for {cat.n_morphisms} morphisms"]
    return _report(
        _function_failures("map of morphism", F.maps,
                           [F.sizes[cat.src(f)] for f in cat.morphisms],
                           [F.sizes[cat.dst(f)] for f in cat.morphisms]),
        _action_failures(F))


def _function_failures(name, tables, domains, codomains):
    """The tables k that are not maps range(domains[k]) -> range(codomains[k])."""
    for k, (table, dom, cod) in enumerate(zip(tables, domains, codomains)):
        if len(table) != dom:
            yield f"{name} {k} has wrong domain size"
        elif any(not 0 <= v < cod for v in table):
            yield f"{name} {k} leaves its codomain"


def _action_failures(F: SetFunctor):
    """Identities and composites that F does not preserve, each composite
    at its first failing element."""
    cat = F.cat
    for a in cat.objects:
        if F.maps[cat.id_of(a)] != tuple(range(F.sizes[a])):
            yield f"identity of object {a} does not act as identity"
    for g, f, gf in cat.composition_items():
        for i in range(F.sizes[cat.src(f)]):
            if F.apply(g, F.apply(f, i)) != F.apply(gf, i):
                yield f"composition fails on ({g}, {f}) at element {i}"
                break


def check_set_transf(F: SetFunctor, G: SetFunctor, components) -> list[str]:
    """components[a][i] is the image in G(a) of element i of F(a)."""
    if len(components) != F.cat.n_objects:
        return ["wrong number of components"]
    return _report(_function_failures("component at", components, F.sizes, G.sizes),
                   _natural_failures(F, G, components))


def _natural_failures(F: SetFunctor, G: SetFunctor, components):
    """The morphisms at which the components are not natural, each at its
    first failing element."""
    cat = F.cat
    for f in cat.morphisms:
        a, b = cat.src(f), cat.dst(f)
        for i in range(F.sizes[a]):
            if components[b][F.apply(f, i)] != G.apply(f, components[a][i]):
                yield f"naturality fails at morphism {f}, element {i}"
                break


def is_bijection_family(F: SetFunctor, G: SetFunctor, components) -> bool:
    return all(F.sizes[a] == G.sizes[a]
               and len(set(components[a])) == F.sizes[a]
               for a in F.cat.objects)


def yoneda_functor(cat: FinCategory, b) -> SetFunctor:
    """Hom(b, -) with elements numbered by position in the hom list."""
    homs = [cat.hom(b, a) for a in cat.objects]
    pos = [{m: i for i, m in enumerate(h)} for h in homs]
    sizes = tuple(len(h) for h in homs)
    maps = []
    for f in cat.morphisms:
        a, a2 = cat.src(f), cat.dst(f)
        maps.append(tuple(pos[a2][cat.compose(f, m)] for m in homs[a]))
    return SetFunctor(cat, sizes, maps)


def yoneda_elem(cat: FinCategory, b, m) -> int:
    """Position of the morphism m inside Hom(b, dst m)."""
    return cat.hom(b, cat.dst(m)).index(m)


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        # keep the least index as the root so representatives are canonical
        if rx < ry:
            self.parent[ry] = rx
        else:
            self.parent[rx] = ry


class DayTensor(Record):
    __slots__ = (
        "ms",
        "left",
        "right",
        "functor",
        "gens",  # object -> its generators (b, c, h, s, t), sorted
        "gen_class",  # (b, c, h, s, t) -> (object, class index)
    )


def day_convolve(ms: MonoidalStructure, F: SetFunctor, G: SetFunctor,
                 cfg: GuardConfig = DEFAULT) -> DayTensor:
    cat = ms.base
    gens = [[] for _ in cat.objects]
    budget = Budget(cfg.max_branch, "convolution generators")
    for b in cat.objects:
        for c in cat.objects:
            bc = ms.tensor_obj(b, c)
            for h in cat.out_mors(bc):
                a = cat.dst(h)
                budget.spend(F.sizes[b] * G.sizes[c])
                gens[a].extend((b, c, h, s, t) for s in range(F.sizes[b])
                               for t in range(G.sizes[c]))
    gens = tuple(tuple(sorted(g)) for g in gens)
    gpos = {}
    for a, lst in enumerate(gens):
        for i, q in enumerate(lst):
            gpos[q] = (a, i)

    ufs = [_UnionFind(len(lst)) for lst in gens]
    budget = Budget(cfg.max_branch, "convolution relations")
    for u in cat.morphisms:
        b, b2 = cat.src(u), cat.dst(u)
        for v in cat.morphisms:
            c, c2 = cat.src(v), cat.dst(v)
            uv = ms.tensor_mor(u, v)
            for h in cat.out_mors(ms.tensor_obj(b2, c2)):
                a = cat.dst(h)
                h_uv = cat.compose(h, uv)
                budget.spend(F.sizes[b] * G.sizes[c])
                for s in range(F.sizes[b]):
                    for t in range(G.sizes[c]):
                        i = gpos[(b, c, h_uv, s, t)][1]
                        j = gpos[(b2, c2, h, F.apply(u, s), G.apply(v, t))][1]
                        ufs[a].union(i, j)

    gen_class, sizes = {}, []
    for a, lst in enumerate(gens):
        root_to_class = {}
        for i, q in enumerate(lst):
            gen_class[q] = (a, root_to_class.setdefault(ufs[a].find(i), len(root_to_class)))
        sizes.append(len(root_to_class))

    maps = _class_map(gens, sizes, gen_class, [cat.src(k) for k in cat.morphisms],
                      lambda k, b, c, h, s, t: gen_class[(b, c, cat.compose(k, h), s, t)][1],
                      "convolution action")
    out = SetFunctor(cat, sizes, maps)
    internal = validate_set_functor(out)
    if internal:
        raise InternalSoundnessError("convolution is not a functor: " + internal[0])
    return DayTensor(ms, F, G, out, gens, gen_class)


def _class_map(gens, sizes, gen_class, over, total, name):
    """The class rule: for each i, the table over the classes at object
    over[i] that sends each generator q there to total(i, *q); total must
    be constant on every class and reach every class."""
    components = []
    for i, a in enumerate(over):
        table = [None] * sizes[a]
        for q in gens[a]:
            cls, val = gen_class[q][1], total(i, *q)
            if table[cls] is None:
                table[cls] = val
            elif table[cls] != val:
                raise InternalSoundnessError(f"{name} depends on the representative")
        if None in table:
            raise InternalSoundnessError(f"{name} misses a class")
        components.append(tuple(table))
    return tuple(components)


def _comparison(day: DayTensor, name, total):
    """The components at every object a of the map out of the convolution
    that sends each generator (b, c, h, s, t) over a to total(a, b, c, h, s, t)."""
    return _class_map(day.gens, day.functor.sizes, day.gen_class, day.ms.base.objects,
                      total, name)


def left_unit_components(day: DayTensor):
    """(J (*) F)(a) -> F(a) where J = y_unit: send (b, c, h, s: e -> b, t)
    to F(h . (s (x) 1_c) . lambda_inv)(t)."""
    ms, cat, F = day.ms, day.ms.base, day.right
    return _comparison(day, "left unit comparison", lambda a, b, c, h, s, t: F.apply(
        cat.compose_chain(h, ms.rwhisk(cat.hom(ms.unit, b)[s], c), ms.lam_inv(c)), t))


def right_unit_components(day: DayTensor):
    """(F (*) J)(a) -> F(a): send (b, c, h, s, t: e -> c) to
    F(h . (1_b (x) t) . rho_inv)(s)."""
    ms, cat, F = day.ms, day.ms.base, day.left
    return _comparison(day, "right unit comparison", lambda a, b, c, h, s, t: F.apply(
        cat.compose_chain(h, ms.lwhisk(b, cat.hom(ms.unit, c)[t]), ms.rho_inv(b)), s))


def yoneda_components(day: DayTensor, b, c):
    """(y_b (*) y_c)(a) -> y_{b(x)c}(a): send (b', c', h, s, t) to
    h . (s (x) t)."""
    ms, cat = day.ms, day.ms.base
    bc = ms.tensor_obj(b, c)
    return _comparison(day, "representable comparison", lambda a, b2, c2, h, s, t: yoneda_elem(
        cat, bc, cat.compose(h, ms.tensor_mor(cat.hom(b, b2)[s], cat.hom(c, c2)[t]))))


def cardinality_check(day: DayTensor) -> list[str]:
    """On a discrete base the class count at a is the convolution sum
    of the factor sizes over tensor decompositions of a."""
    ms = day.ms
    cat = ms.base
    if any(not cat.is_identity(m) for m in cat.morphisms):
        return ["cardinality law only applies over a discrete base"]
    report = []
    for a in cat.objects:
        want = sum(day.left.sizes[b] * day.right.sizes[c]
                   for b in cat.objects for c in cat.objects
                   if ms.tensor_obj(b, c) == a)
        if day.functor.sizes[a] != want:
            report.append(f"size at object {a} is {day.functor.sizes[a]}, "
                          f"expected {want}")
    return report


def _iso_failure(day: DayTensor, target: SetFunctor, components, not_bijective: str):
    """The first reason the components are not a natural bijection from
    the convolution to target, or None."""
    bad = check_set_transf(day.functor, target, components)
    if bad:
        return bad[0]
    if not is_bijection_family(day.functor, target, components):
        return not_bijective
    return None


def certify_representables(ms: MonoidalStructure, cfg: GuardConfig = DEFAULT) -> tuple:
    """Day's laws on the representables y_b = Hom(b, -), convolving each
    ordered pair (b, c) once: the Yoneda law y_b (*) y_c ~= y_{b(x)c} at every
    pair, the unit laws J (*) y_b ~= y_b ~= y_b (*) J read off the pairs
    (unit, b) and (b, unit), as J is y_unit, and over a discrete base the
    cardinality law at every pair.  A failure names its pair, or its side
    and object."""
    cat = ms.base
    ys = [yoneda_functor(cat, b) for b in cat.objects]
    discrete = all(cat.is_identity(m) for m in cat.morphisms)
    yoneda_report, card_report, unit_failure = [], [], {}
    for b in cat.objects:
        for c in cat.objects:
            day = day_convolve(ms, ys[b], ys[c], cfg)
            bad = _iso_failure(day, ys[ms.tensor_obj(b, c)], yoneda_components(day, b, c),
                               "comparison is not a bijection")
            if bad:
                yoneda_report.append(f"pair ({b}, {c}): {bad}")
            if discrete:
                card_report += [f"pair ({b}, {c}): {w}" for w in cardinality_check(day)]
            if b == ms.unit:
                unit_failure["left", c] = _iso_failure(day, ys[c], left_unit_components(day),
                                                       "not a bijection")
            if c == ms.unit:
                unit_failure["right", b] = _iso_failure(day, ys[b], right_unit_components(day),
                                                        "not a bijection")
    unit_report = [f"{side} unit at {b}: {unit_failure[side, b]}"
                   for b in cat.objects for side in ("left", "right") if unit_failure[side, b]]
    certs = (Certificate.of("Yoneda law y_b ⊗ y_c ≅ y_{b⊗c}", yoneda_report),
             Certificate.of("unit laws on representables", unit_report))
    if discrete:
        certs += (Certificate.of("cardinality law (discrete base)", card_report),)
    return certs
