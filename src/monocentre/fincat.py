"""Finite categories as explicit composition tables.

Objects and morphisms are dense integer ids.  A category is four tables:
morphism sources, morphism targets, the identity morphism of each object,
and the composition partial map (g, f) -> g . f defined exactly on the
composable pairs.  Everything downstream (functor enumeration, centres,
descent objects) is exhaustive search over these tables, so the encodings
stay canonical, and categories, functors and transformations are records
that compare by value.

Preservation of composition and naturality are each written once, as a
generator of the places where the law fails: the enumerators prune with
it as soon as the places it reads are assigned, and validate_functor and
validate_nat_transf report from it through config._report.

Every set-level enumeration, here and in centre, and the scalar
half-braiding search of graded, is one search, _search: one max_branch
step per candidate tried, and each check run once, when the last slot it
reads is set (_schedule).

Every derived category (A x B, U + V, each category over a base, each
functor subcategory) is built from its (src, dst, label) rows by one
builder, _table_category: it refuses on max_morphisms and composes by
labels.  Each caller bounds its objects before listing rows, and the
product its morphism count too, as A x B can have very many.  The
centre, CP(U, A), the inserter, the descent object and the equifier lie
over a base, with the base morphisms that pass a test: category_over
builds them, and their projections.
"""

from __future__ import annotations

from functools import cached_property, partial
from itertools import chain

from .config import DEFAULT, Budget, GuardConfig, InternalSoundnessError, _report
from .record import Record


class FinCategory(Record):
    """A finite category over dense integer ids.

    compose_map is the (g, f) -> g.f dict; treat it as read-only.  The hom,
    in/out and inverse indexes are computed on first use.
    """

    __slots__ = ("n_objects", "mor_src", "mor_dst", "identity", "compose_map", "__dict__")

    def __init__(self, n_objects, mor_src, mor_dst, identity, compose_map):
        super().__init__(n_objects, tuple(mor_src), tuple(mor_dst), tuple(identity),
                         dict(compose_map))

    # -- table access -------------------------------------------------

    @property
    def objects(self):
        return range(self.n_objects)

    @property
    def n_morphisms(self):
        return len(self.mor_src)

    @property
    def morphisms(self):
        return range(len(self.mor_src))

    def src(self, m):
        return self.mor_src[m]

    def dst(self, m):
        return self.mor_dst[m]

    def id_of(self, a):
        return self.identity[a]

    def is_identity(self, m):
        a = self.mor_src[m]
        return self.mor_dst[m] == a and self.identity[a] == m

    def composition_items(self):
        """Sorted (g, f, g.f) triples; the canonical serialization."""
        return tuple(sorted((g, f, h) for (g, f), h in self.compose_map.items()))

    def compose(self, g, f):
        try:
            return self.compose_map[(g, f)]
        except KeyError:
            raise ValueError(f"morphisms not composable: {g} after {f}") from None

    def compose_chain(self, *mors):
        """compose_chain(h, g, f) = h . g . f (rightmost applied first)."""
        out = mors[-1]
        for m in reversed(mors[:-1]):
            out = self.compose(m, out)
        return out

    # -- derived structure ---------------------------------------------

    @cached_property
    def _hom(self) -> dict:
        hom = {}
        for m, ends in enumerate(zip(self.mor_src, self.mor_dst)):
            hom.setdefault(ends, []).append(m)
        return hom

    @cached_property
    def _out(self) -> tuple:
        return _by_object(self.n_objects, self.mor_src)

    @cached_property
    def _in(self) -> tuple:
        return _by_object(self.n_objects, self.mor_dst)

    @cached_property
    def _inverse(self) -> dict:
        ident, srcs, comp = self.identity, self.mor_src, self.compose_map
        return {f: g for (g, f), h in comp.items()
                if h == ident[srcs[f]] and comp.get((f, g)) == ident[srcs[g]]}

    @cached_property
    def _by_later_end(self) -> list:
        """Each morphism under its later end, where naturality is checked."""
        return _schedule(self.objects, enumerate(zip(self.mor_src, self.mor_dst)))

    def hom(self, a, b):
        return self._hom.get((a, b), [])

    def out_mors(self, a):
        return self._out[a]

    def in_mors(self, b):
        return self._in[b]

    def is_invertible(self, m):
        return m in self._inverse

    def inverse(self, m):
        return self._inverse[m]

    def invertible_hom(self, a, b):
        return [m for m in self.hom(a, b) if self.is_invertible(m)]


def _by_object(n, ends) -> tuple:
    """The morphisms grouped by the object ends[m] of each morphism m."""
    out = [[] for _ in range(n)]
    for m, a in enumerate(ends):
        out[a].append(m)
    return tuple(map(tuple, out))


def _table_category(rows, identity, compose, what: str, cfg: GuardConfig):
    """The category whose morphisms are the (src, dst, label) rows, taken in
    the given order, which is the order of the morphism ids.

    identity[i] is the label of object i's identity and compose(g, f) the
    label of g . f.  Refuses "{what} morphisms" on max_morphisms; a missing
    row is an InternalSoundnessError.  Returns the category and the row ->
    morphism id index.
    """
    cfg.bound(f"{what} morphisms", len(rows), "max_morphisms")
    index = {row: k for k, row in enumerate(rows)}

    def lookup(row):
        k = index.get(row)
        if k is None:
            raise InternalSoundnessError(f"{what} is not closed under composition")
        return k

    ident = tuple(lookup((i, i, label)) for i, label in enumerate(identity))
    srcs = tuple(row[0] for row in rows)
    by_src = _by_object(len(identity), srcs)
    comp = {}
    for k1, (i1, j1, f1) in enumerate(rows):
        for k2 in by_src[j1]:
            _, j2, f2 = rows[k2]
            comp[(k2, k1)] = lookup((i1, j2, compose(f2, f1)))
    cat = FinCategory(len(identity), srcs, tuple(row[1] for row in rows), ident, comp)
    return cat, index


def validate_category(cat: FinCategory) -> list[str]:
    """Return the violated category axioms, capped as config._report caps
    every check; empty iff cat is a category.

    Malformed tables (out-of-range ids, wrong lengths) are reported rather
    than raised, on their own, as the axiom checks would crash on them.
    """
    n, m = cat.n_objects, cat.n_morphisms
    srcs, dsts, ident, comp = cat.mor_src, cat.mor_dst, cat.identity, cat.compose_map
    if len(ident) != n:
        return [f"identity table has {len(ident)} entries for {n} objects"]
    malformed = chain(
        (f"morphism {mor} has out-of-range endpoints ({srcs[mor]}, {dsts[mor]})"
         for mor in cat.morphisms if not (0 <= srcs[mor] < n and 0 <= dsts[mor] < n)),
        (f"identity of object {a} is out of range: {e}"
         for a, e in enumerate(ident) if not 0 <= e < m),
        (f"composition entry ({g}, {f}) -> {h} has out-of-range ids"
         for (g, f), h in comp.items() if not (0 <= g < m and 0 <= f < m and 0 <= h < m)))
    return _report(malformed, _category_failures(cat))


def _category_failures(cat: FinCategory):
    srcs, dsts, ident, comp = cat.mor_src, cat.mor_dst, cat.identity, cat.compose_map
    for a, e in enumerate(ident):
        if srcs[e] != a or dsts[e] != a:
            yield f"identity of object {a} is morphism {e}: {srcs[e]} -> {dsts[e]}"
    for (g, f), h in sorted(comp.items()):
        if srcs[g] != dsts[f]:
            yield f"compose defined on non-composable pair ({g}, {f})"
        elif srcs[h] != srcs[f] or dsts[h] != dsts[g]:
            yield f"composite of ({g}, {f}) has wrong endpoints: morphism {h}"
    for b in cat.objects:
        for f in cat.in_mors(b):
            for g in cat.out_mors(b):
                if (g, f) not in comp:
                    yield f"composition missing on composable pair ({g}, {f})"
    for mor in cat.morphisms:
        if comp.get((ident[dsts[mor]], mor)) != mor:
            yield f"left identity law fails at morphism {mor}"
        if comp.get((mor, ident[srcs[mor]])) != mor:
            yield f"right identity law fails at morphism {mor}"
    for (g, f), gf in comp.items():
        if srcs[g] != dsts[f]:
            continue
        for h in cat.out_mors(dsts[g]):
            left = comp.get((h, gf))
            hg = comp.get((h, g))
            right = comp.get((hg, f)) if hg is not None else None
            if left != right or left is None:
                yield f"associativity fails at ({h}, {g}, {f})"


class Functor(Record):
    """A functor between finite categories, as object and morphism tables."""

    __slots__ = ("src", "dst", "obj_map", "mor_map")

    def __init__(self, src, dst, obj_map, mor_map):
        super().__init__(src, dst, tuple(obj_map), tuple(mor_map))

    def then(self, other: "Functor") -> "Functor":
        """Diagram-order composite: (self.then(g))(x) = g(self(x))."""
        if self.dst is not other.src and self.dst != other.src:
            raise ValueError("functors not composable")
        return Functor(self.src, other.dst,
                       tuple(other.obj_map[a] for a in self.obj_map),
                       tuple(other.mor_map[m] for m in self.mor_map))


def validate_functor(F: Functor) -> list[str]:
    A, B = F.src, F.dst
    if len(F.obj_map) != A.n_objects or len(F.mor_map) != A.n_morphisms:
        return [f"table lengths {len(F.obj_map)}/{len(F.mor_map)} do not match the source"]
    for a, b in enumerate(F.obj_map):
        if not 0 <= b < B.n_objects:
            return [f"object {a} maps out of range"]
    for m, fm in enumerate(F.mor_map):
        if not 0 <= fm < B.n_morphisms:
            return [f"morphism {m} maps out of range"]
    return _report(chain(
        (f"morphism {m} maps to {fm} with wrong endpoints" for m, fm in enumerate(F.mor_map)
         if B.src(fm) != F.obj_map[A.src(m)] or B.dst(fm) != F.obj_map[A.dst(m)]),
        (f"identity of object {a} is not preserved" for a in A.objects
         if F.mor_map[A.id_of(a)] != B.id_of(F.obj_map[a])),
        (f"composition not preserved on ({g}, {f})"
         for g, f in _composition_failures(B, F.mor_map, _composable(A)))))


def _composable(A: FinCategory):
    """The (g, f, g.f) triples of A's composition on composable pairs."""
    return ((g, f, h) for (g, f), h in A.compose_map.items() if A.src(g) == A.dst(f))


def _composition_failures(B: FinCategory, mor_map, triples):
    """The pairs (g, f) of the (g, f, g.f) triples where mor_map does not
    send g.f to the composite in B of the images of g and f."""
    comp = B.compose_map
    for g, f, h in triples:
        if comp.get((mor_map[g], mor_map[f])) != mor_map[h]:
            yield g, f


class NatTransf(Record):
    """A natural transformation, as a tuple of component morphism ids."""

    __slots__ = ("src", "dst", "components")

    def __init__(self, src: Functor, dst: Functor, components):
        super().__init__(src, dst, tuple(components))


def validate_nat_transf(eta: NatTransf) -> list[str]:
    F, G = eta.src, eta.dst
    if F.src is not G.src and F.src != G.src:
        return ["source functors do not share a domain"]
    if F.dst is not G.dst and F.dst != G.dst:
        return ["source functors do not share a codomain"]
    A, B, comps = F.src, F.dst, eta.components
    if len(comps) != A.n_objects:
        return [f"{len(comps)} components for {A.n_objects} objects"]
    for a, c in enumerate(comps):
        if not 0 <= c < B.n_morphisms:
            return [f"component at {a} out of range"]
    return _report(
        (f"component at {a} has wrong endpoints" for a, c in enumerate(comps)
         if B.src(c) != F.obj_map[a] or B.dst(c) != G.obj_map[a]),
        (f"naturality fails at morphism {m}"
         for m in _naturality_failures(F, G, comps, A.morphisms)))


def _naturality_failures(F: Functor, G: Functor, comps, mors):
    """The morphisms m: a -> b among mors where comps_b . F m != G m . comps_a."""
    srcs, dsts, comp, fm, gm = F.src.mor_src, F.src.mor_dst, F.dst.compose_map, F.mor_map, G.mor_map
    for m in mors:
        left = comp.get((comps[dsts[m]], fm[m]))
        if left is None or left != comp.get((gm[m], comps[srcs[m]])):
            yield m


# -- basic shapes -------------------------------------------------------


def discrete_category(n: int) -> FinCategory:
    ids = tuple(range(n))
    return FinCategory(n, ids, ids, ids, {(i, i): i for i in range(n)})


def terminal_category() -> FinCategory:
    return discrete_category(1)


def empty_category() -> FinCategory:
    return discrete_category(0)


def walking_arrow() -> FinCategory:
    # objects 0, 1; morphism 2 is the arrow 0 -> 1
    comp = {(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2}
    return FinCategory(2, (0, 1, 0), (0, 1, 1), (0, 1), comp)


# -- products, coproducts, categories over a base ------------------------


class ProductCategory(Record):
    __slots__ = ("category", "left", "right")

    def obj_id(self, a, b):
        return a * self.right.n_objects + b

    def obj_pair(self, o):
        return divmod(o, self.right.n_objects)

    def mor_id(self, f, g):
        return f * self.right.n_morphisms + g

    def mor_pair(self, m):
        return divmod(m, self.right.n_morphisms)


def product_category(A: FinCategory, B: FinCategory, cfg: GuardConfig = DEFAULT) -> ProductCategory:
    """A x B: morphism (f, g) has id f * |mor B| + g, which labels its row."""
    nb, nmb = B.n_objects, B.n_morphisms
    cfg.bound("product category objects", A.n_objects * nb, "max_objects")
    cfg.bound("product category morphisms", A.n_morphisms * nmb, "max_morphisms")
    rows = [(A.src(f) * nb + B.src(g), A.dst(f) * nb + B.dst(g), f * nmb + g)
            for f in A.morphisms for g in B.morphisms]
    ca, cb = A.compose_map, B.compose_map

    def compose(g, f):
        return ca[g // nmb, f // nmb] * nmb + cb[g % nmb, f % nmb]

    cat, _ = _table_category(
        rows, [A.id_of(a) * nmb + B.id_of(b) for a in A.objects for b in B.objects],
        compose, "product category", cfg)
    return ProductCategory(cat, A, B)


class CoproductCategory(Record):
    __slots__ = ("category", "inj_left", "inj_right")


def coproduct_category(A: FinCategory, B: FinCategory,
                       cfg: GuardConfig = DEFAULT) -> CoproductCategory:
    """A + B: A's morphisms, labelled (0, f), then B's, labelled (1, g)."""
    na, parts = A.n_objects, (A, B)
    cfg.bound("coproduct category objects", na + B.n_objects, "max_objects")
    rows = [(side * na + C.src(f), side * na + C.dst(f), (side, f))
            for side, C in enumerate(parts) for f in C.morphisms]
    cat, _ = _table_category(
        rows, [(side, C.id_of(c)) for side, C in enumerate(parts) for c in C.objects],
        lambda g, f: (g[0], parts[g[0]].compose(g[1], f[1])), "coproduct category", cfg)
    return CoproductCategory(cat, *(
        Functor(C, cat, [c + side * na for c in C.objects],
                [f + side * A.n_morphisms for f in C.morphisms]) for side, C in enumerate(parts)))


def category_over(base: FinCategory, over, keep, what: str, cfg: GuardConfig):
    """The category whose object i lies over the base object over[i] and
    whose morphisms i -> j are the base morphisms f: over[i] -> over[j]
    with keep(i, j, f), composed in base.

    Refuses "{what} objects" before keep runs, then "{what} morphisms".
    Returns the category, its (i, j, f) rows in order, the row -> morphism
    id index, and the projection to base.
    """
    cfg.bound(f"{what} objects", len(over), "max_objects")
    rows = [(i, j, f) for i, a in enumerate(over) for j, b in enumerate(over)
            for f in base.hom(a, b) if keep(i, j, f)]
    cat, index = _table_category(rows, [base.id_of(a) for a in over], base.compose,
                                 what, cfg)
    return cat, rows, index, Functor(cat, base, over, [f for _, _, f in rows])


# -- exhaustive enumeration ----------------------------------------------


def _schedule(slots, checks) -> list[list]:
    """Each check of the (check, slots it reads) pairs, under the position
    in slots of the last slot it reads; one that reads none is dropped."""
    pos = {s: k for k, s in enumerate(slots)}
    at = [[] for _ in pos]
    for check, reads in checks:
        ks = [pos[s] for s in reads if s in pos]
        if ks:
            at[max(ks)].append(check)
    return at


def _search(vals, slots, candidates, at, failures, budget: Budget, emit) -> None:
    """Depth-first search over the values of vals at slots, in that order.

    Slot s takes the values candidates(s) in turn, each spending one budget
    step; once slots[k] is set, the search goes deeper only if
    failures(at[k]) yields nothing.  emit() sees each complete assignment,
    in lexicographic order."""
    n = len(slots)
    if n == 0:
        emit()
        return
    tries = [iter(candidates(slots[0]))]   # the untried values of each slot set
    while tries:
        k = len(tries) - 1
        slot, checks = slots[k], at[k]
        for cand in tries[k]:
            budget.spend()
            vals[slot] = cand
            if next(failures(checks), None) is None:
                break
        else:   # slots[k] has no value left: back up
            tries.pop()
            continue
        if k + 1 == n:
            emit()
        else:
            tries.append(iter(candidates(slots[k + 1])))


def enumerate_functors(A: FinCategory, B: FinCategory,
                       cfg: GuardConfig = DEFAULT) -> list[Functor]:
    """All functors A -> B, in lexicographic (obj_map, mor_map) order.

    Searches the object images, then, under each object map, the images of
    the non-identity morphisms, checking each composition as soon as its
    last non-identity member is set.
    """
    budget = Budget(cfg.max_branch, "functor enumeration")
    nonid = [m for m in A.morphisms if not A.is_identity(m)]
    at = _schedule(nonid, ((t, t) for t in _composable(A)))
    obj_map = [0] * A.n_objects
    mor_map = [0] * A.n_morphisms
    failures = partial(_composition_failures, B, mor_map)
    out: list[Functor] = []

    def mor_choices(m):
        return B.hom(obj_map[A.src(m)], obj_map[A.dst(m)])

    def emit():
        out.append(Functor(A, B, tuple(obj_map), tuple(mor_map)))

    def search_mors():
        for a in A.objects:
            mor_map[A.id_of(a)] = B.id_of(obj_map[a])
        _search(mor_map, nonid, mor_choices, at, failures, budget, emit)

    # object images are unconstrained: no checks, so iter finds no failure
    _search(obj_map, A.objects, lambda a: B.objects, [()] * A.n_objects, iter, budget,
            search_mors)
    return out


def enumerate_nat_transfs(F: Functor, G: Functor, budget: Budget) -> list[NatTransf]:
    """All natural transformations F => G, components in lexicographic order,
    spending budget, which callers may share."""
    A, B = F.src, F.dst
    comps = [0] * A.n_objects
    out = []
    _search(comps, A.objects, lambda a: B.hom(F.obj_map[a], G.obj_map[a]), A._by_later_end,
            partial(_naturality_failures, F, G, comps), budget,
            lambda: out.append(NatTransf(F, G, tuple(comps))))
    return out


# -- functor categories ---------------------------------------------------


class FunctorCategory(Record):
    __slots__ = (
        "category",
        "source",
        "functors",  # object id -> Functor
        "transfs",  # morphism id -> NatTransf
        "functor_index",  # (obj_map, mor_map) -> object id
        "transf_index",  # (src id, dst id, components) -> morphism id
    )


def functor_category(A: FinCategory, B: FinCategory,
                     cfg: GuardConfig = DEFAULT) -> FunctorCategory:
    """The category of functors A -> B and all natural transformations."""
    return full_functor_subcategory(A, B, enumerate_functors(A, B, cfg), cfg)


def full_functor_subcategory(A: FinCategory, B: FinCategory, functors,
                             cfg: GuardConfig = DEFAULT,
                             what: str = "functor category") -> FunctorCategory:
    """The full subcategory of [A, B] on the given functors A -> B.

    Objects are the distinct functors in (obj_map, mor_map) order; morphisms
    are every natural transformation between them, in (src, dst, components)
    order, composed componentwise.  One max_branch budget covers the whole
    call.  what names the category in guard messages.
    """
    functors = sorted({(F.obj_map, F.mor_map): F for F in functors}.values(),
                      key=lambda F: (F.obj_map, F.mor_map))
    cfg.bound(f"{what} objects", len(functors), "max_objects")
    findex = {(F.obj_map, F.mor_map): i for i, F in enumerate(functors)}
    by_objmap: dict[tuple, list[int]] = {}
    extensions: dict[tuple, set] = {}   # object-map prefix -> next objects
    for i, F in enumerate(functors):
        by_objmap.setdefault(F.obj_map, []).append(i)
        for a in A.objects:
            extensions.setdefault(F.obj_map[:a], set()).add(F.obj_map[a])

    budget = Budget(cfg.max_branch, f"{what} morphism enumeration")
    raw: list[tuple[int, int, tuple]] = []
    for fi, F in enumerate(functors):
        # object maps of the functors G with every hom(F a, G a) non-empty
        targets = [()]
        for a in A.objects:
            targets = [t + (b,) for t in targets for b in extensions.get(t, ())
                       if B.hom(F.obj_map[a], b)]
            budget.spend(len(targets))
        for target in targets:
            for gi in by_objmap[target]:
                raw.extend((fi, gi, eta.components)
                           for eta in enumerate_nat_transfs(F, functors[gi], budget))
    raw.sort()
    cat, tindex = _table_category(
        raw, [tuple(B.id_of(b) for b in F.obj_map) for F in functors],
        lambda g, f: tuple(B.compose(x, y) for x, y in zip(g, f)), what, cfg)
    transfs = tuple(NatTransf(functors[s], functors[d], comps) for s, d, comps in raw)
    return FunctorCategory(cat, A, tuple(functors), transfs, findex, tindex)


# -- equivalence checking --------------------------------------------------


class EquivalenceReport(Record):
    __slots__ = ("functor", "faithful", "full", "essentially_surjective", "witnesses")

    @property
    def is_equivalence(self):
        return self.faithful and self.full and self.essentially_surjective

    def summary(self):
        if self.is_equivalence:
            return "equivalence"
        return "not an equivalence: " + "; ".join(self.witnesses)


def check_equivalence(F: Functor) -> EquivalenceReport:
    """Decide full + faithful + essentially surjective by exhaustion.

    The witnesses are reported as every check reports, through
    config._report: those of faithfulness, else those of fullness, else
    those of essential surjectivity."""
    A, B = F.src, F.dst
    pairs = [(a, b) for a in A.objects for b in A.objects]

    def unfaithful():
        for a, b in pairs:
            seen = {}
            for m in A.hom(a, b):
                fm = F.mor_map[m]
                if fm in seen:
                    yield (f"faithfulness fails: morphisms {seen[fm]} and {m} ({a} -> {b}) "
                           f"both map to {fm}")
                seen.setdefault(fm, m)

    def unfull():
        for a, b in pairs:
            image = {F.mor_map[m] for m in A.hom(a, b)}
            for m2 in B.hom(F.obj_map[a], F.obj_map[b]):
                if m2 not in image:
                    yield f"fullness fails: morphism {m2} : F{a} -> F{b} is not hit"

    def unreached():
        hit = set(F.obj_map)
        for b in B.objects:
            if b not in hit and not any(B.invertible_hom(F.obj_map[a], b) for a in A.objects):
                yield f"essential surjectivity fails: object {b} is not reached up to iso"

    checks = (unfaithful, unfull, unreached)
    verdicts = [next(fails(), None) is None for fails in checks]
    witnesses = _report(*(fails() for fails, ok in zip(checks, verdicts) if not ok))
    return EquivalenceReport(F, *verdicts, tuple(witnesses))
