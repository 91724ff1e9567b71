"""The census of small monoidal categories: every monoid of order at most
4 with identity 0, as a discrete strict monoidal category, and every
commutative one as a one-object category; and every monoid of order at
most 3 with identity 0 on every non-discrete partial order on its
elements that its product is monotone for, as a thin category.

None of the fixtures is a monoid that is not a group, so these inputs
reach the centre, the inserter, the equifier and the descent object on
shapes the fixtures lack; the thin ones reach every level with
non-identity morphisms.  The oracles are hand facts:

* a discrete category's half-braidings are identities, so its centre has
  one object over each central element and no other;
* a one-object category's only half-braiding is the identity (it is
  invertible and equal to its own square), and every endomorphism
  commutes with it, so the centre has one object with |M| endomorphisms;
* a poset's only isomorphisms are identities, so an element has a
  half-braiding exactly when it commutes with every element, and then
  one: the centre is the full subposet on the central elements.
"""

import pytest

from monocentre.hochschild import verify_prop_3_1

from helpers import (
    is_monotone, monoid_tables, one_object_monoidal, partial_orders, thin_monoidal,
)

ORDERS = (1, 2, 3, 4)
THIN_ORDERS = (2, 3)


def commutative(table):
    return all(row[b] == table[b][a] for a, row in enumerate(table) for b in range(len(table)))


def central(table):
    n = len(table)
    return [a for a in range(n) if all(table[a][x] == table[x][a] for x in range(n))]


def discrete(n):
    return frozenset((a, a) for a in range(n))


def thin_census(n):
    """(table, order) for every non-discrete order and monotone table."""
    return [(table, leq) for leq in partial_orders(n)[1:] for table in monoid_tables(n)
            if is_monotone(table, leq)]


def test_census_counts():
    # labelled monoids with identity 0, and the commutative ones among them
    counts = [(len(monoid_tables(n)), sum(map(commutative, monoid_tables(n))))
              for n in ORDERS]
    assert counts == [(1, 1), (2, 2), (11, 9), (156, 94)]
    # labelled partial orders, and the thin structures on the non-discrete ones
    assert [len(partial_orders(n)) for n in ORDERS] == [1, 3, 19, 219]
    assert [len(thin_census(n)) for n in THIN_ORDERS] == [2, 60]


@pytest.mark.parametrize("n", ORDERS)
def test_discrete_centre_lies_over_the_central_elements(n):
    for table in monoid_tables(n):
        ms = thin_monoidal(table, discrete(n))
        rep = verify_prop_3_1(ms)
        Z = rep.centre
        assert [o.a for o in Z.objects] == central(table), table
        assert Z.category.n_morphisms == len(central(table)), table
        assert Z.all_passed, (table, [c.name for c in Z.certificates if not c.ok])
        assert rep.verdict == "equivalence", table


@pytest.mark.parametrize("n", THIN_ORDERS)
def test_thin_centre_is_the_full_subposet_on_the_central_elements(n):
    for table, leq in thin_census(n):
        ms = thin_monoidal(table, leq)
        assert ms.problems == (), (table, leq)
        rep = verify_prop_3_1(ms)
        Z = rep.centre
        over = [o.a for o in Z.objects]
        assert over == central(table), (table, leq)
        assert ({(over[i], over[j]) for i, j, _ in Z.mor_table}
                == {(a, b) for a, b in leq if a in over and b in over}), (table, leq)
        assert Z.category.n_morphisms == len(Z.mor_table), (table, leq)
        assert Z.all_passed, (table, leq, [c.name for c in Z.certificates if not c.ok])
        assert rep.verdict == "equivalence", (table, leq)


@pytest.mark.parametrize("n", ORDERS)
def test_one_object_centre_has_every_endomorphism(n):
    for table in filter(commutative, monoid_tables(n)):
        ms = one_object_monoidal(table)
        rep = verify_prop_3_1(ms)
        Z = rep.centre
        assert [(o.a, o.gamma) for o in Z.objects] == [(0, (0,))], table
        assert Z.category.n_morphisms == n, table
        assert Z.all_passed, (table, [c.name for c in Z.certificates if not c.ok])
        assert rep.verdict == "equivalence", table


def test_census_structures_are_valid():
    for n in ORDERS:
        for table in monoid_tables(n):
            assert thin_monoidal(table, discrete(n)).problems == (), table
            if commutative(table):
                assert one_object_monoidal(table).problems == (), table
