"""The census of small monoidal categories: every monoid of order at most
4 with identity 0, as a discrete strict monoidal category, and every
commutative one as a one-object category.

None of the fixtures is a monoid that is not a group, so these inputs
reach the centre, the inserter, the equifier and the descent object on
shapes the fixtures lack.  The oracles are hand facts:

* a discrete category's half-braidings are identities, so its centre has
  one object over each central element and no other;
* a one-object category's only half-braiding is the identity (it is
  invertible and equal to its own square), and every endomorphism
  commutes with it, so the centre has one object with |M| endomorphisms.
"""

import pytest

from monocentre.hochschild import verify_prop_3_1

from helpers import discrete_monoid_monoidal, monoid_tables, one_object_monoidal

ORDERS = (1, 2, 3, 4)


def commutative(table):
    return all(row[b] == table[b][a] for a, row in enumerate(table) for b in range(len(table)))


def test_census_counts():
    # labelled monoids with identity 0, and the commutative ones among them
    counts = [(len(monoid_tables(n)), sum(map(commutative, monoid_tables(n))))
              for n in ORDERS]
    assert counts == [(1, 1), (2, 2), (11, 9), (156, 94)]


@pytest.mark.parametrize("n", ORDERS)
def test_discrete_centre_lies_over_the_central_elements(n):
    for table in monoid_tables(n):
        ms = discrete_monoid_monoidal(table)
        rep = verify_prop_3_1(ms)
        central = [a for a in range(n) if all(table[a][x] == table[x][a] for x in range(n))]
        Z = rep.centre
        assert [o.a for o in Z.objects] == central, table
        assert Z.category.n_morphisms == len(central), table
        assert Z.all_passed, (table, [c.name for c in Z.certificates if not c.ok])
        assert rep.verdict == "equivalence", table


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
            assert discrete_monoid_monoidal(table).problems == (), table
            if commutative(table):
                assert one_object_monoidal(table).problems == (), table
