"""Builders of example monoidal structures, and the group tables the
fixtures and tests share.

Every group-like input (a group's discrete category, one object with
automorphisms Z_2, a 2-group with a non-identity associator) is built by
two_group_monoidal, and the chain poset by chain_poset_monoidal.
scripts/make_fixtures.py writes the fixtures from them.  No subcommand
builds an example, so the CLI does not import this module.
"""

from __future__ import annotations

from itertools import product

from .fincat import FinCategory
from .monoidal import MonoidalStructure, group_table_report, identity_of


def two_group_monoidal(table, n: int = 1, alpha=None) -> MonoidalStructure:
    """The 2-group on a finite group's elements, each with automorphisms
    Z_n: morphism (g, k) is numbered g * n + k, and morphisms compose and
    tensor by adding their k mod n.  The associator at (a, b, c) is
    (abc, alpha[a][b][c] mod n), identities when alpha is None, and the
    unitors are identities.  Exactly when alpha is a normalized 3-cocycle
    valued in Z_n do the pentagon and the triangle hold (Baez-Lauda)."""
    problems = group_table_report(table)
    if problems:
        raise ValueError("not a group table: " + "; ".join(problems))
    G, K = range(len(table)), range(n)
    ends = [g for g in G for _ in K]
    cat = FinCategory(len(table), ends, ends, [g * n for g in G],
                      {(g * n + k, g * n + l): g * n + (k + l) % n
                       for g in G for k in K for l in K})
    tmor = {(a * n + k, b * n + l): table[a][b] * n + (k + l) % n
            for a in G for k in K for b in G for l in K}
    cells = {(a, b, c): table[table[a][b]][c] * n + (0 if alpha is None else alpha[a][b][c] % n)
             for a, b, c in product(G, repeat=3)}
    return MonoidalStructure(cat, table, tmor, identity_of(table), cells,
                             cat.identity, cat.identity)


def chain_poset_monoidal(n: int = 2) -> MonoidalStructure:
    """The chain 0 <= 1 <= ... <= n-1 with tensor = min and unit = top."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a <= b]
    mor_of = {p: i for i, p in enumerate(pairs)}
    src = tuple(a for a, _ in pairs)
    dst = tuple(b for _, b in pairs)
    ident = tuple(mor_of[(a, a)] for a in range(n))
    comp = {}
    for g, (b1, c) in enumerate(pairs):
        for f, (a, b2) in enumerate(pairs):
            if b1 == b2:
                comp[(g, f)] = mor_of[(a, c)]
    cat = FinCategory(n, src, dst, ident, comp)
    tobj = [[min(a, b) for b in range(n)] for a in range(n)]
    tmor = {}
    for f, (a, b) in enumerate(pairs):
        for g, (c, d) in enumerate(pairs):
            tmor[(f, g)] = mor_of[(min(a, c), min(b, d))]
    alpha = {(a, b, c): ident[min(a, b, c)]
             for a in range(n) for b in range(n) for c in range(n)}
    lam = tuple(ident[min(n - 1, a)] for a in range(n))
    rho = tuple(ident[min(a, n - 1)] for a in range(n))
    return MonoidalStructure(cat, tobj, tmor, n - 1, alpha, lam, rho)


# shared group tables for fixtures and tests

Z1 = ((0,),)
Z2 = ((0, 1), (1, 0))
Z3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
Z4 = tuple(tuple((a + b) % 4 for b in range(4)) for a in range(4))


def _s3_table():
    import itertools
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    # composition: (p * q)(i) = p(q(i)); identity lands at index 0
    return tuple(tuple(index[tuple(p[q[i]] for i in range(3))] for q in perms)
                 for p in perms)


S3 = _s3_table()


def _d4_table():
    # r^i s^j at index i + 4 j, with s r = r^-1 s
    def mul(a, b):
        i, j, k, l = a % 4, a // 4, b % 4, b // 4
        return (i + (-k if j else k)) % 4 + 4 * ((j + l) % 2)
    return tuple(tuple(mul(a, b) for b in range(8)) for a in range(8))


D4 = _d4_table()
# Z2 x Z2 x Z2 with element a = a_1 + 2 a_2 + 4 a_3; the product is xor
Z2_CUBED = tuple(tuple(a ^ b for b in range(8)) for a in range(8))
