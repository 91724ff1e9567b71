"""Survey the linear backend across small groups.

For each group up to the default size guard, enumerate the simple objects of
the centre (untwisted, plus the nontrivial cocycle on Z2 and the
type-III cocycle on Z2^3) and tabulate counts, dimension vectors, and the
sum rule, with the time of the split and of the braided-structure battery
and the battery's verdict.  Abelian groups of order n should show n^2 invertible simples;
S3 shows the 8 simples of its double with squared dimensions summing to
36, and D4 its 22.  Type-III Z2^3 has 22 simples too (8 of dimension 1
and 14 of dimension 2), all found: the fibre split prefers a central
non-scalar matrix of the twisted action.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from monocentre.examples import D4, S3, Z2_CUBED
from monocentre.graded import Cocycle3, Group, trivial_cocycle, z2_nontrivial_cocycle
from monocentre.battery import certify_centre_structure
from monocentre.veck import centre_simples


def cyclic(n):
    return Group([[(i + j) % n for j in range(n)] for i in range(n)])


def type_iii_cocycle():
    """omega(a, b, c) = (-1)^(a_1 b_2 c_3) on Z2^3."""
    bit = lambda a, i: a >> i & 1
    return Cocycle3(Group(Z2_CUBED), 2, [[[bit(a, 0) * bit(b, 1) * bit(c, 2)
                                    for c in range(8)] for b in range(8)]
                                  for a in range(8)])


def survey(label, omega):
    start = time.perf_counter()
    result = centre_simples(omega)
    elapsed = time.perf_counter() - start
    start = time.perf_counter()
    battery = certify_centre_structure(result)
    battery_s = time.perf_counter() - start
    dims = sorted(s.total_dim for s in result.simples)
    status = "ok" if result.all_passed else "INCOMPLETE"
    verdict = "PASS" if all(c.ok for c in battery) else "FAIL"
    print(f"{label:<22} |G|={len(omega.group.table)}  simples={len(result.simples):>2}  "
          f"dims={dims}  sum_sq={result.sum_of_squares:>3}  "
          f"[{status}, {elapsed:.2f}s]  battery {verdict} {battery_s:.2f}s")
    return result


def run():
    for n in range(2, 7):
        survey(f"cyclic Z{n}, trivial", trivial_cocycle(cyclic(n)))
    survey("Z2, nontrivial omega", z2_nontrivial_cocycle())
    survey("S3, trivial", trivial_cocycle(Group(S3)))
    survey("D4, trivial", trivial_cocycle(Group(D4)))
    survey("Z2^3, trivial", trivial_cocycle(Group(Z2_CUBED)))
    survey("Z2^3, type III omega", type_iii_cocycle())
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
