"""Regenerate the fixture corpus under fixtures/ from library constructors.

Idempotent: the emitters are canonical, so re-running produces
byte-identical files.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from monocentre.fincat import walking_arrow
from monocentre.jsonio import (
    category_to_doc,
    cocycle_to_doc,
    group_to_doc,
    monoidal_to_doc,
    write_spec,
)
from monocentre.monoidal import (
    S3,
    Z1,
    Z2,
    Z3,
    Z4,
    chain_poset_monoidal,
    two_group_monoidal,
)
from monocentre.graded import Cocycle3, Group, trivial_cocycle, z2_nontrivial_cocycle

ROOT = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def corpus_docs() -> dict:
    """The fixture documents by file name."""
    tables = {"z2": Z2, "z3": Z3, "z4": Z4, "s3": S3}
    docs = {}
    for name, table in tables.items():
        docs[f"{name}_discrete.json"] = monoidal_to_doc(
            two_group_monoidal(table))
        docs[f"{name}.json"] = group_to_doc(table)
    docs["poset.json"] = monoidal_to_doc(chain_poset_monoidal(2))
    docs["walking_arrow.json"] = category_to_doc(walking_arrow())
    docs["broken_pentagon.json"] = monoidal_to_doc(
        two_group_monoidal(Z1, 2, [[[1]]]))
    # the 2-group of the semion cocycle, with automorphisms Z2 at each object
    docs["semion_two_group.json"] = monoidal_to_doc(
        two_group_monoidal(Z2, 2, z2_nontrivial_cocycle().exponents))
    docs["z2_trivial.json"] = cocycle_to_doc(trivial_cocycle(Group(Z2), 2))
    docs["z2_nontrivial.json"] = cocycle_to_doc(z2_nontrivial_cocycle())
    broken = [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]
    docs["z2_broken_omega.json"] = cocycle_to_doc(Cocycle3(Group(Z2), 2, broken))
    return docs


def main():
    ROOT.mkdir(exist_ok=True)
    docs = corpus_docs()
    for name in sorted(docs):
        write_spec(str(ROOT / name), docs[name])
        print(f"wrote fixtures/{name}")


if __name__ == "__main__":
    main()
