"""Drive the CLI over the whole fixture corpus and check the exit codes.

Positive fixtures must pass every certificate; the broken variants must
fail with exit code 1.  Exits nonzero on any surprise, so this doubles
as a smoke test for a fresh checkout.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from monocentre.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1] / "fixtures"

POSITIVE = [
    ["report", "z2_discrete.json"],
    ["report", "z3_discrete.json"],
    ["report", "z4_discrete.json"],
    ["report", "s3_discrete.json"],
    ["report", "poset.json"],
    ["report", "walking_arrow.json"],
    ["report", "semion_two_group.json"],
    ["vec-centre", "z2.json", "--omega", "z2_trivial.json"],
    ["vec-centre", "z2.json", "--omega", "z2_nontrivial.json"],
    ["vec-centre", "z3.json"],
    ["vec-centre", "z4.json"],
    ["vec-centre", "s3.json"],
]

NEGATIVE = [
    ["validate", "broken_pentagon.json"],
    ["validate", "z2_broken_omega.json"],
    ["vec-centre", "z2.json", "--omega", "z2_broken_omega.json"],
]


def _expand(argv):
    return [str(ROOT / a) if a.endswith(".json") else a for a in argv]


def run():
    surprises = 0
    for argv, want in [(a, 0) for a in POSITIVE] + [(a, 1) for a in NEGATIVE]:
        print(f"$ monocentre {' '.join(argv)}")
        code = main(_expand(argv))
        print(f"-> exit {code} (expected {want})\n")
        if code != want:
            surprises += 1
    if surprises:
        print(f"{surprises} fixture(s) did not behave as expected")
        return 1
    print("corpus fully certified: all positives pass, all negatives fail")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
