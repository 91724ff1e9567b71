"""Golden reports: `vec-centre` and `report` stdout must stay byte-identical.

The files under tests/golden/ are stdout run from the repository root:
`vec_centre_*` of `monocentre vec-centre`, before the certificate battery
moved to the prepared-block kernel of `cyclo`, and `report_*` of
`monocentre report` on the set-level fixtures, before one comparison fed
the centre, descent and equiv sections; `report_semion_two_group`, of
the first fixture with a non-identity associator, when that fixture was
added with the one 2-group builder.  A difference is a change of report
bytes, not a test to update.
"""

import pathlib

import pytest

from monocentre.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

CASES = {
    "s3": ["fixtures/s3.json"],
    "z4": ["fixtures/z4.json"],
    "z3": ["fixtures/z3.json"],
    "z2_nontrivial": ["fixtures/z2.json", "--omega",
                      "fixtures/z2_nontrivial.json"],
}


@pytest.mark.parametrize("emit, suffix", [("text", "txt"), ("json", "json")])
@pytest.mark.parametrize("name", sorted(CASES))
def test_vec_centre_report_matches_golden_bytes(name, emit, suffix, capsys,
                                                monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(["vec-centre", *CASES[name], "--emit", emit])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"vec_centre_{name}.{suffix}").read_bytes()


# fixture name -> exit code of `report`
REPORT_CASES = {
    "z2_discrete": 0,
    "z3_discrete": 0,
    "z4_discrete": 0,
    "poset": 0,
    "walking_arrow": 0,
    "semion_two_group": 0,
    "broken_pentagon": 1,
}


@pytest.mark.parametrize("emit, suffix", [("text", "txt"), ("json", "json")])
@pytest.mark.parametrize("name", sorted(REPORT_CASES))
def test_set_level_report_matches_golden_bytes(name, emit, suffix, capsys,
                                               monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(["report", f"fixtures/{name}.json", "--emit", emit])
    out = capsys.readouterr().out
    assert code == REPORT_CASES[name]
    assert out.encode("utf-8") == (GOLDEN / f"report_{name}.{suffix}").read_bytes()
