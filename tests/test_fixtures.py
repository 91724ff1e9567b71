"""The fixture corpus: regenerated byte for byte by scripts/make_fixtures.py,
and certified end to end by scripts/certify_fixtures.py."""

import importlib.util
import pathlib

from monocentre.jsonio import dump_canonical

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_fixtures_regenerates_the_committed_corpus():
    docs = _script("make_fixtures").corpus_docs()
    assert sorted(docs) == sorted(p.name for p in (ROOT / "fixtures").iterdir())
    for name, doc in docs.items():
        assert dump_canonical(doc).encode("utf-8") == (ROOT / "fixtures" / name).read_bytes(), name


def test_certify_fixtures_passes_on_the_corpus(capsys):
    assert _script("certify_fixtures").run() == 0
    assert capsys.readouterr().out.endswith(
        "corpus fully certified: all positives pass, all negatives fail\n")
