"""Each request checks each derivation once.

The two checker classes are wrapped so that every checker run is
counted; the sense, the denotation, the variable types and a verdict's
details are all read off those runs.
"""

import contextlib
import io
import itertools
import json

import pytest

from gamma_examples import CASE_OF_TUPLE, TUPLE_OF_CASES
from proofmean import meaning, nd, sc
from proofmean.cli import main
from proofmean.meaning import classify
from proofmean.rewrite import BetaEta, BetaEtaGamma


@pytest.fixture
def checks(monkeypatch):
    """Returns, and resets, the number of checker runs so far."""
    count = [0]

    def counting(checker):
        class Counting(checker):
            def __init__(self):
                count[0] += 1
                super().__init__()

        return Counting

    monkeypatch.setattr(nd, "_NdChecker", counting(nd._NdChecker))
    monkeypatch.setattr(sc, "_ScChecker", counting(sc._ScChecker))

    def taken():
        n, count[0] = count[0], 0
        return n

    return taken


@pytest.fixture(scope="module")
def corpus_files(corpus_dir):
    return sorted(str(p) for p in corpus_dir.iterdir())


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_single_file_commands_check_once(checks, corpus_files):
    for path in corpus_files:
        for argv in (["check"], ["term"], ["normalize"], ["sense"], ["sense", "--multiset"]):
            assert run([*argv, path, "--json"])[0] == 0
            assert checks() == 1, (argv, path)


def test_compare_checks_each_derivation_once(checks, corpus_files, tmp_path, monkeypatch):
    searches = [0]
    search = meaning._renaming

    def counted(*args):
        searches[0] += 1
        return search(*args)

    monkeypatch.setattr(meaning, "_renaming", counted)
    gamma_pair = []
    for name, text in (("a.nd", CASE_OF_TUPLE), ("b.nd", TUPLE_OF_CASES)):
        (tmp_path / name).write_text(text, encoding="utf-8")
        gamma_pair.append(str(tmp_path / name))
    requests = [
        [a, b, "--mode", mode]
        for a, b in itertools.combinations(corpus_files, 2)
        for mode in ("beta-eta", "beta-eta-gamma")
    ]
    requests.append([*gamma_pair, "--mode", "beta-eta-gamma", "--fuel", "1"])
    verdicts = set()
    for argv in requests:
        _, out = run(["compare", *argv, "--json"])
        payload = json.loads(out)
        verdicts.add((payload["verdict"], payload["details"].get("inconclusive")))
        assert checks() == 2, argv
        assert searches[0] <= 1, argv
        searches[0] = 0
    assert verdicts == {
        ("SameSenseSameDenotation", None),
        ("DifferentSenseSameDenotation", None),
        ("DifferentDenotation", None),
        ("SameDenotationUpToGamma", False),
        ("SameDenotationUpToGamma", True),
    }


def test_classify_checks_each_derivation_once(checks, load_corpus, corpus_files):
    derivations = [load_corpus(p.rsplit("/", 1)[-1]).derivation for p in corpus_files]
    verdicts = set()
    for d1, d2 in itertools.combinations(derivations, 2):
        for mode in (BetaEta(), BetaEtaGamma(fuel=4)):
            verdicts.add(type(classify(d1, d2, mode)))
            assert checks() == 2
    assert len(verdicts) == 4


def test_corpus_checks_each_file_once_and_each_pair_twice(checks, corpus_dir, corpus_files):
    pairs = len(corpus_files) * (len(corpus_files) - 1) // 2
    for mode in ("beta-eta", "beta-eta-gamma"):
        assert run(["corpus", str(corpus_dir), "--mode", mode])[0] == 0
        assert checks() <= len(corpus_files) + 2 * pairs
