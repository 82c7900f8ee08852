"""Each request checks each derivation once.

The two checker classes are wrapped so that every checker run is
counted; the sense, the denotation, the variable types and a verdict's
details are all read off those runs. A derivation's denotation is kept
on it, so reading it again takes no checker run and no normalization.
Each file is tokenized once, and the benchmark's trace counts its
tokens from that call.
"""

import contextlib
import io
import itertools
import json
from pathlib import Path

import pytest

from gamma_examples import CASE_OF_TUPLE, TUPLE_OF_CASES
from proofmean import meaning, nd, sc, syntax
from proofmean.cli import main
from proofmean.core import Atom, Var
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


def test_corpus_checks_each_file_once(checks, corpus_dir, corpus_files):
    for mode in ("beta-eta", "beta-eta-gamma"):
        assert run(["corpus", str(corpus_dir), "--mode", mode])[0] == 0
        assert checks() == len(corpus_files)


def test_denotation_after_classify_needs_no_checker_run(checks, load_corpus, corpus_files):
    derivations = [load_corpus(p.rsplit("/", 1)[-1]).derivation for p in corpus_files]
    for d1, d2 in itertools.combinations(derivations, 2):
        classify(d1, d2)
        assert checks() == 2
        for d in (d1, d2):
            assert meaning.denotation_of(d) is meaning.denotation_of(d)
        assert checks() == 0


def test_corpus_normalizes_each_file_once(checks, corpus_dir, corpus_files, monkeypatch):
    calls = [0]
    normalize = meaning.normalize

    def counted(t):
        calls[0] += 1
        return normalize(t)

    monkeypatch.setattr(meaning, "normalize", counted)
    for mode in ("beta-eta", "beta-eta-gamma"):
        assert run(["corpus", str(corpus_dir), "--mode", mode])[0] == 0
        assert calls[0] == len(corpus_files), mode
        calls[0] = 0


def test_failed_check_keeps_no_denotation(checks):
    bad = nd.AndE1(nd.Hyp(Var("a"), Atom("p")))
    for _ in range(2):
        with pytest.raises(nd.RuleMismatch):
            meaning.denotation_of(bad)
        assert checks() == 1
        assert not hasattr(bad, "_denotation")


# The token count of each corpus file, end of input included.
CORPUS_TOKENS = {
    "nd_case_pair.nd": 56, "nd_identity.nd": 14, "nd_identity_detour.nd": 29,
    "nd_pair_pp_1.nd": 26, "nd_pair_pp_2.nd": 26, "nd_weak_pq_1.nd": 19,
    "nd_weak_pq_2.nd": 19, "sc_case_pair.sc": 49, "sc_dist_1.sc": 89,
    "sc_dist_2.sc": 89, "sc_dist_3.sc": 87, "sc_inl_cut.sc": 73,
    "sc_inl_cut_plain.sc": 38, "sc_inl_cutfree.sc": 29, "sc_pair_pp.sc": 26,
    "sc_ts_1.sc": 48, "sc_ts_2.sc": 48,
}


def test_each_file_is_tokenized_once(monkeypatch, corpus_dir, corpus_files):
    # The trace hooks the module-level syntax.tokenize and sums the
    # lengths of its results as syntax.tokens.
    lengths = []
    tokenize = syntax.tokenize

    def counted(text):
        tokens = tokenize(text)
        lengths.append(len(tokens))
        return tokens

    monkeypatch.setattr(syntax, "tokenize", counted)
    assert sorted(Path(p).name for p in corpus_files) == sorted(CORPUS_TOKENS)
    for path in corpus_files:
        syntax.parse_file(Path(path).read_text(encoding="utf-8"))
        assert lengths == [CORPUS_TOKENS[Path(path).name]], path
        lengths.clear()
    assert run(["corpus", str(corpus_dir)])[0] == 0
    assert sorted(lengths) == sorted(CORPUS_TOKENS.values())
