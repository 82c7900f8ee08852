"""Each request checks each derivation once.

The two checker classes are wrapped so that every checker run is
counted; the sense, the denotation, the variable types and a verdict's
details are all read off those runs. A derivation keeps its run, and
its end term keeps its normal form, so asking again takes no checker
run and no contraction, and the kept run makes no reference cycle.
Each file is tokenized once, and the benchmark's trace counts its
tokens from that call. Each root's sense is counted once. A
gamma-mode classify of a closed pair types neither term and builds
each alpha key once.
"""

import contextlib
import gc
import io
import itertools
import json
import operator
import runpy
import weakref
from pathlib import Path

import pytest

from gamma_examples import CASE_OF_TUPLE, TUPLE_OF_CASES
from proofmean import core, meaning, nd, rewrite, sc, syntax
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


@pytest.fixture
def contractions(monkeypatch):
    """Returns, and resets, the number of beta and eta contractions so
    far. Terms keep their normal forms for the whole session, so only a
    count of zero is independent of the tests run before."""
    count = [0]

    def counting(contract):
        def counted(t):
            r = contract(t)
            count[0] += r is not None
            return r

        return counted

    monkeypatch.setattr(rewrite, "_beta_contract", counting(rewrite._beta_contract))
    monkeypatch.setattr(rewrite, "_eta_contract", counting(rewrite._eta_contract))

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
    search = meaning.sense_renaming

    def counted(*args):
        searches[0] += 1
        return search(*args)

    monkeypatch.setattr(meaning, "sense_renaming", counted)
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
    # Every pair in both modes, over one list of derivation objects:
    # each object is checked the first time it is classified, never again.
    derivations = [load_corpus(p.rsplit("/", 1)[-1]).derivation for p in corpus_files]
    verdicts = set()
    for d1, d2 in itertools.combinations(derivations, 2):
        for mode in (BetaEta(), BetaEtaGamma(fuel=4)):
            verdicts.add(type(classify(d1, d2, mode)))
    assert len(verdicts) == 4
    assert checks() == len(derivations)


def test_classify_counts_each_roots_sense_once(monkeypatch, load_corpus):
    # The renaming search and both senses of the verdict read each
    # root's occurrences, which are counted once and kept on the root.
    walks = []
    count = meaning._count

    def counted(root):
        walks.append(root)
        return count(root)

    monkeypatch.setattr(meaning, "_count", counted)
    d1 = load_corpus("sc_inl_cut.sc").derivation
    d2 = load_corpus("sc_inl_cutfree.sc").derivation
    verdict = classify(d1, d2, multiset=True)
    assert type(verdict) is meaning.DifferentSenseSameDenotation
    roots = [meaning.check(d1), meaning.check(d2)]
    assert len(walks) == 2 and all(map(operator.is_, walks, roots))
    assert verdict.senses == (meaning.sense_of(d1, True), meaning.sense_of(d2, True))
    assert len(walks) == 2


def test_beta_eta_classify_compares_alpha_keys_once(monkeypatch):
    # Renamed copies end in alpha-equal normal forms that are not one
    # node. `_same` compares their keys, one `alpha_key` call per side;
    # in beta-eta mode its "same" already means alpha-equal, so
    # `classify` asks for no key again.
    calls = []
    alpha_key = core.alpha_key

    def counted(t):
        calls.append(t)
        return alpha_key(t)

    monkeypatch.setattr(core, "alpha_key", counted)
    d1 = syntax.parse("(imp-i y (imp-i x (and-i (hyp x p) (hyp y p))))")
    d2 = syntax.parse("(imp-i v (imp-i u (and-i (hyp u p) (hyp v p))))")
    verdict = classify(d1, d2, BetaEta())
    assert type(verdict) is meaning.SameSenseSameDenotation
    assert len(calls) == 2


def test_corpus_checks_each_file_once(checks, corpus_dir, corpus_files):
    for mode in ("beta-eta", "beta-eta-gamma"):
        assert run(["corpus", str(corpus_dir), "--mode", mode])[0] == 0
        assert checks() == len(corpus_files)


def test_denotation_after_classify_needs_no_checker_run(
    checks, contractions, load_corpus, corpus_files
):
    derivations = [load_corpus(p.rsplit("/", 1)[-1]).derivation for p in corpus_files]

    def classify_all():
        for d1, d2 in itertools.combinations(derivations, 2):
            for mode in (BetaEta(), BetaEtaGamma(fuel=4)):
                classify(d1, d2, mode)
                for d in (d1, d2):
                    assert meaning.denotation_of(d) is meaning.denotation_of(d)

    classify_all()
    contractions()
    # Each end term, and each term the gamma search met, kept its normal form.
    classify_all()
    assert contractions() == 0
    assert checks() == len(derivations)


def test_gamma_classify_types_no_term_and_builds_each_alpha_key_once(monkeypatch, load_corpus):
    # A closed pair that only the gamma search joins. The model takes
    # the formula from the check, and each alpha key is built once and
    # kept on its node. Three keys are asked for: the two normal forms'
    # and that of the one successor of sc_dist_1's normal form. That
    # successor is sc_dist_3's normal form itself, so two are built.
    # Keys are kept for the whole session, so every kept one is dropped
    # first, and a key walk is counted where it starts, not at each
    # `alpha_key` call, which may read a kept key.
    for node in core._Interned._table.values():
        vars(node).pop("_key", None)
    count = {"type_of": 0, "key walks": 0}

    def counting_type_of(*args):
        count["type_of"] += 1
        return type_of(*args)

    def counting_walk(t, env, depth, key):
        count["key walks"] += not key
        return walk(t, env, depth, key)

    type_of, walk = core.type_of, core._alpha_key
    monkeypatch.setattr(core, "type_of", counting_type_of)
    monkeypatch.setattr(rewrite, "type_of", counting_type_of)
    monkeypatch.setattr(core, "_alpha_key", counting_walk)
    d1 = load_corpus("sc_dist_1.sc").derivation
    d2 = load_corpus("sc_dist_3.sc").derivation
    verdict = classify(d1, d2, BetaEtaGamma())
    assert verdict == meaning.SameDenotationUpToGamma(inconclusive=False)
    assert count == {"type_of": 0, "key walks": 2}
    assert classify(d1, d2, BetaEtaGamma()) == verdict
    assert count == {"type_of": 0, "key walks": 2}
    n1, n2 = meaning.denotation_of(d1), meaning.denotation_of(d2)
    assert [rewrite.normalize(g) for g in rewrite.gamma_steps(n1)] == [n2]


def test_corpus_normalizes_each_file_once(checks, contractions, corpus_dir, corpus_files):
    for mode in ("beta-eta", "beta-eta-gamma"):
        assert run(["corpus", str(corpus_dir), "--mode", mode])[0] == 0
        contractions()
        assert run(["corpus", str(corpus_dir), "--mode", mode])[0] == 0
        assert contractions() == 0, mode


def test_failed_check_keeps_no_denotation(checks):
    bad = nd.AndE1(nd.Hyp(Var("a"), Atom("p")))
    for _ in range(2):
        with pytest.raises(nd.RuleMismatch):
            meaning.denotation_of(bad)
        assert checks() == 1
        assert "checked" not in vars(bad) and bad.checked is None


def test_every_reader_shares_one_run(checks, load_corpus, corpus_files):
    for path in corpus_files:
        d = load_corpus(Path(path).name).derivation
        other = load_corpus(Path(path).name).derivation
        meaning.check(d)
        meaning.check(other)
        assert checks() == 2
        calculus = nd if isinstance(d, nd.NdDerivation) else sc
        readers = [
            lambda: meaning.check(d),
            lambda: meaning.sense_of(d),
            lambda: meaning.sense_of(d, multiset=True),
            lambda: meaning.sense_renaming(d, other),
            lambda: meaning.same_sense(d, other),
            lambda: meaning.denotation_of(d),
            lambda: meaning.same_denotation(d, other),
            lambda: meaning.classify(d, other),
            lambda: calculus.variable_types(d),
        ]
        if calculus is nd:
            readers += [lambda: nd.node_judgments(d), lambda: nd.end_term_nd(d)]
        else:
            readers += [
                lambda: sc.node_sequents(d),
                lambda: sc.end_term_sc(d),
                lambda: sc.cut_nodes(d),
            ]
        for read in readers:
            read()
            assert checks() == 0, path


# Checker runs each demo makes: one per derivation it reads.
DEMO_RUNS = {"tour": 1, "cut_senses": 3, "permutations": 6}


def test_demos_check_each_derivation_once(checks, corpus_dir):
    for demo, runs in DEMO_RUNS.items():
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(corpus_dir.parent / "demos" / f"{demo}.py"), run_name="__main__")
        assert checks() == runs, demo


def test_kept_runs_make_no_reference_cycle(load_corpus):
    # With the cyclic collector off, a derivation is freed by reference
    # counting alone once the last outside reference to it goes.
    gc.disable()
    try:
        for name in ("nd_case_pair.nd", "sc_dist_1.sc"):
            d1, d2 = load_corpus(name).derivation, load_corpus(name).derivation
            classify(d1, d2)
            meaning.denotation_of(d1)
            meaning.sense_of(d1, multiset=True)
            if isinstance(d1, nd.NdDerivation):
                nd.node_judgments(d1)
            else:
                sc.node_sequents(d1)
            refs = [weakref.ref(d1), weakref.ref(d2)]
            del d1, d2
            assert [r() for r in refs] == [None, None], name
    finally:
        gc.enable()


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
