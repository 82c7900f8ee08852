import sys
from collections import Counter

from gamma_examples import CASE_OF_TUPLE, TUPLE_OF_CASES
from proofmean import meaning, rewrite
from proofmean.core import And, Atom, Lam, Or, Pair, Var, VarRef, _Interned, alpha_equal
from proofmean.meaning import (
    DifferentDenotation,
    DifferentSenseSameDenotation,
    SameDenotationUpToGamma,
    SameSenseSameDenotation,
    classify,
    denotation_of,
    same_denotation,
    same_sense,
    sense_of,
    sense_renaming,
)
from proofmean.nd import AndE1, AndE2, AndI, Hyp, ImpE, ImpI, OrE, check_nd, node_judgments
from proofmean.rewrite import BetaEta, BetaEtaGamma
from proofmean.sc import AndR, ImpR, Rf
from proofmean.syntax import parse, parse_file, parse_term

p, q = Atom("p"), Atom("q")
x, y, z = Var("x"), Var("y"), Var("z")


def test_nd_sense_collects_every_node_term():
    d = ImpI(x, None, Hyp(x, p))
    s = sense_of(d)
    assert s.elements == {VarRef(x), Lam(x, p, VarRef(x))}
    assert len(s) == 2
    assert VarRef(x) in s


def test_nd_sense_keeps_unnormalized_detour_terms():
    d = AndE1(AndI(ImpI(x, None, Hyp(x, p)), ImpI(y, None, Hyp(y, q))))
    s = sense_of(d)
    assert len(s.elements) == 6
    assert parse_term(r"fst(<\x:p. x, \y:q. y>)") in s
    assert parse_term(r"\x:p. x") in s


def test_sc_sense_includes_antecedent_variables():
    s = sense_of(AndR(Rf(x, p), Rf(y, q)))
    assert s.elements == {VarRef(x), VarRef(y), Pair(VarRef(x), VarRef(y))}


def test_multiset_sense_distinguishes_reuse():
    d_nd = AndI(Hyp(x, p), Hyp(x, p))
    d_sc = AndR(Rf(x, p), Rf(x, p))
    assert sense_of(d_nd).elements == sense_of(d_sc).elements
    nd_counts = sense_of(d_nd, multiset=True).counts
    sc_counts = sense_of(d_sc, multiset=True).counts
    assert nd_counts[VarRef(x)] == 2
    assert sc_counts[VarRef(x)] == 5
    assert same_sense(d_nd, d_sc)
    assert not same_sense(d_nd, d_sc, multiset=True)


def test_changing_a_returned_multiset_changes_no_later_answer():
    # Each root keeps its counted sense; a multiset sense hands out a
    # copy of it, so a caller that changes the copy changes nothing kept.
    d1, d2 = (ImpR(v, AndR(Rf(v, p), Rf(v, p))) for v in (x, y))
    before = sense_of(d1, multiset=True)
    verdict = classify(d1, d2, multiset=True)
    assert verdict == SameSenseSameDenotation()
    counts = sense_of(d1, multiset=True).counts
    counts[VarRef(x)] += 1
    counts[Pair(VarRef(y), VarRef(y))] = 5
    del counts[Pair(VarRef(x), VarRef(x))]
    assert sense_of(d1, multiset=True) == before
    pair = Pair(VarRef(x), VarRef(x))
    assert before.counts == {VarRef(x): 5, pair: 1, Lam(x, p, pair): 1}
    assert classify(d1, d2, multiset=True).renaming == verdict.renaming == {x: y}


def test_sense_renaming_is_a_typed_bijection():
    d1 = ImpI(x, None, ImpI(z, q, Hyp(x, p)))
    d2 = ImpI(y, None, ImpI(z, q, Hyp(y, p)))
    rho = sense_renaming(d1, d2)
    assert rho == {x: y, z: z}


def test_sense_renaming_rejects_type_changes():
    assert sense_renaming(Hyp(x, p), Hyp(y, p)) == {x: y}
    assert sense_renaming(Hyp(x, p), Hyp(y, q)) is None
    assert not same_sense(ImpI(x, None, Hyp(x, p)), ImpI(y, None, Hyp(y, q)))


def test_sense_renaming_needs_consistency_across_elements():
    d1 = AndI(Hyp(x, p), AndI(Hyp(x, p), Hyp(y, p)))
    d2 = AndI(Hyp(z, p), AndI(Hyp(y, p), Hyp(z, p)))
    assert sense_renaming(d1, d2) is None
    d3 = AndI(Hyp(y, p), AndI(Hyp(y, p), Hyp(z, p)))
    assert sense_renaming(d1, d3) == {x: y, y: z}


def test_sense_search_takes_back_a_partial_match():
    # Pairing <a, b> with <c2, d2> binds a to c2 before b fails on its
    # formula; that binding must go, or <a, b> cannot meet <c, d>.
    a, b, a2, b2, c, d, c2, d2 = (Var(n) for n in ("a", "b", "a2", "b2", "c", "d", "c2", "d2"))
    tau1 = {a: p, b: q, a2: p, b2: p}
    tau2 = {c: p, d: q, c2: p, d2: p}
    occ1 = [Pair(VarRef(a), VarRef(b)), Pair(VarRef(a2), VarRef(b2))]
    occ2 = [Pair(VarRef(c2), VarRef(d2)), Pair(VarRef(c), VarRef(d))]
    rho = meaning._Bijection(tau1, tau2)
    found = meaning._search(Counter(occ1), Counter(occ2), rho, multiset=False)
    assert found == {a: c, b: d, a2: c2, b2: d2}
    # Pairing <<a, a2>, b> with <<c2, c>, d2> matches <a, a2> with
    # <c2, c> before b fails on its formula; that node pair must go too,
    # or <a, a2> cannot meet <c, c2>.
    r = Atom("r")
    tau1 = {a: p, a2: p, b: q, b2: r}
    tau2 = {c: p, c2: p, d: q, d2: r}
    occ1 = [Pair(Pair(VarRef(a), VarRef(a2)), VarRef(b)),
            Pair(Pair(VarRef(a2), VarRef(a)), VarRef(b2))]
    occ2 = [Pair(Pair(VarRef(c2), VarRef(c)), VarRef(d2)),
            Pair(Pair(VarRef(c), VarRef(c2)), VarRef(d))]
    rho = meaning._Bijection(tau1, tau2)
    found = meaning._search(Counter(occ1), Counter(occ2), rho, multiset=False)
    assert found == {a: c, a2: c2, b: d, b2: d2}


def test_a_backtrack_frees_a_term_that_a_later_one_takes(monkeypatch):
    # Each sequent cuts away two pairs of one skeleton, in the opposite
    # order, and ends in <y, y>. <a, y> first takes <b2, w2>, so <b, w>
    # takes <a2, y2>, and <y, y> then fails: y went to w2. Backtracking
    # frees both, <a, y> takes <a2, y2>, and <b, w> must take <b2, w2>,
    # which sits below every term it has tried.
    taken = []
    match = meaning._match

    def recording(t1, t2, rho):
        ok = match(t1, t2, rho)
        if ok and type(t1) is Pair:
            taken.append((t1, t2))
        return ok

    monkeypatch.setattr(meaning, "_match", recording)
    d1 = parse(
        "(cut c1 (and-r (rf a p) (rf y q)) (cut c2 (and-r (rf b p) (rf w q))"
        " (weaken c1 p/\\q (weaken c2 p/\\q (and-r (rf y q) (rf y q))))))"
    )
    d2 = parse(
        "(cut c3 (and-r (rf b2 p) (rf w2 q)) (cut c4 (and-r (rf a2 p) (rf y2 q))"
        " (weaken c3 p/\\q (weaken c4 p/\\q (and-r (rf y2 q) (rf y2 q))))))"
    )
    renaming = sense_renaming(d1, d2)
    pairs = [parse_term(f"<{u}, {v}>") for u, v in ("ay", "bw", "yy")]
    images = [parse_term(f"<{u}2, {v}2>") for u, v in ("ay", "bw", "yy")]
    assert taken == [
        (pairs[0], images[1]), (pairs[1], images[0]),
        (pairs[0], images[0]), (pairs[1], images[1]), (pairs[2], images[2]),
    ]
    names = {"a": "a2", "y": "y2", "b": "b2", "w": "w2", "c2": "c4", "c1": "c3"}
    assert renaming == {Var(u): Var(v) for u, v in names.items()}


def test_denotation_is_the_normal_form():
    d = AndE1(AndI(ImpI(x, None, Hyp(x, p)), ImpI(y, None, Hyp(y, q))))
    assert denotation_of(d) == Lam(x, p, VarRef(x))


def test_same_denotation_compares_formulas_first():
    d1 = ImpI(x, None, Hyp(x, p))
    d2 = ImpI(y, None, Hyp(y, q))
    assert same_denotation(d1, d2) is False
    assert same_denotation(d1, d1, BetaEta()) is True


def test_a_free_variable_at_two_formulas_keeps_denotations_apart():
    # Each pair proves p; no type-preserving conversion relates the two
    # sides of the first two, whose normal forms share x (or z) at two
    # formulas. In the last two, the variable at two formulas is free in
    # one normal form at most, dropped by normalizing or weakened in.
    apart = [
        (r"(and-e1 (hyp x p/\q))", r"(and-e1 (hyp x p/\r))"),
        ("(and-l z x y (weaken y q (rf x p)))", "(and-l z x y (weaken y r (rf x p)))"),
    ]
    together = [
        ("(and-e1 (and-i (hyp x p) (hyp y q)))", "(and-e1 (and-i (hyp x p) (hyp y r)))"),
        ("(weaken y q (rf x p))", "(weaken y r (rf x p))"),
    ]
    for mode in (BetaEta(), BetaEtaGamma()):
        for a, b in apart:
            assert classify(parse(a), parse(b), mode) == DifferentDenotation()
            assert same_denotation(parse(a), parse(b), mode) is False
        for a, b in together:
            assert classify(parse(a), parse(b), mode) == DifferentSenseSameDenotation()
            assert same_denotation(parse(a), parse(b), mode) is True


def test_classification_of_identity_against_its_detour(load_corpus):
    d1 = load_corpus("nd_identity.nd").derivation
    d2 = load_corpus("nd_identity_detour.nd").derivation
    assert classify(d1, d2) == DifferentSenseSameDenotation()
    assert classify(d1, d1) == SameSenseSameDenotation()


def test_classification_of_renamed_weakenings(load_corpus):
    d1 = load_corpus("nd_weak_pq_1.nd").derivation
    d2 = load_corpus("nd_weak_pq_2.nd").derivation
    assert classify(d1, d2) == SameSenseSameDenotation()


def test_classification_across_calculi(load_corpus):
    d1 = load_corpus("nd_pair_pp_2.nd").derivation
    d2 = load_corpus("sc_pair_pp.sc").derivation
    assert classify(d1, d2) == SameSenseSameDenotation()


def test_classification_of_swapped_pair(load_corpus):
    d1 = load_corpus("nd_pair_pp_1.nd").derivation
    d2 = load_corpus("nd_pair_pp_2.nd").derivation
    assert classify(d1, d2) == DifferentDenotation()


def test_gamma_mode_separates_permutative_variants(load_corpus):
    d1 = load_corpus("sc_dist_1.sc").derivation
    d3 = load_corpus("sc_dist_3.sc").derivation
    assert classify(d1, d3) == DifferentDenotation()
    assert classify(d1, d3, BetaEtaGamma(fuel=4)) == SameDenotationUpToGamma(inconclusive=False)


def church_numeral(n: int) -> str:
    """Church numeral n, a natural deduction derivation of (p->p) -> p -> p."""
    body = "(hyp x p)"
    for _ in range(n):
        body = f"(imp-e (hyp f p->p) {body})"
    return f"(nd church_{n} (imp-i f (imp-i x {body})))"


def test_gamma_mode_decides_a_pair_without_sums_by_its_normal_forms(monkeypatch):
    # Neither normal form has a case to commute, and every f on a
    # 2-element set has f^2 = f^4, so neither the search nor the finite
    # model could tell Church 2 from Church 4; neither is consulted.
    def fail(*args):
        raise AssertionError("the model or the search ran")

    monkeypatch.setattr(meaning, "equivalent", fail)
    two, four = parse(church_numeral(2)), parse(church_numeral(4))
    verdict = classify(two, four, BetaEtaGamma())
    assert verdict == DifferentDenotation()
    assert verdict.normal_forms == (denotation_of(two), denotation_of(four))
    assert same_denotation(two, four, BetaEtaGamma()) is False
    again = parse(church_numeral(2))
    assert classify(two, again, BetaEtaGamma()) == SameSenseSameDenotation()
    assert same_denotation(two, again, BetaEtaGamma()) is True


def test_gamma_mode_never_calls_a_pair_at_absurdity_different():
    # \x:_|_. \y:p. y and \x:_|_. \y:p. abort[p] x are equal in every
    # bicartesian closed category, as _|_ is initial, and the finite model
    # agrees. Beta-eta mode tells them apart; gamma mode must not, so a
    # formula that mentions _|_ does not count as one without sums.
    a = parse("(imp-i x _|_ (imp-i y p (hyp y p)))")
    b = parse("(imp-i x _|_ (imp-i y p (absurd-e p (hyp x _|_))))")
    assert classify(a, b) == DifferentDenotation()
    assert same_denotation(a, b) is False
    assert type(classify(a, b, BetaEtaGamma())) is not DifferentDenotation
    assert same_denotation(a, b, BetaEtaGamma()) is not False


def test_same_denotation_asks_no_model_of_alpha_equal_normal_forms(monkeypatch, load_corpus):
    # Two parses of one file: the ladder answers from their alpha keys,
    # before gamma mode's finite model or search.
    tried = []
    separate = rewrite.FiniteModel.separate

    def counting(self, *args):
        tried.append(args)
        return separate(self, *args)

    monkeypatch.setattr(rewrite.FiniteModel, "separate", counting)
    d1, d2 = (load_corpus("sc_dist_1.sc").derivation for _ in range(2))
    assert d1 is not d2
    assert same_denotation(d1, d2, BetaEtaGamma()) is True
    assert classify(d1, d2, BetaEtaGamma()) == SameSenseSameDenotation()
    assert tried == []


def test_gamma_mode_reports_fuel_exhaustion():
    d1, d2 = parse(CASE_OF_TUPLE), parse(TUPLE_OF_CASES)
    assert classify(d1, d2, BetaEtaGamma(fuel=1)) == SameDenotationUpToGamma(inconclusive=True)
    assert classify(d1, d2, BetaEtaGamma(fuel=2)) == SameDenotationUpToGamma(inconclusive=False)
    # The finite model tells these two projections apart before any
    # search, so fuel 1 is enough.
    u = Var("u")
    scrutinee = Hyp(u, Or(And(p, p), And(p, p)))
    d3 = ImpI(u, None, AndE1(OrE(scrutinee, x, Hyp(x, And(p, p)), y, Hyp(y, And(p, p)))))
    d4 = ImpI(u, None, AndE2(OrE(scrutinee, x, Hyp(x, And(p, p)), y, Hyp(y, And(p, p)))))
    assert classify(d3, d4, BetaEtaGamma(fuel=1)) == DifferentDenotation()
    assert classify(d3, d4, BetaEtaGamma(fuel=4)) == DifferentDenotation()


def test_classification_prefers_plain_equality(load_corpus):
    d1 = load_corpus("nd_identity.nd").derivation
    d2 = load_corpus("nd_identity_detour.nd").derivation
    assert classify(d1, d2, BetaEtaGamma(fuel=1)) == DifferentSenseSameDenotation()


def test_cut_and_cut_free_presentations_share_a_denotation(load_corpus):
    with_cut = load_corpus("sc_inl_cut.sc").derivation
    cut_free = load_corpus("sc_inl_cutfree.sc").derivation
    assert alpha_equal(denotation_of(with_cut), denotation_of(cut_free))
    assert classify(with_cut, cut_free) == DifferentSenseSameDenotation()
    expected = parse_term(r"\y:(p/\p). inl[p] fst(y)")
    assert alpha_equal(denotation_of(with_cut), expected)


# ---------- Work on long derivations ----------


def detour_chain(n, tag):
    # The pair <x, w> wrapped in n detours that cycle through a first
    # projection, a second projection and an identity application.
    x, w = Var(f"x{tag}"), Var(f"w{tag}")
    d = AndI(Hyp(x, p), Hyp(w, p))
    for i in range(n):
        if i % 3 == 0:
            d = AndE1(AndI(d, Hyp(x, p)))
        elif i % 3 == 1:
            d = AndE2(AndI(Hyp(w, p), d))
        else:
            z = Var(f"z{i}{tag}")
            d = ImpE(ImpI(z, And(p, p), Hyp(z, And(p, p))), d)
    return ImpI(x, p, ImpI(w, p, d))


def pair_family(width, tag):
    # A closed left-nested pair of width hypotheses, each reached
    # through an identity application.
    atoms = [Atom("abc"[i % 3]) for i in range(width)]
    leaves = [Var(f"a{i}{tag}") for i in range(width)]

    def leaf(i):
        b = Var(f"b{i}{tag}")
        return ImpE(ImpI(b, atoms[i], Hyp(b, atoms[i])), Hyp(leaves[i], atoms[i]))

    d = leaf(0)
    for i in range(1, width):
        d = AndI(d, leaf(i))
    for v, a in reversed(list(zip(leaves, atoms))):
        d = ImpI(v, a, d)
    return d


def test_classify_does_linear_work_on_long_same_sense_pairs(monkeypatch):
    # Counted, not timed: normalizing contracts each detour once and
    # looks at each node a bounded number of times, and two natural
    # deduction derivations are matched on their end terms without the
    # sense search.
    calls = {"beta": 0, "skeleton": 0}
    beta, skeleton = rewrite._beta_contract, meaning._skeleton

    def counting_beta(t):
        calls["beta"] += 1
        return beta(t)

    def counting_skeleton(t):
        calls["skeleton"] += 1
        return skeleton(t)

    monkeypatch.setattr(rewrite, "_beta_contract", counting_beta)
    monkeypatch.setattr(meaning, "_skeleton", counting_skeleton)
    # The width-200 family proves a formula 400 connectives deep, and
    # comparing two such formulas takes about two recursion levels per
    # connective; depth is not what this test counts.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4000))
    try:
        for build, size in ((pair_family, 200), (detour_chain, 400)):
            d1, d2 = build(size, ""), build(size, "_r")
            c1, c2 = check_nd(d1), check_nd(d2)
            calls.update(beta=0, skeleton=0)
            verdict = classify(d1, d2)
            assert isinstance(verdict, SameSenseSameDenotation)
            assert len(verdict.renaming) == len(c1.types)
            assert calls["beta"] <= 3 * (len(node_judgments(d1)) + len(node_judgments(d2)))
            assert calls["skeleton"] == 0
    finally:
        sys.setrecursionlimit(limit)


def test_sequent_senses_are_matched_with_linear_work(monkeypatch):
    # Counted, not timed: every or-r1 sequent's term is a sense element
    # holding all the ones below it, so walking each element anew reads
    # the traversal table a quadratic number of times (1,003,002 at this
    # depth). Each node's skeleton is kept on it, and a node pair once
    # matched is not walked again. The names are fresh, so no skeleton
    # is kept yet.
    class Counting(dict):
        reads = 0

        def __getitem__(self, cls):
            Counting.reads += 1
            return super().__getitem__(cls)

    n = 1_000
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4 * n))
    try:
        d1, d2 = (parse(f"(imp-r {v} {'(or-r1 q ' * n}(rf {v} p){')' * (n + 1)}")
                  for v in ("linear_sc_a", "linear_sc_b"))
        monkeypatch.setattr(meaning, "SUBTERMS", Counting(meaning.SUBTERMS))
        renaming = sense_renaming(d1, d2)
    finally:
        sys.setrecursionlimit(limit)
    assert renaming == {Var("linear_sc_a"): Var("linear_sc_b")}
    assert Counting.reads <= 4 * (n + 2)


def test_classifying_fresh_copies_of_a_pair_again_adds_no_table_entry(corpus_dir):
    # Terms are interned with formulas and variables, so the checker runs,
    # normal forms and gamma successors of freshly parsed copies find
    # every node they build in the table already.
    texts = [(corpus_dir / name).read_text(encoding="utf-8")
             for name in ("sc_dist_1.sc", "sc_dist_3.sc")]

    def classify_fresh():
        return classify(*(parse_file(text).derivation for text in texts), BetaEtaGamma())

    first = classify_fresh()
    size = len(_Interned._table)
    assert first == SameDenotationUpToGamma(inconclusive=False)
    assert first.normal_forms[0] in _Interned._table.values()
    assert classify_fresh() == first
    assert len(_Interned._table) == size
