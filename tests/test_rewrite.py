import pytest

from proofmean.core import (
    And,
    App,
    Atom,
    Case,
    Context,
    Fst,
    Implies,
    Inl,
    Inr,
    Lam,
    Or,
    Pair,
    Snd,
    Var,
    VarRef,
    alpha_equal,
    type_of,
)
from gamma_examples import (
    CASE_OF_TUPLE_TERM,
    FST_CASE_TERM,
    SND_CASE_TERM,
    TUPLE_OF_CASES_TERM,
)
from proofmean.rewrite import (
    INCONCLUSIVE,
    MODEL_STEP_BUDGET,
    BetaEta,
    BetaEtaGamma,
    FiniteModel,
    FuelExhausted,
    OutsideModelBounds,
    equivalent,
    gamma_steps,
    normalize,
)
from proofmean.meaning import denotation_of
from proofmean.rewrite import _FRAMES
from proofmean.sc import end_term_sc
from proofmean.syntax import parse_term

p, q = Atom("p"), Atom("q")
x, y, z, f = Var("x"), Var("y"), Var("z"), Var("f")


def test_beta_step_contracts_each_redex_shape():
    # Each term is one redex whose contractum is normal.
    assert normalize(App(Lam(x, p, VarRef(x)), VarRef(y))) == VarRef(y)
    assert normalize(Fst(Pair(VarRef(x), VarRef(y)))) == VarRef(x)
    assert normalize(Snd(Pair(VarRef(x), VarRef(y)))) == VarRef(y)
    t = Case(Inl(VarRef(z), q), x, p, Pair(VarRef(x), VarRef(x)), y, q, VarRef(f))
    assert normalize(t) == Pair(VarRef(z), VarRef(z))
    t = Case(Inr(VarRef(z), p), x, p, VarRef(f), y, q, Pair(VarRef(y), VarRef(y)))
    assert normalize(t) == Pair(VarRef(z), VarRef(z))


def test_beta_step_returns_none_on_normal_forms():
    for t in (VarRef(x), Lam(x, p, App(VarRef(f), VarRef(y))), App(VarRef(f), VarRef(x))):
        assert normalize(t) is t


def test_eta_step_shapes():
    assert normalize(Lam(x, p, App(VarRef(f), VarRef(x)))) == VarRef(f)
    assert normalize(Pair(Fst(VarRef(x)), Snd(VarRef(x)))) == VarRef(x)
    t = Case(VarRef(z), x, p, Inl(VarRef(x), q), y, q, Inr(VarRef(y), p))
    assert normalize(t) == VarRef(z)


def test_eta_step_requires_side_conditions():
    # Each term has an eta shape whose side condition fails, and no redex.
    no_redex = [
        Lam(x, p, App(VarRef(x), VarRef(x))),
        Pair(Fst(VarRef(x)), Snd(VarRef(y))),
        Case(VarRef(z), x, p, Inl(VarRef(x), p), y, q, Inr(VarRef(y), p)),
    ]
    for t in no_redex:
        assert normalize(t) is t


def test_normalize_reaches_beta_eta_normal_form():
    t = Fst(Pair(Lam(x, p, VarRef(x)), Lam(y, q, VarRef(y))))
    assert normalize(t) == Lam(x, p, VarRef(x))
    assert normalize(normalize(t)) == normalize(t)
    assert normalize(Lam(x, p, App(VarRef(f), VarRef(x)))) == VarRef(f)
    # Contracting the outer redex makes a new one where f stood.
    t = App(Lam(f, Implies(p, p), App(VarRef(f), VarRef(y))), Lam(x, p, VarRef(x)))
    assert normalize(t) == VarRef(y)


def test_normalize_runs_eta_after_beta():
    t = Lam(x, p, App(Fst(Pair(VarRef(f), VarRef(y))), VarRef(x)))
    assert normalize(t) == VarRef(f)


def test_normalize_keeps_a_binder_whose_capture_was_reduced_away():
    # (\x. \y. x) ((\z. w) y): the argument's free y is gone once the
    # argument is normal, so the one pass needs no fresh name for the
    # inner y. Reducing the outer redex first would give \y'. w.
    w = Var("w")
    arg = App(Lam(z, p, VarRef(w)), VarRef(y))
    t = Lam(y, p, Lam(w, p, App(Lam(x, p, Lam(y, p, VarRef(x))), arg)))
    assert normalize(t) == Lam(y, p, Lam(w, p, Lam(y, p, VarRef(w))))


def test_normalize_respects_budget():
    # Terms are interned for the whole session, so these variables are
    # this test's own: no other test has normalized its redexes.
    a, b, c = Var("budget_a"), Var("budget_b"), Var("budget_c")
    first = App(Lam(a, p, VarRef(a)), VarRef(b))
    second = App(Lam(a, p, VarRef(a)), VarRef(c))
    t = Pair(first, second)
    with pytest.raises(FuelExhausted):
        normalize(t, budget=1)
    # Only the redex contracted within the budget kept a normal form, and
    # using it costs no contraction.
    assert first._normal is VarRef(b)
    assert not hasattr(second, "_normal") and not hasattr(t, "_normal")
    assert normalize(t, budget=1) == Pair(VarRef(b), VarRef(c))
    # One node in two positions is contracted once.
    shared = App(Lam(a, q, VarRef(a)), VarRef(b))
    assert normalize(Pair(shared, shared), budget=1) == Pair(VarRef(b), VarRef(b))


# One example per row of the frame table: a term whose hole at the named
# field holds a case, and the same case with the frame pushed into both
# branches. Each steps to the other.
FRAME_EXAMPLES = [
    ("fun", r"app(case z { x:(p->q). x | y:(p->q). y }, w)",
     r"case z { x:(p->q). app(x, w) | y:(p->q). app(y, w) }"),
    ("arg", r"fst(case z { x:(p/\p). x | y:(p/\p). y })",
     r"case z { x:(p/\p). fst(x) | y:(p/\p). fst(y) }"),
    ("arg", r"snd(case z { x:(p/\p). x | y:(p/\p). y })",
     r"case z { x:(p/\p). snd(x) | y:(p/\p). snd(y) }"),
    ("arg", r"inl[q] (case z { x:p. x | y:p. y })",
     r"case z { x:p. inl[q] x | y:p. inl[q] y }"),
    ("arg", r"inr[q] (case z { x:p. x | y:p. y })",
     r"case z { x:p. inr[q] x | y:p. inr[q] y }"),
    ("arg", r"abort[q] (case z { x:_|_. x | y:_|_. y })",
     r"case z { x:_|_. abort[q] x | y:_|_. abort[q] y }"),
    ("first", r"<case z { x:p. x | y:p. y }, w>",
     r"case z { x:p. <x, w> | y:p. <y, w> }"),
    ("second", r"<w, case z { x:p. x | y:p. y }>",
     r"case z { x:p. <w, x> | y:p. <w, y> }"),
    ("scrutinee", r"case (case z { x:p. inl[p] x | y:p. inr[p] y }) { a:p. a | b:p. b }",
     r"case z { x:p. case inl[p] x { a:p. a | b:p. b } | y:p. case inr[p] y { a:p. a | b:p. b } }"),
    ("body", r"\w:q. case z { x:p. x | y:p. y }",
     r"case z { x:p. \w:q. x | y:p. \w:q. y }"),
]


def test_gamma_steps_commute_case_with_frames():
    rows = set()
    for hole, framed, pushed in FRAME_EXAMPLES:
        t, u = parse_term(framed), parse_term(pushed)
        assert isinstance(getattr(t, hole), Case)
        rows.add((type(t), hole))
        assert u in gamma_steps(t), framed
        assert t in gamma_steps(u), pushed
    assert rows == {(cls, hole) for cls, holes in _FRAMES.items() for hole in holes}
    # Non-frames and failed side conditions give no step.
    no_step = [
        # a case in an application's argument
        r"app(f, case z { x:p. x | y:p. y })",
        # a case in a branch of another case
        r"case w { a:p. case z { x:p. x | y:p. y } | b:p. b }",
        # a lambda whose binder is free in the scrutinee
        r"\z:(p\/p). case z { x:p. x | y:p. y }",
        # projections out of two different pair types
        r"case z { x:(p/\q). fst(x) | y:(p/\p). fst(y) }",
        # frames that differ outside the hole
        r"case z { x:(p->q). app(x, a) | y:(p->q). app(y, b) }",
        # a frame that mentions a branch binder
        r"case z { x:p. app(f, x) | y:p. app(f, x) }",
    ]
    for text in no_step:
        assert gamma_steps(parse_term(text)) == [], text


def test_gamma_steps_rename_branch_binders_to_avoid_capture():
    c = Case(VarRef(z), x, Implies(p, q), VarRef(x), y, Implies(p, q), VarRef(y))
    t = App(c, VarRef(x))
    results = gamma_steps(t)
    assert len(results) == 1
    for out in results:
        assert isinstance(out, Case)
        assert out.left_var != x
        assert alpha_equal(
            out,
            Case(
                VarRef(z),
                Var("u"), Implies(p, q), App(VarRef(Var("u")), VarRef(x)),
                y, Implies(p, q), App(VarRef(y), VarRef(x)),
            ),
        )
    # Renamed binders are primed in order, the right one past the left.
    t = parse_term(r"app(case z { x:(p->q). x | x:(p->q). x }, x)")
    assert gamma_steps(t) == [
        parse_term(r"case z { x':(p->q). app(x', x) | x'':(p->q). app(x'', x) }")
    ]
    # Pulled out of both branches, a lambda gets a new binder where its
    # own would capture the scrutinee's variable, a branch binder, or a
    # variable free in the other branch.
    for text, pulled in (
        (r"case w { x:p. \w:q. x | y:p. \w:q. y }", r"\w':q. case w { x:p. x | y:p. y }"),
        (r"case z { x:p. \x:q. x | y:p. \x:q. x }", r"\x':q. case z { x:p. x' | y:p. x' }"),
        (r"case z { x:p. \a:q. a | y:p. \b:q. a }", r"\a':q. case z { x:p. a' | y:p. a }"),
    ):
        assert gamma_steps(parse_term(text)) == [parse_term(pulled)], text


def test_gamma_connects_case_of_pair_with_pair_of_cases():
    one_case = parse_term(r"case z { x:p. <inl[q] x, inl[q] x> | y:q. <inr[p] y, inr[p] y> }")
    two_cases = parse_term(
        r"<case z { x:p. inl[q] x | y:q. inr[p] y }, case z { x:p. inl[q] x | y:q. inr[p] y }>"
    )
    assert any(alpha_equal(u, two_cases) for u in gamma_steps(one_case))
    assert any(alpha_equal(u, one_case) for u in gamma_steps(two_cases))
    assert equivalent(one_case, two_cases, BetaEtaGamma(fuel=2)) is True


def test_equivalent_beta_eta():
    t1 = App(Lam(x, p, Inl(VarRef(x), q)), VarRef(y))
    t2 = Inl(VarRef(y), q)
    assert equivalent(t1, t2) is True
    assert equivalent(t1, Inl(VarRef(y), p)) is False
    assert equivalent(t1, t2, BetaEta()) is True


def test_gamma_search_meets_after_the_second_sides_layer():
    # Each side is one gamma step from
    # app(case z { x. app(x, a) | y. app(y, a) }, b), and neither is one
    # step from the other.
    t1 = parse_term(r"app(app(case z { x:(p->(p->q)). x | y:(p->(p->q)). y }, a), b)")
    t2 = parse_term(
        r"case z { x:(p->(p->q)). app(app(x, a), b) | y:(p->(p->q)). app(app(y, a), b) }"
    )
    assert t2 not in gamma_steps(t1) and t1 not in gamma_steps(t2)
    assert equivalent(t1, t2, BetaEtaGamma(fuel=1)) is True


def test_gamma_mode_falls_back_to_beta_eta_first():
    t1 = App(Lam(x, p, VarRef(x)), VarRef(y))
    assert equivalent(t1, VarRef(y), BetaEtaGamma(fuel=1)) is True


def test_gamma_search_reports_fuel_exhaustion():
    t1, t2 = parse_term(CASE_OF_TUPLE_TERM), parse_term(TUPLE_OF_CASES_TERM)
    assert equivalent(t1, t2, BetaEtaGamma(fuel=1)) is INCONCLUSIVE
    assert equivalent(t1, t2, BetaEtaGamma(fuel=2)) is True


def test_gamma_search_never_answers_different():
    # The extensional theory of sums identifies each pair and the finite
    # model gives both sides one value, but this module's gamma laws
    # never join them. Exhausting those laws proves no difference.
    pairs = [
        (
            r"\u:(p\/p). \w:r. case u { x:p. case u { a:p. w | b:p. w } | y:p. w }",
            r"\u:(p\/p). \w:r. w",
        ),
        (
            r"\u:(p\/p). case u { x:p. case u { a:p. inl[p] a | b:p. inr[p] x }"
            r" | y:p. inr[p] y }",
            r"\u:(p\/p). u",
        ),
    ]
    for a, b in pairs:
        t1, t2 = parse_term(a), parse_term(b)
        model = FiniteModel()
        assert model.value(t1, {}) == model.value(t2, {})
        for fuel in (1, 2, 4, 6):
            assert equivalent(t1, t2, BetaEtaGamma(fuel=fuel)) is INCONCLUSIVE


def test_finite_model_refutes_different_denotations_before_the_search():
    t1, t2 = parse_term(FST_CASE_TERM), parse_term(SND_CASE_TERM)
    assert equivalent(t1, t2, BetaEtaGamma(fuel=1)) is False
    assert equivalent(t1, t2, BetaEtaGamma(fuel=4)) is False


def test_finite_model_never_separates_what_the_search_joins(load_corpus):
    def nf(name):
        return normalize(end_term_sc(load_corpus(name).derivation))

    joined = [
        (nf("sc_dist_1.sc"), nf("sc_dist_3.sc")),
        (nf("sc_dist_2.sc"), nf("sc_dist_3.sc")),
        (parse_term(CASE_OF_TUPLE_TERM), parse_term(TUPLE_OF_CASES_TERM)),
    ]
    for t1, t2 in joined:
        assert not alpha_equal(t1, t2)
        model = FiniteModel()
        assert model.value(t1, {}) == model.value(t2, {})
        assert equivalent(t1, t2, BetaEtaGamma(fuel=4)) is True


def test_finite_model_declines_and_leaves_the_search_to_answer():
    # Each pair below differs in the model, yet the refutation declines
    # and the search at fuel 1 answers as it would without the model.
    def gamma_1(a, b):
        return equivalent(parse_term(a), parse_term(b), BetaEtaGamma(fuel=1))

    fst_open = r"fst(case u { x:(p/\p). x | y:(p/\p). y })"
    snd_open = r"snd(case u { x:(p/\p). x | y:(p/\p). y })"
    u = Var("u")
    model = FiniteModel()
    tagged = (0, (0, 1))
    assert model.value(parse_term(fst_open), {u: tagged}) != model.value(
        parse_term(snd_open), {u: tagged}
    )
    assert gamma_1(fst_open, snd_open) is INCONCLUSIVE

    # Ill-typed: the right branch's annotation does not match the scrutinee.
    head = r"\u:((p/\p)\/(p/\p)). "
    ill_typed = head + r"snd(case u { x:(p/\p). x | y:(q/\q). y })"
    assert gamma_1(FST_CASE_TERM, ill_typed) is INCONCLUSIVE

    # Two types: the same projections at q instead of p.
    at_q = r"\u:((q/\q)\/(q/\q)). snd(case u { x:(q/\q). x | y:(q/\q). y })"
    assert gamma_1(FST_CASE_TERM, at_q) is INCONCLUSIVE

    # Above the size bound: ((p->p)->p)->p has 2^16 elements.
    big = r"\f:(((p->p)->p)->p). "
    with pytest.raises(OutsideModelBounds):
        FiniteModel().elements(parse_term(big + "f").bound_type)
    assert gamma_1(big + FST_CASE_TERM, big + SND_CASE_TERM) is INCONCLUSIVE

    # Above the size bound at a binder: ((p/\p)/\(p/\p))->p has 2^16
    # elements.
    many = r"\f:(((p/\p)/\(p/\p))->p). \g:(((p/\p)/\(p/\p))->p). "
    with pytest.raises(OutsideModelBounds, match="over 256 elements"):
        FiniteModel().value(parse_term(many + FST_CASE_TERM), {})
    assert gamma_1(many + FST_CASE_TERM, many + SND_CASE_TERM) is INCONCLUSIVE

    # Past the step budget: fifteen binders over p take 2^15 evaluations
    # of the body, and the two bodies first differ at tuple 2^13 + 1,
    # about 16,400 steps in. Only the search answers.
    binders = "".join(rf"\{v}:p. " for v in "abcdefghijklmno")
    with pytest.raises(OutsideModelBounds, match=f"over {MODEL_STEP_BUDGET} steps"):
        FiniteModel().value(parse_term(binders + "a"), {})
    assert gamma_1(binders + "a", binders + "b") is INCONCLUSIVE


def test_finite_model_separates_at_the_first_distinguishing_tuple():
    # FST_CASE and SND_CASE take 47 steps each to evaluate in full.
    # Separating them spends 14 on the elements of (p/\p)\/(p/\p) and 4
    # per body on each of the first two tuples; equal terms try every
    # tuple, the peeled lambdas themselves spending none.
    cases = [
        (FST_CASE_TERM, SND_CASE_TERM, ((0, (0, 1)),), 30),
        (CASE_OF_TUPLE_TERM, TUPLE_OF_CASES_TERM, None, 198),
    ]
    for a, b, tuple_, steps in cases:
        t1, t2 = parse_term(a), parse_term(b)
        model = FiniteModel()
        assert model.separate(t1, t2, type_of(Context(), t1)) == tuple_
        assert MODEL_STEP_BUDGET - model._steps == steps

    # Fourteen binders over p: each full value takes 2^14 evaluations of
    # its body, past the budget, but the bodies first differ at tuple
    # 2^12 + 1, about 8,200 steps in, so the model refutes at any fuel.
    binders = "".join(rf"\{v}:p. " for v in "abcdefghijklmn")
    with pytest.raises(OutsideModelBounds, match=f"over {MODEL_STEP_BUDGET} steps"):
        FiniteModel().value(parse_term(binders + "a"), {})
    t1, t2 = parse_term(binders + "a"), parse_term(binders + "b")
    assert equivalent(t1, t2, BetaEtaGamma(fuel=1)) is False


DIST = {
    (0, (0, 0)): ((1, 0), (1, 0)),
    (0, (0, 1)): ((1, 0), (1, 1)),
    (0, (1, 0)): ((1, 1), (1, 0)),
    (0, (1, 1)): ((1, 1), (1, 1)),
    (1, 0): ((0, 0), (0, 0)),
    (1, 1): ((0, 1), (0, 1)),
}
SPLIT = {(0, 0): (0, 0), (0, 1): (0, 0), (1, 0): (0, 1), (1, 1): (0, 1)}
TUPLE = {
    0: {
        (0, 0): (((0, 0), 0), 0),
        (0, 1): (((1, 0), 1), 0),
        (1, 0): (((0, 0), 0), 0),
        (1, 1): (((1, 1), 0), 1),
    },
    1: {
        (0, 0): (((0, 1), 0), 1),
        (0, 1): (((1, 1), 1), 1),
        (1, 0): (((0, 0), 1), 0),
        (1, 1): (((1, 1), 1), 1),
    },
}
TS = {
    (0, 0): {(0, 0): (0, 0), (0, 1): (0, 0), (1, 0): (0, 1), (1, 1): (0, 1)},
    (0, 1): {(0, 0): (1, 0), (0, 1): (1, 0), (1, 0): (1, 1), (1, 1): (1, 1)},
    (1, 0): {(0, 0): (0, 0), (0, 1): (0, 0), (1, 0): (0, 1), (1, 1): (0, 1)},
    (1, 1): {(0, 0): (1, 0), (0, 1): (1, 0), (1, 0): (1, 1), (1, 1): (1, 1)},
}
CASE_PAIR = {(0, 0): (0, 0), (0, 1): (1, 1), (1, 0): (0, 0), (1, 1): (1, 1)}
WEAK = {0: {0: 0, 1: 0}, 1: {0: 1, 1: 1}}
# Each closed corpus normal form and gamma example with its value and
# the steps that evaluating it spends, written down from the evaluator
# that interpreted each node afresh at every environment. The values'
# key order is part of what is pinned: it fixes every table's hash.
MODEL_VALUES = {
    "nd_case_pair.nd": (CASE_PAIR, 35),
    "nd_identity.nd": ({0: 0, 1: 1}, 5),
    "nd_identity_detour.nd": ({0: 0, 1: 1}, 5),
    "nd_pair_pp_1.nd": ({0: {0: (0, 0), 1: (1, 0)}, 1: {0: (0, 1), 1: (1, 1)}}, 17),
    "nd_pair_pp_2.nd": ({0: {0: (0, 0), 1: (0, 1)}, 1: {0: (1, 0), 1: (1, 1)}}, 17),
    "nd_weak_pq_1.nd": (WEAK, 11),
    "nd_weak_pq_2.nd": (WEAK, 11),
    "sc_case_pair.sc": (CASE_PAIR, 35),
    "sc_dist_1.sc": (DIST, 67),
    "sc_dist_2.sc": (DIST, 67),
    "sc_dist_3.sc": (DIST, 79),
    "sc_inl_cut.sc": (SPLIT, 19),
    "sc_inl_cut_plain.sc": (SPLIT, 19),
    "sc_inl_cutfree.sc": (SPLIT, 19),
    "sc_pair_pp.sc": ({0: {0: (0, 0), 1: (0, 1)}, 1: {0: (1, 0), 1: (1, 1)}}, 17),
    "sc_ts_1.sc": (TS, 101),
    "sc_ts_2.sc": (TS, 101),
    CASE_OF_TUPLE_TERM: (TUPLE, 81),
    TUPLE_OF_CASES_TERM: (TUPLE, 129),
    FST_CASE_TERM: (
        {
            (0, (0, 0)): 0, (0, (0, 1)): 0, (0, (1, 0)): 1, (0, (1, 1)): 1,
            (1, (0, 0)): 0, (1, (0, 1)): 0, (1, (1, 0)): 1, (1, (1, 1)): 1,
        },
        47,
    ),
    SND_CASE_TERM: (
        {
            (0, (0, 0)): 0, (0, (0, 1)): 1, (0, (1, 0)): 0, (0, (1, 1)): 1,
            (1, (0, 0)): 0, (1, (0, 1)): 1, (1, (1, 0)): 0, (1, (1, 1)): 1,
        },
        47,
    ),
}


def test_finite_model_values_and_steps_are_pinned(corpus_dir, load_corpus):
    assert {path.name for path in corpus_dir.iterdir()} <= set(MODEL_VALUES)
    for name, (expected, steps) in MODEL_VALUES.items():
        if name.endswith((".nd", ".sc")):
            t = denotation_of(load_corpus(name).derivation)
        else:
            t = parse_term(name)
        model = FiniteModel()
        assert repr(model.value(t, {})) == repr(expected), name
        assert MODEL_STEP_BUDGET - model._steps == steps, name


def test_finite_model_reads_each_variable_at_its_binders_depth():
    # A binder that shadows a variable, bound or taken from env, gets a
    # slot of its own, and so does every binder below it.
    pairs = {0: {0: (0, 0), 1: (0, 1)}, 1: {0: (1, 0), 1: (1, 1)}}
    cases = [
        (r"\x:p. \x:p. \y:p. <x, y>", {}, {0: pairs, 1: pairs}, 33),
        (r"\x:p. case inl[p] x { x:p. \y:p. <x, y> | z:p. \y:p. <z, y> }", {}, pairs, 23),
        (r"\y:p. <x, y>", {x: 0, y: 1}, pairs[0], 9),
    ]
    for text, env, expected, steps in cases:
        model = FiniteModel()
        assert repr(model.value(parse_term(text), env)) == repr(expected), text
        assert MODEL_STEP_BUDGET - model._steps == steps, text


def test_finite_model_never_reaches_an_empty_binder_or_an_untaken_branch():
    # Each term holds a binder over (((p->p)->p)->p), 2^16 elements, and an
    # abort; neither is reached, so neither may fail or spend a step.
    big = r"\f:(((p->p)->p)->p). abort[p] "
    under_absurd = parse_term(r"\x:_|_. " + big + "x")
    untaken = parse_term(
        r"\w:p. case inl[_|_] w { x:p. x | y:_|_. app((" + big + r"y), \g:((p->p)->p). w) }"
    )
    assert type_of(Context(), untaken) == Implies(p, p)
    model = FiniteModel()
    assert model.value(under_absurd, {}) == {}
    assert MODEL_STEP_BUDGET - model._steps == 1
    model = FiniteModel()
    assert model.value(untaken, {}) == {0: 0, 1: 1}
    # One step for the lambda, two for the elements of p, and 4 per element.
    assert MODEL_STEP_BUDGET - model._steps == 11


def test_finite_model_raises_type_error_on_reaching_an_abort():
    with pytest.raises(TypeError):
        FiniteModel().value(parse_term("abort[p] x"), {x: 0})
    with pytest.raises(TypeError):
        FiniteModel().value(parse_term(r"\y:p. abort[p] x"), {x: 0})


def test_inconclusive_is_not_a_boolean():
    with pytest.raises(TypeError):
        bool(INCONCLUSIVE)
    assert repr(INCONCLUSIVE) == "INCONCLUSIVE"


def test_gamma_mode_requires_positive_fuel():
    with pytest.raises(ValueError):
        BetaEtaGamma(fuel=0)
