import pytest

from proofmean.core import (
    Absurd,
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
)
from proofmean.sc import (
    AbsurdL,
    AndL,
    AndR,
    Contract,
    Cut,
    FreshnessViolation,
    ImpL,
    ImpR,
    OrL,
    OrR1,
    OrR2,
    Rf,
    RuleMismatch,
    VariableTypeClash,
    Weaken,
    check_sc,
    cut_nodes,
    end_term_sc,
    node_sequents,
    variable_types,
)

p, q, r = Atom("p"), Atom("q"), Atom("r")
x, y, z, w, u, v = Var("x"), Var("y"), Var("z"), Var("w"), Var("u"), Var("v")


def test_reflexivity_axiom():
    s = check_sc(Rf(x, p))
    assert s.antecedent == Context({x: p})
    assert s.term == VarRef(x)
    assert s.succedent == p


def test_right_rules_build_introductions():
    s = check_sc(AndR(Rf(x, p), Rf(y, q)))
    assert s.term == Pair(VarRef(x), VarRef(y))
    assert s.succedent == And(p, q)
    assert s.antecedent == Context({x: p, y: q})
    assert check_sc(OrR1(q, Rf(x, p))).succedent == Or(p, q)
    assert check_sc(OrR2(q, Rf(x, p))).succedent == Or(q, p)


def test_and_left_substitutes_projections_simultaneously():
    d = AndL(z, x, y, AndR(Rf(x, p), Rf(y, q)))
    s = check_sc(d)
    assert s.antecedent == Context({z: And(p, q)})
    assert s.term == Pair(Fst(VarRef(z)), Snd(VarRef(z)))
    assert s.succedent == And(p, q)


def test_and_left_swapped_components():
    d = AndL(z, y, x, AndR(Rf(x, p), Rf(y, q)))
    s = check_sc(d)
    assert s.antecedent == Context({z: And(q, p)})
    assert s.term == Pair(Snd(VarRef(z)), Fst(VarRef(z)))


def test_and_left_requires_distinct_present_components():
    with pytest.raises(RuleMismatch):
        check_sc(AndL(z, x, x, Rf(x, p)))
    with pytest.raises(RuleMismatch):
        check_sc(AndL(z, x, y, Rf(x, p)))


def test_or_left_builds_a_case():
    d = OrL(z, x, y, OrR1(q, Rf(x, p)), OrR2(p, Rf(y, q)))
    s = check_sc(d)
    assert s.antecedent == Context({z: Or(p, q)})
    assert s.term == Case(VarRef(z), x, p, Inl(VarRef(x), q), y, q, Inr(VarRef(y), p))
    assert s.succedent == Or(p, q)


def test_or_left_premises_must_agree():
    with pytest.raises(RuleMismatch):
        check_sc(OrL(z, x, y, Rf(x, p), Rf(y, q)))
    with pytest.raises(RuleMismatch):
        check_sc(OrL(z, u, y, Rf(x, p), Rf(y, p)))
    with pytest.raises(RuleMismatch, match="^right premise antecedent must contain u$"):
        check_sc(OrL(z, x, u, Rf(x, p), Rf(y, p)))


def test_imp_right_abstracts():
    s = check_sc(ImpR(x, Rf(x, p)))
    assert s.antecedent == Context()
    assert s.term == Lam(x, p, VarRef(x))
    assert s.succedent == Implies(p, p)


def test_imp_right_requires_the_variable_weakened_in():
    with pytest.raises(RuleMismatch):
        check_sc(ImpR(z, Rf(x, p)))
    s = check_sc(ImpR(z, Weaken(z, q, Rf(x, p))))
    assert s.term == Lam(z, q, VarRef(x))
    assert s.succedent == Implies(q, p)
    assert s.antecedent == Context({x: p})


def test_imp_left_applies_the_implication():
    d = ImpL(w, y, Rf(x, p), Rf(y, q))
    s = check_sc(d)
    assert s.antecedent == Context({x: p, w: Implies(p, q)})
    assert s.term == App(VarRef(w), VarRef(x))
    assert s.succedent == q


def test_imp_left_substitutes_inside_the_body():
    body = AndR(Rf(y, q), Rf(z, r))
    s = check_sc(ImpL(w, y, Rf(x, p), body))
    assert s.term == Pair(App(VarRef(w), VarRef(x)), VarRef(z))
    with pytest.raises(RuleMismatch):
        check_sc(ImpL(w, y, Rf(x, p), Rf(z, r)))


def test_absurdity_left_is_a_leaf():
    s = check_sc(AbsurdL(x, r))
    assert s.antecedent == Context({x: Absurd()})
    assert s.succedent == r


def test_weakening_leaves_the_term_alone():
    s = check_sc(Weaken(y, q, Rf(x, p)))
    assert s.term == VarRef(x)
    assert s.antecedent == Context({x: p, y: q})
    again = check_sc(Weaken(x, p, Rf(x, p)))
    assert again.antecedent == Context({x: p})
    with pytest.raises(FreshnessViolation):
        check_sc(Weaken(x, q, Rf(x, p)))


def test_contraction_merges_by_renaming():
    premise = AndR(Rf(x, p), Rf(y, p))
    s = check_sc(Contract(x, y, premise))
    assert s.antecedent == Context({x: p})
    assert s.term == Pair(VarRef(x), VarRef(x))
    noop = check_sc(Contract(x, x, Rf(x, p)))
    assert noop.term == VarRef(x)
    assert noop.antecedent == Context({x: p})


def test_contraction_requires_matching_formulas():
    with pytest.raises(RuleMismatch):
        check_sc(Contract(x, y, AndR(Rf(x, p), Rf(y, q))))
    with pytest.raises(RuleMismatch):
        check_sc(Contract(x, y, Rf(x, p)))


def test_cut_substitutes_the_left_term():
    d = Cut(z, Rf(x, p), OrR1(q, Rf(z, p)))
    s = check_sc(d)
    assert s.antecedent == Context({x: p})
    assert s.term == check_sc(OrR1(q, Rf(x, p))).term
    assert s.succedent == Or(p, q)


def test_cut_variable_must_match():
    with pytest.raises(RuleMismatch):
        check_sc(Cut(z, Rf(x, p), OrR1(q, Rf(y, p))))
    with pytest.raises(RuleMismatch):
        check_sc(Cut(z, Rf(x, q), OrR1(q, Rf(z, p))))


def test_global_variable_discipline():
    with pytest.raises(VariableTypeClash):
        check_sc(AndR(Rf(x, p), Rf(x, q)))


def test_freshness_of_reintroduced_variables():
    premise = Weaken(z, r, AndR(Rf(x, p), Rf(y, q)))
    with pytest.raises(FreshnessViolation):
        check_sc(AndL(z, x, y, premise))


def test_node_sequents_lists_root_last():
    d = ImpR(x, Rf(x, p))
    recorded = node_sequents(d)
    assert len(recorded) == 2
    assert recorded[-1][0] is d
    assert variable_types(d) == {x: p}


def test_end_term_with_weakening_in_scope():
    d = ImpR(y, OrR1(p, AndL(y, z, x, Weaken(x, p, Rf(z, p)))))
    assert end_term_sc(d) == Lam(y, And(p, p), Inl(Fst(VarRef(y)), p))


# ---------- Cut principality ----------


def test_cut_on_freshly_introduced_formula_is_principal():
    left = AndR(Rf(x, p), Rf(y, q))
    right = AndL(z, u, v, AndR(Rf(u, p), Rf(v, q)))
    info = cut_nodes(Cut(z, left, right))
    assert len(info) == 1
    assert info[0].path == ()
    assert info[0].principal


def test_cut_is_not_principal_when_the_left_side_ends_with_an_axiom():
    d = Cut(z, Rf(x, p), OrR1(q, Rf(z, p)))
    info = cut_nodes(d)
    assert len(info) == 1
    assert not info[0].principal


def test_cut_is_not_principal_when_the_right_occurrence_is_weakened_in():
    d = Cut(z, OrR1(q, Rf(x, p)), Weaken(z, Or(p, q), Rf(y, r)))
    info = cut_nodes(d)
    assert not info[0].principal


def test_principality_looks_through_weakening_and_contraction():
    left = AndR(Rf(Var("a"), p), Rf(Var("b"), q))
    base = Weaken(u, p, Weaken(v, q, Weaken(x, And(p, q), Rf(w, r))))
    right = Contract(x, y, AndL(y, u, v, base))
    d = Cut(x, left, right)
    info = cut_nodes(d)
    assert len(info) == 1
    assert info[0].principal


def test_left_principality_looks_through_weakening_and_contraction():
    right = AndL(z, u, v, AndR(Rf(u, p), Rf(v, p)))
    weakened = Weaken(w, r, AndR(Rf(x, p), Rf(y, p)))
    contracted = Contract(x, y, AndR(Rf(x, p), Rf(y, p)))
    for left in (weakened, contracted):
        assert cut_nodes(Cut(z, left, right))[0].principal, left


def test_right_principality_follows_a_contracted_copy_past_a_vacuous_weakening():
    # z is weakened in over nothing, but its contracted copy y is the
    # principal variable below.
    left = AndR(Rf(x, p), Rf(w, q))
    right = Contract(z, y, Weaken(z, And(p, q), AndL(y, u, v, AndR(Rf(u, p), Rf(v, q)))))
    assert cut_nodes(Cut(z, left, right))[0].principal


def test_right_principality_on_each_left_rule_and_on_a_right_rule():
    f, a = Var("f"), Var("a")
    or_l = OrL(z, u, v, OrR1(q, Rf(u, p)), OrR2(p, Rf(v, q)))
    assert cut_nodes(Cut(z, OrR1(q, Rf(x, p)), or_l))[0].principal
    imp_l = ImpL(f, y, Rf(a, p), Rf(y, p))
    assert cut_nodes(Cut(f, ImpR(x, Rf(x, p)), imp_l))[0].principal
    # The cut variable is not the one the left rule introduces.
    g, t = Var("g"), Var("t")
    uses_w = ImpL(g, t, Rf(w, And(p, q)), Rf(t, p))
    assert not cut_nodes(Cut(w, AndR(Rf(x, p), Rf(y, q)), uses_w))[0].principal
    # The right premise ends in a right rule.
    d = Cut(z, AndR(Rf(x, p), Rf(y, q)), OrR1(r, Rf(z, And(p, q))))
    assert not cut_nodes(d)[0].principal


def test_cut_paths_locate_nested_cuts():
    inner = Cut(z, Rf(x, p), OrR1(q, Rf(z, p)))
    d = ImpR(w, Weaken(w, q, inner))
    info = cut_nodes(d)
    assert len(info) == 1
    assert info[0].path == (0, 0)
    assert info[0].node is inner
    # Premise indices past the first, and cuts in preorder.
    pair = AndR(inner, Weaken(w, q, inner))
    assert [c.path for c in cut_nodes(pair)] == [(0,), (1, 0)]
