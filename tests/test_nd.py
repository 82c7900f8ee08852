import pytest

from proofmean.core import (
    Absurd,
    And,
    Atom,
    Case,
    Context,
    Implies,
    Lam,
    Or,
    Pair,
    Var,
    VarRef,
)
from proofmean.nd import (
    AbsurdE,
    AndE1,
    AndE2,
    AndI,
    BadDischarge,
    Hyp,
    ImpE,
    ImpI,
    OrE,
    OrI1,
    OrI2,
    RuleMismatch,
    VariableTypeClash,
    check_nd,
    end_term_nd,
    node_judgments,
    variable_types,
)

p, q, r = Atom("p"), Atom("q"), Atom("r")
x, y, z, w = Var("x"), Var("y"), Var("z"), Var("w")


def test_hypothesis_is_open():
    j = check_nd(Hyp(x, p))
    assert j.open == Context({x: p})
    assert j.term == VarRef(x)
    assert j.formula == p


def test_implication_introduction_discharges():
    j = check_nd(ImpI(x, None, Hyp(x, p)))
    assert j.open == Context()
    assert j.term == Lam(x, p, VarRef(x))
    assert j.formula == Implies(p, p)


def test_vacuous_discharge_needs_a_declared_formula():
    j = check_nd(ImpI(z, q, Hyp(x, p)))
    assert j.term == Lam(z, q, VarRef(x))
    assert j.formula == Implies(q, p)
    assert j.open == Context({x: p})
    with pytest.raises(BadDischarge):
        check_nd(ImpI(z, None, Hyp(x, p)))


def test_declared_formula_must_match_the_open_one():
    with pytest.raises(BadDischarge):
        check_nd(ImpI(x, q, Hyp(x, p)))
    j = check_nd(ImpI(x, p, Hyp(x, p)))
    assert j.formula == Implies(p, p)


def test_discharge_closes_every_occurrence():
    d = ImpI(x, None, AndI(Hyp(x, p), Hyp(x, p)))
    j = check_nd(d)
    assert j.open == Context()
    assert j.term == Lam(x, p, Pair(VarRef(x), VarRef(x)))


def test_one_formula_per_variable_across_the_tree():
    with pytest.raises(VariableTypeClash):
        check_nd(AndI(Hyp(x, p), Hyp(x, q)))
    with pytest.raises(VariableTypeClash):
        check_nd(AndI(ImpI(x, None, Hyp(x, p)), Hyp(x, q)))


def test_elimination_rules_build_terms():
    app = check_nd(ImpE(Hyp(x, Implies(p, q)), Hyp(y, p)))
    assert app.formula == q
    assert app.open == Context({x: Implies(p, q), y: p})
    assert check_nd(AndE1(Hyp(x, And(p, q)))).formula == p
    assert check_nd(AndE2(Hyp(x, And(p, q)))).formula == q
    assert check_nd(OrI1(q, Hyp(x, p))).formula == Or(p, q)
    assert check_nd(OrI2(q, Hyp(x, p))).formula == Or(q, p)
    assert check_nd(AbsurdE(r, Hyp(x, Absurd()))).formula == r


def test_rule_shape_errors():
    with pytest.raises(RuleMismatch):
        check_nd(ImpE(Hyp(x, p), Hyp(y, q)))
    with pytest.raises(RuleMismatch):
        check_nd(ImpE(Hyp(x, Implies(p, q)), Hyp(y, r)))
    with pytest.raises(RuleMismatch):
        check_nd(AndE1(Hyp(x, p)))
    with pytest.raises(RuleMismatch, match="not a conjunction"):
        check_nd(AndE2(Hyp(x, p)))
    with pytest.raises(RuleMismatch):
        check_nd(AbsurdE(r, Hyp(x, p)))
    with pytest.raises(RuleMismatch):
        check_nd(OrE(Hyp(z, p), x, Hyp(x, q), y, Hyp(y, q)))


def test_or_elimination_builds_a_case():
    d = OrE(Hyp(z, Or(p, q)), x, OrI1(q, Hyp(x, p)), y, OrI2(p, Hyp(y, q)))
    j = check_nd(d)
    assert j.formula == Or(p, q)
    assert j.open == Context({z: Or(p, q)})
    assert isinstance(j.term, Case)
    assert j.term.scrutinee == VarRef(z)


def test_or_elimination_branch_formulas_must_agree():
    with pytest.raises(RuleMismatch):
        check_nd(OrE(Hyp(z, Or(p, q)), x, Hyp(x, p), y, OrI1(q, Hyp(y, q))))


def test_or_elimination_rejects_branch_variable_at_wrong_formula():
    with pytest.raises(BadDischarge):
        check_nd(OrE(Hyp(z, Or(p, q)), x, Hyp(x, r), y, Hyp(w, r)))


def test_node_judgments_lists_root_last():
    d = ImpI(x, None, AndI(Hyp(x, p), Hyp(x, p)))
    recorded = node_judgments(d)
    assert len(recorded) == 4
    assert recorded[-1][0] is d
    assert recorded[0][1].term == VarRef(x)


def test_variable_types_covers_binders_and_hypotheses():
    u = Var("u")
    d = ImpI(z, q, OrE(Hyp(u, Or(p, q)), x, Hyp(x, p), y, Hyp(w, p)))
    assert variable_types(d) == {z: q, u: Or(p, q), x: p, y: q, w: p}


def test_end_term_of_a_detour():
    d = AndE1(AndI(ImpI(x, None, Hyp(x, p)), ImpI(y, None, Hyp(y, q))))
    from proofmean.core import Fst

    assert end_term_nd(d) == Fst(Pair(Lam(x, p, VarRef(x)), Lam(y, q, VarRef(y))))
