"""Sequent calculus derivations with term annotations.

The calculus has no structural rules built into the logical ones, so
weakening and contraction appear as explicit nodes. Antecedents are
variable contexts; the checker threads terms through each rule by
substitution and enforces one formula per variable globally. Each
rule class has a plan and a step in `_ScChecker.steps`, which
`nd.Checker.check` looks up by the node's class.

RuleMismatch and VariableTypeClash are shared with the natural
deduction checker and re-exported here.
"""

from __future__ import annotations

from typing import Union

from .core import (
    Abort,
    Absurd,
    And,
    App,
    Case,
    Context,
    Formula,
    Fst,
    Implies,
    Inl,
    Inr,
    Lam,
    Or,
    Pair,
    ProofmeanError,
    Snd,
    Term,
    Var,
    VarRef,
)
from .core import Record, record, substitute, substitute_many
from .nd import Checked, Checker, Node, RuleMismatch, VariableTypeClash, kept, premises

__all__ = [
    "Rf",
    "AndR",
    "AndL",
    "OrR1",
    "OrR2",
    "OrL",
    "ImpR",
    "ImpL",
    "AbsurdL",
    "Weaken",
    "Contract",
    "Cut",
    "ScDerivation",
    "Sequent",
    "CutInfo",
    "check_sc",
    "end_term_sc",
    "node_sequents",
    "variable_types",
    "cut_nodes",
    "RuleMismatch",
    "VariableTypeClash",
    "FreshnessViolation",
]


class FreshnessViolation(ProofmeanError):
    pass


# ---------- Derivation nodes ----------


@record
class Rf(Node):
    rule = "rf"
    var: Var
    formula: Formula


@record
class AndR(Node):
    rule = "and-r"
    left: ScDerivation
    right: ScDerivation


@record
class AndL(Node):
    rule = "and-l"
    principal: Var
    first: Var
    second: Var
    premise: ScDerivation


@record
class OrR1(Node):
    rule = "or-r1"
    other: Formula  # the right disjunct
    premise: ScDerivation


@record
class OrR2(Node):
    rule = "or-r2"
    other: Formula  # the left disjunct
    premise: ScDerivation


@record
class OrL(Node):
    rule = "or-l"
    principal: Var
    left_var: Var
    right_var: Var
    left: ScDerivation
    right: ScDerivation


@record
class ImpR(Node):
    rule = "imp-r"
    var: Var
    premise: ScDerivation


@record
class ImpL(Node):
    rule = "imp-l"
    principal: Var
    target: Var
    arg: ScDerivation
    body: ScDerivation


@record
class AbsurdL(Node):
    rule = "absurd-l"
    var: Var
    target: Formula


@record
class Weaken(Node):
    rule = "weaken"
    var: Var
    formula: Formula
    premise: ScDerivation


@record
class Contract(Node):
    rule = "contract"
    kept: Var
    merged: Var
    premise: ScDerivation


@record
class Cut(Node):
    rule = "cut"
    var: Var
    left: ScDerivation
    right: ScDerivation


ScDerivation = Union[
    Rf, AndR, AndL, OrR1, OrR2, OrL, ImpR, ImpL, AbsurdL, Weaken, Contract, Cut
]


@record
class Sequent(Checked):
    antecedent: Context
    term: Term
    succedent: Formula


# ---------- Checking ----------


class _ScChecker(Checker):
    def introduce(self, ctx: Context, v: Var, f: Formula) -> Context:
        """ctx with v at f, for a rule whose conclusion adds v: v must be
        fresh in ctx or stand there at f already, and at f everywhere."""
        existing = ctx.get(v)
        if existing is not None and existing != f:
            raise FreshnessViolation(
                f"{v.name} is already in the context at {existing!r}, cannot reuse it at {f!r}"
            )
        self.bind(v, f)
        return ctx.extend(v, f)

    def rf(self, d: Rf) -> Sequent:
        x, a = d.var, d.formula
        self.bind(x, a)
        return Sequent(Context._owning({x: a}), VarRef(x), a)

    def and_r(self, d: AndR, s1: Sequent, s2: Sequent) -> Sequent:
        return Sequent(
            self.union(s1.antecedent, s2.antecedent),
            Pair(s1.term, s2.term),
            And(s1.succedent, s2.succedent),
        )

    def distinct(self, d: AndL) -> None:
        if d.first == d.second:
            raise RuleMismatch("the two component variables must be distinct")

    def and_l(self, d: AndL, s: Sequent) -> Sequent:
        z, x, y = d.principal, d.first, d.second
        a = s.antecedent.get(x)
        b = s.antecedent.get(y)
        if a is None or b is None:
            raise RuleMismatch(f"premise antecedent must contain both {x.name} and {y.name}")
        rest = s.antecedent.without(x).without(y)
        ante = self.introduce(rest, z, And(a, b))
        term = substitute_many(s.term, {x: Fst(VarRef(z)), y: Snd(VarRef(z))})
        return Sequent(ante, term, s.succedent)

    def or_r1(self, d: OrR1, s: Sequent) -> Sequent:
        return Sequent(s.antecedent, Inl(s.term, d.other), Or(s.succedent, d.other))

    def or_r2(self, d: OrR2, s: Sequent) -> Sequent:
        return Sequent(s.antecedent, Inr(s.term, d.other), Or(d.other, s.succedent))

    def or_l(self, d: OrL, s1: Sequent, s2: Sequent) -> Sequent:
        z, x, y = d.principal, d.left_var, d.right_var
        a = s1.antecedent.get(x)
        b = s2.antecedent.get(y)
        if a is None:
            raise RuleMismatch(f"left premise antecedent must contain {x.name}")
        if b is None:
            raise RuleMismatch(f"right premise antecedent must contain {y.name}")
        if s1.succedent != s2.succedent:
            raise RuleMismatch(
                f"premises conclude {s1.succedent!r} and {s2.succedent!r}, which differ"
            )
        rest = self.union(s1.antecedent.without(x), s2.antecedent.without(y))
        term = Case(VarRef(z), x, a, s1.term, y, b, s2.term)
        return Sequent(self.introduce(rest, z, Or(a, b)), term, s1.succedent)

    def imp_r(self, d: ImpR, s: Sequent) -> Sequent:
        x = d.var
        a = s.antecedent.get(x)
        if a is None:
            raise RuleMismatch(f"{x.name} must be in the premise antecedent; weaken it in first")
        return Sequent(s.antecedent.without(x), Lam(x, a, s.term), Implies(a, s.succedent))

    def imp_l(self, d: ImpL, s1: Sequent, s2: Sequent) -> Sequent:
        x, y = d.principal, d.target
        b = s2.antecedent.get(y)
        if b is None:
            raise RuleMismatch(f"second premise antecedent must contain {y.name}")
        rest = self.union(s1.antecedent, s2.antecedent.without(y))
        ante = self.introduce(rest, x, Implies(s1.succedent, b))
        term = substitute(s2.term, y, App(VarRef(x), s1.term))
        return Sequent(ante, term, s2.succedent)

    def absurd_l(self, d: AbsurdL) -> Sequent:
        x, target = d.var, d.target
        self.bind(x, Absurd())
        return Sequent(Context._owning({x: Absurd()}), Abort(VarRef(x), target), target)

    def weaken(self, d: Weaken, s: Sequent) -> Sequent:
        return Sequent(self.introduce(s.antecedent, d.var, d.formula), s.term, s.succedent)

    def contract(self, d: Contract, s: Sequent) -> Sequent:
        kept, merged = d.kept, d.merged
        fk = s.antecedent.get(kept)
        fm = s.antecedent.get(merged)
        if fk is None or fm is None:
            raise RuleMismatch(
                f"premise antecedent must contain both {kept.name} and {merged.name}"
            )
        if fk != fm:
            raise RuleMismatch(
                f"{kept.name} and {merged.name} stand at {fk!r} and {fm!r}, which differ"
            )
        if kept == merged:
            return s
        return Sequent(
            s.antecedent.without(merged), substitute(s.term, merged, VarRef(kept)), s.succedent
        )

    def cut(self, d: Cut, s1: Sequent, s2: Sequent) -> Sequent:
        x = d.var
        cut_formula = s2.antecedent.get(x)
        if cut_formula is None:
            raise RuleMismatch(f"cut variable {x.name} must be in the right premise antecedent")
        if cut_formula != s1.succedent:
            raise RuleMismatch(
                f"left premise concludes {s1.succedent!r}, "
                f"but {x.name} stands at {cut_formula!r}"
            )
        rest = self.union(s1.antecedent, s2.antecedent.without(x))
        return Sequent(rest, substitute(s2.term, x, s1.term), s2.succedent)

    steps = {
        Rf: ((), rf),
        AndR: (("left", "right"), and_r),
        AndL: ((distinct, "premise"), and_l),
        OrR1: (("premise",), or_r1),
        OrR2: (("premise",), or_r2),
        OrL: (("left", "right"), or_l),
        ImpR: (("premise",), imp_r),
        ImpL: (("arg", "body"), imp_l),
        AbsurdL: ((), absurd_l),
        Weaken: (("premise",), weaken),
        Contract: (("premise",), contract),
        Cut: (("left", "right"), cut),
    }


def check_sc(d: ScDerivation) -> Sequent:
    """Validate the derivation and return its root sequent, carrying
    the sequent of every node below it and the variable types of the
    same run. The root is kept on d for the readers below."""
    return _ScChecker().run(d)


def node_sequents(d: ScDerivation) -> tuple[tuple[ScDerivation, Sequent], ...]:
    """Every node of d paired with its computed sequent, d last."""
    root = kept(d, check_sc)
    return (*root.nodes, (d, root))


def variable_types(d: ScDerivation) -> dict[Var, Formula]:
    """The one formula each variable of d stands for."""
    return dict(kept(d, check_sc).types)


def end_term_sc(d: ScDerivation) -> Term:
    """The term annotating the end sequent of d."""
    return kept(d, check_sc).term


# ---------- Cut inspection ----------


@record
class CutInfo(Record):
    path: tuple[int, ...]
    node: Cut
    principal: bool


def _left_principal(d: ScDerivation) -> bool:
    # The succedent is untouched by weakening, and contraction only
    # renames a term variable, so look through both.
    while isinstance(d, (Weaken, Contract)):
        d = d.premise
    return isinstance(d, (AndR, OrR1, OrR2, ImpR))


def _right_principal(
    d: ScDerivation, cut_var: Var, antecedent_of: dict[int, Context]
) -> bool:
    # Track which premise variables the cut variable descends from:
    # contraction splits an occurrence in two, weakening can create one
    # out of nothing (making that occurrence vacuous).
    candidates = {cut_var}
    while True:
        match d:
            case Weaken(v, _, premise):
                if v in candidates and v not in antecedent_of[id(premise)]:
                    candidates.discard(v)
                    if not candidates:
                        return False
                d = premise
            case Contract(kept, merged, premise):
                if kept in candidates:
                    candidates.add(merged)
                d = premise
            case AndL(z, _, _, _):
                return z in candidates
            case OrL(z, _, _, _, _):
                return z in candidates
            case ImpL(x, _, _, _):
                return x in candidates
            case _:
                return False


def cut_nodes(d: ScDerivation) -> tuple[CutInfo, ...]:
    """All cut nodes in d, each flagged principal or not.

    A cut is principal when both premises end, up to weakening and
    contraction, with the rule introducing the cut formula: a right
    rule on the left, and a left rule on the cut variable on the right.
    """
    # Only premises of weakenings are looked up, and d is none of them.
    antecedent_of = {id(node): seq.antecedent for node, seq in kept(d, check_sc).nodes}
    found: list[CutInfo] = []
    _visit_cuts(d, (), antecedent_of, found)
    return tuple(found)


def _visit_cuts(
    node: ScDerivation, path: tuple[int, ...], antecedent_of: dict[int, Context], found: list
) -> None:
    if isinstance(node, Cut):
        principal = _left_principal(node.left) and _right_principal(
            node.right, node.var, antecedent_of
        )
        found.append(CutInfo(path, node, principal))
    for i, p in enumerate(premises(node)):
        _visit_cuts(p, path + (i,), antecedent_of, found)
