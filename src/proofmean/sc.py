"""Sequent calculus derivations with term annotations.

The calculus has no structural rules built into the logical ones, so
weakening and contraction appear as explicit nodes. Antecedents are
variable contexts; the checker threads terms through each rule by
substitution and enforces one formula per variable globally.

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
    def fresh_or_same(self, ctx: Context, v: Var, f: Formula) -> None:
        existing = ctx.get(v)
        if existing is not None and existing != f:
            raise FreshnessViolation(
                f"{v.name} is already in the context at {existing!r}, cannot reuse it at {f!r}"
            )

    def check(self, d: ScDerivation) -> Sequent:
        # Each case sets `out`, which is recorded below.
        match d:
            case Rf(x, a):
                self.bind(x, a)
                out = Sequent(Context._owning({x: a}), VarRef(x), a)
            case AndR(left, right):
                s1 = self.check(left)
                s2 = self.check(right)
                out = Sequent(
                    self.union(s1.antecedent, s2.antecedent),
                    Pair(s1.term, s2.term),
                    And(s1.succedent, s2.succedent),
                )
            case AndL(z, x, y, premise):
                if x == y:
                    raise RuleMismatch("the two component variables must be distinct")
                s = self.check(premise)
                a = s.antecedent.get(x)
                b = s.antecedent.get(y)
                if a is None or b is None:
                    raise RuleMismatch(
                        f"premise antecedent must contain both {x.name} and {y.name}"
                    )
                rest = s.antecedent.without(x).without(y)
                conj = And(a, b)
                self.fresh_or_same(rest, z, conj)
                self.bind(z, conj)
                term = substitute_many(s.term, {x: Fst(VarRef(z)), y: Snd(VarRef(z))})
                out = Sequent(rest.extend(z, conj), term, s.succedent)
            case OrR1(other, premise):
                s = self.check(premise)
                out = Sequent(s.antecedent, Inl(s.term, other), Or(s.succedent, other))
            case OrR2(other, premise):
                s = self.check(premise)
                out = Sequent(s.antecedent, Inr(s.term, other), Or(other, s.succedent))
            case OrL(z, x, y, left, right):
                s1 = self.check(left)
                s2 = self.check(right)
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
                disj = Or(a, b)
                self.fresh_or_same(rest, z, disj)
                self.bind(z, disj)
                term = Case(VarRef(z), x, a, s1.term, y, b, s2.term)
                out = Sequent(rest.extend(z, disj), term, s1.succedent)
            case ImpR(x, premise):
                s = self.check(premise)
                a = s.antecedent.get(x)
                if a is None:
                    raise RuleMismatch(
                        f"{x.name} must be in the premise antecedent; weaken it in first"
                    )
                out = Sequent(
                    s.antecedent.without(x), Lam(x, a, s.term), Implies(a, s.succedent)
                )
            case ImpL(x, y, arg, body):
                s1 = self.check(arg)
                s2 = self.check(body)
                b = s2.antecedent.get(y)
                if b is None:
                    raise RuleMismatch(f"second premise antecedent must contain {y.name}")
                imp = Implies(s1.succedent, b)
                rest = self.union(s1.antecedent, s2.antecedent.without(y))
                self.fresh_or_same(rest, x, imp)
                self.bind(x, imp)
                term = substitute(s2.term, y, App(VarRef(x), s1.term))
                out = Sequent(rest.extend(x, imp), term, s2.succedent)
            case AbsurdL(x, target):
                self.bind(x, Absurd())
                out = Sequent(
                    Context._owning({x: Absurd()}), Abort(VarRef(x), target), target
                )
            case Weaken(x, a, premise):
                s = self.check(premise)
                self.fresh_or_same(s.antecedent, x, a)
                self.bind(x, a)
                out = Sequent(s.antecedent.extend(x, a), s.term, s.succedent)
            case Contract(kept, merged, premise):
                s = self.check(premise)
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
                    out = s
                else:
                    out = Sequent(
                        s.antecedent.without(merged),
                        substitute(s.term, merged, VarRef(kept)),
                        s.succedent,
                    )
            case Cut(x, left, right):
                s1 = self.check(left)
                s2 = self.check(right)
                cut_formula = s2.antecedent.get(x)
                if cut_formula is None:
                    raise RuleMismatch(
                        f"cut variable {x.name} must be in the right premise antecedent"
                    )
                if cut_formula != s1.succedent:
                    raise RuleMismatch(
                        f"left premise concludes {s1.succedent!r}, "
                        f"but {x.name} stands at {cut_formula!r}"
                    )
                rest = self.union(s1.antecedent, s2.antecedent.without(x))
                out = Sequent(rest, substitute(s2.term, x, s1.term), s2.succedent)
            case _:
                raise TypeError(f"not a derivation node: {d!r}")
        self.nodes.append((d, out))
        return out


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

    def visit(node: ScDerivation, path: tuple[int, ...]) -> None:
        if isinstance(node, Cut):
            principal = _left_principal(node.left) and _right_principal(
                node.right, node.var, antecedent_of
            )
            found.append(CutInfo(path, node, principal))
        for i, p in enumerate(premises(node)):
            visit(p, path + (i,))

    visit(d, ())
    return tuple(found)
