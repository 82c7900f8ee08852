"""Natural deduction derivations with term annotations.

Nodes are pure syntax: a rule tag, its variable and formula arguments,
and premise subtrees. The checker recomputes every judgment, builds the
annotating term for each node, and enforces one formula per variable
across the whole derivation.

`Node`, `parts`, `premises` and `preorder` serve the nodes of both
calculi: each rule is a dataclass whose fields come in the order its
concrete syntax writes them, so one walk over the fields gives any
node's premises, its label, its rendering and its parsing (a
uniplate-style walk; Mitchell & Runciman, "Uniform boilerplate",
Haskell Workshop 2007). `Checker` holds the bookkeeping both checkers
share, and `Checked` is the base of a judgment and a sequent. Each
rule class has one checker method, its step, in its calculus's table,
`steps`, and a node's step is found by one lookup of its class,
however many rules the calculus has.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, ClassVar, Iterator, Mapping, NoReturn, Union

from .core import (
    Abort,
    And,
    App,
    Case,
    Context,
    Formula,
    Implies,
    Inl,
    Inr,
    Lam,
    Or,
    Pair,
    Fst,
    Snd,
    ProofmeanError,
    Term,
    Var,
    VarRef,
    Absurd,
)
from .core import Record, rebuild, record


class RuleMismatch(ProofmeanError):
    pass


class BadDischarge(ProofmeanError):
    pass


class VariableTypeClash(ProofmeanError):
    pass


# ---------- Derivation nodes ----------


class Node(Record):
    """A derivation node of either calculus. Its fields hold variables,
    formulas (None for an undeclared discharge) and premises, in the
    order the concrete syntax writes them after the rule name."""

    rule: ClassVar[str]
    # The root of this node's checker run, kept by `Checker.run`.
    checked: Checked | None = None


def parts(d: Node) -> tuple[Any, ...]:
    """The field values of d, in the order of its concrete syntax."""
    return tuple(getattr(d, name) for name in d.__match_args__)


def premises(d: Node) -> list[Node]:
    """The premises of d, left to right."""
    return [p for name in d.__match_args__ if isinstance(p := getattr(d, name), Node)]


def preorder(d: Node) -> Iterator[tuple[int, Node]]:
    """Every node of d with its depth, each before its premises, left
    to right."""
    stack = [(0, d)]
    while stack:
        depth, node = stack.pop()
        yield depth, node
        stack.extend((depth + 1, p) for p in reversed(premises(node)))


@record
class Hyp(Node):
    rule = "hyp"
    var: Var
    formula: Formula


@record
class ImpI(Node):
    rule = "imp-i"
    var: Var
    hypothesis: Formula | None
    premise: NdDerivation


@record
class ImpE(Node):
    rule = "imp-e"
    fun: NdDerivation
    arg: NdDerivation


@record
class AndI(Node):
    rule = "and-i"
    left: NdDerivation
    right: NdDerivation


@record
class AndE1(Node):
    rule = "and-e1"
    premise: NdDerivation


@record
class AndE2(Node):
    rule = "and-e2"
    premise: NdDerivation


@record
class OrI1(Node):
    rule = "or-i1"
    other: Formula  # the right disjunct
    premise: NdDerivation


@record
class OrI2(Node):
    rule = "or-i2"
    other: Formula  # the left disjunct
    premise: NdDerivation


@record
class OrE(Node):
    rule = "or-e"
    scrutinee: NdDerivation
    left_var: Var
    left: NdDerivation
    right_var: Var
    right: NdDerivation


@record
class AbsurdE(Node):
    rule = "absurd-e"
    target: Formula
    premise: NdDerivation


NdDerivation = Union[Hyp, ImpI, ImpE, AndI, AndE1, AndE2, OrI1, OrI2, OrE, AbsurdE]


class Checked(Record):
    """A node's checked conclusion in either calculus: a judgment or a
    sequent. A checker run keeps on its root what it recorded: every
    node below the root with its conclusion, premises first, and each
    variable's formula; `meaning` keeps the root's counted sense there
    too. They are not fields, so equality and repr ignore them, and a
    copy, built by the constructor, carries none of them. Nothing the
    root holds refers back to its derivation, so keeping it there makes
    no reference cycle. The end term keeps its own normal form (see
    core)."""

    nodes: tuple[tuple[Node, Checked], ...] = ()
    types: Mapping[Var, Formula] = MappingProxyType({})


@record
class Judgment(Checked):
    open: Context
    term: Term
    formula: Formula


# ---------- Checking ----------


class Checker:
    """What the checkers of both calculi share: one formula per variable
    across the run, the conclusion recorded at every node, and the root
    that carries both and is kept on the derivation. A subclass gives
    `steps`, its calculus's step table: for each rule class, the method
    that checks a node of that class. A step checks each premise by the
    step its class finds in the table, in the order the rule's errors
    come, runs the rule's own tests, records the node with `done` and
    returns its conclusion. Steps call each other directly, so a run
    takes one frame per level of the derivation, as parsing does. No
    step reads a kept root: an `imp-i` without a declared formula may
    take it from the whole run's `types`, so a subtree's conclusion can
    depend on where it sits."""

    steps: ClassVar[Mapping[type, Callable[[Checker, Node], Checked]]]

    def __init__(self) -> None:
        self.types: dict[Var, Formula] = {}
        self.nodes: list[tuple[Node, Checked]] = []

    def bind(self, v: Var, f: Formula) -> None:
        prev = self.types.get(v)
        if prev is None:
            self.types[v] = f
        elif prev != f:
            raise VariableTypeClash(f"{v.name} occurs at both {prev!r} and {f!r}")

    def union(self, a: Context, b: Context) -> Context:
        """The context with the entries of a and b. Every entry passed
        through `bind`, so contexts agree wherever they overlap and
        merging needs no check; contexts never change, so when one adds
        nothing to the other, that other is the union, shared."""
        if b._bindings.keys() <= a._bindings.keys():
            return a
        if a._bindings.keys() <= b._bindings.keys():
            return b
        return Context._owning({**a._bindings, **b._bindings})

    def done(self, d: Node, out: Checked) -> Checked:
        """Record out as d's conclusion, after those of its premises, and
        return it."""
        self.nodes.append((d, out))
        return out

    def run(self, d: Node) -> Checked:
        """Check d by the step of its class and return its root
        conclusion, carrying the conclusion of every node below d and
        the variable types of this run, and keep it on d as `d.checked`."""
        root = rebuild(self.steps[type(d)](self, d), {})
        self.nodes.pop()
        object.__setattr__(root, "nodes", tuple(self.nodes))
        object.__setattr__(root, "types", self.types)
        object.__setattr__(d, "checked", root)
        return root


class Steps(dict):
    """A calculus's step table, keyed by rule class. A class with no
    step in it finds one that rejects the node."""

    def __missing__(self, cls: type) -> Callable[[Checker, object], NoReturn]:
        return _unknown


def _unknown(checker: Checker, d: object) -> NoReturn:
    raise TypeError(f"not a derivation node: {d!r}")


def kept(d: Node, check) -> Checked:
    """The root kept by d's checker run, or the root of a new run of
    `check`, which keeps it."""
    root = getattr(d, "checked", None)
    return root if root is not None else check(d)


class _NdChecker(Checker):
    def hyp(self, d: Hyp) -> Judgment:
        x, a = d.var, d.formula
        self.bind(x, a)
        return self.done(d, Judgment(Context._owning({x: a}), VarRef(x), a))

    def imp_i(self, d: ImpI) -> Judgment:
        j = _ND[type(d.premise)](self, d.premise)
        x, declared = d.var, d.hypothesis
        from_open = j.open.get(x)
        if declared is not None and from_open is not None and from_open != declared:
            raise BadDischarge(f"{x.name} is open at {from_open!r}, not the declared {declared!r}")
        a = declared if declared is not None else from_open
        if a is None:
            a = self.types.get(x)
        if a is None:
            raise BadDischarge(f"cannot determine the formula discharged with {x.name}")
        self.bind(x, a)
        return self.done(d, Judgment(j.open.without(x), Lam(x, a, j.term), Implies(a, j.formula)))

    def imp_e(self, d: ImpE) -> Judgment:
        jf = _ND[type(d.fun)](self, d.fun)
        ja = _ND[type(d.arg)](self, d.arg)
        if not isinstance(jf.formula, Implies):
            raise RuleMismatch(f"major premise proves {jf.formula!r}, not an implication")
        if jf.formula.left != ja.formula:
            raise RuleMismatch(f"minor premise proves {ja.formula!r}, expected {jf.formula.left!r}")
        ctx = self.union(jf.open, ja.open)
        return self.done(d, Judgment(ctx, App(jf.term, ja.term), jf.formula.right))

    def and_i(self, d: AndI) -> Judgment:
        j1 = _ND[type(d.left)](self, d.left)
        j2 = _ND[type(d.right)](self, d.right)
        ctx = self.union(j1.open, j2.open)
        return self.done(d, Judgment(ctx, Pair(j1.term, j2.term), And(j1.formula, j2.formula)))

    def and_e1(self, d: AndE1) -> Judgment:
        j = _ND[type(d.premise)](self, d.premise)
        if not isinstance(j.formula, And):
            raise RuleMismatch(f"premise proves {j.formula!r}, not a conjunction")
        return self.done(d, Judgment(j.open, Fst(j.term), j.formula.left))

    def and_e2(self, d: AndE2) -> Judgment:
        j = _ND[type(d.premise)](self, d.premise)
        if not isinstance(j.formula, And):
            raise RuleMismatch(f"premise proves {j.formula!r}, not a conjunction")
        return self.done(d, Judgment(j.open, Snd(j.term), j.formula.right))

    def or_i1(self, d: OrI1) -> Judgment:
        j = _ND[type(d.premise)](self, d.premise)
        return self.done(d, Judgment(j.open, Inl(j.term, d.other), Or(j.formula, d.other)))

    def or_i2(self, d: OrI2) -> Judgment:
        j = _ND[type(d.premise)](self, d.premise)
        return self.done(d, Judgment(j.open, Inr(j.term, d.other), Or(d.other, j.formula)))

    def or_e(self, d: OrE) -> Judgment:
        # The major premise is tested before either branch is checked.
        j0 = _ND[type(d.scrutinee)](self, d.scrutinee)
        if not isinstance(j0.formula, Or):
            raise RuleMismatch(f"major premise proves {j0.formula!r}, not a disjunction")
        j1 = _ND[type(d.left)](self, d.left)
        j2 = _ND[type(d.right)](self, d.right)
        x, y = d.left_var, d.right_var
        a, b = j0.formula.left, j0.formula.right
        if j1.formula != j2.formula:
            raise RuleMismatch(f"branches prove {j1.formula!r} and {j2.formula!r}, which differ")
        for v, f, j in ((x, a, j1), (y, b, j2)):
            got = j.open.get(v)
            if got is not None and got != f:
                raise BadDischarge(f"{v.name} is open at {got!r}, expected {f!r}")
            self.bind(v, f)
        ctx = self.union(j0.open, self.union(j1.open.without(x), j2.open.without(y)))
        return self.done(d, Judgment(ctx, Case(j0.term, x, a, j1.term, y, b, j2.term), j1.formula))

    def absurd_e(self, d: AbsurdE) -> Judgment:
        j = _ND[type(d.premise)](self, d.premise)
        if j.formula != Absurd():
            raise RuleMismatch(f"premise proves {j.formula!r}, not absurdity")
        return self.done(d, Judgment(j.open, Abort(j.term, d.target), d.target))

    steps = Steps({Hyp: hyp, ImpI: imp_i, ImpE: imp_e, AndI: and_i, AndE1: and_e1, AndE2: and_e2,
                   OrI1: or_i1, OrI2: or_i2, OrE: or_e, AbsurdE: absurd_e})


_ND = _NdChecker.steps


def check_nd(d: NdDerivation) -> Judgment:
    """Validate the derivation and return its root judgment, carrying
    the judgment of every node below it and the variable types of the
    same run. The root is kept on d for the readers below."""
    return _NdChecker().run(d)


def node_judgments(d: NdDerivation) -> tuple[tuple[NdDerivation, Judgment], ...]:
    """Every node of d paired with its computed judgment, d last."""
    root = kept(d, check_nd)
    return (*root.nodes, (d, root))


def variable_types(d: NdDerivation) -> dict[Var, Formula]:
    """The one formula each variable of d stands for."""
    return dict(kept(d, check_nd).types)


def end_term_nd(d: NdDerivation) -> Term:
    """The term annotating the conclusion of d."""
    return kept(d, check_nd).term
