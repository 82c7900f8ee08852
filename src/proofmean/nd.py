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
share, and `Checked` is the base of a judgment and a sequent. A
checker compiles each rule's plan in the calculus's table, `steps`,
into one walk, and finds a node's walk by one lookup of its class,
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
    `steps`: for each rule class of its calculus, a plan and a step. The
    plan lists the node's premise fields in the order they are checked,
    and any guard where it runs: a check of the node, given the
    conclusions so far, whose error comes before any of the premises
    after it. The step builds the node's conclusion from its premises'
    conclusions. No step reads a kept root: an `imp-i` without a
    declared formula may take it from the whole run's `types`, so a
    subtree's conclusion can depend on where it sits.

    Each plan is compiled into one straight-line walk of its rule
    class, kept in the subclass's `walks`: it reads the premise fields
    by name, checks each with the walk its class finds in `walks`, runs
    the guards where the plan puts them, and records the node. A
    calculus's walks are compiled together, by one `exec`, when its
    first check starts, so importing the package compiles none."""

    steps: ClassVar[Mapping[type, tuple[tuple[str | Callable[..., None], ...], Callable]]]
    walks: ClassVar[dict[type, Callable[[Checker, Node], Checked]]]

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

    def check(self, d: Node) -> Checked:
        """d's conclusion, recorded in `nodes` after those of its
        premises, by the walk of d's class. The walks call each other
        directly, and steps and guards only read conclusions, so the
        recursion takes one frame per level of d, as parsing does."""
        walks = self.walks
        if not walks:
            _compile(self.steps, walks)
        return (walks.get(type(d)) or _unknown(d))(self, d)

    def run(self, d: Node) -> Checked:
        """Check d and return its root conclusion, carrying the
        conclusion of every node below d and the variable types of this
        run, and keep it on d as `d.checked`."""
        root = rebuild(self.check(d), {})
        self.nodes.pop()
        object.__setattr__(root, "nodes", tuple(self.nodes))
        object.__setattr__(root, "types", self.types)
        object.__setattr__(d, "checked", root)
        return root


def _unknown(d: object) -> NoReturn:
    raise TypeError(f"not a derivation node: {d!r}")


def _compile(steps: Mapping[type, tuple], walks: dict[type, Callable]) -> None:
    # Fill walks from the source of each rule class's walk, as Checker
    # describes it: the conclusion of the premise at plan position i is
    # c{i}, and a guard gets those of the premises before it.
    space = {"walks": walks, "_unknown": _unknown}
    source = []
    for cls, (plan, step) in steps.items():
        name = cls.__name__
        space[f"{name}_step"] = step
        body = []
        for i, part in enumerate(plan):
            if type(part) is str:
                body += [f"p = d.{part}", f"c{i} = (walks.get(type(p)) or _unknown(p))(self, p)"]
            else:
                space[f"{name}_guard{i}"] = part
                body.append(f"{name}_guard{i}(self, d{_conclusions(plan[:i])})")
        body += [f"out = {name}_step(self, d{_conclusions(plan)})"]
        body += ["self.nodes.append((d, out))", "return out"]
        source.append("\n    ".join([f"def {name}(self, d):", *body]))
    exec("\n".join(source), space)
    walks.update({cls: space[cls.__name__] for cls in steps})


def _conclusions(plan: tuple) -> str:
    return "".join(f", c{i}" for i, part in enumerate(plan) if type(part) is str)


def kept(d: Node, check) -> Checked:
    """The root kept by d's checker run, or the root of a new run of
    `check`, which keeps it."""
    root = getattr(d, "checked", None)
    return root if root is not None else check(d)


class _NdChecker(Checker):
    def hyp(self, d: Hyp) -> Judgment:
        x, a = d.var, d.formula
        self.bind(x, a)
        return Judgment(Context._owning({x: a}), VarRef(x), a)

    def imp_i(self, d: ImpI, j: Judgment) -> Judgment:
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
        return Judgment(j.open.without(x), Lam(x, a, j.term), Implies(a, j.formula))

    def imp_e(self, d: ImpE, jf: Judgment, ja: Judgment) -> Judgment:
        if not isinstance(jf.formula, Implies):
            raise RuleMismatch(f"major premise proves {jf.formula!r}, not an implication")
        if jf.formula.left != ja.formula:
            raise RuleMismatch(f"minor premise proves {ja.formula!r}, expected {jf.formula.left!r}")
        return Judgment(self.union(jf.open, ja.open), App(jf.term, ja.term), jf.formula.right)

    def and_i(self, d: AndI, j1: Judgment, j2: Judgment) -> Judgment:
        return Judgment(
            self.union(j1.open, j2.open), Pair(j1.term, j2.term), And(j1.formula, j2.formula)
        )

    def and_e1(self, d: AndE1, j: Judgment) -> Judgment:
        if not isinstance(j.formula, And):
            raise RuleMismatch(f"premise proves {j.formula!r}, not a conjunction")
        return Judgment(j.open, Fst(j.term), j.formula.left)

    def and_e2(self, d: AndE2, j: Judgment) -> Judgment:
        if not isinstance(j.formula, And):
            raise RuleMismatch(f"premise proves {j.formula!r}, not a conjunction")
        return Judgment(j.open, Snd(j.term), j.formula.right)

    def or_i1(self, d: OrI1, j: Judgment) -> Judgment:
        return Judgment(j.open, Inl(j.term, d.other), Or(j.formula, d.other))

    def or_i2(self, d: OrI2, j: Judgment) -> Judgment:
        return Judgment(j.open, Inr(j.term, d.other), Or(d.other, j.formula))

    def disjunction(self, d: OrE, j0: Judgment) -> None:
        if not isinstance(j0.formula, Or):
            raise RuleMismatch(f"major premise proves {j0.formula!r}, not a disjunction")

    def or_e(self, d: OrE, j0: Judgment, j1: Judgment, j2: Judgment) -> Judgment:
        x, y = d.left_var, d.right_var
        a, b = j0.formula.left, j0.formula.right
        if j1.formula != j2.formula:
            raise RuleMismatch(f"branches prove {j1.formula!r} and {j2.formula!r}, which differ")
        for v, f, j in ((x, a, j1), (y, b, j2)):
            got = j.open.get(v)
            if got is not None and got != f:
                raise BadDischarge(f"{v.name} is open at {got!r}, expected {f!r}")
            self.bind(v, f)
        open_ctx = self.union(j0.open, self.union(j1.open.without(x), j2.open.without(y)))
        return Judgment(open_ctx, Case(j0.term, x, a, j1.term, y, b, j2.term), j1.formula)

    def absurd_e(self, d: AbsurdE, j: Judgment) -> Judgment:
        if j.formula != Absurd():
            raise RuleMismatch(f"premise proves {j.formula!r}, not absurdity")
        return Judgment(j.open, Abort(j.term, d.target), d.target)

    steps = {
        Hyp: ((), hyp),
        ImpI: (("premise",), imp_i),
        ImpE: (("fun", "arg"), imp_e),
        AndI: (("left", "right"), and_i),
        AndE1: (("premise",), and_e1),
        AndE2: (("premise",), and_e2),
        OrI1: (("premise",), or_i1),
        OrI2: (("premise",), or_i2),
        OrE: (("scrutinee", disjunction, "left", "right"), or_e),
        AbsurdE: (("premise",), absurd_e),
    }
    walks = {}


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
