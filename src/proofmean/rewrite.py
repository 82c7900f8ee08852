"""Beta, eta, and permutative (gamma) conversions over typed terms.

`normalize` contracts beta and eta redexes bottom-up in one pass, and
keeps each node's normal form on the node (see core). Gamma steps are
one commuting law, F[case r {x. s | y. u}] = case r {x. F[s] | y. F[u]},
applied in either direction to every frame F in one table (_FRAMES),
walked over core.SUBTERMS, a frame's free variables being
core.free_vars(F, hole). Two more laws stay named: the pair splits,
each an expansion composed with reductions, which connect a case of
pairs with a pair of cases. `equivalent` sees no contexts, so it cannot
tell the pairs without sums that `meaning` decides by normal forms.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Literal, Mapping, Union

from .core import (
    Abort,
    Absurd,
    And,
    App,
    Atom,
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
    SUBTERMS,
    Snd,
    Term,
    Var,
    VarRef,
    _restore,
    alpha_equal,
    alpha_key,
    free_vars,
    fresh_var,
    rebuild,
    substitute,
    type_of,
)
from .core import Record, record


class FuelExhausted(ProofmeanError):
    pass


@record
class BetaEta(Record):
    pass


@record
class BetaEtaGamma(Record):
    fuel: int = 4

    def __post_init__(self) -> None:
        if self.fuel < 1:
            raise ValueError("fuel must be positive")


EqualityMode = Union[BetaEta, BetaEtaGamma]


class Inconclusive:
    """Marker for a gamma search that ran out of fuel without an answer.

    There is one instance, INCONCLUSIVE; compare with `is`. Using it as
    a boolean raises, so it cannot be silently mistaken for False.
    """

    _instance = None

    def __new__(cls) -> "Inconclusive":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INCONCLUSIVE"

    def __bool__(self) -> bool:
        raise TypeError("inconclusive result used as a boolean; compare with INCONCLUSIVE")


INCONCLUSIVE = Inconclusive()

DEFAULT_STEP_BUDGET = 1_000_000


# ---------- Gamma steps ----------

# For each term class, the subterm fields a case commutes across. With
# F the node and its hole at one of these fields,
#   F[case r {x. s | y. u}]  =  case r {x. F[s] | y. F[u]}.
# App.arg and the branches of a case are not frames.
_FRAMES: dict[type, tuple[str, ...]] = {
    App: ("fun",),
    Fst: ("arg",),
    Snd: ("arg",),
    Inl: ("arg",),
    Inr: ("arg",),
    Abort: ("arg",),
    Pair: ("first", "second"),
    Case: ("scrutinee",),
    Lam: ("body",),
}

# The frames whose type leaves the hole's type open: pulling one into a
# case needs both holes to have one type. Only these pay for the check,
# which fails on open terms.
_OPEN_HOLES = (Fst, Snd)


def _case_out(t: Term, hole: str, avoid: frozenset[Var]) -> Case:
    # The case at t's hole commuted out of t, after renaming a branch
    # binder that would capture a variable from avoid.
    c = getattr(t, hole)
    x, s = c.left_var, c.left_branch
    y, u = c.right_var, c.right_branch
    if x in avoid:
        x2 = fresh_var(x, avoid | free_vars(s) | {y})
        s = substitute(s, x, VarRef(x2))
        x = x2
    if y in avoid:
        y2 = fresh_var(y, avoid | free_vars(u) | {x})
        u = substitute(u, y, VarRef(y2))
        y = y2
    s, u = rebuild(t, {hole: s}), rebuild(t, {hole: u})
    return Case(c.scrutinee, x, c.left_type, s, y, c.right_type, u)


def _gamma_out(t: Term) -> list[Term]:
    # A case in a frame's hole commutes out of the frame.
    out: list[Term] = []
    for hole, binder in SUBTERMS[type(t)]:
        c = getattr(t, hole)
        if type(c) is not Case or hole not in _FRAMES[type(t)]:
            continue
        avoid = free_vars(t, hole)
        if binder is not None:
            z = getattr(t, binder)
            if z in free_vars(c.scrutinee):
                continue
            avoid |= {z}
        out.append(_case_out(t, hole, avoid))
    return out


def _gamma_in(t: Term) -> list[Term]:
    # The inverse: one frame around both branches commutes into the case.
    if type(t) is not Case or type(t.left_branch) is not type(t.right_branch):
        return []
    r, x, a, s = t.scrutinee, t.left_var, t.left_type, t.left_branch
    y, b, u = t.right_var, t.right_type, t.right_branch
    cls = type(s)
    out: list[Term] = []
    for hole, binder in SUBTERMS[cls]:
        if hole not in _FRAMES[cls]:
            continue
        frame = [f for f in cls.__match_args__ if f not in (hole, binder)]
        if any(getattr(s, f) != getattr(u, f) for f in frame) or free_vars(s, hole) & {x, y}:
            continue
        s1, u1 = getattr(s, hole), getattr(u, hole)
        if cls in _OPEN_HOLES and not _one_type(Context({x: a}), s1, Context({y: b}), u1):
            continue
        changes: dict[str, object] = {}
        if binder is not None:
            # One binder for both branches: the left one's name, unless
            # that would capture.
            z1, z2 = getattr(s, binder), getattr(u, binder)
            z = z1
            if z1 in free_vars(r) or z1 in (x, y) or (z2 != z1 and z1 in free_vars(u1)):
                z = fresh_var(z1, free_vars(r) | free_vars(s1) | free_vars(u1) | {x, y, z1, z2})
            s1 = s1 if z1 == z else substitute(s1, z1, VarRef(z))
            u1 = u1 if z2 == z else substitute(u1, z2, VarRef(z))
            changes[binder] = z
        changes[hole] = Case(r, x, a, s1, y, b, u1)
        out.append(rebuild(s, changes))
    return out


def _one_type(ctx1: Context, t1: Term, ctx2: Context, t2: Term) -> bool:
    try:
        return type_of(ctx1, t1) == type_of(ctx2, t2)
    except ProofmeanError:
        return False


def _pair_splits(t: Term) -> list[Term]:
    # Each is an expansion composed with reductions; together they
    # connect a case of pairs with a pair of cases.
    match t:
        # outward: duplicate the case into both components
        case Case(r, x, a, Pair(s1, s2), y, b, Pair(t1, t2)):
            return [Pair(Case(r, x, a, s1, y, b, t1), Case(r, x, a, s2, y, b, t2))]
        # inward: merge two cases over the same scrutinee
        case Pair(Case(r1, x1, a1, s1, y1, b1, t1), Case(r2, x2, a2, s2, y2, b2, t2)) if (
            a1 == a2
            and b1 == b2
            and alpha_equal(r1, r2)
            and (x2 == x1 or x1 not in free_vars(s2))
            and (y2 == y1 or y1 not in free_vars(t2))
        ):
            s2r = s2 if x2 == x1 else substitute(s2, x2, VarRef(x1))
            t2r = t2 if y2 == y1 else substitute(t2, y2, VarRef(y1))
            return [Case(r1, x1, a1, Pair(s1, s2r), y1, b1, Pair(t1, t2r))]
    return []


def _gamma_at_root(t: Term) -> list[Term]:
    return _gamma_out(t) + _gamma_in(t) + _pair_splits(t)


def _everywhere(t: Term) -> list[Term]:
    # In preorder: the gamma steps at the root, then those in each subterm.
    out = _gamma_at_root(t)
    for name, _ in SUBTERMS[type(t)]:
        out += [rebuild(t, {name: r}) for r in _everywhere(getattr(t, name))]
    return out


def gamma_steps(t: Term) -> list[Term]:
    """All single permutative steps available anywhere in t."""
    seen: set[object] = set()
    out: list[Term] = []
    for r in _everywhere(t):
        if r not in seen:
            seen.add(r)
            out.append(r)
    return out


# ---------- Normalization and equivalence ----------


def _beta_contract(t: Term) -> Term | None:
    match t:
        case App(Lam(x, _, body), s):
            return substitute(body, x, s)
        case Fst(Pair(s, _)):
            return s
        case Snd(Pair(_, u)):
            return u
        case Case(Inl(r, _), x, _, s, _, _, _):
            return substitute(s, x, r)
        case Case(Inr(r, _), _, _, _, y, _, u):
            return substitute(u, y, r)
    return None


def _eta_contract(t: Term) -> Term | None:
    match t:
        case Lam(x, _, App(f, VarRef(v))) if v == x and x not in free_vars(f):
            return f
        case Pair(Fst(a), Snd(b)) if alpha_equal(a, b):
            return a
        case Case(r, x, a, Inl(VarRef(xv), ob), y, b, Inr(VarRef(yv), oa)) if (
            xv == x and yv == y and ob == b and oa == a
        ):
            return r
    return None


def normalize(t: Term, budget: int = DEFAULT_STEP_BUDGET) -> Term:
    """The beta-eta normal form of t; t itself when it is already normal.

    One bottom-up pass: a node's subterms are normalized first, the node
    is rebuilt only if one changed, and then a beta redex, or else an
    eta redex, at the node is contracted and the result normalized.
    Each node visited keeps its normal form (see core), so a later visit
    returns it at once. Raises FuelExhausted past `budget` contractions
    in this call, a kept form costing none; for well-typed input that
    signals a bug rather than divergence.
    """
    return _normalize(t, [0], budget)


def _normalize(u: Term, steps: list[int], budget: int) -> Term:
    # steps[0] counts the contractions made so far, across the recursion.
    # A node keeps its normal form only once that is complete, so one
    # FuelExhausted leaves no wrong form behind.
    n = getattr(u, "_normal", None)
    if n is not None:
        return n
    changes = {}
    for name, _ in SUBTERMS[type(u)]:
        s = getattr(u, name)
        m = _normalize(s, steps, budget)
        if m is not s:
            changes[name] = m
    v = rebuild(u, changes) if changes else u
    r = _beta_contract(v) or _eta_contract(v)
    if r is None:
        n = v
    else:
        steps[0] += 1
        if steps[0] > budget:
            raise FuelExhausted(f"no normal form within {budget} steps")
        n = _normalize(r, steps, budget)
    object.__setattr__(u, "_normal", n)
    object.__setattr__(v, "_normal", n)
    return n


def _gamma_search(n1: Term, n2: Term, fuel: int) -> "Literal[True] | Inconclusive":
    # Bidirectional layers from the beta-eta normal forms n1 and n2,
    # closed under single gamma steps; meeting is success. Running out
    # of fuel or exhausting both closures is open: the closures follow
    # only this module's gamma laws, so their missing each other proves
    # no difference.
    seen1 = {alpha_key(n1)}
    seen2 = {alpha_key(n2)}
    frontier1, frontier2 = [n1], [n2]
    if not seen1.isdisjoint(seen2):
        return True

    def expand(frontier: list[Term], seen: set[object]) -> list[Term]:
        out: list[Term] = []
        for u in frontier:
            for g in gamma_steps(u):
                v = normalize(g)
                k = alpha_key(v)
                if k not in seen:
                    seen.add(k)
                    out.append(v)
        return out

    for _ in range(fuel):
        if not frontier1 and not frontier2:
            break
        frontier1 = expand(frontier1, seen1)
        if not seen1.isdisjoint(seen2):
            return True
        frontier2 = expand(frontier2, seen2)
        if not seen1.isdisjoint(seen2):
            return True
    return INCONCLUSIVE


# ---------- A finite set model ----------

# The largest type the model enumerates, and the evaluation steps one
# refutation may spend; past either the search decides alone.
MODEL_SIZE_BOUND = 256
MODEL_STEP_BUDGET = 10_000


class OutsideModelBounds(ProofmeanError):
    pass


class _Table(dict):
    # A function value: each element of the domain, in the domain's
    # order, mapped to its result. Hashable, so that functions can be
    # arguments and results of other functions.
    def __hash__(self) -> int:
        return hash(tuple(self.items()))


class FiniteModel:
    """Values of terms in the set model where every atom is {0, 1}.

    A /\\ B is the set of pairs, A \\/ B the tagged values (0, a) and
    (1, b), A -> B every function as a table, and _|_ the empty set. The
    model is bicartesian closed, so every beta, eta and gamma law holds
    in it: terms with different values are not equal in any mode.
    `value` compiles a term once and runs the result, one step per node
    visited. One instance spends one MODEL_STEP_BUDGET across all its
    calls, element enumerations included, and raises OutsideModelBounds
    past it or past MODEL_SIZE_BOUND.
    """

    def __init__(self) -> None:
        self._steps = MODEL_STEP_BUDGET
        self._elements: dict[Formula, tuple] = {}

    def _spend(self, steps: int) -> None:
        self._steps -= steps
        if self._steps < 0:
            raise OutsideModelBounds(f"evaluation took over {MODEL_STEP_BUDGET} steps")

    def elements(self, a: Formula) -> tuple:
        """Every value of type a, in a fixed order."""
        known = self._elements.get(a)
        if known is not None:
            return known
        match a:
            case Atom():
                out: tuple = (0, 1)
            case Absurd():
                out = ()
            case And(b, c):
                bs, cs = self.elements(b), self.elements(c)
                self._fits(a, len(bs) * len(cs))
                out = tuple(product(bs, cs))
            case Or(b, c):
                bs, cs = self.elements(b), self.elements(c)
                self._fits(a, len(bs) + len(cs))
                out = tuple((0, v) for v in bs) + tuple((1, v) for v in cs)
            case Implies(b, c):
                bs, cs = self.elements(b), self.elements(c)
                self._fits(a, len(cs) ** len(bs))
                out = tuple(_Table(zip(bs, r)) for r in product(cs, repeat=len(bs)))
            case _:
                raise TypeError(f"not a formula: {a!r}")
        self._spend(len(out))
        self._elements[a] = out
        return out

    def _fits(self, a: Formula, size: int) -> None:
        if size > MODEL_SIZE_BOUND:
            raise OutsideModelBounds(f"{a!r} has over {MODEL_SIZE_BOUND} elements")

    def value(self, t: Term, env: Mapping[Var, object]) -> object:
        """The value of t with each free variable's value taken from env.

        One walk compiles t into nested closures, one per node, and the
        value is what the root's closure returns (Feeley & Lapalme,
        "Using closures for code generation", 1987). Every variable is
        read from one frame list: env's values fill the first slots, and
        each binder writes the slot at its depth, so no binder copies an
        environment. Compiling spends no step and cannot fail on a node
        that is never reached. Each closure call spends one step, so a
        step is spent per visit of a node, a binder's elements are
        enumerated only when its lambda runs, and an abort raises
        TypeError only when reached. Every free variable of t must have
        a value in env.
        """
        frame = list(env.values())
        return self._compile(t, {v: i for i, v in enumerate(env)}, len(frame), frame)()

    def _compile(
        self, t: Term, scope: dict[Var, int], depth: int, frame: list
    ) -> Callable[[], object]:
        # The closure for t calls its subterms' closures, and a binder at
        # this depth writes frame[depth]; a variable's slot is read from the
        # one scope while compiling. Each closure takes what it reads as
        # default arguments: closing over this method's variables would
        # make a cell for each of them, about twenty, at every node, and
        # the cycle collector would run correspondingly more often.
        cls, spend = type(t), self._spend
        kids = []
        for name, binder in SUBTERMS[cls]:
            if binder is None:
                kids.append(self._compile(getattr(t, name), scope, depth, frame))
            else:
                if depth == len(frame):
                    frame.append(None)
                x = getattr(t, binder)
                outer, scope[x] = scope.get(x), depth
                kids.append(self._compile(getattr(t, name), scope, depth + 1, frame))
                _restore(scope, x, outer)
        if cls is VarRef:

            def run(spend=spend, frame=frame, slot=scope[t.var]):
                spend(1)
                return frame[slot]

        elif cls is Lam:

            def run(spend=spend, elements=self.elements, a=t.bound_type, body=kids[0],
                    frame=frame, depth=depth):
                spend(1)
                table = _Table()
                for e in elements(a):
                    frame[depth] = e
                    table[e] = body()
                return table

        elif cls is App:

            def run(spend=spend, fun=kids[0], arg=kids[1]):
                spend(1)
                return fun()[arg()]

        elif cls is Pair:

            def run(spend=spend, first=kids[0], second=kids[1]):
                spend(1)
                return (first(), second())

        elif cls is Fst or cls is Snd:

            def run(spend=spend, arg=kids[0], i=int(cls is Snd)):
                spend(1)
                return arg()[i]

        elif cls is Inl or cls is Inr:

            def run(spend=spend, arg=kids[0], tag=int(cls is Inr)):
                spend(1)
                return (tag, arg())

        elif cls is Case:

            def run(spend=spend, scrutinee=kids[0], left=kids[1], right=kids[2],
                    frame=frame, depth=depth):
                spend(1)
                tag, frame[depth] = scrutinee()
                return left() if tag == 0 else right()

        else:
            # Abort is never reached: its argument would need a value of _|_.
            def run(spend=spend, t=t):
                spend(1)
                raise TypeError(f"no value for {t!r}")

        return run


def _refuted_in_model(n1: Term, n2: Term) -> bool:
    # True only when both terms are closed, share one type, and take
    # different values within the model's bounds; any other case is
    # left to the search.
    try:
        if type_of(Context(), n1) != type_of(Context(), n2):
            return False
        model = FiniteModel()
        return model.value(n1, {}) != model.value(n2, {})
    except ProofmeanError:
        return False


def equivalent(t1: Term, t2: Term, mode: EqualityMode = BetaEta()) -> "bool | Inconclusive":
    """Whether t1 and t2 denote the same conversion class under mode.

    BetaEta compares the two normal forms; on typed terms that decides
    beta-eta equality. BetaEtaGamma answers False only when the closed
    normal forms take different values in the finite model. Otherwise
    it searches from them, and answers True when the search spaces
    meet and INCONCLUSIVE when they do not, whether the fuel ran out or
    both spaces closed.
    """
    match mode:
        case BetaEta():
            return alpha_equal(normalize(t1), normalize(t2))
        case BetaEtaGamma(fuel):
            n1, n2 = normalize(t1), normalize(t2)
            if _refuted_in_model(n1, n2):
                return False
            return _gamma_search(n1, n2, fuel)
    raise TypeError(f"not an equality mode: {mode!r}")
