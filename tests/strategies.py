"""Generators for formulas, well-typed terms, and checked derivations.

Terms are built type-directed against a budget of at most 12
constructors; derivations against a budget of at most 10 nodes. Binder
and free variable names come from one shared counter, so no variable
is ever reused at two formulas.
"""

from __future__ import annotations

from functools import lru_cache

from hypothesis import strategies as st

from proofmean import nd as _nd
from proofmean import sc as _sc
from proofmean.core import (
    SUBTERMS,
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
    Snd,
    Term,
    Var,
    VarRef,
    free_vars,
    fresh_var,
    rebuild,
    substitute,
    type_of,
)

ATOMS = (Atom("p"), Atom("q"), Atom("r"))

MAX_TERM_CONSTRUCTORS = 12
MAX_DERIVATION_NODES = 10


# Hypothesis validates each new strategy object on its first draw, which
# cost more than the tests themselves when the generators below built a
# fresh one at every choice. So each strategy is built once and reused.


@lru_cache(maxsize=None)
def _sampled(options: tuple) -> st.SearchStrategy:
    return st.sampled_from(options)


@lru_cache(maxsize=None)
def _integers(low: int, high: int) -> st.SearchStrategy[int]:
    return st.integers(low, high)


_BOOLEANS = st.booleans()


@lru_cache(maxsize=None)
def formulas(max_depth: int = 2) -> st.SearchStrategy[Formula]:
    base = st.sampled_from(ATOMS + (Absurd(),))

    def extend(children: st.SearchStrategy[Formula]) -> st.SearchStrategy[Formula]:
        pairs = st.tuples(children, children)
        return st.one_of(
            pairs.map(lambda ab: And(*ab)),
            pairs.map(lambda ab: Or(*ab)),
            pairs.map(lambda ab: Implies(*ab)),
        )

    return st.recursive(base, extend, max_leaves=max_depth + 1)


# Argument types of an application. With a function type among them,
# contracting the application can substitute a lambda into the body.
_ARGUMENT_TYPES = ATOMS + (Implies(Atom("p"), Atom("q")),)

_SMALL_FORMULAS = ATOMS + (
    And(Atom("p"), Atom("q")),
    Or(Atom("p"), Atom("q")),
    Implies(Atom("p"), Atom("q")),
)


@st.composite
def typed_terms(
    draw,
    max_size: int = MAX_TERM_CONSTRUCTORS,
    target: Formula | None = None,
    prefix: str = "",
    sums: bool = True,
) -> tuple[dict[Var, Formula], Term, Formula]:
    """A well-typed term with its free-variable context and type.

    `target` fixes the type instead of drawing one; `prefix` namespaces
    the generated variables so two draws can share a context. With
    `sums` false no `case` or `abort` is drawn, so a `target` without
    `\\/` or `_|_` gives a term and a context without them.
    """
    counter = [0]
    free: dict[Var, Formula] = {}

    def fresh(base: str) -> Var:
        counter[0] += 1
        return Var(f"{prefix}{base}{counter[0]}")

    def var_of(target: Formula, bound: tuple[tuple[Var, Formula], ...]) -> Term:
        candidates = [v for v, f in bound if f == target]
        candidates += [v for v, f in free.items() if f == target]
        if candidates and draw(_integers(0, 3)) > 0:
            return VarRef(draw(_sampled(tuple(candidates))))
        v = fresh("w")
        free[v] = target
        return VarRef(v)

    def go(
        target: Formula, budget: int, bound: tuple[tuple[Var, Formula], ...], root: bool = False
    ) -> Term:
        # Uses at most `budget` constructors, and at least one. A root
        # with room for more is never a bare variable. Hypothesis favours
        # the first option, so a variable comes last.
        options = []
        if budget >= 2:
            if isinstance(target, Implies):
                options += ["lam"] * 4
            if isinstance(target, Or):
                options += ["inj"] * 3
            options += ["fst", "snd", "abort"] if sums else ["fst", "snd"]
        if budget >= 3:
            if isinstance(target, And):
                options += ["pair"] * 3
            options += ["app"]
        if budget >= 4 and sums:
            options += ["case", "case"]
        if not (root and budget >= 2):
            options += ["var", "var"]
        kind = draw(_sampled(tuple(options)))
        if kind == "lam":
            assert isinstance(target, Implies)
            x = fresh("b")
            body = go(target.right, budget - 1, bound + ((x, target.left),))
            return Lam(x, target.left, body)
        if kind == "pair":
            assert isinstance(target, And)
            left_budget = max(1, (budget - 1) // 2)
            left = go(target.left, left_budget, bound)
            right = go(target.right, budget - 1 - left_budget, bound)
            return Pair(left, right)
        if kind == "inj":
            assert isinstance(target, Or)
            if draw(_BOOLEANS):
                return Inl(go(target.left, budget - 1, bound), target.right)
            return Inr(go(target.right, budget - 1, bound), target.left)
        if kind == "app":
            arg_type = draw(_sampled(_ARGUMENT_TYPES))
            fun_budget = max(1, (budget - 1) // 2)
            fun = go(Implies(arg_type, target), fun_budget, bound)
            arg = go(arg_type, budget - 1 - fun_budget, bound)
            return App(fun, arg)
        if kind == "fst":
            other = draw(_sampled(ATOMS))
            return Fst(go(And(target, other), budget - 1, bound))
        if kind == "snd":
            other = draw(_sampled(ATOMS))
            return Snd(go(And(other, target), budget - 1, bound))
        if kind == "abort":
            return Abort(go(Absurd(), budget - 1, bound), target)
        if kind == "case":
            a = draw(_sampled(ATOMS))
            b = draw(_sampled(ATOMS))
            scrutinee_budget = max(1, (budget - 1) // 3)
            scrutinee = go(Or(a, b), scrutinee_budget, bound)
            rest = budget - 1 - scrutinee_budget
            left_budget = max(1, rest // 2)
            x = fresh("b")
            left = go(target, left_budget, bound + ((x, a),))
            y = fresh("b")
            right = go(target, rest - left_budget, bound + ((y, b),))
            return Case(scrutinee, x, a, left, y, b, right)
        return var_of(target, bound)

    if target is None:
        target = draw(formulas())
    # Hypothesis favours the least value it may draw, so the budget is
    # counted down from the largest to keep bare variables rare.
    budget = max_size - draw(_integers(0, max_size - 1))
    term = go(target, budget, (), root=True)
    return dict(free), term, target


def eta_expand(t: Term, a: Formula) -> Term:
    """t wrapped in one eta redex at type a; t itself at an atom or _|_."""
    match a:
        case Implies(b, _):
            z = fresh_var(Var("e"), free_vars(t))
            return Lam(z, b, App(t, VarRef(z)))
        case And():
            return Pair(Fst(t), Snd(t))
        case Or(b, c):
            left, right = Var("l"), Var("r")
            return Case(t, left, b, Inl(VarRef(left), c), right, c, Inr(VarRef(right), b))
    return t


@st.composite
def eta_planted_terms(draw) -> tuple[dict[Var, Formula], Term, Formula]:
    """A typed term with an eta redex planted in it, with its context and type.

    Plain `typed_terms()` draws almost never hold an eta redex. Here an
    eta-expanded term replaces one free variable, which puts the redex
    under binders, inside pairs and in beta redexes; a closed term is
    expanded as a whole. Nothing is planted at an atom or _|_. Half the
    time the replacement is left to a beta redex that binds the
    variable, so contracting it makes a new redex wherever the variable
    is applied or projected.
    """
    ctx, t, a = draw(typed_terms())
    if not ctx:
        return ctx, eta_expand(t, a), a
    v = draw(_sampled(tuple(sorted(ctx, key=lambda u: u.name))))
    ctx2, s, _ = draw(typed_terms(max_size=6, target=ctx[v], prefix="s"))
    planted = eta_expand(s, ctx[v])
    if draw(_BOOLEANS):
        rest = {u: f for u, f in ctx.items() if u != v}
        return {**rest, **ctx2}, App(Lam(v, ctx[v], t), planted), a
    return {**ctx, **ctx2}, substitute(t, v, planted), a


@st.composite
def capture_terms(draw) -> tuple[dict[Var, Formula], Term, Formula]:
    """A typed term, with its context and type, whose beta redex needs
    capture-avoiding substitution: `app(\\v. \\z. t, s)` with v free in t
    and z free in s. Contracting it must rename the inner binder z.
    Neither draw alone holds such a redex: their variable names never
    meet. A closed t binds a v it does not use, and a closed s is z
    itself."""
    ctx, t, a = draw(typed_terms())
    z = Var("z")
    if ctx:
        v = draw(_sampled(tuple(sorted(ctx, key=lambda u: u.name))))
    else:
        v, ctx = Var("v"), {Var("v"): draw(_sampled(ATOMS))}
    ctx2, s, _ = draw(typed_terms(max_size=6, target=ctx[v], prefix="s"))
    if ctx2:
        u = draw(_sampled(tuple(sorted(ctx2, key=lambda u: u.name))))
        s, ctx2[z] = substitute(s, u, VarRef(z)), ctx2.pop(u)
    else:
        s, ctx2 = VarRef(z), {z: ctx[v]}
    inner = draw(_sampled(ATOMS))
    rest = {w: f for w, f in ctx.items() if w != v}
    return {**rest, **ctx2}, App(Lam(v, ctx[v], Lam(z, inner, t)), s), Implies(inner, a)


@st.composite
def eta_capture_terms(draw) -> tuple[dict[Var, Formula], Term, Formula]:
    """A typed term, with its context and type, `\\x. app(f, x)` with x
    free in f: the shape of an eta redex whose side condition fails, so
    it must not be contracted. f is drawn at `A -> B`, and x is one of
    its free variables at A; or, half the time or when it has none, x is
    new and f becomes `app(app(k, x), f)` for a new variable k."""
    a = draw(_sampled(ATOMS))
    ctx, f, target = draw(typed_terms(target=Implies(a, draw(formulas()))))
    at_a = tuple(sorted((v for v, b in ctx.items() if b == a), key=lambda v: v.name))
    if at_a and draw(_BOOLEANS):
        x = draw(_sampled(at_a))
    else:
        x, k = Var("x"), Var("k")
        f = App(App(VarRef(k), VarRef(x)), f)
        ctx = {**ctx, k: Implies(a, Implies(target, target))}
    rest = {v: b for v, b in ctx.items() if v != x}
    return rest, Lam(x, a, App(f, VarRef(x))), target


@st.composite
def pair_split_terms(draw) -> tuple[dict[Var, Formula], Term, Formula]:
    """A typed term, with its context and type, holding a pair of cases
    over one sum type: `snd(<case r1 {x. s | y. t}, case r2 {x. s | y.
    t}>)` replaces a free variable v of a drawn term, or the whole of a
    closed one. s is what it replaces, and t is drawn at the same type.
    The scrutinees are variables, two distinct ones or one twice: only
    over one scrutinee may the two cases merge into a case of pairs."""
    ctx, term, a = draw(typed_terms())
    v = draw(_sampled(tuple(sorted(ctx, key=lambda u: u.name)))) if ctx else None
    s, d = (term, a) if v is None else (VarRef(v), ctx[v])
    ctx2, t, _ = draw(typed_terms(max_size=6, target=d, prefix="s"))
    left, right = draw(_sampled(ATOMS)), draw(_sampled(ATOMS))
    r1, r2 = Var("r1"), Var(draw(_sampled(("r1", "r2"))))
    x, y = Var("x"), Var("y")

    def case(r: Var) -> Term:
        return Case(VarRef(r), x, left, s, y, right, t)

    planted = Snd(Pair(case(r1), case(r2)))
    ctx = {**ctx, **ctx2, r1: Or(left, right), r2: Or(left, right)}
    return ctx, planted if v is None else substitute(term, v, planted), a


# Formulas without `\/` or `_|_`; the last is that of Church numerals.
_SUM_FREE_FORMULAS = ATOMS + (
    And(Atom("p"), Atom("q")),
    Implies(Atom("p"), Atom("q")),
    Implies(Atom("p"), And(Atom("p"), Atom("q"))),
    Implies(Implies(Atom("p"), Atom("p")), Implies(Atom("p"), Atom("p"))),
)


def _detour(t: Term, a: Formula, through_absurd: bool) -> Term:
    """A beta redex of type a, whose normal form is t's, through a sum
    (`case inl t {x. x | y. t}`) or through `_|_` (`app(\\f. t, \\e.
    abort e)`). Its context is t's."""
    avoid = free_vars(t)
    if through_absurd:
        f, e = fresh_var(Var("df"), avoid), Var("de")
        return App(Lam(f, Implies(Absurd(), a), t), Lam(e, Absurd(), Abort(VarRef(e), a)))
    x, y = Var("dl"), fresh_var(Var("dr"), avoid)
    return Case(Inl(t, Atom("q")), x, a, VarRef(x), y, Atom("q"), t)


@st.composite
def sum_free_pairs(draw) -> tuple[_nd.NdDerivation, _nd.NdDerivation]:
    """Two natural deduction derivations of one formula without `\\/` or
    `_|_`, whose open hypotheses have neither. Their end terms may: a
    detour through a sum or `_|_` replaces a free variable, or the
    whole term, on one side. The other side is that term without the
    detour, which is equal, or an unrelated term of the same formula."""
    a = draw(_sampled(_SUM_FREE_FORMULAS))
    ctx, t, _ = draw(typed_terms(target=a, sums=False))
    through_absurd = draw(_BOOLEANS)
    if ctx and draw(_BOOLEANS):
        v = draw(_sampled(tuple(sorted(ctx, key=lambda u: u.name))))
        planted = substitute(t, v, _detour(VarRef(v), ctx[v], through_absurd))
    else:
        planted = _detour(t, a, through_absurd)
    if draw(_BOOLEANS):
        ctx2, other, _ = draw(typed_terms(target=a, prefix="s", sums=False))
        return _term_to_nd(planted, ctx), _term_to_nd(other, {**ctx, **ctx2})
    return _term_to_nd(planted, ctx), _term_to_nd(t, ctx)


def _variables(t: Term) -> set[Var]:
    # Every variable of t, free or bound.
    if type(t) is VarRef:
        return {t.var}
    out: set[Var] = set()
    for name, binder in SUBTERMS[type(t)]:
        if binder is not None:
            out.add(getattr(t, binder))
        out |= _variables(getattr(t, name))
    return out


def _renamed_everywhere(t: Term, names: dict[Var, Var]) -> Term:
    # Every occurrence and binder of each variable renamed by `names`,
    # with no regard for capture.
    if type(t) is VarRef:
        return VarRef(names[t.var])
    changes: dict[str, object] = {}
    for name, binder in SUBTERMS[type(t)]:
        if binder is not None:
            changes[binder] = names[getattr(t, binder)]
        changes[name] = _renamed_everywhere(getattr(t, name), names)
    return rebuild(t, changes)


@st.composite
def name_collapsed_terms(draw) -> tuple[dict[Var, Formula], Term, Formula] | None:
    """A typed term, with its context and type, whose variables, bound
    and free, are renamed onto two or three names, which makes capture
    frequent. None when the renamed term no longer types with its free
    variables at their old formulas."""
    ctx, t, a = draw(typed_terms())
    pool = [Var(n) for n in ("u", "v", "w")[: draw(_integers(2, 3))]]
    names = {v: draw(_sampled(tuple(pool))) for v in sorted(_variables(t), key=lambda v: v.name)}
    collapsed = _renamed_everywhere(t, names)
    new_ctx: dict[Var, Formula] = {}
    for v, f in ctx.items():
        if new_ctx.setdefault(names[v], f) != f:
            return None
    try:
        if type_of(Context(new_ctx), collapsed) != a:
            return None
    except ProofmeanError:
        return None
    return new_ctx, collapsed, a


def _term_to_nd(t: Term, types: dict[Var, Formula]) -> _nd.NdDerivation:
    match t:
        case VarRef(v):
            return _nd.Hyp(v, types[v])
        case Lam(x, a, body):
            inner = dict(types)
            inner[x] = a
            return _nd.ImpI(x, a, _term_to_nd(body, inner))
        case App(fun, arg):
            return _nd.ImpE(_term_to_nd(fun, types), _term_to_nd(arg, types))
        case Pair(left, right):
            return _nd.AndI(_term_to_nd(left, types), _term_to_nd(right, types))
        case Fst(p):
            return _nd.AndE1(_term_to_nd(p, types))
        case Snd(p):
            return _nd.AndE2(_term_to_nd(p, types))
        case Inl(s, other):
            return _nd.OrI1(other, _term_to_nd(s, types))
        case Inr(s, other):
            return _nd.OrI2(other, _term_to_nd(s, types))
        case Case(r, x, a, s, y, b, u):
            left_types = dict(types)
            left_types[x] = a
            right_types = dict(types)
            right_types[y] = b
            return _nd.OrE(
                _term_to_nd(r, types),
                x,
                _term_to_nd(s, left_types),
                y,
                _term_to_nd(u, right_types),
            )
        case Abort(s, c):
            return _nd.AbsurdE(c, _term_to_nd(s, types))
    raise TypeError(f"not a term: {t!r}")


@st.composite
def nd_derivations(draw, max_nodes: int = MAX_DERIVATION_NODES) -> _nd.NdDerivation:
    """A checkable natural deduction derivation.

    Terms correspond to derivations node for node, so this reuses the
    typed term generator with the node budget.
    """
    ctx, term, _ = draw(typed_terms(max_size=max_nodes))
    return _term_to_nd(term, ctx)


@st.composite
def sc_derivations(draw, max_nodes: int = MAX_DERIVATION_NODES) -> _sc.ScDerivation:
    """A checkable sequent derivation, built from axioms outward."""
    counter = [0]

    def fresh(f: Formula) -> Var:
        counter[0] += 1
        return Var(f"v{counter[0]}")

    def formula() -> Formula:
        return draw(_sampled(_SMALL_FORMULAS))

    def pick(antecedent: dict[Var, Formula]) -> Var:
        ordered = sorted(antecedent, key=lambda v: v.name)
        return draw(_sampled(tuple(ordered)))

    def axiom() -> tuple[_sc.ScDerivation, dict[Var, Formula], Formula]:
        if draw(_integers(0, 5)) == 0:
            v = fresh(Absurd())
            target = formula()
            return _sc.AbsurdL(v, target), {v: Absurd()}, target
        f = formula()
        x = fresh(f)
        return _sc.Rf(x, f), {x: f}, f

    def gen(budget: int) -> tuple[_sc.ScDerivation, dict[Var, Formula], Formula]:
        # Every arm stays within `budget` nodes, counting the padding
        # weakenings some rules need to be applicable.
        if budget <= 1 or draw(_integers(0, 4)) == 0:
            return axiom()
        moves = ["or_r1", "or_r2", "weaken"]
        if budget >= 3:
            moves += ["imp_r", "and_r"]
        if budget >= 4:
            moves += ["and_l", "contract", "or_l", "cut"]
        if budget >= 5:
            moves += ["imp_l"]
        move = draw(_sampled(tuple(moves)))
        if move in ("or_r1", "or_r2"):
            d, ante, succ = gen(budget - 1)
            other = formula()
            if move == "or_r1":
                return _sc.OrR1(other, d), ante, Or(succ, other)
            return _sc.OrR2(other, d), ante, Or(other, succ)
        if move == "weaken":
            d, ante, succ = gen(budget - 1)
            f = formula()
            x = fresh(f)
            return _sc.Weaken(x, f, d), {**ante, x: f}, succ
        if move == "imp_r":
            d, ante, succ = gen(budget - 2)
            if not ante:
                f = formula()
                x = fresh(f)
                d, ante = _sc.Weaken(x, f, d), {x: f}
            x = pick(ante)
            rest = {v: f for v, f in ante.items() if v != x}
            return _sc.ImpR(x, d), rest, Implies(ante[x], succ)
        if move == "and_l":
            d, ante, succ = gen(budget - 3)
            while len(ante) < 2:
                f = formula()
                w = fresh(f)
                d, ante = _sc.Weaken(w, f, d), {**ante, w: f}
            x = pick(ante)
            y = pick({v: f for v, f in ante.items() if v != x})
            z = fresh(And(ante[x], ante[y]))
            rest = {v: f for v, f in ante.items() if v not in (x, y)}
            return _sc.AndL(z, x, y, d), {**rest, z: And(ante[x], ante[y])}, succ
        if move == "contract":
            d, ante, succ = gen(budget - 3)
            if not ante:
                f = formula()
                w = fresh(f)
                d, ante = _sc.Weaken(w, f, d), {w: f}
            x = pick(ante)
            y = fresh(ante[x])
            d = _sc.Weaken(y, ante[x], d)
            return _sc.Contract(x, y, d), ante, succ
        if move == "or_l":
            d, ante, succ = gen(budget - 3)
            if not ante:
                f = formula()
                w = fresh(f)
                d, ante = _sc.Weaken(w, f, d), {w: f}
            x = pick(ante)
            y = fresh(succ)
            z = fresh(Or(ante[x], succ))
            rest = {v: f for v, f in ante.items() if v != x}
            return (
                _sc.OrL(z, x, y, d, _sc.Rf(y, succ)),
                {**rest, z: Or(ante[x], succ)},
                succ,
            )
        if move == "and_r":
            half = max(1, (budget - 1) // 2)
            d1, a1, s1 = gen(half)
            d2, a2, s2 = gen(budget - 1 - half)
            return _sc.AndR(d1, d2), {**a1, **a2}, And(s1, s2)
        if move == "imp_l":
            half = max(1, (budget - 3) // 2)
            d1, a1, s1 = gen(half)
            d2, a2, s2 = gen(budget - 3 - half)
            if not a2:
                f = formula()
                w = fresh(f)
                d2, a2 = _sc.Weaken(w, f, d2), {w: f}
            y = pick(a2)
            x = fresh(Implies(s1, a2[y]))
            rest = {v: f for v, f in a2.items() if v != y}
            return _sc.ImpL(x, y, d1, d2), {**a1, **rest, x: Implies(s1, a2[y])}, s2
        half = max(1, (budget - 2) // 2)
        d1, a1, s1 = gen(half)
        d2, a2, s2 = gen(budget - 2 - half)
        x = fresh(s1)
        d2 = _sc.Weaken(x, s1, d2)
        return _sc.Cut(x, d1, d2), {**a1, **a2}, s2

    budget = draw(_integers(1, max_nodes))
    derivation, _, _ = gen(budget)
    return derivation


# ---------- Renamings ----------


def rename_nd(d: _nd.NdDerivation, rho: dict[Var, Var]) -> _nd.NdDerivation:
    def r(v: Var) -> Var:
        return rho.get(v, v)

    match d:
        case _nd.Hyp(x, f):
            return _nd.Hyp(r(x), f)
        case _nd.ImpI(x, h, premise):
            return _nd.ImpI(r(x), h, rename_nd(premise, rho))
        case _nd.ImpE(fun, arg):
            return _nd.ImpE(rename_nd(fun, rho), rename_nd(arg, rho))
        case _nd.AndI(left, right):
            return _nd.AndI(rename_nd(left, rho), rename_nd(right, rho))
        case _nd.AndE1(premise):
            return _nd.AndE1(rename_nd(premise, rho))
        case _nd.AndE2(premise):
            return _nd.AndE2(rename_nd(premise, rho))
        case _nd.OrI1(other, premise):
            return _nd.OrI1(other, rename_nd(premise, rho))
        case _nd.OrI2(other, premise):
            return _nd.OrI2(other, rename_nd(premise, rho))
        case _nd.OrE(scrutinee, x, left, y, right):
            return _nd.OrE(
                rename_nd(scrutinee, rho), r(x), rename_nd(left, rho), r(y),
                rename_nd(right, rho),
            )
        case _nd.AbsurdE(target, premise):
            return _nd.AbsurdE(target, rename_nd(premise, rho))
    raise TypeError(f"not a derivation node: {d!r}")


def rename_sc(d: _sc.ScDerivation, rho: dict[Var, Var]) -> _sc.ScDerivation:
    def r(v: Var) -> Var:
        return rho.get(v, v)

    match d:
        case _sc.Rf(x, f):
            return _sc.Rf(r(x), f)
        case _sc.AndR(left, right):
            return _sc.AndR(rename_sc(left, rho), rename_sc(right, rho))
        case _sc.AndL(z, x, y, premise):
            return _sc.AndL(r(z), r(x), r(y), rename_sc(premise, rho))
        case _sc.OrR1(other, premise):
            return _sc.OrR1(other, rename_sc(premise, rho))
        case _sc.OrR2(other, premise):
            return _sc.OrR2(other, rename_sc(premise, rho))
        case _sc.OrL(z, x, y, left, right):
            return _sc.OrL(r(z), r(x), r(y), rename_sc(left, rho), rename_sc(right, rho))
        case _sc.ImpR(x, premise):
            return _sc.ImpR(r(x), rename_sc(premise, rho))
        case _sc.ImpL(x, y, arg, body):
            return _sc.ImpL(r(x), r(y), rename_sc(arg, rho), rename_sc(body, rho))
        case _sc.AbsurdL(x, target):
            return _sc.AbsurdL(r(x), target)
        case _sc.Weaken(x, f, premise):
            return _sc.Weaken(r(x), f, rename_sc(premise, rho))
        case _sc.Contract(kept, merged, premise):
            return _sc.Contract(r(kept), r(merged), rename_sc(premise, rho))
        case _sc.Cut(x, left, right):
            return _sc.Cut(r(x), rename_sc(left, rho), rename_sc(right, rho))
    raise TypeError(f"not a derivation node: {d!r}")


def fresh_renaming(variables, suffix: str = "_r") -> dict[Var, Var]:
    """A bijective renaming onto brand new names; trivially respects types."""
    return {v: Var(f"u{i}{suffix}") for i, v in enumerate(sorted(variables, key=lambda v: v.name))}
