r"""An independent decision procedure for the beta-eta equality that
`rewrite.normalize` decides: normalization by evaluation (Berger &
Schwichtenberg, "An inverse of the evaluation functional for typed
λ-calculus", LICS 1991).

The theory it decides: β for `->`, `/\` and `\/`; η for `->` and `/\`;
and the weak sum law. No commuting conversions, no full sum η and no
`_|_` η.

A term is evaluated into Python values: a closure for `->`, a pair for
`/\`, a tagged value for `\/`, and a neutral, which carries its formula,
for a term stuck on a variable. A `case` on a neutral is a neutral case
whose branches are closures. Reading a value back at a formula is
η-long at `->` and `/\`, and introduces one fresh variable per binder.
The result is then η-shortened bottom-up, which gives `normalize`'s
η-short form:
  - `\x. app(n, x)` becomes `n` when `x` is not free in `n`;
  - `<fst n, snd n>` becomes `n`;
  - `case n { x. inl x | y. inr y }` becomes `n` (the weak sum law).

Terms are compared by `key`, which numbers each bound variable by the
de Bruijn level of its binder and keeps each free variable. Nothing
here comes from `rewrite` or from `core`'s substitution, alpha keys or
traversal table: only the term and formula classes are read.
"""

from __future__ import annotations

from typing import Callable, Mapping

from proofmean.core import (
    Abort,
    And,
    App,
    Case,
    Formula,
    Fst,
    Implies,
    Inl,
    Inr,
    Lam,
    Or,
    Pair,
    Snd,
    Term,
    Var,
    VarRef,
)

# A read-back term is a tuple headed by its constructor's name. A binder
# is ("bind", b, body), with b a fresh `_Bound`, and a variable is
# ("var", b) for a bound one or ("var", v) for a free `Var` v.


class _Bound:
    """A variable bound in a read-back term; compared by identity."""

    __slots__ = ()


class Tagged:
    """A value of a disjunction: tag 0 for the left, 1 for the right."""

    __slots__ = ("tag", "value")

    def __init__(self, tag: int, value: object) -> None:
        self.tag, self.value = tag, value


class Neutral:
    """A value stuck on a variable: its formula, and how to read it back."""

    __slots__ = ("formula", "read")

    def __init__(self, formula: Formula, read: Callable[[], tuple]) -> None:
        self.formula, self.read = formula, read


def _formula(t: Term, types: Mapping[Var, Formula]) -> Formula:
    # The formula of a well-typed t, with each free variable's from types.
    match t:
        case VarRef(v):
            return types[v]
        case Lam(x, a, body):
            return Implies(a, _formula(body, {**types, x: a}))
        case App(f, _):
            return _formula(f, types).right
        case Pair(a, b):
            return And(_formula(a, types), _formula(b, types))
        case Fst(a):
            return _formula(a, types).left
        case Snd(a):
            return _formula(a, types).right
        case Inl(a, other):
            return Or(_formula(a, types), other)
        case Inr(a, other):
            return Or(other, _formula(a, types))
        case Case(_, x, a, s, _, _, _):
            return _formula(s, {**types, x: a})
        case Abort(_, target):
            return target
    raise TypeError(f"not a term: {t!r}")


def _apply(f: object, arg: object) -> object:
    if type(f) is Neutral:
        a = f.formula
        return Neutral(a.right, lambda: ("app", f.read(), _reify(arg, a.left)))
    return f(arg)


def _project(v: object, i: int) -> object:
    if type(v) is Neutral:
        a = v.formula
        return Neutral(a.right if i else a.left, lambda: ("snd" if i else "fst", v.read()))
    return v[i]


def _eval(t: Term, env: Mapping[Var, object], types: Mapping[Var, Formula]) -> object:
    match t:
        case VarRef(v):
            return env[v]
        case Lam(x, a, body):
            return _closure(body, x, a, env, types)
        case App(f, arg):
            return _apply(_eval(f, env, types), _eval(arg, env, types))
        case Pair(a, b):
            return (_eval(a, env, types), _eval(b, env, types))
        case Fst(a):
            return _project(_eval(a, env, types), 0)
        case Snd(a):
            return _project(_eval(a, env, types), 1)
        case Inl(a, _):
            return Tagged(0, _eval(a, env, types))
        case Inr(a, _):
            return Tagged(1, _eval(a, env, types))
        case Case(r, x, a, s, y, b, u):
            scrutinee = _eval(r, env, types)
            left, right = _closure(s, x, a, env, types), _closure(u, y, b, env, types)
            if type(scrutinee) is Tagged:
                return (right if scrutinee.tag else left)(scrutinee.value)
            c = _formula(t, types)
            return Neutral(c, lambda: _short((
                "case", scrutinee.read(), a, _scope(left, a, c), b, _scope(right, b, c)
            )))
        case Abort(a, target):
            arg = _eval(a, env, types)
            return Neutral(target, lambda: ("abort", arg.read(), target))
    raise TypeError(f"not a term: {t!r}")


def _closure(body: Term, x: Var, a: Formula, env, types) -> Callable[[object], object]:
    return lambda w: _eval(body, {**env, x: w}, {**types, x: a})


def _scope(body: Callable[[object], object], a: Formula, c: Formula) -> tuple:
    # A binder over body's result at c, for a fresh variable of formula a.
    b = _Bound()
    return ("bind", b, _reify(body(Neutral(a, lambda: ("var", b))), c))


def _reify(v: object, a: Formula) -> tuple:
    # The read-back of v at formula a, η-long at -> and /\, then shortened.
    match a:
        case Implies(b, c):
            return _short(("lam", b, _scope(lambda w: _apply(v, w), b, c)))
        case And(b, c):
            return _short(("pair", _reify(_project(v, 0), b), _reify(_project(v, 1), c)))
        case Or(b, c) if type(v) is Tagged:
            if v.tag:
                return ("inr", _reify(v.value, c), b)
            return ("inl", _reify(v.value, b), c)
    return v.read()


def _mentions(t: tuple, b: _Bound) -> bool:
    return any(part is b or (type(part) is tuple and _mentions(part, b)) for part in t)


def _short(t: tuple) -> tuple:
    # t less an η-redex at its root; its parts are already short.
    match t:
        case ("lam", _, ("bind", x, ("app", n, ("var", y)))) if y is x and not _mentions(n, x):
            return n
        case ("pair", ("fst", n), ("snd", m)) if _key_of(n) == _key_of(m):
            return n
        case ("case", n, _, ("bind", x, ("inl", ("var", y), _)), _,
              ("bind", z, ("inr", ("var", w), _))) if y is x and w is z:
            return n
    return t


def _tree(t: Term, env: Mapping[Var, _Bound]) -> tuple:
    # t as a read-back term, with a fresh _Bound for each binder.
    match t:
        case VarRef(v):
            return ("var", env.get(v, v))
        case Lam(x, a, body):
            b = _Bound()
            return ("lam", a, ("bind", b, _tree(body, {**env, x: b})))
        case App(f, arg):
            return ("app", _tree(f, env), _tree(arg, env))
        case Pair(a, b):
            return ("pair", _tree(a, env), _tree(b, env))
        case Fst(a):
            return ("fst", _tree(a, env))
        case Snd(a):
            return ("snd", _tree(a, env))
        case Inl(a, other):
            return ("inl", _tree(a, env), other)
        case Inr(a, other):
            return ("inr", _tree(a, env), other)
        case Case(r, x, a, s, y, b, u):
            bx, by = _Bound(), _Bound()
            left = ("bind", bx, _tree(s, {**env, x: bx}))
            return ("case", _tree(r, env), a, left, b, ("bind", by, _tree(u, {**env, y: by})))
        case Abort(a, target):
            return ("abort", _tree(a, env), target)
    raise TypeError(f"not a term: {t!r}")


def _key_of(t: tuple, levels: dict | None = None, depth: int = 0) -> tuple:
    """The key of a read-back term: each variable bound in it replaced
    by its binder's de Bruijn level. A variable bound outside t stays
    as it is, so two parts of one term compare by their keys."""
    levels = {} if levels is None else levels
    if t[0] == "var":
        return ("var", levels.get(t[1], t[1]))
    if t[0] == "bind":
        levels[t[1]] = depth
        return ("bind", _key_of(t[2], levels, depth + 1))
    return tuple(_key_of(p, levels, depth) if type(p) is tuple else p for p in t)


def key(t: Term) -> tuple:
    """The key of t: equal for exactly the alpha-equivalent terms."""
    return _key_of(_tree(t, {}))


def normal_key(t: Term, ctx: Mapping[Var, Formula]) -> tuple:
    """The key of t's beta-eta normal form, with t well typed in ctx."""
    types = dict(ctx)
    env = {v: Neutral(a, lambda v=v: ("var", v)) for v, a in types.items()}
    return _key_of(_reify(_eval(t, env, types), _formula(t, types)))
