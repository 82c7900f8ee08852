"""Formulas, typed lambda terms, contexts, substitution, and typing.

Everything here is an immutable value. Terms carry enough type
annotations (binder types, the undetermined component of injections and
abort) that every well-formed term has a unique type in a context.

Term and formula nodes keep their hash once computed, and `rewrite`
keeps on each term node whether it is beta-eta normal. Both live
outside the dataclass fields, so equality, repr and
`dataclasses.fields` never see them, and neither can go stale because
a node never changes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Iterator, Mapping, Union


class ProofmeanError(Exception):
    """Base class for every error this package raises on purpose."""


class UnboundVariable(ProofmeanError):
    pass


class TypeMismatch(ProofmeanError):
    pass


def _hash_once(cls):
    """Make a frozen dataclass hash its class and fields on first use
    and keep the result on the instance."""
    key = attrgetter(*(f.name for f in fields(cls)))

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((cls, key(self)))
            object.__setattr__(self, "_hash", h)
        return h

    cls._hash = None
    cls.__hash__ = __hash__
    return cls


# ---------- Formulas ----------


@_hash_once
@dataclass(frozen=True)
class Atom:
    name: str


@_hash_once
@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@_hash_once
@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@_hash_once
@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Absurd:
    pass


Formula = Union[Atom, Implies, And, Or, Absurd]


# ---------- Variables and terms ----------


# Var keeps the plain dataclass hash: the parser builds a new Var for
# each occurrence and hashes it about once, so a cache costs more than
# it saves.
@dataclass(frozen=True)
class Var:
    name: str


@_hash_once
@dataclass(frozen=True)
class VarRef:
    var: Var


@_hash_once
@dataclass(frozen=True)
class Lam:
    bound: Var
    bound_type: Formula
    body: "Term"


@_hash_once
@dataclass(frozen=True)
class App:
    fun: "Term"
    arg: "Term"


@_hash_once
@dataclass(frozen=True)
class Pair:
    first: "Term"
    second: "Term"


@_hash_once
@dataclass(frozen=True)
class Fst:
    arg: "Term"


@_hash_once
@dataclass(frozen=True)
class Snd:
    arg: "Term"


@_hash_once
@dataclass(frozen=True)
class Inl:
    arg: "Term"
    other: Formula  # the right disjunct, not determined by arg


@_hash_once
@dataclass(frozen=True)
class Inr:
    arg: "Term"
    other: Formula  # the left disjunct


@_hash_once
@dataclass(frozen=True)
class Case:
    scrutinee: "Term"
    left_var: Var
    left_type: Formula
    left_branch: "Term"
    right_var: Var
    right_type: Formula
    right_branch: "Term"


@_hash_once
@dataclass(frozen=True)
class Abort:
    arg: "Term"
    target: Formula


Term = Union[VarRef, Lam, App, Pair, Fst, Snd, Inl, Inr, Case, Abort]


# ---------- Contexts ----------


class Context:
    """Immutable finite map from variables to formulas.

    Extension replaces any existing binding for the variable, which is
    what binders need; derivation checkers enforce their stricter
    one-formula-per-variable disciplines themselves.
    """

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Mapping[Var, Formula] | None = None):
        object.__setattr__(self, "_bindings", dict(bindings) if bindings else {})

    def get(self, var: Var) -> Formula | None:
        return self._bindings.get(var)

    def extend(self, var: Var, formula: Formula) -> "Context":
        new = dict(self._bindings)
        new[var] = formula
        return Context(new)

    def without(self, var: Var) -> "Context":
        if var not in self._bindings:
            return self
        new = dict(self._bindings)
        del new[var]
        return Context(new)

    def items(self) -> tuple[tuple[Var, Formula], ...]:
        return tuple(sorted(self._bindings.items(), key=lambda kv: kv[0].name))

    @property
    def bindings(self) -> dict[Var, Formula]:
        return dict(self._bindings)

    def vars(self) -> frozenset[Var]:
        return frozenset(self._bindings)

    def __contains__(self, var: Var) -> bool:
        return var in self._bindings

    def __iter__(self) -> Iterator[Var]:
        return iter(self._bindings)

    def __len__(self) -> int:
        return len(self._bindings)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Context) and self._bindings == other._bindings

    def __repr__(self) -> str:
        inner = ", ".join(f"{v.name}: {f!r}" for v, f in self.items())
        return f"Context({{{inner}}})"


# ---------- Free variables and substitution ----------


def free_vars(t: Term) -> frozenset[Var]:
    """The variables with a free occurrence in t."""
    match t:
        case VarRef(v):
            return frozenset((v,))
        case Lam(x, _, body):
            return free_vars(body) - {x}
        case App(f, a):
            return free_vars(f) | free_vars(a)
        case Pair(a, b):
            return free_vars(a) | free_vars(b)
        case Fst(a) | Snd(a):
            return free_vars(a)
        case Inl(a, _) | Inr(a, _) | Abort(a, _):
            return free_vars(a)
        case Case(r, x, _, s, y, _, u):
            return free_vars(r) | (free_vars(s) - {x}) | (free_vars(u) - {y})
    raise TypeError(f"not a term: {t!r}")


def fresh_var(base: Var, avoid: frozenset[Var] | set[Var]) -> Var:
    """A variable not in avoid, derived from base by appending primes."""
    v = base
    while v in avoid:
        v = Var(v.name + "'")
    return v


def _rebind(x: Var, body: Term, live: dict[Var, Term]) -> tuple[Var, dict[Var, Term]]:
    # Rename x when any replacement term could capture it.
    replaced_fvs: set[Var] = set()
    for s in live.values():
        replaced_fvs |= free_vars(s)
    if x not in replaced_fvs:
        return x, live
    avoid = replaced_fvs | free_vars(body) | set(live)
    x2 = fresh_var(x, avoid)
    return x2, {**live, x: VarRef(x2)}


def substitute_many(t: Term, subs: Mapping[Var, Term]) -> Term:
    """Simultaneous capture-avoiding substitution of subs into t."""
    match t:
        case VarRef(v):
            return subs.get(v, t)
        case Lam(x, a, body):
            live = {v: s for v, s in subs.items() if v != x and v in free_vars(body)}
            if not live:
                return t
            x2, live = _rebind(x, body, live)
            return Lam(x2, a, substitute_many(body, live))
        case App(f, a):
            return App(substitute_many(f, subs), substitute_many(a, subs))
        case Pair(a, b):
            return Pair(substitute_many(a, subs), substitute_many(b, subs))
        case Fst(a):
            return Fst(substitute_many(a, subs))
        case Snd(a):
            return Snd(substitute_many(a, subs))
        case Inl(a, o):
            return Inl(substitute_many(a, subs), o)
        case Inr(a, o):
            return Inr(substitute_many(a, subs), o)
        case Abort(a, c):
            return Abort(substitute_many(a, subs), c)
        case Case(r, x, a, s, y, b, u):
            r2 = substitute_many(r, subs)
            live_l = {v: w for v, w in subs.items() if v != x and v in free_vars(s)}
            live_r = {v: w for v, w in subs.items() if v != y and v in free_vars(u)}
            if live_l:
                x2, live_l = _rebind(x, s, live_l)
                s2 = substitute_many(s, live_l)
            else:
                x2, s2 = x, s
            if live_r:
                y2, live_r = _rebind(y, u, live_r)
                u2 = substitute_many(u, live_r)
            else:
                y2, u2 = y, u
            return Case(r2, x2, a, s2, y2, b, u2)
    raise TypeError(f"not a term: {t!r}")


def substitute(t: Term, x: Var, s: Term) -> Term:
    """Capture-avoiding substitution of s for free occurrences of x in t."""
    return substitute_many(t, {x: s})


# ---------- Alpha equivalence ----------


def _alpha(t1: Term, t2: Term, env1: dict[Var, int], env2: dict[Var, int], depth: int) -> bool:
    match t1, t2:
        case VarRef(v1), VarRef(v2):
            b1, b2 = env1.get(v1), env2.get(v2)
            if b1 is None and b2 is None:
                return v1 == v2
            return b1 == b2 and b1 is not None
        case Lam(x1, a1, b1), Lam(x2, a2, b2):
            if a1 != a2:
                return False
            return _alpha(b1, b2, {**env1, x1: depth}, {**env2, x2: depth}, depth + 1)
        case App(f1, a1), App(f2, a2):
            return _alpha(f1, f2, env1, env2, depth) and _alpha(a1, a2, env1, env2, depth)
        case Pair(a1, b1), Pair(a2, b2):
            return _alpha(a1, a2, env1, env2, depth) and _alpha(b1, b2, env1, env2, depth)
        case Fst(a1), Fst(a2):
            return _alpha(a1, a2, env1, env2, depth)
        case Snd(a1), Snd(a2):
            return _alpha(a1, a2, env1, env2, depth)
        case Inl(a1, o1), Inl(a2, o2):
            return o1 == o2 and _alpha(a1, a2, env1, env2, depth)
        case Inr(a1, o1), Inr(a2, o2):
            return o1 == o2 and _alpha(a1, a2, env1, env2, depth)
        case Abort(a1, c1), Abort(a2, c2):
            return c1 == c2 and _alpha(a1, a2, env1, env2, depth)
        case Case(r1, x1, a1, s1, y1, b1, u1), Case(r2, x2, a2, s2, y2, b2, u2):
            if a1 != a2 or b1 != b2:
                return False
            if not _alpha(r1, r2, env1, env2, depth):
                return False
            if not _alpha(s1, s2, {**env1, x1: depth}, {**env2, x2: depth}, depth + 1):
                return False
            return _alpha(u1, u2, {**env1, y1: depth}, {**env2, y2: depth}, depth + 1)
    return False


def alpha_equal(t1: Term, t2: Term) -> bool:
    """True iff t1 and t2 differ only in bound-variable names."""
    return _alpha(t1, t2, {}, {}, 0)


def _alpha_key(t: Term, env: dict[Var, int], depth: int) -> object:
    match t:
        case VarRef(v):
            lvl = env.get(v)
            return ("fv", v.name) if lvl is None else ("bv", lvl)
        case Lam(x, a, body):
            return ("lam", a, _alpha_key(body, {**env, x: depth}, depth + 1))
        case App(f, a):
            return ("app", _alpha_key(f, env, depth), _alpha_key(a, env, depth))
        case Pair(a, b):
            return ("pair", _alpha_key(a, env, depth), _alpha_key(b, env, depth))
        case Fst(a):
            return ("fst", _alpha_key(a, env, depth))
        case Snd(a):
            return ("snd", _alpha_key(a, env, depth))
        case Inl(a, o):
            return ("inl", o, _alpha_key(a, env, depth))
        case Inr(a, o):
            return ("inr", o, _alpha_key(a, env, depth))
        case Abort(a, c):
            return ("abort", c, _alpha_key(a, env, depth))
        case Case(r, x, a, s, y, b, u):
            return (
                "case",
                a,
                b,
                _alpha_key(r, env, depth),
                _alpha_key(s, {**env, x: depth}, depth + 1),
                _alpha_key(u, {**env, y: depth}, depth + 1),
            )
    raise TypeError(f"not a term: {t!r}")


def alpha_key(t: Term) -> object:
    """A hashable key equal for exactly the alpha-equivalent terms."""
    return _alpha_key(t, {}, 0)


def canonicalize(t: Term) -> Term:
    """Rename bound variables to x1, x2, ... in traversal order.

    Free variables keep their names; the generated names skip them, so
    the result is alpha-equal to the input.
    """
    taken = {v.name for v in free_vars(t)}
    counter = [0]

    def next_var() -> Var:
        while True:
            counter[0] += 1
            name = f"x{counter[0]}"
            if name not in taken:
                return Var(name)

    def go(t: Term, ren: dict[Var, Var]) -> Term:
        match t:
            case VarRef(v):
                return VarRef(ren.get(v, v))
            case Lam(x, a, body):
                x2 = next_var()
                return Lam(x2, a, go(body, {**ren, x: x2}))
            case App(f, a):
                return App(go(f, ren), go(a, ren))
            case Pair(a, b):
                return Pair(go(a, ren), go(b, ren))
            case Fst(a):
                return Fst(go(a, ren))
            case Snd(a):
                return Snd(go(a, ren))
            case Inl(a, o):
                return Inl(go(a, ren), o)
            case Inr(a, o):
                return Inr(go(a, ren), o)
            case Abort(a, c):
                return Abort(go(a, ren), c)
            case Case(r, x, a, s, y, b, u):
                r2 = go(r, ren)
                x2 = next_var()
                s2 = go(s, {**ren, x: x2})
                y2 = next_var()
                u2 = go(u, {**ren, y: y2})
                return Case(r2, x2, a, s2, y2, b, u2)
        raise TypeError(f"not a term: {t!r}")

    return go(t, {})


def term_size(t: Term) -> int:
    """Number of term constructors in t."""
    match t:
        case VarRef(_):
            return 1
        case Lam(_, _, body):
            return 1 + term_size(body)
        case App(a, b) | Pair(a, b):
            return 1 + term_size(a) + term_size(b)
        case Fst(a) | Snd(a) | Inl(a, _) | Inr(a, _) | Abort(a, _):
            return 1 + term_size(a)
        case Case(r, _, _, s, _, _, u):
            return 1 + term_size(r) + term_size(s) + term_size(u)
    raise TypeError(f"not a term: {t!r}")


# ---------- Typing ----------


def type_of(ctx: Context, t: Term) -> Formula:
    """The unique formula A with ctx entailing t : A, or an error."""
    match t:
        case VarRef(v):
            a = ctx.get(v)
            if a is None:
                raise UnboundVariable(f"unbound variable {v.name}")
            return a
        case Lam(x, a, body):
            return Implies(a, type_of(ctx.extend(x, a), body))
        case App(f, arg):
            ft = type_of(ctx, f)
            if not isinstance(ft, Implies):
                raise TypeMismatch(f"applied term has type {ft!r}, not an implication")
            at = type_of(ctx, arg)
            if at != ft.left:
                raise TypeMismatch(f"argument type {at!r} does not match {ft.left!r}")
            return ft.right
        case Pair(a, b):
            return And(type_of(ctx, a), type_of(ctx, b))
        case Fst(a):
            at = type_of(ctx, a)
            if not isinstance(at, And):
                raise TypeMismatch(f"fst of a term of type {at!r}")
            return at.left
        case Snd(a):
            at = type_of(ctx, a)
            if not isinstance(at, And):
                raise TypeMismatch(f"snd of a term of type {at!r}")
            return at.right
        case Inl(a, other):
            return Or(type_of(ctx, a), other)
        case Inr(a, other):
            return Or(other, type_of(ctx, a))
        case Case(r, x, a, s, y, b, u):
            rt = type_of(ctx, r)
            if not isinstance(rt, Or):
                raise TypeMismatch(f"case scrutinee has type {rt!r}, not a disjunction")
            if rt.left != a or rt.right != b:
                raise TypeMismatch("case branch annotations do not match the scrutinee type")
            ct1 = type_of(ctx.extend(x, a), s)
            ct2 = type_of(ctx.extend(y, b), u)
            if ct1 != ct2:
                raise TypeMismatch(f"case branches have types {ct1!r} and {ct2!r}")
            return ct1
        case Abort(a, target):
            at = type_of(ctx, a)
            if not isinstance(at, Absurd):
                raise TypeMismatch(f"abort of a term of type {at!r}")
            return target
    raise TypeError(f"not a term: {t!r}")
