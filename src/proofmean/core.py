"""Formulas, typed lambda terms, contexts, the table every structural
term walk reads, substitution, and typing.

Everything here is an immutable value. Terms carry enough type
annotations (binder types, the undetermined component of injections and
abort) that every well-formed term has a unique type in a context.

Formulas, variables and term nodes are built once each, from one table
kept for the whole process, so their `==` and `hash` are identity and
never recurse. A term node keeps two facts once computed, outside the
fields that repr reads: `_normal`, its beta-eta normal form (itself if
normal), set by `rewrite.normalize` on each node it visits, and
`_skeleton`, set by `meaning._skeleton`. A node never changes, so
neither goes stale.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from itertools import count
from typing import Iterator, Mapping, Union


class ProofmeanError(Exception):
    """Base class for every error this package raises on purpose."""


class UnboundVariable(ProofmeanError):
    pass


class TypeMismatch(ProofmeanError):
    pass


class Record:
    """Base of the classes `record` makes, with the methods a frozen
    dataclass generates for each, shared: repr, no assignment, and `==`
    and `hash` over the fields not declared `compare=False`."""

    def __repr__(self) -> str:
        shown = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._shown])
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def _fields(self) -> tuple:
        return tuple([getattr(self, f) for f in self._compared])


class _Interned(Record):
    """A record built once per class and fields, so `==` and `hash` are
    identity (Filliâtre & Conchon, 2006)."""
    _table: dict[tuple, "_Interned"] = {}
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __reduce__(self):  # copy and pickle rebuild through __new__
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)


def _intern(key: tuple) -> _Interned:
    # On a miss: build the node key names and store it, unless another
    # thread stored one first; either way, return the stored one.
    self = object.__new__(key[0])
    for name, value in zip(key[0].__match_args__, key[1:]):
        object.__setattr__(self, name, value)
    return _Interned._table.setdefault(key, self)


def record(cls: type) -> type:
    """Make cls a dataclass, for `fields`, `replace` and `__match_args__`,
    with its base's methods and one constructor whose parameters are its
    fields, with their defaults: an interned class's `__new__`, which
    looks the fields up in the table, or an `__init__`. A docstring
    spares dataclass reading a signature."""
    cls.__doc__ = cls.__doc__ or f"{cls.__name__}({', '.join(cls.__annotations__)})"
    cls = dataclass(init=False, repr=False, eq=False)(cls)
    names, declared = cls.__match_args__, fields(cls)
    cls._shown = tuple(f.name for f in declared if f.repr)
    cls._compared = tuple(f.name for f in declared if f.compare)
    params = "".join(f", {f}" for f in names)
    if interned := issubclass(cls, _Interned):
        head = f"def __new__(cls{params}):"
        body = [f"key = (cls{params},)", "return _table.get(key) or _intern(key)"]
    else:
        # object.__setattr__ keeps the fields in the instance's inline values;
        # filling self.__dict__ would make a dict per instance, slower to read.
        head = f"def __init__(self{params}):"
        body = [f"_set(self, {f!r}, {f})" for f in names]
        body += ["self.__post_init__()"] if hasattr(cls, "__post_init__") else []
    space = {"_set": object.__setattr__, "_table": _Interned._table, "_intern": _intern}
    exec("\n    ".join([head, *(body or ["pass"])]), space)
    make = space.get("__new__") or space["__init__"]
    make.__qualname__ = f"{cls.__qualname__}.{make.__name__}"
    make.__defaults__ = tuple(f.default for f in declared if f.default is not MISSING) or None
    setattr(cls, make.__name__, staticmethod(make) if interned else make)
    return cls


# ---------- Formulas ----------


@record
class Atom(_Interned):
    name: str


@record
class Implies(_Interned):
    left: "Formula"
    right: "Formula"


@record
class And(_Interned):
    left: "Formula"
    right: "Formula"


@record
class Or(_Interned):
    left: "Formula"
    right: "Formula"


@record
class Absurd(_Interned):
    pass


Formula = Union[Atom, Implies, And, Or, Absurd]


# ---------- Variables and terms ----------


@record
class Var(_Interned):
    name: str


@record
class VarRef(_Interned):
    var: Var


@record
class Lam(_Interned):
    bound: Var
    bound_type: Formula
    body: "Term"


@record
class App(_Interned):
    fun: "Term"
    arg: "Term"


@record
class Pair(_Interned):
    first: "Term"
    second: "Term"


@record
class Fst(_Interned):
    arg: "Term"


@record
class Snd(_Interned):
    arg: "Term"


@record
class Inl(_Interned):
    arg: "Term"
    other: Formula  # the right disjunct, not determined by arg


@record
class Inr(_Interned):
    arg: "Term"
    other: Formula  # the left disjunct


@record
class Case(_Interned):
    scrutinee: "Term"
    left_var: Var
    left_type: Formula
    left_branch: "Term"
    right_var: Var
    right_type: Formula
    right_branch: "Term"


@record
class Abort(_Interned):
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
        self._bindings = dict(bindings) if bindings else {}

    @classmethod
    def _owning(cls, bindings: dict[Var, Formula]) -> "Context":
        # A context over a dict the caller has just built and gives up, not a copy.
        ctx = object.__new__(cls)
        ctx._bindings = bindings
        return ctx

    def get(self, var: Var) -> Formula | None:
        return self._bindings.get(var)

    def extend(self, var: Var, formula: Formula) -> "Context":
        return Context._owning({**self._bindings, var: formula})

    def without(self, var: Var) -> "Context":
        if var not in self._bindings:
            return self
        new = dict(self._bindings)
        del new[var]
        return Context._owning(new)

    def items(self) -> tuple[tuple[Var, Formula], ...]:
        return tuple(sorted(self._bindings.items(), key=lambda kv: kv[0].name))

    def vars(self) -> frozenset[Var]:
        return frozenset(self._bindings)

    def __contains__(self, var: Var) -> bool:
        return var in self._bindings

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Context) and self._bindings == other._bindings

    def __repr__(self) -> str:
        inner = ", ".join(f"{v.name}: {f!r}" for v, f in self.items())
        return f"Context({{{inner}}})"


# ---------- Traversal ----------

# For each term class, its subterm fields in declaration order, each
# with the field naming the variable bound over it, or None. Every
# structural walk reads a node's shape from this table alone (the
# uniplate style of Mitchell & Runciman, "Uniform boilerplate", Haskell
# Workshop 2007); the other fields (VarRef's variable, the formula
# annotations) are carried along unchanged.
SUBTERMS: dict[type, tuple[tuple[str, str | None], ...]] = {
    VarRef: (),
    Lam: (("body", "bound"),),
    App: (("fun", None), ("arg", None)),
    Pair: (("first", None), ("second", None)),
    Fst: (("arg", None),),
    Snd: (("arg", None),),
    Inl: (("arg", None),),
    Inr: (("arg", None),),
    Case: (("scrutinee", None), ("left_branch", "left_var"), ("right_branch", "right_var")),
    Abort: (("arg", None),),
}

# The other fields of each class: VarRef's variable and the formula
# annotations, which no walk descends into.
LABELS = {
    cls: tuple(f for f in cls.__match_args__ if f not in {n for pair in subterms for n in pair})
    for cls, subterms in SUBTERMS.items()
}


def rebuild(t: Term, changes: Mapping[str, object]) -> Term:
    """A node like t with the fields named in changes replaced."""
    return type(t)(*[changes.get(f, getattr(t, f)) for f in t.__match_args__])


# ---------- Free variables and substitution ----------


def free_vars(t: Term, hole: str | None = None) -> frozenset[Var]:
    """The variables with a free occurrence in t, leaving out the subterm
    field `hole` when one is named: the free variables of a frame."""
    if type(t) is VarRef:
        return frozenset((t.var,))
    out: frozenset[Var] = frozenset()
    for name, binder in SUBTERMS[type(t)]:
        if name != hole:
            fvs = free_vars(getattr(t, name))
            out |= fvs if binder is None else fvs - {getattr(t, binder)}
    return out


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
    """Simultaneous capture-avoiding substitution of subs into t.

    A node none of whose subterms changes is returned as it is."""
    if type(t) is VarRef:
        return subs.get(t.var, t)
    changes: dict[str, object] = {}
    for name, binder in SUBTERMS[type(t)]:
        s = getattr(t, name)
        if binder is None:
            live = subs
        else:
            x, fvs = getattr(t, binder), free_vars(s)
            live = {v: w for v, w in subs.items() if v != x and v in fvs}
            if not live:
                continue
            changes[binder], live = _rebind(x, s, live)
        s2 = substitute_many(s, live)
        if s2 is not s:
            changes[name] = s2
    return rebuild(t, changes) if changes else t


def substitute(t: Term, x: Var, s: Term) -> Term:
    """Capture-avoiding substitution of s for free occurrences of x in t."""
    return substitute_many(t, {x: s})


# ---------- Alpha equivalence ----------


def _restore(env: dict, x: Var, outer: object) -> None:
    """Undo a binder's entry for x: put back `outer`, the entry it
    shadowed, or remove x if that is None. So each walk below keeps one
    environment, and no binder copies it."""
    if outer is None:
        del env[x]
    else:
        env[x] = outer


def _alpha_key(t: Term, env: dict[Var, int], depth: int, key: list) -> None:
    # Append t in preorder: each node's class and labels, and for each
    # variable occurrence the depth of its binder, or the variable itself
    # when it is free. Each class has a fixed arity, so the flat list
    # determines the term.
    cls = type(t)
    if cls is VarRef:
        key.append(env.get(t.var, t.var))
        return
    key.append(cls)
    for f in LABELS[cls]:
        key.append(getattr(t, f))
    for name, binder in SUBTERMS[cls]:
        if binder is None:
            _alpha_key(getattr(t, name), env, depth, key)
        else:
            x = getattr(t, binder)
            outer, env[x] = env.get(x), depth
            _alpha_key(getattr(t, name), env, depth + 1, key)
            _restore(env, x, outer)


def alpha_key(t: Term) -> tuple:
    """A hashable key equal for exactly the alpha-equivalent terms: one
    flat tuple, so hashing and comparing it never recurse."""
    key: list = []
    _alpha_key(t, {}, 0, key)
    return tuple(key)


def alpha_equal(t1: Term, t2: Term) -> bool:
    """True iff t1 and t2 differ only in bound-variable names: they are
    one node, or their alpha keys are equal."""
    return t1 is t2 or alpha_key(t1) == alpha_key(t2)


def canonicalize(t: Term) -> Term:
    """Rename bound variables to x1, x2, ... in traversal order.

    Free variables keep their names; the generated names skip them, so
    the result is alpha-equal to the input.
    """
    taken = {v.name for v in free_vars(t)}
    fresh = (Var(f"x{i}") for i in count(1) if f"x{i}" not in taken)
    return _canonicalize(t, {}, fresh)


def _canonicalize(t: Term, ren: dict[Var, Var], fresh: Iterator[Var]) -> Term:
    if type(t) is VarRef:
        return VarRef(ren.get(t.var, t.var))
    changes: dict[str, object] = {}
    for name, binder in SUBTERMS[type(t)]:
        if binder is None:
            changes[name] = _canonicalize(getattr(t, name), ren, fresh)
        else:
            x = getattr(t, binder)
            outer, ren[x] = ren.get(x), next(fresh)
            changes[binder] = ren[x]
            changes[name] = _canonicalize(getattr(t, name), ren, fresh)
            _restore(ren, x, outer)
    return rebuild(t, changes)


def term_size(t: Term) -> int:
    """Number of term constructors in t."""
    size = 1
    for name, _ in SUBTERMS[type(t)]:
        size += term_size(getattr(t, name))
    return size


# ---------- Typing ----------


def type_of(ctx: Context, t: Term) -> Formula:
    """The unique formula A with ctx entailing t : A, or an error. The
    walk copies ctx once and binds each binder in that one copy."""
    return _type_of(dict(ctx._bindings), t)


def _type_under(env: dict[Var, Formula], x: Var, a: Formula, body: Term) -> Formula:
    # The type of body with x bound to a; env is left as it was found.
    outer, env[x] = env.get(x), a
    b = _type_of(env, body)
    _restore(env, x, outer)
    return b


def _type_of(env: dict[Var, Formula], t: Term) -> Formula:
    match t:
        case VarRef(v):
            a = env.get(v)
            if a is None:
                raise UnboundVariable(f"unbound variable {v.name}")
            return a
        case Lam(x, a, body):
            return Implies(a, _type_under(env, x, a, body))
        case App(f, arg):
            ft = _type_of(env, f)
            if not isinstance(ft, Implies):
                raise TypeMismatch(f"applied term has type {ft!r}, not an implication")
            at = _type_of(env, arg)
            if at != ft.left:
                raise TypeMismatch(f"argument type {at!r} does not match {ft.left!r}")
            return ft.right
        case Pair(a, b):
            return And(_type_of(env, a), _type_of(env, b))
        case Fst(a):
            at = _type_of(env, a)
            if not isinstance(at, And):
                raise TypeMismatch(f"fst of a term of type {at!r}")
            return at.left
        case Snd(a):
            at = _type_of(env, a)
            if not isinstance(at, And):
                raise TypeMismatch(f"snd of a term of type {at!r}")
            return at.right
        case Inl(a, other):
            return Or(_type_of(env, a), other)
        case Inr(a, other):
            return Or(other, _type_of(env, a))
        case Case(r, x, a, s, y, b, u):
            rt = _type_of(env, r)
            if not isinstance(rt, Or):
                raise TypeMismatch(f"case scrutinee has type {rt!r}, not a disjunction")
            if rt.left != a or rt.right != b:
                raise TypeMismatch("case branch annotations do not match the scrutinee type")
            ct1 = _type_under(env, x, a, s)
            ct2 = _type_under(env, y, b, u)
            if ct1 != ct2:
                raise TypeMismatch(f"case branches have types {ct1!r} and {ct2!r}")
            return ct1
        case Abort(a, target):
            at = _type_of(env, a)
            if not isinstance(at, Absurd):
                raise TypeMismatch(f"abort of a term of type {at!r}")
            return target
    raise TypeError(f"not a term: {t!r}")
