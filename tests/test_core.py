import copy
import inspect
import pickle
import sys
import threading
import tracemalloc
from dataclasses import MISSING, FrozenInstanceError, fields, is_dataclass, replace
from typing import get_args, get_type_hints

import pytest

from proofmean import nd, sc
from proofmean.core import (
    Abort,
    Absurd,
    And,
    App,
    Atom,
    Case,
    Context,
    Fst,
    Implies,
    Inl,
    Inr,
    Lam,
    Or,
    Pair,
    Record,
    SUBTERMS,
    Snd,
    Term,
    TypeMismatch,
    UnboundVariable,
    Var,
    VarRef,
    _Interned,
    alpha_equal,
    alpha_key,
    canonicalize,
    free_vars,
    fresh_var,
    substitute,
    substitute_many,
    term_size,
    type_of,
)
from proofmean.meaning import conclusion
from proofmean.nd import check_nd
from proofmean.rewrite import FiniteModel, OutsideModelBounds, equivalent
from proofmean.sc import check_sc
from proofmean.syntax import parse_file, parse_term, render_formula

p, q, r = Atom("p"), Atom("q"), Atom("r")
x, y, z = Var("x"), Var("y"), Var("z")


def test_formulas_are_values():
    assert Implies(p, q) == Implies(Atom("p"), Atom("q"))
    assert And(p, q) != And(q, p)
    assert len({Or(p, q), Or(p, q), Absurd(), Absurd()}) == 2
    assert And(p, q) != Or(p, q) and Atom("x") != Var("x")
    match Implies(p, Or(q, r)):
        case Implies(Atom("p"), Or(left, right)):
            assert (left, right) == (q, r)
        case _:
            pytest.fail("Implies did not match its own fields")
    with pytest.raises(TypeError) as missing:
        Implies(p)
    assert str(missing.value) == "Implies.__new__() missing 1 required positional argument: 'right'"


# Each interned class (formulas, variables and term nodes) with an
# instance built from separately built parts (names joined at run
# time), its repr, and its fields.
INTERNED = [
    (Atom, lambda: Atom("".join("pq")), "Atom(name='pq')", ("name",)),
    (Var, lambda: Var("".join("xy")), "Var(name='xy')", ("name",)),
    (Absurd, lambda: Absurd(), "Absurd()", ()),
    (
        Implies,
        lambda: Implies(And(Atom("p"), Absurd()), Or(Atom("q"), Atom("p"))),
        "Implies(left=And(left=Atom(name='p'), right=Absurd()), "
        "right=Or(left=Atom(name='q'), right=Atom(name='p')))",
        ("left", "right"),
    ),
    (And, lambda: And(Implies(Atom("p"), Atom("q")), Atom("r")),
     "And(left=Implies(left=Atom(name='p'), right=Atom(name='q')), right=Atom(name='r'))",
     ("left", "right")),
    (Or, lambda: Or(Atom("p"), Implies(Absurd(), Atom("q"))),
     "Or(left=Atom(name='p'), right=Implies(left=Absurd(), right=Atom(name='q')))",
     ("left", "right")),
    (VarRef, lambda: VarRef(Var("".join("xy"))), "VarRef(var=Var(name='xy'))", ("var",)),
    (
        Lam,
        lambda: Lam(Var("".join("xy")), Implies(Atom("p"), Absurd()), VarRef(Var("xy"))),
        "Lam(bound=Var(name='xy'), bound_type=Implies(left=Atom(name='p'), right=Absurd()), "
        "body=VarRef(var=Var(name='xy')))",
        ("bound", "bound_type", "body"),
    ),
    (
        App,
        lambda: App(VarRef(Var("f")), Pair(VarRef(Var("a")), VarRef(Var("b")))),
        "App(fun=VarRef(var=Var(name='f')), "
        "arg=Pair(first=VarRef(var=Var(name='a')), second=VarRef(var=Var(name='b'))))",
        ("fun", "arg"),
    ),
    (
        Pair,
        lambda: Pair(Fst(VarRef(Var("u"))), Snd(VarRef(Var("u")))),
        "Pair(first=Fst(arg=VarRef(var=Var(name='u'))), "
        "second=Snd(arg=VarRef(var=Var(name='u'))))",
        ("first", "second"),
    ),
    (Fst, lambda: Fst(VarRef(Var("".join("uv")))), "Fst(arg=VarRef(var=Var(name='uv')))",
     ("arg",)),
    (Snd, lambda: Snd(Inl(VarRef(Var("a")), Atom("q"))),
     "Snd(arg=Inl(arg=VarRef(var=Var(name='a')), other=Atom(name='q')))", ("arg",)),
    (Inl, lambda: Inl(VarRef(Var("a")), Or(Atom("p"), Atom("q"))),
     "Inl(arg=VarRef(var=Var(name='a')), other=Or(left=Atom(name='p'), right=Atom(name='q')))",
     ("arg", "other")),
    (Inr, lambda: Inr(Abort(VarRef(Var("z")), Atom("p")), Atom("q")),
     "Inr(arg=Abort(arg=VarRef(var=Var(name='z')), target=Atom(name='p')), "
     "other=Atom(name='q'))", ("arg", "other")),
    (
        Case,
        lambda: Case(VarRef(Var("w")), Var("x"), Atom("p"), Inl(VarRef(Var("x")), Atom("q")),
                     Var("y"), Atom("q"), Inr(VarRef(Var("y")), Atom("p"))),
        "Case(scrutinee=VarRef(var=Var(name='w')), left_var=Var(name='x'), "
        "left_type=Atom(name='p'), left_branch=Inl(arg=VarRef(var=Var(name='x')), "
        "other=Atom(name='q')), right_var=Var(name='y'), right_type=Atom(name='q'), "
        "right_branch=Inr(arg=VarRef(var=Var(name='y')), other=Atom(name='p')))",
        ("scrutinee", "left_var", "left_type", "left_branch", "right_var", "right_type",
         "right_branch"),
    ),
    (Abort, lambda: Abort(VarRef(Var("z")), And(Atom("p"), Atom("r"))),
     "Abort(arg=VarRef(var=Var(name='z')), target=And(left=Atom(name='p'), right=Atom(name='r')))",
     ("arg", "target")),
]


@pytest.mark.parametrize(
    ("cls", "build", "text", "names"), INTERNED, ids=[c[0].__name__ for c in INTERNED]
)
def test_formulas_and_variables_are_built_once(cls, build, text, names):
    a, b = build(), build()
    assert a is b and type(a) is cls
    assert a == b and hash(a) == object.__hash__(a)
    assert repr(a) == text
    assert tuple(f.name for f in fields(cls)) == cls.__match_args__ == names
    assert copy.copy(a) is copy.deepcopy(a) is pickle.loads(pickle.dumps(a)) is a
    with pytest.raises(FrozenInstanceError):
        a.name = "changed"
    # Python binds the fields: positional, keyword and mixed calls build
    # one key, and a missing, unknown or repeated field is a TypeError.
    values = [getattr(a, f) for f in names]
    later = dict(zip(names[1:], values[1:]))
    assert cls(*values) is cls(**dict(zip(names, values))) is cls(*values[:1], **later) is a
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__new__\(\) got an unexpected"):
        cls(*values, colour=1)
    if names:
        with pytest.raises(TypeError, match=f"1 required positional argument: '{names[-1]}'$"):
            cls(*values[:-1])
        with pytest.raises(TypeError, match=f"got multiple values for argument '{names[0]}'"):
            cls(*values, **{names[0]: values[0]})


def test_record_classes_hold_one_constructor_and_no_generated_method():
    # A frozen dataclass would give each class its own __init__, __repr__,
    # __eq__, __hash__, __setattr__ and __delattr__. A record class takes
    # them from its base and holds one constructor, `__new__` when it is
    # interned, whose parameters are its fields with their declared
    # defaults, so a returning @dataclass(frozen=True) shows.
    import proofmean.cli  # noqa: F401  (every module, so every class)

    classes, stack = [], [Record]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            classes += [cls] if is_dataclass(cls) else []
    assert len(classes) == 49
    methods = {"__init__", "__new__", "__repr__", "__eq__", "__hash__"}
    methods |= {"__setattr__", "__delattr__"}
    for cls in classes:
        (own,) = vars(cls).keys() & methods
        assert own == ("__new__" if issubclass(cls, _Interned) else "__init__"), cls
        params = list(inspect.signature(getattr(cls, own)).parameters.values())[1:]
        assert tuple(p.name for p in params) == cls.__match_args__, cls
        assert [p.default for p in params] == [
            inspect.Parameter.empty if f.default is MISSING else f.default for f in fields(cls)
        ], cls


def _records() -> list[Record]:
    # One instance of each record class that is not interned, with a
    # kept checker run where one can be kept: every rule node of both
    # calculi, checked roots of both, a multiset sense, the verdicts,
    # the modes, a source file and a cut. The sense has one element:
    # a frozenset's repr lists its elements in the order of its hash
    # table, which a copy may lay out anew.
    from proofmean import meaning, rewrite, syntax

    h, rf = nd.Hyp(x, p), sc.Rf(x, p)
    nodes = [
        h, nd.ImpI(x, None, h), nd.ImpE(h, h), nd.AndI(h, h), nd.AndE1(h), nd.AndE2(h),
        nd.OrI1(q, h), nd.OrI2(q, h), nd.OrE(h, x, h, y, h), nd.AbsurdE(q, h),
        rf, sc.AndR(rf, rf), sc.AndL(z, x, y, rf), sc.OrR1(q, rf), sc.OrR2(q, rf),
        sc.OrL(z, x, y, rf, rf), sc.ImpR(x, rf), sc.ImpL(z, y, rf, rf), sc.AbsurdL(x, q),
        sc.Weaken(y, q, rf), sc.Contract(x, y, rf), sc.Cut(y, rf, rf),
    ]
    d1 = nd.ImpI(x, None, nd.AndI(nd.Hyp(x, p), nd.Hyp(x, p)))
    d2 = nd.ImpI(y, None, nd.AndI(nd.Hyp(y, p), nd.Hyp(y, p)))
    cut = sc.Cut(y, sc.Rf(x, p), sc.AndR(sc.Rf(y, p), sc.Rf(y, p)))
    return [
        *nodes, d1, check_nd(d1), check_sc(cut),
        meaning.sense_of(sc.Weaken(x, p, rf), multiset=True),
        meaning.classify(d1, d2),
        meaning.DifferentSenseSameDenotation((meaning.sense_of(d1), meaning.sense_of(d2))),
        meaning.DifferentDenotation((VarRef(x), VarRef(y))),
        meaning.SameDenotationUpToGamma(True, (VarRef(x), VarRef(y))),
        rewrite.BetaEta(), rewrite.BetaEtaGamma(3),
        syntax.parse_file("(nd n (hyp x p))"), *sc.cut_nodes(cut),
    ]


def test_every_record_survives_copy_deepcopy_and_pickle():
    # A record that is not interned comes back equal, with the same repr,
    # and still refuses assignment.
    import proofmean.cli  # noqa: F401  (every module, so every class)

    classes, stack = set(), [Record]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            classes |= {cls} if is_dataclass(cls) and not issubclass(cls, _Interned) else set()
    records = _records()
    assert {type(r) for r in records} == classes
    for record in records:
        for again in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
            got = again(record)
            assert type(got) is type(record) and got == record, record
            assert repr(got) == repr(record)
            with pytest.raises(FrozenInstanceError):
                got.anything = 1


def test_a_copy_is_built_by_its_constructor_and_keeps_no_checker_run():
    d = nd.AndI(nd.Hyp(x, p), nd.Hyp(y, q))
    root = check_nd(d)
    for again in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        assert again(d).checked is None and again(root).nodes == ()
    assert d.checked is root and len(root.nodes) == 2


def test_fields_can_be_given_by_keyword():
    t = VarRef(x)
    lam = Lam(x, p, t)
    assert Atom(name="p") is p and Var(name="x") is x
    assert Lam(bound=x, bound_type=p, body=t) is Lam(x, body=t, bound_type=p) is lam
    assert replace(lam, body=VarRef(y)) is Lam(x, p, VarRef(y))
    assert replace(Implies(p, q), right=r) is Implies(p, r)
    calls = {
        "got an unexpected keyword argument 'colour'": lambda: Lam(x, p, t, colour=1),
        "got multiple values for argument 'bound'": lambda: Lam(x, p, t, bound=y),
        "missing 1 required positional argument: 'bound_type'": lambda: Lam(bound=x, body=t),
    }
    for message, call in calls.items():
        with pytest.raises(TypeError) as error:
            call()
        assert str(error.value) == f"Lam.__new__() {message}"


def test_a_deep_term_is_built_once_and_hashed_without_recursion():
    # == and hash are identity. A structural == or hash would recurse
    # once per level and raise RecursionError at the default limit.
    def chain():
        t = VarRef(Var("".join("xy")))
        for _ in range(5_000):
            t = Fst(t)
        return t

    a, b = chain(), chain()
    assert a == b and hash(a) == hash(b)
    assert a is b
    assert len({a, b, a.arg}) == 2


def test_repr_of_a_deep_formula_needs_no_recursion():
    # repr must not recurse once per level: that raises RecursionError
    # at the default limit, and on CPython 3.12 and later recursion
    # through C stops at a fixed depth that no limit raises.
    a = p
    for _ in range(5_000):
        a = Implies(p, a)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)
    try:
        text = repr(a)
    finally:
        sys.setrecursionlimit(limit)
    assert text == "Implies(left=Atom(name='p'), right=" * 5_000 + "Atom(name='p')" + ")" * 5_000


def test_threads_building_the_same_formulas_get_one_instance_each():
    # A thread can be switched out between the table lookup and the
    # insert; whichever instance is stored first is the one every
    # thread gets back. Each term also holds a formula and variables.
    def build(out):
        out.extend(Lam(Var(f"race{i}"), Implies(Atom(f"race{i}"), p), VarRef(Var(f"race{i}")))
                   for i in range(2_000))

    results = [[] for _ in range(8)]
    threads = [threading.Thread(target=build, args=(out,)) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for out in results:
        assert len(out) == 2_000 and all(a is b for a, b in zip(out, results[0]))


def test_free_vars_respects_binders():
    assert free_vars(VarRef(x)) == {x}
    assert free_vars(Lam(x, p, App(VarRef(x), VarRef(y)))) == {y}
    assert free_vars(Lam(x, p, VarRef(x))) == frozenset()


def test_free_vars_case_binders_are_local():
    t = Case(VarRef(z), x, p, VarRef(x), y, q, VarRef(x))
    assert free_vars(t) == {z, x}


def test_fresh_var_appends_primes():
    assert fresh_var(x, frozenset()) == x
    assert fresh_var(x, {x}) == Var("x'")
    assert fresh_var(x, {x, Var("x'")}) == Var("x''")


def test_substitute_replaces_free_occurrences():
    t = App(VarRef(x), Lam(x, p, VarRef(x)))
    out = substitute(t, x, VarRef(y))
    assert out == App(VarRef(y), Lam(x, p, VarRef(x)))


def test_substitute_avoids_capture():
    t = Lam(y, p, VarRef(x))
    out = substitute(t, x, VarRef(y))
    assert isinstance(out, Lam)
    assert out.bound != y
    assert out.body == VarRef(y)
    assert alpha_equal(out, Lam(z, p, VarRef(y)))


def test_substitute_avoids_capture_in_case_branches():
    t = Case(VarRef(z), y, p, Pair(VarRef(y), VarRef(x)), Var("w"), q, VarRef(x))
    out = substitute(t, x, VarRef(y))
    assert alpha_equal(
        out,
        Case(VarRef(z), Var("v"), p, Pair(VarRef(Var("v")), VarRef(y)), Var("w"), q, VarRef(y)),
    )


def test_substitute_many_is_simultaneous():
    t = Pair(VarRef(x), VarRef(y))
    out = substitute_many(t, {x: VarRef(y), y: VarRef(x)})
    assert out == Pair(VarRef(y), VarRef(x))


def test_alpha_equal_ignores_bound_names_only():
    assert alpha_equal(Lam(x, p, VarRef(x)), Lam(y, p, VarRef(y)))
    assert not alpha_equal(Lam(x, p, VarRef(x)), Lam(y, q, VarRef(y)))
    assert not alpha_equal(VarRef(x), VarRef(y))
    assert not alpha_equal(Lam(x, p, VarRef(z)), Lam(y, p, VarRef(y)))


def test_alpha_key_agrees_with_canonical_forms():
    # canonicalize renames binders by a separate walk, so two terms are
    # alpha-equal exactly when their canonical forms are equal. The
    # pairs include shadowing and a free variable named like a binder.
    f = Var("f")
    pairs = [
        (Lam(x, p, VarRef(x)), Lam(y, p, VarRef(y)), True),
        (Lam(x, p, VarRef(x)), Lam(x, q, VarRef(x)), False),
        (Pair(VarRef(x), VarRef(y)), Pair(VarRef(x), VarRef(x)), False),
        (App(Lam(x, p, VarRef(x)), VarRef(x)), App(Lam(y, p, VarRef(y)), VarRef(x)), True),
        (App(Lam(x, p, VarRef(x)), VarRef(x)), App(Lam(y, p, VarRef(y)), VarRef(y)), False),
        (Lam(x, p, Lam(x, q, VarRef(x))), Lam(x, p, Lam(y, q, VarRef(y))), True),
        (Lam(x, p, Lam(x, q, VarRef(x))), Lam(y, p, Lam(x, q, VarRef(y))), False),
        (Lam(x, p, VarRef(y)), Lam(y, p, VarRef(y)), False),
        # The outer x is bound again once the inner binder's subterm ends.
        (
            Lam(x, p, Pair(Lam(x, q, VarRef(x)), VarRef(x))),
            Lam(y, p, Pair(Lam(z, q, VarRef(z)), VarRef(y))),
            True,
        ),
        (
            Lam(x, p, Pair(Lam(x, q, VarRef(x)), VarRef(x))),
            Lam(y, p, Pair(Lam(y, q, VarRef(y)), VarRef(z))),
            False,
        ),
        (
            Case(VarRef(f), x, p, VarRef(x), y, q, VarRef(x)),
            Case(VarRef(f), y, p, VarRef(y), z, q, VarRef(x)),
            True,
        ),
        (
            Case(VarRef(f), x, p, VarRef(x), y, q, VarRef(x)),
            Case(VarRef(f), y, p, VarRef(y), x, q, VarRef(x)),
            False,
        ),
    ]
    for t1, t2, same in pairs:
        assert (canonicalize(t1) == canonicalize(t2)) == same, (t1, t2)
        assert (alpha_key(t1) == alpha_key(t2)) == same, (t1, t2)
        assert alpha_equal(t1, t2) == same, (t1, t2)


def test_binder_walks_keep_one_environment():
    # Copying the environment at each binder made these walks quadratic
    # in memory: 77-154 MiB at peak on this chain of 2,000 binders. The
    # finite model's compile walk peaked at 77 MiB; its value needs 2^2000
    # steps, so the budget runs out once the whole chain is compiled.
    n = 2_000
    chains = []
    for name in "vw":
        t = VarRef(Var(f"{name}0"))
        for i in reversed(range(n)):
            t = Lam(Var(f"{name}{i}"), p, t)
        chains.append(t)
    walks = {
        "alpha_key": lambda: isinstance(alpha_key(chains[0]), tuple),
        "alpha_equal": lambda: alpha_equal(*chains),
        "canonicalize": lambda: canonicalize(chains[0]) is not chains[0],
        "model": lambda: pytest.raises(OutsideModelBounds, FiniteModel().value, chains[0], {}),
    }
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 3 * n))
    try:
        for name, walk in walks.items():
            tracemalloc.start()
            try:
                ok = walk()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert ok, name
            assert peak <= 8 * 2**20, (name, peak)
    finally:
        sys.setrecursionlimit(limit)


def test_the_traversal_table_lists_exactly_the_term_fields():
    assert set(SUBTERMS) == set(get_args(Term))
    for cls, subterms in SUBTERMS.items():
        hints = get_type_hints(cls)
        names = [f.name for f in fields(cls)]
        assert [name for name, _ in subterms] == [n for n in names if hints[n] == Term], cls
        binders = [binder for _, binder in subterms if binder is not None]
        if cls is not VarRef:
            assert binders == [n for n in names if hints[n] is Var], cls


def test_canonicalize_renames_in_traversal_order():
    t = Lam(y, p, Lam(z, q, Pair(VarRef(y), VarRef(z))))
    expect = Lam(Var("x1"), p, Lam(Var("x2"), q, Pair(VarRef(Var("x1")), VarRef(Var("x2")))))
    assert canonicalize(t) == expect


def test_canonicalize_skips_free_names():
    t = Lam(y, p, Pair(VarRef(y), VarRef(Var("x1"))))
    out = canonicalize(t)
    assert out == Lam(Var("x2"), p, Pair(VarRef(Var("x2")), VarRef(Var("x1"))))
    assert alpha_equal(out, t)


def test_term_size_counts_constructors():
    assert term_size(VarRef(x)) == 1
    assert term_size(Lam(x, p, VarRef(x))) == 2
    assert term_size(Case(VarRef(z), x, p, VarRef(x), y, q, VarRef(y))) == 4


def test_type_of_core_rules():
    ctx = Context({x: p, y: Implies(p, q)})
    assert type_of(ctx, VarRef(x)) == p
    assert type_of(ctx, App(VarRef(y), VarRef(x))) == q
    assert type_of(ctx, Lam(z, r, VarRef(x))) == Implies(r, p)
    assert type_of(ctx, Pair(VarRef(x), VarRef(x))) == And(p, p)
    assert type_of(ctx, Inl(VarRef(x), q)) == Or(p, q)
    assert type_of(ctx, Inr(VarRef(x), q)) == Or(q, p)


def test_type_of_projections_and_case():
    ctx = Context({x: And(p, q), z: Or(p, q)})
    assert type_of(ctx, Fst(VarRef(x))) == p
    assert type_of(ctx, Snd(VarRef(x))) == q
    t = Case(VarRef(z), Var("a"), p, VarRef(Var("a")), Var("b"), q, VarRef(x))
    with pytest.raises(TypeMismatch):
        type_of(ctx, t)
    ok = Case(VarRef(z), Var("a"), p, Inl(VarRef(Var("a")), q), Var("b"), q, VarRef(z))
    assert type_of(ctx, ok) == Or(p, q)


def test_type_of_rejects_ill_typed_terms():
    ctx = Context({x: p})
    with pytest.raises(UnboundVariable):
        type_of(ctx, VarRef(y))
    with pytest.raises(TypeMismatch):
        type_of(ctx, App(VarRef(x), VarRef(x)))
    with pytest.raises(TypeMismatch):
        type_of(ctx, Fst(VarRef(x)))
    with pytest.raises(TypeMismatch, match="^snd of a term of type"):
        type_of(ctx, Snd(VarRef(x)))
    with pytest.raises(TypeMismatch):
        type_of(ctx, Case(VarRef(x), y, p, VarRef(y), z, q, VarRef(z)))
    assert type_of(Context({x: And(p, q)}), App(Lam(y, p, VarRef(y)), Fst(VarRef(x)))) == p
    with pytest.raises(TypeMismatch):
        type_of(Context({x: And(p, q)}), App(Lam(y, q, VarRef(y)), Fst(VarRef(x))))


def test_type_of_abort_needs_absurd():
    from proofmean.core import Abort

    assert type_of(Context({x: Absurd()}), Abort(VarRef(x), r)) == r
    with pytest.raises(TypeMismatch):
        type_of(Context({x: p}), Abort(VarRef(x), r))


def test_context_is_immutable():
    ctx = Context({x: p})
    ext = ctx.extend(y, q)
    assert y not in ctx
    assert ext.get(y) == q
    assert ctx.without(x).vars() == frozenset()
    assert x in ctx
    assert ctx == Context({x: p})
    assert ctx != ext


def test_context_items_sorted_by_name():
    ctx = Context({z: r, x: p, y: q})
    assert [v.name for v, _ in ctx.items()] == ["x", "y", "z"]


# Each `raise TypeError("not a ...")` after an exhaustive match, reached
# by a library call with an argument of the wrong kind.
WRONG_ARGUMENTS = {
    "type_of": (lambda: type_of(Context(), p), "not a term"),
    "conclusion": (lambda: conclusion(p), "not a judgment or sequent"),
    "check_nd": (lambda: check_nd(parse_file("(rf x p)").derivation), "not a derivation node"),
    "check_sc": (lambda: check_sc(parse_file("(hyp x p)").derivation), "not a derivation node"),
    "elements": (lambda: FiniteModel().elements(x), "not a formula"),
    "equivalent": (lambda: equivalent(VarRef(x), VarRef(x), "beta"), "not an equality mode"),
    "render_formula": (lambda: render_formula(x), "not a formula"),
}


@pytest.mark.parametrize("call", WRONG_ARGUMENTS)
def test_a_wrong_kind_of_argument_raises_type_error(call):
    run, message = WRONG_ARGUMENTS[call]
    with pytest.raises(TypeError, match=f"^{message}: "):
        run()


# Each walk that reads variables' bindings, on a free variable it has no
# binding for: UnboundVariable, a ProofmeanError, never a KeyError.
UNBOUND_VARIABLES = {
    "type_of": lambda: type_of(Context(), parse_term(r"\y:p. x")),
    "value": lambda: FiniteModel().value(parse_term(r"\y:p. x"), {}),
}


@pytest.mark.parametrize("call", UNBOUND_VARIABLES)
def test_a_free_variable_without_a_binding_raises_unbound_variable(call):
    with pytest.raises(UnboundVariable, match="^unbound variable x$"):
        UNBOUND_VARIABLES[call]()


@pytest.mark.parametrize(
    "checker, derivation", [(nd._NdChecker, nd.NdDerivation), (sc._ScChecker, sc.ScDerivation)]
)
def test_each_rule_class_has_exactly_one_checker_step(checker, derivation):
    # A rule class without a step would be "not a derivation node".
    assert set(checker.steps) == set(get_args(derivation))


@pytest.mark.parametrize(
    "check, leaf, wrap",
    [
        (check_nd, nd.Hyp(x, p), lambda d: nd.OrI1(q, d)),
        (check_sc, sc.Rf(x, p), lambda d: sc.OrR1(q, d)),
    ],
)
def test_a_checker_run_takes_one_frame_per_level(check, leaf, wrap):
    # As deep as the recursion limit leaves room for, as parsing goes: a
    # run that took two frames per level would stop halfway.
    room = sys.getrecursionlimit() - len(inspect.stack(0)) - 30
    d = leaf
    for _ in range(room):
        d = wrap(d)
    assert check(d).term is not None
