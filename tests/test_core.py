from dataclasses import fields
from typing import get_args, get_type_hints

import pytest

from proofmean.core import (
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
    SUBTERMS,
    Snd,
    Term,
    TypeMismatch,
    UnboundVariable,
    Var,
    VarRef,
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

p, q, r = Atom("p"), Atom("q"), Atom("r")
x, y, z = Var("x"), Var("y"), Var("z")


def test_formulas_are_values():
    assert Implies(p, q) == Implies(Atom("p"), Atom("q"))
    assert And(p, q) != And(q, p)
    assert len({Or(p, q), Or(p, q), Absurd(), Absurd()}) == 2


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
