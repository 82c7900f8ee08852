"""`normalize` against the independent oracle in nbe.py: the oracle's
normal form of a term must have the key of `normalize`'s.

Plain drawn terms never need a binder renamed, so `capture_terms`
draws beta redexes that do. Nor do they hold `\\x. app(f, x)` with x
free in f, which is no eta redex, so `eta_capture_terms` draws that;
a planted term below holds one too.
"""

from itertools import combinations

from hypothesis import given

import nbe
from proofmean.core import Absurd, And, Atom, Implies, Or, Var
from proofmean.meaning import check, conclusion, denotation_of
from proofmean.rewrite import equivalent, normalize
from proofmean.syntax import parse_term, render_term
from strategies import (
    capture_terms,
    eta_capture_terms,
    eta_expand,
    eta_planted_terms,
    name_collapsed_terms,
    typed_terms,
)

p, q, r = Atom("p"), Atom("q"), Atom("r")
y, h = Var("y"), Var("h")

TWO = r"\f:(p->p). \x:p. app(f, app(f, x))"
FOUR = r"\f:(p->p). \x:p. app(f, app(f, app(f, app(f, x))))"
# Doubling applied to Church 2, which is Church 4.
TWICE_TWO = (
    r"app(\n:((p->p)->p->p). \f:(p->p). \x:p. app(app(n, f), app(app(n, f), x)), "
    + TWO
    + ")"
)


def assert_agrees(ctx, t):
    expected = nbe.normal_key(t, ctx)
    assert nbe.key(normalize(t)) == expected, render_term(t)
    return expected


@given(typed_terms(), eta_planted_terms(), capture_terms(), eta_capture_terms())
def test_normalize_agrees_with_the_oracle_on_drawn_terms(case, planted, captured, blocked):
    for ctx, t, _ in (case, planted, captured, blocked):
        assert_agrees(ctx, t)


@given(name_collapsed_terms())
def test_normalize_agrees_with_the_oracle_on_name_collapsed_terms(collapsed):
    if collapsed is not None:
        ctx, t, _ = collapsed
        assert_agrees(ctx, t)


def corpus_end_terms(corpus_dir, load_corpus):
    """Each corpus file's name, end term and the root's context."""
    paths = sorted(corpus_dir.iterdir())
    assert len(paths) == 17
    for path in paths:
        ctx, term, _ = conclusion(check(load_corpus(path.name).derivation))
        yield path.name, term, dict(ctx.items())


def test_normalize_agrees_with_the_oracle_on_the_corpus(corpus_dir, load_corpus):
    for name, term, ctx in corpus_end_terms(corpus_dir, load_corpus):
        assert nbe.key(denotation_of(load_corpus(name).derivation)) == nbe.normal_key(term, ctx)


@given(typed_terms(), typed_terms(prefix="s"))
def test_beta_eta_equality_agrees_with_the_oracle_on_drawn_pairs(case, other):
    # A term against its eta expansion, which is equal, and against an
    # unrelated term.
    ctx, t, a = case
    ctx2, u, b = other
    pairs = [(ctx, t, eta_expand(t, a))] + ([({**ctx, **ctx2}, t, u)] if a is b else [])
    for both, t1, t2 in pairs:
        same = nbe.normal_key(t1, both) == nbe.normal_key(t2, both)
        assert equivalent(t1, t2) is same


def test_beta_eta_equality_agrees_with_the_oracle_on_corpus_pairs(corpus_dir, load_corpus):
    ends = list(corpus_end_terms(corpus_dir, load_corpus))
    verdicts = set()
    for (_, t1, ctx1), (_, t2, ctx2) in combinations(ends, 2):
        same = nbe.normal_key(t1, ctx1) == nbe.normal_key(t2, ctx2)
        assert equivalent(t1, t2) is same
        verdicts.add(same)
    assert verdicts == {True, False}


def test_the_oracle_decides_the_stated_theory():
    ctx = {
        Var(n): a
        for n, a in (("z", Or(p, q)), ("v", And(p, q)), ("w", p), ("f", Implies(p, p)),
                     ("g", Implies(Or(p, q), r)), ("e", Absurd()))
    }
    inside = [
        # beta for ->, /\ and \/
        (r"app(\x:p. x, w)", "w"),
        (r"snd(<w, app(f, w)>)", "app(f, w)"),
        (r"case inr[p] w { x:p. w | y:p. app(f, y) }", "app(f, w)"),
        # eta for -> and /\, and the weak sum law
        (r"\x:p. app(f, x)", "f"),
        (r"<fst(v), snd(v)>", "v"),
        (r"case z { x:p. inl[q] x | y:q. inr[p] y }", "z"),
    ]
    outside = [
        # a commuting conversion
        (r"app(case z { x:p. f | y:q. f }, w)", r"case z { x:p. app(f, w) | y:q. app(f, w) }"),
        # full sum eta
        (r"case z { x:p. app(g, inl[q] x) | y:q. app(g, inr[p] y) }", "app(g, z)"),
        # _|_ eta: two terms of p in a context that proves _|_
        ("abort[p] e", "w"),
    ]
    for equal, rows in ((True, inside), (False, outside)):
        for left, right in rows:
            t1, t2 = parse_term(left), parse_term(right)
            assert (assert_agrees(ctx, t1) == assert_agrees(ctx, t2)) is equal, left


def test_normalize_agrees_with_the_oracle_on_planted_terms(load_corpus):
    # The argument's free y must not be captured by the inner binder.
    captured = parse_term(r"app(\x:p. \y:q. x, y)")
    assert assert_agrees({y: p}, captured) != nbe.key(parse_term(r"\y:q. y"))
    # x is free in app(h, x), so the lambda is no eta redex.
    not_eta = parse_term(r"\x:p. app(app(h, x), x)")
    assert assert_agrees({h: Implies(p, Implies(p, q))}, not_eta) == nbe.key(not_eta)

    two, four, twice_two = (assert_agrees({}, parse_term(t)) for t in (TWO, FOUR, TWICE_TWO))
    assert two != four
    assert twice_two == four

    dist = []
    for i in (1, 2, 3):
        d = load_corpus(f"sc_dist_{i}.sc").derivation
        ctx, term, _ = conclusion(check(d))
        dist.append(assert_agrees(dict(ctx.items()), term))
    # The third is a pair of cases, equal to the others' case of pairs
    # only through a commuting conversion, which this theory leaves out.
    assert dist[0] == dist[1] != dist[2]
