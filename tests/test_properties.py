"""Randomized laws over generated terms and derivations.

Each suite runs 500 cases (set globally in conftest). Terms stay at or
under 12 constructors before an eta redex is planted in them,
derivations at or under 10 nodes.
"""

import math
import random
from dataclasses import fields, is_dataclass
from itertools import product

from hypothesis import given, reject
from hypothesis import strategies as st

from proofmean.core import (
    Abort,
    App,
    Atom,
    Case,
    Context,
    Fst,
    Inl,
    Inr,
    Lam,
    Pair,
    Snd,
    Var,
    VarRef,
    alpha_equal,
    alpha_key,
    canonicalize,
    free_vars,
    substitute,
    term_size,
    type_of,
)
from proofmean.meaning import same_sense, sense_of
from proofmean.nd import check_nd, node_judgments
from proofmean.nd import variable_types as nd_variable_types
from proofmean.rewrite import (
    FiniteModel,
    OutsideModelBounds,
    beta_step,
    beta_steps,
    eta_step,
    eta_steps,
    gamma_steps,
    normalize,
)
from proofmean.sc import check_sc, end_term_sc, node_sequents
from proofmean.sc import variable_types as sc_variable_types
from proofmean.syntax import parse_term
from gamma_examples import (
    CASE_OF_TUPLE_TERM,
    FST_CASE_TERM,
    SND_CASE_TERM,
    TUPLE_OF_CASES_TERM,
)
from strategies import (
    MAX_DERIVATION_NODES,
    MAX_TERM_CONSTRUCTORS,
    eta_planted_terms,
    fresh_renaming,
    nd_derivations,
    rename_nd,
    rename_sc,
    sc_derivations,
    typed_terms,
)


@st.composite
def substitution_cases(draw):
    ctx, t, a = draw(typed_terms())
    if ctx:
        v = draw(st.sampled_from(sorted(ctx, key=lambda u: u.name)))
        b = ctx[v]
    else:
        v = Var("w0")
        b = a
        ctx = {v: b}
    ctx2, s, _ = draw(typed_terms(max_size=6, target=b, prefix="s"))
    return ctx, t, a, v, s, ctx2


# ---------- Subject reduction ----------


@given(typed_terms())
def test_beta_steps_preserve_the_type(case):
    ctx, t, a = case
    assert term_size(t) <= MAX_TERM_CONSTRUCTORS
    context = Context(ctx)
    assert type_of(context, t) == a
    for u in beta_steps(t):
        assert type_of(context, u) == a


@given(typed_terms(), eta_planted_terms())
def test_eta_steps_preserve_the_type(case, planted):
    for ctx, t, a in (case, planted):
        context = Context(ctx)
        for u in eta_steps(t):
            assert type_of(context, u) == a


@given(typed_terms())
def test_gamma_steps_preserve_the_type(case):
    ctx, t, a = case
    context = Context(ctx)
    for u in gamma_steps(t):
        assert type_of(context, u) == a


# ---------- Beta confluence ----------


def beta_normal_forms(t, memo):
    # Reduction of a typed term terminates, so the graph is a finite
    # DAG up to alpha and plain recursion with a result cache suffices.
    key = alpha_key(t)
    cached = memo.get(key)
    if cached is not None:
        return cached
    successors = beta_steps(t)
    if not successors:
        out = frozenset((key,))
    else:
        out = frozenset().union(*(beta_normal_forms(s, memo) for s in successors))
    memo[key] = out
    return out


@given(typed_terms())
def test_beta_reduction_is_confluent(case):
    _, t, _ = case
    assert len(beta_normal_forms(t, {})) == 1


# ---------- Normalization ----------


@given(typed_terms())
def test_normalize_is_idempotent_and_reaches_a_normal_form(case):
    ctx, t, a = case
    n = normalize(t)
    assert beta_step(n) is None
    assert eta_step(n) is None
    assert normalize(n) == n
    assert type_of(Context(ctx), n) == a


@given(typed_terms(), eta_planted_terms())
def test_normalize_is_invariant_under_single_beta_eta_steps(case, planted):
    # Beta-eta equality compares normal forms and nothing else, so no
    # single step may change the normal form.
    for _, term, _ in (case, planted):
        n = normalize(term)
        for u in beta_steps(term) + eta_steps(term):
            assert alpha_equal(normalize(u), n)


# ---------- The finite model ----------


def environments(ctx, limit=64):
    """Assignments of model values to the variables of ctx: all of them,
    or `limit` drawn with a fixed seed when there are more."""
    names = sorted(ctx, key=lambda v: v.name)
    domains = [FiniteModel().elements(ctx[v]) for v in names]
    if math.prod(len(d) for d in domains) <= limit:
        return [dict(zip(names, values)) for values in product(*domains)]
    rng = random.Random(0)
    return [{v: rng.choice(d) for v, d in zip(names, domains)} for _ in range(limit)]


def assert_one_step_keeps_the_value(ctx, t):
    # Refuting in the model is sound only if no conversion changes a
    # value, so every single step and the normal form must keep it.
    for env in environments(ctx):
        value = FiniteModel().value(t, env)
        for u in [normalize(t), *beta_steps(t), *eta_steps(t), *gamma_steps(t)]:
            assert FiniteModel().value(u, env) == value


def inhabited_in_the_model(case) -> bool:
    """Whether every variable of the draw's context has a model value.
    A variable at a type the model leaves empty, such as _|_ or p -> _|_,
    leaves no environment to evaluate in."""
    try:
        return all(FiniteModel().elements(a) for a in case[0].values())
    except OutsideModelBounds:
        return False


@given(
    typed_terms().filter(inhabited_in_the_model),
    eta_planted_terms().filter(inhabited_in_the_model),
)
def test_conversions_keep_the_value_in_the_finite_model(case, planted):
    for ctx, t, _ in (case, planted):
        try:
            assert_one_step_keeps_the_value(ctx, t)
        except OutsideModelBounds:
            reject()


def test_gamma_steps_on_nested_cases_keep_the_value_in_the_finite_model(load_corpus):
    # Generated terms rarely hold a gamma redex; these closed normal
    # forms hold several. Two layers of successors reach the pair splits
    # and the projections pulled into both branches, and the last two
    # terms the lambda splits and the application and injection pull-ins.
    def nf(name):
        return normalize(end_term_sc(load_corpus(name).derivation))

    starts = [
        nf("sc_dist_1.sc"),
        nf("sc_dist_3.sc"),
        parse_term(CASE_OF_TUPLE_TERM),
        parse_term(TUPLE_OF_CASES_TERM),
        parse_term(FST_CASE_TERM),
        parse_term(SND_CASE_TERM),
        parse_term(r"\u:(p\/p). case u { x:p. \z:p. x | y:p. \z:p. z }"),
        parse_term(
            r"\w:r. \u:((r->q)\/(r->q))."
            r" case u { x:(r->q). \z:r. inl[r] app(x, w) | y:(r->q). \z:r. inl[r] app(y, w) }"
        ),
    ]
    for t in starts:
        first = gamma_steps(t)
        assert first
        for u in [t, *first, *(g for s in first for g in gamma_steps(s))]:
            assert_one_step_keeps_the_value({}, u)


# ---------- Cached facts ----------

TERMS = (VarRef, Lam, App, Pair, Fst, Snd, Inl, Inr, Case, Abort)


def term_nodes(t):
    """Every subterm of t, t included."""
    stack = [t]
    while stack:
        u = stack.pop()
        yield u
        stack.extend(k for f in fields(u) if isinstance(k := getattr(u, f.name), TERMS))


def rebuilt(x):
    """A separately built copy of a term or formula, sharing no node with it."""
    if is_dataclass(x):
        return type(x)(*(rebuilt(getattr(x, f.name)) for f in fields(x)))
    return x


def is_normal(t):
    return beta_step(t) is None and eta_step(t) is None


@given(typed_terms(), eta_planted_terms())
def test_normalize_returns_its_input_exactly_when_it_is_normal(case, planted):
    # normalize answers from a flag kept on each node. The flag must agree
    # with the step functions on the term (twice, the second time from the
    # cache), on each subterm once an ancestor has been walked, and on the
    # gamma successors of the normal form, which reuse its checked parts.
    for _, t, _ in (case, planted):
        expected = is_normal(t)
        assert (normalize(t) is t) == expected
        assert (normalize(t) is t) == expected
        for u in term_nodes(t):
            assert (normalize(u) is u) == is_normal(u)
        for g in gamma_steps(normalize(t)):
            assert (normalize(g) is g) == is_normal(g)


def test_normality_is_decided_afresh_when_gamma_makes_a_beta_redex():
    # Pushing the application into the branches puts the normal form's
    # own, already-checked lambdas under new applications.
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    w, a, x, y, z = (Var(name) for name in ("w", "a", "x", "y", "z"))
    ident = Lam(z, q, VarRef(z))
    n = App(Case(VarRef(w), x, p, ident, y, r, ident), VarRef(a))
    assert normalize(n) is n
    pushed = Case(VarRef(w), x, p, App(ident, VarRef(a)), y, r, App(ident, VarRef(a)))
    steps = gamma_steps(n)
    g = steps[steps.index(pushed)]
    assert g.left_branch.fun is ident
    assert beta_step(g) is not None
    assert normalize(g) == Case(VarRef(w), x, p, VarRef(a), y, r, VarRef(a))


@given(typed_terms(), eta_planted_terms())
def test_hash_is_kept_and_agrees_with_a_separately_built_equal_term(case, planted):
    for _, t, a in (case, planted):
        copy = rebuilt(t)
        before = hash(t)
        seen = {t, a, normalize(t), *gamma_steps(t)}
        assert hash(t) == before == hash(copy)
        assert copy in seen and rebuilt(a) in seen
        assert copy == t and repr(copy) == repr(t)
        for u in term_nodes(t):
            assert hash(u) == hash(rebuilt(u))


# ---------- Substitution ----------


@given(substitution_cases())
def test_substitution_preserves_the_type(case):
    ctx, t, a, v, s, ctx2 = case
    merged = Context({**ctx, **ctx2})
    out = substitute(t, v, s)
    assert type_of(merged, out) == a
    assert free_vars(out) <= (free_vars(t) - {v}) | free_vars(s)


# ---------- Alpha handling ----------


@given(typed_terms(), typed_terms())
def test_alpha_key_coincides_with_alpha_equality(case1, case2):
    _, t1, _ = case1
    _, t2, _ = case2
    assert (alpha_key(t1) == alpha_key(t2)) == alpha_equal(t1, t2)
    c = canonicalize(t1)
    assert alpha_equal(c, t1)
    assert alpha_key(c) == alpha_key(t1)
    assert canonicalize(c) == c


# ---------- Checker soundness ----------


@given(nd_derivations())
def test_nd_judgments_type_check(d):
    recorded = node_judgments(d)
    assert 1 <= len(recorded) <= MAX_DERIVATION_NODES
    for _, j in recorded:
        assert type_of(j.open, j.term) == j.formula
        assert free_vars(j.term) <= j.open.vars()


@given(sc_derivations())
def test_sc_sequents_type_check(d):
    recorded = node_sequents(d)
    assert 1 <= len(recorded) <= MAX_DERIVATION_NODES
    for _, s in recorded:
        assert type_of(s.antecedent, s.term) == s.succedent
        assert free_vars(s.term) <= s.antecedent.vars()


# ---------- Renaming invariance of sense ----------


@given(nd_derivations())
def test_nd_sense_is_stable_under_renaming(d):
    check_nd(d)
    rho = fresh_renaming(nd_variable_types(d))
    renamed = rename_nd(d, rho)
    check_nd(renamed)
    assert same_sense(d, renamed)
    assert same_sense(d, renamed, multiset=True)
    assert len(sense_of(d)) == len(sense_of(renamed))


@given(sc_derivations())
def test_sc_sense_is_stable_under_renaming(d):
    check_sc(d)
    rho = fresh_renaming(sc_variable_types(d))
    renamed = rename_sc(d, rho)
    check_sc(renamed)
    assert same_sense(d, renamed)
    assert same_sense(d, renamed, multiset=True)
