"""Randomized laws over generated terms and derivations.

Each suite runs 500 cases (set globally in conftest). Terms stay at or
under 12 constructors before an eta redex is planted in them,
derivations at or under 10 nodes.
"""

import math
import random
from dataclasses import fields, is_dataclass
from itertools import product

import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

from proofmean import meaning
from proofmean.core import (
    SUBTERMS,
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
    ProofmeanError,
    Snd,
    Var,
    VarRef,
    alpha_equal,
    alpha_key,
    canonicalize,
    free_vars,
    rebuild,
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
from proofmean.syntax import (
    ParseError,
    parse,
    parse_formula,
    parse_term,
    render_derivation,
    render_formula,
    render_term,
    tokenize,
)
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
    formulas,
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


def reference_normal_form(t):
    # The order normalize used before its one-pass form: leftmost-
    # outermost beta to exhaustion, then eta, while eta made progress.
    while True:
        while (r := beta_step(t)) is not None:
            t = r
        took_eta = False
        while (r := eta_step(t)) is not None:
            t = r
            took_eta = True
        if not took_eta:
            return t


def renamed_everywhere(t, names):
    # Every occurrence and binder of each variable renamed by `names`,
    # with no regard for capture.
    if type(t) is VarRef:
        return VarRef(names[t.var])
    changes = {}
    for name, binder in SUBTERMS[type(t)]:
        if binder is not None:
            changes[binder] = names[getattr(t, binder)]
        changes[name] = renamed_everywhere(getattr(t, name), names)
    return rebuild(t, changes)


def variables_of(t):
    out = set(free_vars(t))
    for u in term_nodes(t):
        for name, binder in SUBTERMS[type(u)]:
            if binder is not None:
                out.add(getattr(u, binder))
    return out


@st.composite
def name_collapsed_terms(draw):
    # A typed term whose variables, bound and free, are renamed onto two
    # or three names, which makes capture frequent; kept when it still
    # types with its free variables at their old formulas.
    ctx, t, a = draw(typed_terms())
    pool = [Var(n) for n in ("u", "v", "w")[: draw(st.integers(2, 3))]]
    names = {v: draw(st.sampled_from(pool)) for v in sorted(variables_of(t), key=lambda v: v.name)}
    collapsed = renamed_everywhere(t, names)
    new_ctx = {}
    for v, f in ctx.items():
        if new_ctx.setdefault(names[v], f) != f:
            return None
    try:
        if type_of(Context(new_ctx), collapsed) != a:
            return None
    except ProofmeanError:
        return None
    return collapsed


@given(typed_terms(), eta_planted_terms(), name_collapsed_terms())
def test_one_pass_normalize_agrees_with_the_reduction_loop(case, planted, collapsed):
    # The same term, bound names included, unless the loop primed a
    # binder to dodge a variable that a later step removed (see
    # test_rewrite.py::test_normalize_keeps_a_binder_whose_capture_was_reduced_away).
    terms = [case[1], planted[1]] + ([collapsed] if collapsed is not None else [])
    for t in terms:
        n, expected = normalize(t), reference_normal_form(t)
        assert alpha_equal(n, expected)
        if not any("'" in v.name for v in variables_of(expected)):
            assert n == expected


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
    converted = [normalize(t), *beta_steps(t), *eta_steps(t), *gamma_steps(t)]
    for env in environments(ctx):
        value = FiniteModel().value(t, env)
        for u in converted:
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
    """A separately built copy of a term or formula, node by node."""
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
    # Terms are interned: a separately built copy is the term itself.
    for _, t, a in (case, planted):
        before = hash(t)
        seen = {t, a, normalize(t), *gamma_steps(t)}
        assert rebuilt(t) is t and rebuilt(a) is a
        assert hash(t) == before and t in seen and a in seen
        for u in term_nodes(t):
            assert rebuilt(u) is u


any_derivation = st.one_of(nd_derivations(), sc_derivations())


@given(any_derivation, any_derivation)
def test_a_kept_denotation_is_the_one_a_fresh_copy_computes(d, other):
    # classify and same_denotation keep each side's normal form on the
    # checker run kept on the derivation. A copy parsed back from the
    # rendering keeps nothing, so it computes the denotation afresh; the
    # kept one must agree, and the derivation must still compare, hash
    # and print as before.
    copies = [parse(render_derivation(e)) for e in (d, other)]
    meaning.classify(d, other)
    meaning.same_denotation(other, d)
    meaning.classify(d, d)
    meaning.same_denotation(d, d)
    for e, copy in zip((d, other), copies):
        assert meaning.denotation_of(e) == normalize(meaning.check(copy).term)
        assert e == copy and hash(e) == hash(copy) and repr(e) == repr(copy)


# ---------- Substitution ----------


@given(substitution_cases())
def test_substitution_preserves_the_type(case):
    ctx, t, a, v, s, ctx2 = case
    merged = Context({**ctx, **ctx2})
    out = substitute(t, v, s)
    assert type_of(merged, out) == a
    assert free_vars(out) <= (free_vars(t) - {v}) | free_vars(s)


# ---------- Alpha handling ----------


def rename_bound(t, pick):
    """t with each binder that pick() selects renamed to a name used
    nowhere else; written by constructor, apart from the traversal
    table the library walks use."""
    fresh = iter(range(1_000_000))

    def bind(x, ren):
        x2 = Var(f"{x.name}~{next(fresh)}") if pick() else x
        return x2, {**ren, x: x2}

    def go(t, ren):
        match t:
            case VarRef(v):
                return VarRef(ren.get(v, v))
            case Lam(x, a, body):
                x2, inner = bind(x, ren)
                return Lam(x2, a, go(body, inner))
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
                x2, left = bind(x, ren)
                y2, right = bind(y, ren)
                return Case(go(r, ren), x2, a, go(s, left), y2, b, go(u, right))
        raise TypeError(f"not a term: {t!r}")

    return go(t, {})


@given(typed_terms(), typed_terms(), st.randoms(use_true_random=False))
def test_alpha_key_agrees_with_canonical_forms_and_bound_renaming(case1, case2, rnd):
    # Two drawn terms are rarely alpha-equal, so a renamed copy of the
    # first supplies the equal cases.
    _, t1, _ = case1
    _, t2, _ = case2
    assert (alpha_key(t1) == alpha_key(t2)) == (canonicalize(t1) == canonicalize(t2))
    renamed = rename_bound(t1, lambda: rnd.random() < 0.5)
    assert alpha_key(renamed) == alpha_key(t1)
    assert alpha_equal(renamed, t1)
    assert canonicalize(renamed) == canonicalize(t1)
    c = canonicalize(t1)
    assert alpha_key(c) == alpha_key(t1)
    assert canonicalize(c) == c


@given(typed_terms(), typed_terms(), st.randoms(use_true_random=False))
def test_alpha_equal_answers_as_the_alpha_keys_do(case1, case2, rnd):
    # Neighbouring subterms share variables, some bound above them and
    # so free in them; a bound renaming of each supplies equal pairs.
    _, t1, a1 = case1
    _, t2, a2 = case2
    nodes = [*term_nodes(t1), *term_nodes(t2)]
    renamed = [rename_bound(u, lambda: rnd.random() < 0.5) for u in nodes]
    neighbours = list(zip(nodes, nodes[1:]))
    pairs = [*neighbours, *zip(nodes, renamed)]
    # Alpha-equal first fields, so only a later subterm or a formula
    # tells the two apart.
    pairs += [(Pair(u, a), Pair(r, b)) for u, r, (a, b) in zip(nodes, renamed, neighbours)]
    pairs.append((Inl(t1, a1), Inl(renamed[0], a2)))
    for a, b in pairs:
        assert alpha_equal(a, b) == (alpha_key(a) == alpha_key(b))


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


# ---------- Parsing ----------


@given(nd_derivations())
def test_nd_derivations_parse_back_from_their_rendering(d):
    assert parse(render_derivation(d)) == d


@given(sc_derivations())
def test_sc_derivations_parse_back_from_their_rendering(d):
    assert parse(render_derivation(d)) == d


@given(typed_terms())
def test_terms_parse_back_from_their_rendering(case):
    _, t, _ = case
    assert parse_term(render_term(t)) == t


@given(formulas(max_depth=6))
def test_formulas_parse_back_from_their_rendering(f):
    assert parse_formula(render_formula(f)) == f


# Blanks and comments, each ending its line, to put between tokens.
noise = st.sampled_from([" ", "\n", "\t", "\r\n", "  \n\t", ";\n", "; (hyp x p) ²\n", " ;; ) :\n "])


def noisy(data, words):
    """words with noise before, between and after them."""
    gaps = data.draw(st.lists(noise, min_size=len(words) + 1, max_size=len(words) + 1))
    return "".join(gap + word for gap, word in zip(gaps, [*words, ""]))


def token_texts(d):
    return [tok.text for tok in tokenize(render_derivation(d))][:-1]


@given(any_derivation, st.data())
def test_blanks_and_comments_between_tokens_change_nothing(d, data):
    assert parse(noisy(data, token_texts(d))) == d


@given(any_derivation, st.data())
def test_a_stray_character_is_reported_where_it_stands(d, data):
    words = token_texts(d)
    k = data.draw(st.integers(0, len(words) - 1))
    text = noisy(data, [*words[:k], "@", *words[k + 1 :]])
    pos = text.index("@")
    line, col = text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
    with pytest.raises(ParseError) as caught:
        parse(text)
    assert str(caught.value) == f"{line}:{col}: unexpected character '@'"


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


@given(nd_derivations(), nd_derivations(), st.randoms(use_true_random=False))
def test_nd_end_term_match_agrees_with_the_sense_search(d, other, rnd):
    # The match on end terms and the search over the sense elements must
    # give the same renaming or both None: against a renamed copy, an
    # unrelated derivation, and a copy with same-formula variables merged.
    c = check_nd(d)
    by_formula = {}
    for v, f in sorted(c.types.items(), key=lambda vf: vf[0].name):
        by_formula.setdefault(f, []).append(v)
    merged = {v: rnd.choice(by_formula[f]) for v, f in c.types.items()}
    for d2 in (rename_nd(d, fresh_renaming(c.types)), other, rename_nd(d, merged)):
        try:
            c2 = check_nd(d2)
        except ProofmeanError:
            continue
        occurrences = meaning._occurrences(c), meaning._occurrences(c2)
        for multiset in (False, True):
            rho = meaning._Bijection(c.types, c2.types)
            searched = meaning._search(*occurrences, rho, multiset)
            assert meaning.sense_renaming(d, d2, multiset) == searched


@given(sc_derivations())
def test_sc_sense_is_stable_under_renaming(d):
    check_sc(d)
    rho = fresh_renaming(sc_variable_types(d))
    renamed = rename_sc(d, rho)
    check_sc(renamed)
    assert same_sense(d, renamed)
    assert same_sense(d, renamed, multiset=True)
