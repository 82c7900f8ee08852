"""Randomized laws over generated terms and derivations.

Each suite runs 500 cases (set globally in conftest). Terms stay at or
under 12 constructors before an eta redex is planted in them,
derivations at or under 10 nodes.
"""

import math
import random
from collections import Counter
from dataclasses import FrozenInstanceError, field, fields, is_dataclass, make_dataclass
from functools import cache
from itertools import product

import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

import nbe
from proofmean import meaning, rewrite
from proofmean.core import (
    LABELS,
    SUBTERMS,
    Abort,
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
    ProofmeanError,
    Record,
    Snd,
    Var,
    VarRef,
    _Interned,
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
from proofmean.nd import check_nd, node_judgments, preorder
from proofmean.nd import variable_types as nd_variable_types
from proofmean.rewrite import (
    BetaEtaGamma,
    FiniteModel,
    OutsideModelBounds,
    gamma_steps,
    normalize,
)
from proofmean.sc import Sequent, check_sc, cut_nodes, end_term_sc, node_sequents
from proofmean.sc import variable_types as sc_variable_types
from proofmean.syntax import (
    ParseError,
    SourceFile,
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
    name_collapsed_terms,
    nd_derivations,
    pair_split_terms,
    rename_nd,
    rename_sc,
    sc_derivations,
    sum_free_pairs,
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


def single_steps(t, contract):
    """Every term one contraction by `contract` away from t, at any
    position: normalize's own redex contraction, applied where it fires."""
    r = contract(t)
    out = [] if r is None else [r]
    for name, _ in SUBTERMS[type(t)]:
        out += [rebuild(t, {name: u}) for u in single_steps(getattr(t, name), contract)]
    return out


@given(typed_terms())
def test_beta_steps_preserve_the_type(case):
    ctx, t, a = case
    assert term_size(t) <= MAX_TERM_CONSTRUCTORS
    context = Context(ctx)
    assert type_of(context, t) == a
    for u in single_steps(t, rewrite._beta_contract):
        assert type_of(context, u) == a


@given(typed_terms(), eta_planted_terms())
def test_eta_steps_preserve_the_type(case, planted):
    for ctx, t, a in (case, planted):
        context = Context(ctx)
        for u in single_steps(t, rewrite._eta_contract):
            assert type_of(context, u) == a


@given(typed_terms(), eta_planted_terms())
def test_gamma_steps_preserve_the_type(case, planted):
    assert term_size(case[1]) <= MAX_TERM_CONSTRUCTORS
    for ctx, t, a in (case, planted):
        context = Context(ctx)
        assert type_of(context, t) == a
        for u in gamma_steps(t):
            assert type_of(context, u) == a


# ---------- Normalization ----------


def in_context(ctx, t):
    """Every subterm of t, t included, each with its context: ctx
    extended by the binders above it."""
    yield ctx, t
    match t:
        case Lam(x, a, body):
            yield from in_context({**ctx, x: a}, body)
        case Case(r, x, a, s, y, b, u):
            yield from in_context(ctx, r)
            yield from in_context({**ctx, x: a}, s)
            yield from in_context({**ctx, y: b}, u)
        case _:
            for name, _ in SUBTERMS[type(t)]:
                yield from in_context(ctx, getattr(t, name))


def is_normal(ctx, t):
    """Whether the oracle's normal form of t is t itself."""
    return nbe.normal_key(t, ctx) == nbe.key(t)


@given(typed_terms(), eta_planted_terms())
def test_normalize_is_idempotent_and_reaches_a_normal_form(case, planted):
    for ctx, t, a in (case, planted):
        n = normalize(t)
        assert is_normal(ctx, n)
        assert normalize(n) is n
        assert type_of(Context(ctx), n) == a


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


def assert_conversions_keep_the_value(ctx, t):
    # Refuting in the model is sound only if no conversion changes a
    # value, so the normal form and every gamma step must keep it.
    converted = [normalize(t), *gamma_steps(t)]
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
    pair_split_terms().filter(inhabited_in_the_model),
)
def test_conversions_keep_the_value_in_the_finite_model(case, planted, split):
    # `split` holds a pair of cases over one scrutinee, which may merge,
    # or over two, which may not.
    for ctx, t, _ in (case, planted, split):
        try:
            assert_conversions_keep_the_value(ctx, t)
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
            assert_conversions_keep_the_value({}, u)


def closed_over(ctx, t, a):
    """t and a abstracted over every variable of ctx, sorted by name."""
    for v in sorted(ctx, key=lambda v: v.name, reverse=True):
        t, a = Lam(v, ctx[v], t), Implies(ctx[v], a)
    return t, a


def assert_refuted_exactly_when_the_values_differ(t1, t2, a):
    # The refutation spends one budget on both terms, so the full values
    # are taken in one model too; past its bounds nothing is asserted.
    model = FiniteModel()
    try:
        differ = model.value(t1, {}) != model.value(t2, {})
    except OutsideModelBounds:
        return
    assert rewrite._refuted_in_model(t1, t2, a) is differ
    assert rewrite._refuted_in_model(t1, t2) is differ
    if not differ:
        assert FiniteModel().separate(t1, t2, a) is None


@st.composite
def closed_pairs(draw):
    """Two closed terms of one formula: two draws at one type, each
    abstracted over the variables free in either."""
    ctx1, t1, a = draw(typed_terms())
    ctx2, t2, _ = draw(typed_terms(target=a, prefix="s"))
    ctx = {**ctx1, **ctx2}
    (t1, b), (t2, _) = closed_over(ctx, t1, a), closed_over(ctx, t2, a)
    return t1, t2, b


@given(closed_pairs())
def test_the_refutation_separates_exactly_the_pairs_whose_values_differ(pair):
    # Each term is also paired with its normal form, which has its value.
    t1, t2, a = pair
    n1, n2 = normalize(t1), normalize(t2)
    for u1, u2 in ((t1, t2), (n1, n2), (t1, n1), (t2, n2)):
        assert_refuted_exactly_when_the_values_differ(u1, u2, a)


def test_the_refutation_separates_exactly_the_corpus_pairs_whose_values_differ(
    corpus_dir, load_corpus
):
    closed = {}
    for path in sorted(corpus_dir.iterdir()):
        c = meaning.check(load_corpus(path.name).derivation)
        ctx, _, a = meaning.conclusion(c)
        if ctx == Context():
            closed.setdefault(a, []).append(normalize(c.term))
    assert any(len(terms) > 1 for terms in closed.values())
    for a, terms in closed.items():
        for n1, n2 in product(terms, repeat=2):
            assert_refuted_exactly_when_the_values_differ(n1, n2, a)


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


@given(typed_terms(), eta_planted_terms())
def test_normalize_returns_its_input_exactly_when_it_is_normal(case, planted):
    # normalize answers from the normal form kept on each node. It must
    # agree with the oracle on the term (twice, the second time from the
    # kept form), on each subterm once an ancestor has been walked, and on
    # the gamma successors of the normal form, which reuse its checked parts.
    for ctx, t, _ in (case, planted):
        expected = is_normal(ctx, t)
        assert (normalize(t) is t) == expected
        assert (normalize(t) is t) == expected
        for inner, u in in_context(ctx, t):
            assert (normalize(u) is u) == is_normal(inner, u)
        for g in gamma_steps(normalize(t)):
            assert (normalize(g) is g) == is_normal(ctx, g)


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
    assert not is_normal({w: Or(p, r), a: q}, g)
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


@given(sum_free_pairs())
def test_gamma_mode_gives_the_beta_eta_verdict_on_pairs_without_sums(pair):
    # The end terms may hold a detour through a sum or _|_, but no normal
    # form does, so gamma mode answers with the beta-eta verdict and
    # evidence, never inconclusive.
    d1, d2 = pair
    (ctx1, _, a1), (ctx2, _, a2) = (meaning.conclusion(meaning.check(d)) for d in pair)
    assert meaning._sum_free([a1, a2, *ctx1._bindings.values(), *ctx2._bindings.values()])
    narrow, wide = meaning.classify(d1, d2), meaning.classify(d1, d2, BetaEtaGamma())
    assert type(wide) is type(narrow) and vars(wide) == vars(narrow)
    assert meaning.same_denotation(d1, d2, BetaEtaGamma()) is meaning.same_denotation(d1, d2)
    for n in (meaning.denotation_of(d1), meaning.denotation_of(d2)):
        for u in term_nodes(n):
            assert type(u) not in (Inl, Inr, Case, Abort), render_term(n)
            labels = [getattr(u, f) for f in LABELS[type(u)] if f != "var"]
            assert not any(c in render_formula(a) for a in labels for c in ("\\/", "_|_"))


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


@given(typed_terms(), typed_terms(), name_collapsed_terms(), st.randoms(use_true_random=False))
def test_alpha_equal_agrees_with_canonical_forms_and_the_oracle_key(
    case1, case2, collapsed, rnd
):
    # Neighbouring subterms share variables, some bound above them and
    # so free in them, and a name-collapsed term binds one name again
    # where it is also free; a bound renaming of each supplies equal
    # pairs. Canonical forms and the oracle's key each decide
    # alpha-equivalence without the alpha key.
    _, t1, a1 = case1
    _, t2, a2 = case2
    nodes = [*term_nodes(t1), *term_nodes(t2)]
    nodes += term_nodes(collapsed[1]) if collapsed is not None else []
    renamed = [rename_bound(u, lambda: rnd.random() < 0.5) for u in nodes]
    neighbours = list(zip(nodes, nodes[1:]))
    pairs = [*neighbours, *zip(nodes, renamed)]
    # Alpha-equal first fields, so only a later subterm or a formula
    # tells the two apart.
    pairs += [(Pair(u, a), Pair(r, b)) for u, r, (a, b) in zip(nodes, renamed, neighbours)]
    pairs.append((Inl(t1, a1), Inl(renamed[0], a2)))
    for a, b in pairs:
        same = alpha_equal(a, b)
        assert same == (canonicalize(a) == canonicalize(b))
        assert same == (nbe.key(a) == nbe.key(b))


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


@given(sc_derivations())
def test_sense_counts_follow_the_list_of_every_occurrence(d):
    # The reference lists every occurrence, each node's term and then its
    # whole antecedent sorted by name, and counts the list. The counts
    # must agree in order too, because the renaming search tries the
    # terms in that order.
    root = check_sc(d)
    listed = []
    for s in (*(s for _, s in root.nodes), root):
        listed.append(s.term)
        listed.extend(VarRef(v) for v, _ in s.antecedent.items())
    assert list(meaning._occurrences(root).items()) == list(Counter(listed).items())


# ---------- Record methods ----------


@cache
def reference_class(cls):
    """cls as a frozen dataclass of the same name and fields, with the
    methods dataclasses generates for it."""
    declared = [(f.name, f.type, field(repr=f.repr, compare=f.compare)) for f in fields(cls)]
    return make_dataclass(cls.__name__, declared, frozen=True)


def reference(x):
    return reference_class(type(x))(*(getattr(x, f) for f in x.__match_args__))


def records_below(*roots):
    """Every record reachable from roots through fields, containers and
    contexts, each once."""
    seen, found, stack = set(), [], list(roots)
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, Record):
            found.append(x)
            stack += [getattr(x, f) for f in x.__match_args__]
        elif isinstance(x, (tuple, list, frozenset)):
            stack += x
        elif isinstance(x, dict):
            stack += [*x, *x.values()]
        elif isinstance(x, Context):
            stack += [part for pair in x.items() for part in pair]
    return found


def hash_or_error(x):
    try:
        return hash(x)
    except TypeError:  # a multiset sense holds a dict
        return TypeError


@given(any_derivation, any_derivation, st.integers(1, 9), st.booleans())
def test_records_behave_as_frozen_dataclasses(d, other, fuel, inconclusive):
    # Every record class, drawn from derivations and what is computed
    # from them, has the repr, == and hash of a frozen dataclass with its
    # fields, except that an interned record hashes by identity; and no
    # field can be assigned or deleted.
    root = meaning.check(d)
    calculus = "sc" if isinstance(root, Sequent) else "nd"
    denotations = (meaning.denotation_of(d), meaning.denotation_of(other))
    records = records_below(
        d, root, root.nodes, sense_of(d, multiset=True),
        meaning.classify(d, other), meaning.classify(d, d),
        meaning.SameDenotationUpToGamma(inconclusive, denotations),
        rewrite.BetaEta(), rewrite.BetaEtaGamma(fuel), SourceFile(calculus, "d", d),
        cut_nodes(d) if calculus == "sc" else (),
    )
    previous = {}
    for x in records:
        cls, ref = type(x), reference(x)
        assert repr(x) == repr(ref)
        if not issubclass(cls, _Interned):
            assert hash_or_error(x) == hash_or_error(ref)
        y = previous.setdefault(cls, x)
        assert (x == y, x != y) == (ref == reference(y), ref != reference(y))
        previous[cls] = x
        name = cls.__match_args__[0] if cls.__match_args__ else "anything"
        with pytest.raises(FrozenInstanceError):
            setattr(x, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(x, name)
