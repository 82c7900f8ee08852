import re
import sys
from dataclasses import fields
from typing import get_args, get_type_hints

import pytest

from proofmean import nd, sc
from proofmean.core import (
    SUBTERMS,
    Abort,
    Absurd,
    And,
    App,
    Atom,
    Case,
    Formula,
    Fst,
    Implies,
    Inl,
    Inr,
    Lam,
    Or,
    Pair,
    Var,
    VarRef,
)
from proofmean.nd import AndI, Hyp, ImpI
from proofmean.sc import Contract, ImpR, Rf, Weaken
from proofmean.syntax import (
    _RULES,
    _TERM_PARTS,
    _TERM_SYNTAX,
    RESERVED,
    DanglingDischargeLabel,
    _field_kind,
    ParseError,
    UnknownRule,
    parse,
    parse_file,
    parse_formula,
    parse_term,
    render_derivation,
    render_file,
    render_formula,
    render_term,
    tokenize,
)

p, q, r = Atom("p"), Atom("q"), Atom("r")
x, y, z = Var("x"), Var("y"), Var("z")


# ---------- Lexing ----------


def test_arrow_is_not_part_of_an_identifier():
    kinds = [(t.kind, t.text) for t in tokenize("p->q")]
    assert kinds[:3] == [("ident", "p"), ("->", "->"), ("ident", "q")]


def test_hyphen_inside_an_identifier():
    assert parse_formula("imp-i") == Atom("imp-i")
    assert parse_formula("x-y'2") == Atom("x-y'2")


def test_comments_run_to_end_of_line():
    assert parse_formula("; a remark\np ; trailing\n") == p


def _first_identifier(text):
    try:
        tok = tokenize(text)[0]
    except ParseError:
        return None
    return tok.text if tok.kind == "ident" else None


def test_identifier_characters_follow_the_str_predicates():
    # An identifier starts with a character that passes isalpha() and
    # goes on with ones that pass isalnum(), _ and ', a hyphen only
    # before one that passes isalnum(). Checked on ASCII and on every
    # code point where isalpha(), isalnum() and the regular expression
    # class \w do not all agree.
    word = re.compile(r"\w")
    chars = [chr(i) for i in range(128)] + [
        c
        for c in map(chr, range(128, sys.maxunicode + 1))
        if not c.isalpha() == c.isalnum() == bool(word.match(c))
    ]
    assert "²" in chars and "_" in chars
    for c in chars:
        assert (_first_identifier(c) == c) == c.isalpha(), repr(c)
        continues = c.isalnum() or c in "_'"
        assert (_first_identifier("x" + c) == "x" + c) == continues, repr(c)
        assert (_first_identifier("x-" + c) == "x-" + c) == c.isalnum(), repr(c)


# ---------- Formulas ----------


def test_connective_precedence():
    assert parse_formula(r"p/\q\/r") == Or(And(p, q), r)
    assert parse_formula(r"p\/q/\r") == Or(p, And(q, r))
    assert parse_formula(r"p -> q -> r") == Implies(p, Implies(q, r))
    assert parse_formula(r"p/\q -> r") == Implies(And(p, q), r)
    assert parse_formula(r"p/\q/\r") == And(And(p, q), r)
    assert parse_formula(r"p\/q\/r") == Or(Or(p, q), r)
    assert parse_formula("_|_") == Absurd()
    assert parse_formula(r"(p -> q)/\r") == And(Implies(p, q), r)


def test_formula_rendering_parenthesizes_compound_operands():
    assert render_formula(Implies(And(p, q), r)) == r"(p/\q) -> r"
    assert render_formula(And(And(p, q), r)) == r"(p/\q)/\r"
    assert render_formula(Or(p, And(q, r))) == r"p\/(q/\r)"
    assert render_formula(Implies(p, Implies(q, r))) == "p -> (q -> r)"
    assert render_formula(Absurd()) == "_|_"


def test_formula_round_trip():
    for text in [r"p/\q\/r -> _|_", "p -> (q -> p)", r"((p\/q) -> r)/\p"]:
        f = parse_formula(text)
        assert parse_formula(render_formula(f)) == f


# ---------- Terms ----------


def test_term_syntax_shapes():
    assert parse_term(r"\x:p. x") == Lam(x, p, VarRef(x))
    assert parse_term(r"\x:(p -> q). app(x, y)") == Lam(
        x, Implies(p, q), App(VarRef(x), VarRef(y))
    )
    from proofmean.core import Abort, Snd

    assert parse_term("<fst(z), snd(z)>") == Pair(Fst(VarRef(z)), Snd(VarRef(z)))
    assert parse_term("inl[q] x") == Inl(VarRef(x), q)
    assert parse_term("abort[p] x") == Abort(VarRef(x), p)
    got = parse_term(r"case z { x:p. inl[q] x | y:q. inr[p] y }")
    assert isinstance(got, Case)
    assert got.left_type == p
    assert got.right_var == y


def test_injection_argument_parses_greedily():
    t = parse_term(r"inl[q] fst(z)")
    assert t == Inl(Fst(VarRef(z)), q)
    nested = parse_term(r"inl[q] inl[r] x")
    assert nested == Inl(Inl(VarRef(x), r), q)


def test_term_rendering_is_stable():
    pinned = r"\u:((q/\r)\/p). case u { v:(q/\r). <inr[p] fst(v), inr[p] snd(v)> | x:p. <inl[q] x, inl[r] x> }"
    assert render_term(parse_term(pinned)) == pinned
    assert render_term(parse_term(r"\x:p. x")) == r"\x:p. x"
    assert render_term(parse_term("app(f, x)")) == "app(f, x)"
    assert render_term(Inl(Lam(x, p, VarRef(x)), q)) == r"inl[q] (\x:p. x)"
    # Only a lambda or a case is parenthesized as the operand of an
    # injection or abort.
    case = parse_term(r"case z { x:p. x | y:q. y }")
    assert render_term(Abort(case, q)) == r"abort[q] (case z { x:p. x | y:q. y })"
    assert render_term(Inr(Fst(VarRef(z)), p)) == "inr[p] fst(z)"


def test_lambda_annotation_parenthesized_only_when_compound():
    assert render_term(Lam(x, p, VarRef(x))) == r"\x:p. x"
    assert render_term(Lam(x, Implies(p, q), VarRef(x))) == r"\x:(p -> q). x"
    assert render_term(Lam(x, Absurd(), VarRef(x))) == r"\x:_|_. x"


def test_canonical_rendering_renames_binders():
    t = parse_term(r"\a:p. \b:q. <a, c>")
    assert render_term(t, canonical=True) == r"\x1:p. \x2:q. <x1, c>"


def test_term_round_trip():
    texts = [
        r"\x:p. \y:q. <x, y>",
        r"case app(f, x) { a:p. <a, a> | b:q. <fst(w), b> }",
        "abort[p -> q] u",
        r"inr[p/\q] <x, y>",
    ]
    for text in texts:
        t = parse_term(text)
        assert parse_term(render_term(t)) == t


def test_reserved_words_are_not_variables():
    for word in ["case", "fst", "snd", "inl", "inr", "abort", "app"]:
        with pytest.raises(ParseError):
            parse_term(f"<{word}, x>")
    with pytest.raises(ParseError):
        parse_formula("fst")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_formula("p ->")
    assert err.value.line == 1
    assert err.value.col > 1
    with pytest.raises(ParseError):
        parse_term("<x, y")
    with pytest.raises(ParseError):
        parse_term(r"\x. x")
    with pytest.raises(ParseError) as err2:
        parse_formula("p\n->")
    assert err2.value.line == 2
    for parse_one, text, message in (
        (parse_file, "(hyp x p) _", "1:11: stray '_'"),
        (parse_file, "(hyp x p) -", "1:11: stray '-', did you mean '->'?"),
        (parse_file, "(hyp x p) /", "1:11: stray '/', did you mean '/\\'?"),
        (parse_file, "(hyp x p) @", "1:11: unexpected character '@'"),
        (parse_file, "(hyp x p)\n\t ; @\n  @", "3:3: unexpected character '@'"),
        (parse_file, "(hyp ²x p)", "1:6: unexpected character '²'"),
        (parse_file, "(hyp case p)", "1:6: 'case' is reserved and cannot name a variable"),
        (parse_file, "(hyp -> p)", "1:6: expected 'ident', found '->'"),
        # A file wrapper's name, and a rule name, that is missing.
        (parse_file, "(nd (hyp x p))", "1:5: expected 'ident', found '('"),
        (parse_file, "(sc)", "1:4: expected 'ident', found ')'"),
        (
            parse_term,
            r"\x:case. x",
            "1:4: expected a type annotation (compound ones need parentheses)",
        ),
        (parse_file, "x", "1:1: expected a derivation"),
        # The column is not advanced over a comment, so the end of input
        # sits where a trailing comment starts.
        (parse_file, "(hyp x p ; no close", "1:10: expected ')', found 'end of input'"),
        (parse_file, "(hyp x p ; no close\n ", "2:2: expected ')', found 'end of input'"),
    ):
        with pytest.raises(ParseError) as caught:
            parse_one(text)
        assert str(caught.value) == message, text
    assert parse("(hyp x²'-y p)") == Hyp(Var("x²'-y"), p)


def test_trailing_input_is_rejected():
    with pytest.raises(ParseError):
        parse_formula("p q")
    with pytest.raises(ParseError):
        parse_term("x y")


# ---------- Derivations ----------


def test_parse_nd_derivation():
    d = parse("(imp-i x (hyp x p))")
    assert d == ImpI(x, None, Hyp(x, p))
    d = parse("(and-i (hyp x p) (hyp y q))")
    assert d == AndI(Hyp(x, p), Hyp(y, q))
    # A label-less imp-i renders without a formula and parses back.
    d = ImpI(x, None, AndI(Hyp(x, p), Hyp(y, q)))
    assert render_derivation(d) == "(imp-i x (and-i (hyp x p) (hyp y q)))"
    assert parse(render_derivation(d)) == d


def test_imp_i_extended_form_takes_a_formula():
    d = parse("(imp-i z q (hyp x p))")
    assert d == ImpI(z, q, Hyp(x, p))
    d = parse("(imp-i z (p -> q) (hyp x p))")
    assert d == ImpI(z, Implies(p, q), Hyp(x, p))


def test_imp_i_short_form_label_must_occur():
    with pytest.raises(DanglingDischargeLabel):
        parse("(imp-i z (hyp x p))")
    with pytest.raises(DanglingDischargeLabel, match="label 'z'"):
        parse("(imp-i x (imp-i z (hyp x p)))")


def test_the_preorder_first_dangling_label_is_reported():
    # Of two dangling labels, the outer one is named.
    with pytest.raises(DanglingDischargeLabel, match="label 'a'"):
        parse("(imp-i a (imp-i b (hyp x p)))")
    # A hyp in a sibling premise, after or before, does not discharge
    # the label.
    for text in ("(and-i (imp-i z (hyp x p)) (hyp z p))", "(and-i (hyp z p) (imp-i z (hyp x p)))"):
        with pytest.raises(DanglingDischargeLabel, match="label 'z'"):
            parse(text)
    # Trailing input fails the parse before any label is checked.
    with pytest.raises(ParseError, match="^1:21: expected 'eof', found 'junk'$"):
        parse_file("(imp-i z (hyp x p)) junk")


def test_parse_sc_derivation():
    d = parse("(imp-r x (rf x p))")
    assert d == ImpR(x, Rf(x, p))
    d = parse("(contract x y (weaken y p (rf x p)))")
    assert d == Contract(x, y, Weaken(y, p, Rf(x, p)))


def test_the_rule_table_reads_every_field_of_every_rule_class():
    # The derivation parser reads each field by its declared type alone.
    kind_of = {Var: "variable", Formula: "formula", Formula | None: "formula?"}
    optional = []
    for calculus, derivation in (("nd", nd.NdDerivation), ("sc", sc.ScDerivation)):
        classes = get_args(derivation)
        assert {rule: cls for rule, (cls, _) in _RULES[calculus].items()} == {
            cls.rule: cls for cls in classes
        }
        for cls in classes:
            hints = get_type_hints(cls)
            expected = []
            for f in fields(cls):
                hint = hints[f.name]
                assert hint in (Var, Formula, Formula | None, derivation), (cls, f.name)
                expected.append("premise" if hint == derivation else kind_of[hint])
                if hint == Formula | None:
                    optional.append((cls, f.name))
            assert list(_RULES[calculus][cls.rule][1]) == expected, cls
    assert sum(len(table) for table in _RULES.values()) == 22
    assert optional == [(ImpI, "hypothesis")]
    with pytest.raises(TypeError):
        _field_kind(sc.ScDerivation, nd.NdDerivation)
    with pytest.raises(TypeError):
        _field_kind(int, nd.NdDerivation)


def test_the_term_table_names_every_field_of_every_term_class():
    # Every term constructor but a bare variable has one row, naming each
    # field once in declaration order, except that the operand of inl,
    # inr and abort comes after its bracketed formula.
    assert set(_TERM_SYNTAX) == set(SUBTERMS) - {VarRef}
    for cls, row in _TERM_SYNTAX.items():
        declared = [f.name for f in fields(cls)]
        named = [part for part in row if part in declared]
        operand = [part for kind, part in _TERM_PARTS[cls] if kind == "operand"]
        assert named == [f for f in declared if f not in operand] + operand, cls
        for kind, part in _TERM_PARTS[cls]:
            if kind == "literal":
                assert len(tokenize(part)) == 2, (cls, part)
    kinds = {
        cls: {part: kind for kind, part in parts if kind != "literal"}
        for cls, parts in _TERM_PARTS.items()
    }
    assert kinds[Lam] == {"bound": "variable", "bound_type": "annotation", "body": "subterm"}
    assert kinds[Case] == {
        "scrutinee": "subterm",
        "left_var": "variable",
        "left_type": "annotation",
        "left_branch": "subterm",
        "right_var": "variable",
        "right_type": "annotation",
        "right_branch": "subterm",
    }
    assert kinds[Inl] == kinds[Inr] == {"other": "formula", "arg": "operand"}
    assert kinds[Abort] == {"target": "formula", "arg": "operand"}
    for cls in (App, Pair, Fst):
        assert set(kinds[cls].values()) == {"subterm"}
    assert RESERVED == {"app", "fst", "snd", "inl", "inr", "case", "abort"}


def test_unknown_rules_are_reported():
    for text, message in (
        ("(tonk-i (hyp x p))", "1:2: unknown rule 'tonk-i'"),
        ("(hyp' x p)", '1:2: unknown rule "hyp\'"'),
        ("(nd a (tonk-i (hyp x p)))", "1:8: unknown natural deduction rule 'tonk-i'"),
        ("(sc a (imp-r x (tonk-l x)))", "1:17: unknown sequent rule 'tonk-l'"),
    ):
        with pytest.raises(UnknownRule) as caught:
            parse(text)
        assert str(caught.value) == message


def test_rule_namespaces_do_not_mix():
    for text, message in (
        ("(imp-r x (hyp x p))", "1:11: unknown sequent rule 'hyp'"),
        ("(and-i (rf x p) (rf y q))", "1:9: unknown natural deduction rule 'rf'"),
        ("(nd a (rf x p))", "1:8: unknown natural deduction rule 'rf'"),
        ("(sc a (hyp x p))", "1:8: unknown sequent rule 'hyp'"),
        # After `imp-i x`, a group that cannot be the discharged formula
        # names the misplaced rule too.
        ("(imp-i x (rf x p))", "1:11: unknown natural deduction rule 'rf'"),
    ):
        with pytest.raises(UnknownRule) as caught:
            parse(text)
        assert str(caught.value) == message
    # A group that can be a formula stays the discharged formula.
    assert parse("(imp-i x (cut) (hyp x cut))") == ImpI(x, Atom("cut"), Hyp(x, Atom("cut")))
    assert parse("(imp-i x (rf -> p) (hyp x rf))").hypothesis == Implies(Atom("rf"), p)


def test_file_wrapper_carries_calculus_and_name():
    sf = parse_file("(nd example (imp-i x (hyp x p)))")
    assert (sf.calculus, sf.name) == ("nd", "example")
    sf = parse_file("(sc other (rf x p))")
    assert (sf.calculus, sf.name) == ("sc", "other")
    bare = parse_file("(rf x p)", default_name="fallback")
    assert (bare.calculus, bare.name) == ("sc", "fallback")
    assert bare.derivation == Rf(x, p)


def test_derivation_rendering_round_trips():
    texts = [
        "(imp-i x (hyp x p))",
        "(imp-i z q (hyp x p))",
        r"(or-e (hyp z p\/q) x (or-i1 q (hyp x p)) y (or-i2 p (hyp y q)))",
        "(cut z (rf x p) (or-r1 q (rf z p)))",
        r"(and-l z x y (and-r (rf x p) (rf y q)))",
        "(absurd-l x p)",
    ]
    for text in texts:
        d = parse(text)
        assert parse(render_derivation(d)) == d


def test_file_rendering_round_trips(load_corpus, corpus_dir):
    for path in sorted(corpus_dir.iterdir()):
        if path.suffix not in (".nd", ".sc"):
            continue
        sf = load_corpus(path.name)
        again = parse_file(render_file(sf))
        assert again == sf
