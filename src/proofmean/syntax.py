r"""Concrete syntax: tokenizer, parsers, and renderers.

Tokens are read by one regular expression, _SCANNER; a token keeps its
offset, and line:col is worked out only for an error message.

Formulas, as the table _CONNECTIVES writes the connectives; the formula
parser and renderer both read it
    p        atoms
    _|_      absurdity
    A/\B     conjunction, binds tightest, left associative
    A\/B     disjunction, left associative
    A -> B   implication, right associative, binds loosest

Terms, as the table _TERM_SYNTAX writes them; the term parser and
renderer both read it
    x                         variable
    \x:T. body                abstraction (annotation parenthesized
                              when compound)
    app(s, t)                 application
    <s, t>  fst(t)  snd(t)    pairing and projections
    inl[B] t   inr[A] t       injections carrying the missing disjunct
    case r { x:A. s | y:B. t }
    abort[C] t                from absurdity (the operand of inl, inr
                              and abort parenthesized when a lambda
                              or a case)

Derivations are parenthesized rule applications, one per file, either
bare or wrapped as (nd NAME D) / (sc NAME D). Comments run from ; to
the end of the line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from inspect import get_annotations
from itertools import chain
from operator import itemgetter
from typing import Mapping, NamedTuple, get_args

from .core import (
    LABELS,
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
    ProofmeanError,
    Snd,
    Term,
    Var,
    VarRef,
    canonicalize,
)
from . import nd as _nd
from . import sc as _sc


class ParseError(ProofmeanError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class UnknownRule(ProofmeanError):
    pass


class DanglingDischargeLabel(ProofmeanError):
    pass


# What a parser reads for one field. A derivation rule's field is told
# apart by its declared type: a variable, a formula, a formula left out
# when a rule of the same calculus starts next, or a premise of the
# class's own calculus. A term class's field is told apart by
# core.SUBTERMS and core.LABELS: a subterm; a bound variable; the
# formula annotating it, parenthesized when compound; a formula between
# brackets; or a subterm that ends its row unbound (the operand of inl,
# inr and abort), parenthesized when a Lam or Case.
_VARIABLE, _FORMULA, _OPTIONAL_FORMULA, _PREMISE = "variable", "formula", "formula?", "premise"
_LITERAL, _SUBTERM, _ANNOTATION, _OPERAND = "literal", "subterm", "annotation", "operand"

# The concrete syntax of each term class but VarRef: literal text, one
# token each with the spaces the renderer writes around it, and field
# names. The parser looks a row up by its leading token and reads the
# rest in order; the renderer writes the parts in order.
_TERM_SYNTAX: dict[type, tuple[str, ...]] = {
    Lam: ("\\", "bound", ":", "bound_type", ". ", "body"),
    App: ("app", "(", "fun", ", ", "arg", ")"),
    Pair: ("<", "first", ", ", "second", ">"),
    Fst: ("fst", "(", "arg", ")"),
    Snd: ("snd", "(", "arg", ")"),
    Inl: ("inl", "[", "other", "] ", "arg"),
    Inr: ("inr", "[", "other", "] ", "arg"),
    Case: (
        "case ", "scrutinee",
        " { ", "left_var", ":", "left_type", ". ", "left_branch",
        " | ", "right_var", ":", "right_type", ". ", "right_branch", " }",
    ),
    Abort: ("abort", "[", "target", "] ", "arg"),
}


def _part_kinds(cls: type, row: tuple[str, ...]) -> tuple[tuple[str, str], ...]:
    binder_of = dict(SUBTERMS[cls])
    binds = any(binder_of.values())
    kinds = []
    for i, part in enumerate(row):
        if part in binder_of:
            operand = i == len(row) - 1 and binder_of[part] is None
            kinds.append((_OPERAND if operand else _SUBTERM, part))
        elif part in binder_of.values():
            kinds.append((_VARIABLE, part))
        elif part in LABELS[cls]:
            kinds.append((_ANNOTATION if binds else _FORMULA, part))
        else:
            kinds.append((_LITERAL, part))
    return tuple(kinds)


# For the renderer, each term class's parts with their kinds; for the
# parser, by leading token, the class and the rest of its parts, each
# literal cut down to the token it stands for.
_TERM_PARTS = {cls: _part_kinds(cls, row) for cls, row in _TERM_SYNTAX.items()}
_TERM_ROWS = {
    parts[0][1].strip(): (cls, tuple((kind, part.strip()) for kind, part in parts[1:]))
    for cls, parts in _TERM_PARTS.items()
}
RESERVED = frozenset(word for word in _TERM_ROWS if word.isalpha())

# Each binary connective's text, with the spaces the renderer writes
# around it, its binding strength, and whether it groups to the right.
# The formula parser reads it by token, and the renderer by class.
_CONNECTIVES: dict[type, tuple[str, int, bool]] = {
    And: ("/\\", 3, False),
    Or: ("\\/", 2, False),
    Implies: (" -> ", 1, True),
}
_INFIX = {text.strip(): (cls, *rest) for cls, (text, *rest) in _CONNECTIVES.items()}


def _field_kind(hint: object, derivation: object) -> str:
    if hint == derivation:
        return _PREMISE
    kind = {Var: _VARIABLE, Formula: _FORMULA, Formula | None: _OPTIONAL_FORMULA}.get(hint)
    if kind is None:
        raise TypeError(f"no concrete syntax for a field of type {hint!r}")
    return kind


def _rule_table(derivation: object) -> dict[str, tuple[type, tuple[str, ...]]]:
    table = {}
    for cls in get_args(derivation):
        hints = get_annotations(cls, eval_str=True)
        kinds = tuple(_field_kind(hints[f.name], derivation) for f in fields(cls))
        table[cls.rule] = (cls, kinds)
    return table


# For each calculus, each rule name's class and the kinds of its fields.
_RULES = {"nd": _rule_table(_nd.NdDerivation), "sc": _rule_table(_sc.ScDerivation)}
_CALCULI = {"nd": "natural deduction", "sc": "sequent"}


# ---------- Tokenizer ----------


class Token(NamedTuple):
    kind: str  # "ident", the operator itself, or "eof"
    text: str
    pos: int  # offset in the source; _line_col turns it into line:col


# The whole lexical syntax. Blanks and comments make no token. An
# identifier is a letter followed by letters, digits, _ and ', with a
# hyphen allowed before a letter or digit. [^\W\d_] also takes a few
# numeric characters such as '²', so tokenize rejects an identifier whose
# first character is not str.isalpha(). Any other single character is
# an error, reported as _STRAY says.
_SCANNER = re.compile(
    r"[ \t\r\n]+|;[^\n]*"
    r"|(?P<ident>[^\W\d_](?:[\w']|-[^\W_])*)"
    r"|(?P<op>_\|_|->|/\\|\\/|[\\(){}<>\[\],.:|])"
    r"|(?P<other>.)",
    re.DOTALL,
)
_STRAY = {
    "_": "stray '_'",
    "-": "stray '-', did you mean '->'?",
    "/": "stray '/', did you mean '/\\'?",
}
# NamedTuple.__new__ is Python code; tuple.__new__ builds the same Token
# without a Python frame per token.
_new_token = tuple.__new__


def _line_col(text: str, pos: int) -> tuple[int, int]:
    """The line and column of offset pos, both counted from 1."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def tokenize(text: str) -> list[Token]:
    """The tokens of text, the last of kind "eof". Raises ParseError
    at the first character that starts no token."""
    tokens = [
        _new_token(Token, (m["op"] or m.lastgroup, m[0], m.start()))
        for m in _SCANNER.finditer(text)
        if m.lastgroup
    ]
    # Only a text with a non-ASCII character can hold an identifier
    # that starts with a numeric one.
    if not text.isascii() or "other" in map(itemgetter(0), tokens):
        for kind, word, pos in tokens:
            if kind == "other" or (kind == "ident" and not word[0].isalpha()):
                message = _STRAY.get(word[0], f"unexpected character {word[0]!r}")
                raise ParseError(message, *_line_col(text, pos))
    # End of input sits where a comment on the last line starts, if one
    # does, as the column is not advanced over a comment.
    comment = text.find(";", text.rfind("\n") + 1)
    tokens.append(Token("eof", "", comment if comment >= 0 else len(text)))
    return tokens


# ---------- Parser ----------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        tokens = tokenize(text)
        # Two more eof tokens let peek look two tokens past the end.
        self.tokens = tokens + tokens[-1:] * 2
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            found = tok.text if tok.kind != "eof" else "end of input"
            raise self.fail(f"expected {kind!r}, found {found!r}")
        return self.advance()

    def where(self, tok: Token) -> str:
        return "{}:{}".format(*_line_col(self.text, tok.pos))

    def fail(self, message: str, tok: Token | None = None) -> ParseError:
        return ParseError(message, *_line_col(self.text, (tok or self.peek()).pos))

    # --- formulas ---

    def formula(self, floor: int = 0) -> Formula:
        """A formula whose connectives outside parentheses all bind at
        least as tightly as floor, read by precedence climbing over
        _CONNECTIVES."""
        f = self._formula_atom()
        while True:
            entry = _INFIX.get(self.tokens[self.pos].kind)
            if entry is None or entry[1] < floor:
                return f
            self.advance()
            cls, strength, right = entry
            f = cls(f, self.formula(strength if right else strength + 1))

    def _formula_atom(self, annotation: bool = False) -> Formula:
        """An atom, _|_ or a parenthesized formula: an operand of a
        connective or, with annotation set, the type of a bound variable."""
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            f = self.formula()
            self.expect(")")
            return f
        if tok.kind == "_|_":
            self.advance()
            return Absurd()
        if tok.kind == "ident" and tok.text not in RESERVED:
            self.advance()
            return Atom(tok.text)
        if annotation:
            raise self.fail("expected a type annotation (compound ones need parentheses)")
        if tok.kind == "ident":
            raise self.fail(f"{tok.text!r} is reserved and cannot name an atom")
        raise self.fail("expected a formula")

    # --- terms ---

    def variable(self) -> Var:
        tok = self.expect("ident")
        if tok.text in RESERVED:
            raise self.fail(f"{tok.text!r} is reserved and cannot name a variable", tok)
        return Var(tok.text)

    def term(self) -> Term:
        """A bare variable, a parenthesized term, or the row of
        _TERM_SYNTAX its leading token names, read part by part. Each
        level takes one frame, as in `derivation`."""
        tok = self.peek()
        row = _TERM_ROWS.get(tok.text)
        if row is None:
            if tok.kind == "(":
                self.advance()
                t = self.term()
                self.expect(")")
                return t
            if tok.kind == "ident":
                self.advance()
                return VarRef(Var(tok.text))
            raise self.fail("expected a term")
        self.advance()
        cls, parts = row
        args = {}
        for kind, part in parts:
            if kind is _LITERAL:
                self.expect(part)
            elif kind is _SUBTERM or kind is _OPERAND:
                args[part] = self.term()
            elif kind is _VARIABLE:
                args[part] = self.variable()
            elif kind is _ANNOTATION:
                args[part] = self._formula_atom(annotation=True)
            else:
                args[part] = self.formula()
        return cls(**args)

    # --- derivations ---

    def derivation(self, calculus: str) -> "_nd.NdDerivation | _sc.ScDerivation":
        """One rule application of the calculus ("nd" or "sc"), its
        fields read in declaration order by their kinds. Each level
        takes one frame: a comprehension in place of the loop would add
        one on Python 3.10 and 3.11."""
        rules = _RULES[calculus]
        self.expect("(")
        tok = self.expect("ident")
        entry = rules.get(tok.text)
        if entry is None:
            raise UnknownRule(f"{self.where(tok)}: unknown {_CALCULI[calculus]} rule {tok.text!r}")
        cls, kinds = entry
        args: list = []
        for kind in kinds:
            if kind is _PREMISE:
                args.append(self.derivation(calculus))
            elif kind is _VARIABLE:
                args.append(self.variable())
            elif kind is _OPTIONAL_FORMULA and self._starts_rule(rules):
                args.append(None)
            else:
                args.append(self.formula())
        self.expect(")")
        return cls(*args)

    def _starts_rule(self, rules: Mapping[str, object]) -> bool:
        # A group headed by a rule of this calculus; or by a rule of any
        # calculus when the next token cannot continue a formula, so that
        # the misplaced rule is reported by name. A group that can still
        # be a formula, such as `(cut)`, stays one.
        nxt = self.peek(1)
        if not self.at("(") or nxt.kind != "ident":
            return False
        if not any(nxt.text in calculus for calculus in _RULES.values()):
            return False
        after = self.peek(2).kind
        return nxt.text in rules or (after != ")" and after not in _INFIX)


def _check_discharge_labels(d: "_nd.NdDerivation") -> None:
    # One preorder pass. `waiting` maps a variable to the preorder
    # positions of the label-less imp-i nodes above the current node
    # that no hypothesis of it has met yet, outermost first; a Hyp meets
    # them all. `path` holds every open label-less imp-i with its depth,
    # and one still waiting when the pass leaves its premise dangles;
    # a last node at depth 0 closes them all.
    waiting: dict[Var, list[int]] = {}
    path: list[tuple[int, int, Var]] = []
    dangling: list[tuple[int, Var]] = []
    for i, (depth, node) in enumerate(chain(_nd.preorder(d), [(0, None)])):
        while path and path[-1][0] >= depth:
            _, j, v = path.pop()
            unmet = waiting.get(v)
            if unmet and unmet[-1] == j:
                unmet.pop()
                dangling.append((j, v))
        if isinstance(node, _nd.ImpI) and node.hypothesis is None:
            path.append((depth, i, node.var))
            waiting.setdefault(node.var, []).append(i)
        elif isinstance(node, _nd.Hyp):
            waiting.pop(node.var, None)
    if dangling:
        _, v = min(dangling)
        raise DanglingDischargeLabel(
            f"imp-i label {v.name!r} matches no hypothesis; "
            f"a vacuous discharge must declare its formula"
        )


@dataclass(frozen=True)
class SourceFile:
    calculus: str  # "nd" or "sc"
    name: str | None
    derivation: "_nd.NdDerivation | _sc.ScDerivation"


def _parse_source(p: _Parser, default_name: str | None) -> SourceFile:
    nxt = p.peek(1)
    if p.at("(") and nxt.kind == "ident" and nxt.text in _RULES:
        p.advance()
        calculus = p.advance().text
        name_tok = p.expect("ident")
        d = p.derivation(calculus)
        p.expect(")")
        name: str | None = name_tok.text
    elif p.at("(") and nxt.kind == "ident":
        calculus = next((c for c, rules in _RULES.items() if nxt.text in rules), None)
        if calculus is None:
            raise UnknownRule(f"{p.where(nxt)}: unknown rule {nxt.text!r}")
        name, d = default_name, p.derivation(calculus)
    else:
        raise p.fail("expected a derivation")
    p.expect("eof")
    if calculus == "nd":
        _check_discharge_labels(d)
    return SourceFile(calculus, name, d)


def parse_file(text: str, default_name: str | None = None) -> SourceFile:
    """One derivation per file, bare or (nd NAME D) / (sc NAME D)."""
    return _parse_source(_Parser(text), default_name)


def parse(text: str) -> "_nd.NdDerivation | _sc.ScDerivation":
    """Parse one derivation, dropping any file wrapper."""
    return parse_file(text).derivation


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    f = p.formula()
    p.expect("eof")
    return f


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.term()
    p.expect("eof")
    return t


# ---------- Rendering ----------


def render_formula(f: Formula) -> str:
    cls = type(f)
    if cls is Atom:
        return f.name
    if cls is Absurd:
        return "_|_"
    if cls not in _CONNECTIVES:
        raise TypeError(f"not a formula: {f!r}")
    # Each operand is parenthesized unless it is an atom or _|_, inline
    # so that each connective costs one frame.
    left, right = render_formula(f.left), render_formula(f.right)
    if type(f.left) in _CONNECTIVES:
        left = f"({left})"
    if type(f.right) in _CONNECTIVES:
        right = f"({right})"
    return left + _CONNECTIVES[cls][0] + right


def _render_operand(f: Formula) -> str:
    """f, parenthesized unless it is an atom or _|_."""
    s = render_formula(f)
    return s if isinstance(f, (Atom, Absurd)) else f"({s})"


def render_term(t: Term, canonical: bool = False) -> str:
    """Deterministic, re-parseable rendering of t, its parts written in
    the order _TERM_SYNTAX gives them. Each level takes one frame."""
    if canonical:
        t = canonicalize(t)

    def render(u: Term) -> str:
        if type(u) is VarRef:
            return u.var.name
        out = []
        for kind, part in _TERM_PARTS[type(u)]:
            if kind is _LITERAL:
                out.append(part)
                continue
            value = getattr(u, part)
            if kind is _SUBTERM:
                out.append(render(value))
            elif kind is _OPERAND:
                s = render(value)
                out.append(f"({s})" if type(value) in (Lam, Case) else s)
            elif kind is _VARIABLE:
                out.append(value.name)
            elif kind is _ANNOTATION:
                out.append(_render_operand(value))
            else:
                out.append(render_formula(value))
        return "".join(out)

    return render(t)


def _render_part(part: Var | Formula) -> str:
    return part.name if isinstance(part, Var) else render_formula(part)


def render_node(d: _nd.Node) -> str:
    """The rule of d with its variables and formulas, premises left out."""
    shown = [p for p in _nd.parts(d) if p is not None and not isinstance(p, _nd.Node)]
    return " ".join([d.rule, *map(_render_part, shown)])


def render_derivation(d: "_nd.NdDerivation | _sc.ScDerivation") -> str:
    words = [d.rule]
    for part in _nd.parts(d):
        if isinstance(part, _nd.Node):
            words.append(render_derivation(part))
        elif part is not None:
            words.append(_render_part(part))
    return f"({' '.join(words)})"


def render_file(sf: SourceFile) -> str:
    body = render_derivation(sf.derivation)
    if sf.name is None:
        return body
    return f"({sf.calculus} {sf.name} {body})"
