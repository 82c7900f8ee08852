r"""Concrete syntax: tokenizer, parsers, and renderers.

A text is read in one findall scan of one regular expression,
_SCANNER, and one recursive descent over the token texts, which also
checks the discharge labels. The derivation descent keeps its cursor
in a local and reads bare variables and lone atoms inline; the rest,
and every error, goes through the general readers. A token keeps no
offset: an error message finds its line:col again with the same
_SCANNER.

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
from collections.abc import Sequence
from itertools import chain, islice
from typing import Mapping, NamedTuple, get_args, get_type_hints

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
from .core import Record, _Interned, record
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
        hints = get_type_hints(cls)
        kinds = tuple(_field_kind(hints[f], derivation) for f in cls.__match_args__)
        table[cls.rule] = (cls, kinds)
    return table


# For each calculus, each rule name's class and the kinds of its fields.
_RULES = {"nd": _rule_table(_nd.NdDerivation), "sc": _rule_table(_sc.ScDerivation)}
_CALCULI = {"nd": "natural deduction", "sc": "sequent"}


# ---------- Tokenizer ----------


class Token(NamedTuple):
    kind: str  # "ident", the operator itself, or "eof"
    text: str


# The whole lexical syntax, one alternative per token: an identifier, an
# operator, a comment, or any other character but a blank. Blanks make
# no match. An identifier is a letter followed by letters, digits, _
# and ', with a hyphen allowed before a letter or digit: runs of [\w']
# joined by hyphens, so the hyphen is tried once per run, not at every
# character. [^\W\d_] also takes a few numeric characters such as '²',
# so tokenize rejects an identifier whose first character is not
# str.isalpha(); any other single character is an error, reported as
# _STRAY says.
_SCANNER = re.compile(
    r"[^\W\d_][\w']*(?:-[^\W_][\w']*)*"
    r"|_\|_|->|/\\|\\/|[\\(){}<>\[\],.:|]"
    r"|;[^\n]*"
    r"|[^ \t\r\n]"
)
_OPERATORS = frozenset(["_|_", "->", "/\\", "\\/", *"\\(){}<>[],.:|"])
_STRAY = {
    "_": "stray '_'",
    "-": "stray '-', did you mean '->'?",
    "/": "stray '/', did you mean '/\\'?",
}


def _position(text: str, i: int) -> tuple[int, int]:
    """The line and column, both counted from 1, of token i of text,
    found again by _SCANNER. The end of input sits where a comment on
    the last line starts, if one does, as the column is not advanced
    over a comment."""
    m = next(islice((m for m in _SCANNER.finditer(text) if m[0][0] != ";"), i, None), None)
    comment = text.find(";", text.rfind("\n") + 1)
    pos = m.start() if m else comment if comment >= 0 else len(text)
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


class Tokens(Sequence[Token]):
    """The tokens of a text, kept as their texts with "" for the end of
    input. A Token is built only when one is read."""

    def __init__(self, words: list[str]):
        self.words = words

    def __len__(self) -> int:
        return len(self.words)

    def __getitem__(self, i: int) -> Token:
        word = self.words[i]
        return Token(word if word in _OPERATORS else "ident" if word else "eof", word)


def tokenize(text: str) -> Tokens:
    """The tokens of text, the last of kind "eof". Raises ParseError
    at the first character that starts no token."""
    words = _SCANNER.findall(text)
    if ";" in text:
        words = [w for w in words if w[0] != ";"]
    bad = [w for w in set(words).difference(_OPERATORS) if not w[0].isalpha()]
    if bad:
        i = min(map(words.index, bad))
        message = _STRAY.get(words[i][0], f"unexpected character {words[i][0]!r}")
        raise ParseError(message, *_position(text, i))
    words.append("")
    return Tokens(words)


# ---------- Parser ----------

# What no identifier is: an operator or the end of input; and what
# names no variable or atom.
_NOT_IDENT = _OPERATORS | {""}
_NOT_NAME = _NOT_IDENT | RESERVED
_RULE_NAMES = frozenset(chain.from_iterable(_RULES.values()))
_AFTER_ATOM = {")", *_INFIX}


class _Parser:
    """A descent over the token texts, self.i the next one to read."""

    def __init__(self, text: str):
        self.text = text
        # Two more ends of input let _starts_rule look past the end.
        self.words = tokenize(text).words + ["", ""]
        self.i = 0
        # For the discharge labels: the hyp nodes read so far per
        # variable name, and the (index of the opening token, name) of
        # each label-less imp-i whose premise has no hyp of its variable.
        self.hyps: dict[str, int] = {}
        self.dangling: list[tuple[int, str]] = []

    def fail(self, message: str) -> ParseError:
        """A ParseError at the next token."""
        return ParseError(message, *_position(self.text, self.i))

    def where(self, i: int) -> str:
        return "{}:{}".format(*_position(self.text, i))

    def unexpected(self, kind: str) -> ParseError:
        return self.fail(f"expected {kind!r}, found {self.words[self.i] or 'end of input'!r}")

    def expect(self, word: str) -> None:
        """Step over the next token, which must be word: an operator, or
        "" for the end of input."""
        if self.words[self.i] != word:
            raise self.unexpected(word or "eof")
        self.i += 1

    def ident(self) -> str:
        word = self.words[self.i]
        if word in _NOT_IDENT:
            raise self.unexpected("ident")
        self.i += 1
        return word

    # --- formulas ---

    def formula(self, floor: int = 0) -> Formula:
        """A formula whose connectives outside parentheses all bind at
        least as tightly as floor, read by precedence climbing over
        _CONNECTIVES."""
        f = self._formula_atom()
        words = self.words
        while True:
            entry = _INFIX.get(words[self.i])
            if entry is None or entry[1] < floor:
                return f
            self.i += 1
            cls, strength, right = entry
            f = cls(f, self.formula(strength if right else strength + 1))

    def _formula_atom(self, annotation: bool = False) -> Formula:
        """An atom, _|_ or a parenthesized formula: an operand of a
        connective or, with annotation set, the type of a bound variable."""
        word = self.words[self.i]
        if word == "(":
            self.i += 1
            f = self.formula()
            self.expect(")")
            return f
        if word == "_|_":
            self.i += 1
            return Absurd()
        if word not in _NOT_NAME:
            self.i += 1
            return Atom(word)
        if annotation:
            raise self.fail("expected a type annotation (compound ones need parentheses)")
        if word not in _NOT_IDENT:
            raise self.fail(f"{word!r} is reserved and cannot name an atom")
        raise self.fail("expected a formula")

    # --- terms ---

    def variable(self) -> Var:
        word = self.words[self.i]
        if word in _NOT_NAME:
            if word in RESERVED:
                raise self.fail(f"{word!r} is reserved and cannot name a variable")
            raise self.unexpected("ident")
        self.i += 1
        return Var(word)

    def term(self) -> Term:
        """A bare variable, a parenthesized term, or the row of
        _TERM_SYNTAX its leading token names, read part by part."""
        word = self.words[self.i]
        row = _TERM_ROWS.get(word)
        if row is None:
            if word == "(":
                self.i += 1
                t = self.term()
                self.expect(")")
                return t
            if word not in _NOT_IDENT:
                self.i += 1
                return VarRef(Var(word))
            raise self.fail("expected a term")
        self.i += 1
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
        fields read in declaration order by their kinds. The cursor
        stays in the local i, and a bare variable, or an atom that no
        connective follows, is read on the spot, from the intern table
        when it is there; anything else goes through self.i and the
        readers above, which report every error.
        A label-less imp-i whose premise adds no hyp of its variable to
        self.hyps goes on self.dangling."""
        rules = _RULES[calculus]
        words, table = self.words, _Interned._table
        start = i = self.i
        rule = words[i + 1]
        if words[i] != "(" or rule in _NOT_IDENT:
            # One of the two raises, at the token at fault.
            self.expect("(")
            self.ident()
        entry = rules.get(rule)
        if entry is None:
            raise UnknownRule(f"{self.where(i + 1)}: unknown {_CALCULI[calculus]} rule {rule!r}")
        i += 2
        cls, kinds = entry
        label = None
        args: list = []
        for kind in kinds:
            word = words[i]
            if kind is not _PREMISE and word not in _NOT_NAME:
                if kind is _VARIABLE:
                    args.append(table.get((Var, word)) or Var(word))
                    i += 1
                    continue
                if words[i + 1] not in _INFIX:
                    args.append(table.get((Atom, word)) or Atom(word))
                    i += 1
                    continue
            self.i = i
            if kind is _PREMISE:
                args.append(self.derivation(calculus))
            elif kind is _VARIABLE:
                args.append(self.variable())
            elif kind is _OPTIONAL_FORMULA and self._starts_rule(rules):
                # The formula left out follows the variable it would declare.
                label = args[-1].name
                before = self.hyps.get(label, 0)
                args.append(None)
            else:
                args.append(self.formula())
            i = self.i
        if words[i] != ")":
            self.i = i
            raise self.unexpected(")")
        self.i = i + 1
        if cls is _nd.Hyp:
            self.hyps[args[0].name] = self.hyps.get(args[0].name, 0) + 1
        elif label is not None and self.hyps.get(label, 0) == before:
            self.dangling.append((start, label))
        return cls(*args)

    def _starts_rule(self, rules: Mapping[str, object]) -> bool:
        # A group headed by a rule of this calculus; or by a rule of any
        # calculus when the token after it cannot continue a formula, so
        # that the misplaced rule is reported by name. A group that can
        # still be a formula, such as `(cut)`, stays one.
        opening, head, after = self.words[self.i : self.i + 3]
        return opening == "(" and head in _RULE_NAMES and (head in rules or after not in _AFTER_ATOM)


@record
class SourceFile(Record):
    calculus: str  # "nd" or "sc"
    name: str | None
    derivation: "_nd.NdDerivation | _sc.ScDerivation"


def parse_file(text: str, default_name: str | None = None) -> SourceFile:
    """One derivation per file, bare or (nd NAME D) / (sc NAME D)."""
    p = _Parser(text)
    head, nxt = p.words[:2]
    if head == "(" and nxt in _RULES:
        p.i = 2
        calculus = nxt
        name: str | None = p.ident()
        d = p.derivation(calculus)
        p.expect(")")
    elif head == "(" and nxt not in _NOT_IDENT:
        calculus = next((c for c, rules in _RULES.items() if nxt in rules), None)
        if calculus is None:
            raise UnknownRule(f"{p.where(1)}: unknown rule {nxt!r}")
        name, d = default_name, p.derivation(calculus)
    else:
        raise p.fail("expected a derivation")
    p.expect("")
    if p.dangling:
        # Opening tokens come in preorder, so this is the preorder-first.
        _, label = min(p.dangling)
        raise DanglingDischargeLabel(
            f"imp-i label {label!r} matches no hypothesis; "
            f"a vacuous discharge must declare its formula"
        )
    return SourceFile(calculus, name, d)


def parse(text: str) -> "_nd.NdDerivation | _sc.ScDerivation":
    """Parse one derivation, dropping any file wrapper."""
    return parse_file(text).derivation


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    f = p.formula()
    p.expect("")
    return f


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.term()
    p.expect("")
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
    # Each operand is parenthesized unless it is an atom or _|_.
    left, right = render_formula(f.left), render_formula(f.right)
    if type(f.left) in _CONNECTIVES:
        left = f"({left})"
    if type(f.right) in _CONNECTIVES:
        right = f"({right})"
    return left + _CONNECTIVES[cls][0] + right


def render_term(t: Term, canonical: bool = False) -> str:
    """Deterministic, re-parseable rendering of t, its parts written in
    the order _TERM_SYNTAX gives them."""
    return _render_term(canonicalize(t) if canonical else t)


def _render_term(u: Term) -> str:
    if type(u) is VarRef:
        return u.var.name
    out = []
    for kind, part in _TERM_PARTS[type(u)]:
        if kind is _LITERAL:
            out.append(part)
            continue
        value = getattr(u, part)
        if kind is _SUBTERM:
            out.append(_render_term(value))
        elif kind is _OPERAND:
            s = _render_term(value)
            out.append(f"({s})" if type(value) in (Lam, Case) else s)
        elif kind is _VARIABLE:
            out.append(value.name)
        elif kind is _ANNOTATION:
            s = render_formula(value)
            out.append(f"({s})" if type(value) in _CONNECTIVES else s)
        else:
            out.append(render_formula(value))
    return "".join(out)


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
    return body if sf.name is None else f"({sf.calculus} {sf.name} {body})"
