r"""Concrete syntax: tokenizer, parsers, and renderers.

Formulas
    p        atoms
    _|_      absurdity
    A/\B     conjunction, binds tightest
    A\/B     disjunction
    A -> B   implication, right associative, binds loosest

Terms
    x                         variable
    \x:T. body                abstraction (annotation parenthesized
                              when compound)
    app(s, t)                 application
    <s, t>  fst(t)  snd(t)    pairing and projections
    inl[B] t   inr[A] t       injections carrying the missing disjunct
    case r { x:A. s | y:B. t }
    abort[C] t                from absurdity

Derivations are parenthesized rule applications, one per file, either
bare or wrapped as (nd NAME D) / (sc NAME D). Comments run from ; to
the end of the line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import get_args

from .core import (
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
    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.expected = expected


class UnknownRule(ProofmeanError):
    pass


class DanglingDischargeLabel(ProofmeanError):
    pass


RESERVED = frozenset({"case", "fst", "snd", "inl", "inr", "abort", "app"})

_ND_RULES = frozenset(node.rule for node in get_args(_nd.NdDerivation))
_SC_RULES = frozenset(node.rule for node in get_args(_sc.ScDerivation))


# ---------- Tokenizer ----------


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


_SINGLE = frozenset("(){}<>[],.:|")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isalpha():
            j = i + 1
            while j < n:
                cj = text[j]
                if cj.isalnum() or cj in "_'":
                    j += 1
                elif cj == "-" and j + 1 < n and text[j + 1].isalnum():
                    j += 2
                else:
                    break
            tokens.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c == "_":
            if text.startswith("_|_", i):
                tokens.append(Token("_|_", "_|_", line, col))
                i += 3
                col += 3
                continue
            raise ParseError("stray '_'", line, col)
        if c == "-":
            if i + 1 < n and text[i + 1] == ">":
                tokens.append(Token("->", "->", line, col))
                i += 2
                col += 2
                continue
            raise ParseError("stray '-', did you mean '->'?", line, col)
        if c == "/":
            if i + 1 < n and text[i + 1] == "\\":
                tokens.append(Token("/\\", "/\\", line, col))
                i += 2
                col += 2
                continue
            raise ParseError("stray '/', did you mean '/\\'?", line, col)
        if c == "\\":
            if i + 1 < n and text[i + 1] == "/":
                tokens.append(Token("\\/", "\\/", line, col))
                i += 2
                col += 2
                continue
            tokens.append(Token("\\", "\\", line, col))
            i += 1
            col += 1
            continue
        if c in _SINGLE:
            tokens.append(Token(c, c, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------- Parser ----------


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            found = tok.text if tok.kind != "eof" else "end of input"
            raise ParseError(
                f"expected {kind!r}, found {found!r}", tok.line, tok.col, expected=(kind,)
            )
        return self.advance()

    def fail(self, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col, expected=expected)

    # --- formulas ---

    def formula(self) -> Formula:
        left = self._disjunction()
        if self.at("->"):
            self.advance()
            return Implies(left, self.formula())
        return left

    def _disjunction(self) -> Formula:
        f = self._conjunction()
        while self.at("\\/"):
            self.advance()
            f = Or(f, self._conjunction())
        return f

    def _conjunction(self) -> Formula:
        f = self._formula_atom()
        while self.at("/\\"):
            self.advance()
            f = And(f, self._formula_atom())
        return f

    def _formula_atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            f = self.formula()
            self.expect(")")
            return f
        if tok.kind == "_|_":
            self.advance()
            return Absurd()
        if tok.kind == "ident":
            if tok.text in RESERVED:
                raise self.fail(f"{tok.text!r} is reserved and cannot name an atom")
            self.advance()
            return Atom(tok.text)
        raise self.fail("expected a formula", expected=("ident", "(", "_|_"))

    def _annotation(self) -> Formula:
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
        raise self.fail(
            "expected a type annotation (compound ones need parentheses)",
            expected=("ident", "(", "_|_"),
        )

    # --- terms ---

    def variable(self) -> Var:
        tok = self.expect("ident")
        if tok.text in RESERVED:
            raise ParseError(
                f"{tok.text!r} is reserved and cannot name a variable", tok.line, tok.col
            )
        return Var(tok.text)

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind == "\\":
            self.advance()
            x = self.variable()
            self.expect(":")
            a = self._annotation()
            self.expect(".")
            return Lam(x, a, self.term())
        if tok.kind == "ident" and tok.text == "case":
            self.advance()
            scrutinee = self.term()
            self.expect("{")
            x = self.variable()
            self.expect(":")
            a = self._annotation()
            self.expect(".")
            s = self.term()
            self.expect("|")
            y = self.variable()
            self.expect(":")
            b = self._annotation()
            self.expect(".")
            t = self.term()
            self.expect("}")
            return Case(scrutinee, x, a, s, y, b, t)
        if tok.kind == "ident" and tok.text in ("inl", "inr", "abort"):
            self.advance()
            self.expect("[")
            f = self.formula()
            self.expect("]")
            arg = self.term()
            if tok.text == "inl":
                return Inl(arg, f)
            if tok.text == "inr":
                return Inr(arg, f)
            return Abort(arg, f)
        return self._simple_term()

    def _simple_term(self) -> Term:
        tok = self.peek()
        if tok.kind == "<":
            self.advance()
            s = self.term()
            self.expect(",")
            t = self.term()
            self.expect(">")
            return Pair(s, t)
        if tok.kind == "(":
            self.advance()
            t = self.term()
            self.expect(")")
            return t
        if tok.kind == "ident":
            if tok.text == "app":
                self.advance()
                self.expect("(")
                s = self.term()
                self.expect(",")
                t = self.term()
                self.expect(")")
                return App(s, t)
            if tok.text in ("fst", "snd"):
                self.advance()
                self.expect("(")
                t = self.term()
                self.expect(")")
                return Fst(t) if tok.text == "fst" else Snd(t)
            if tok.text in RESERVED:
                raise self.fail(f"{tok.text!r} cannot start a term here")
            self.advance()
            return VarRef(Var(tok.text))
        raise self.fail("expected a term", expected=("ident", "(", "<", "\\"))

    # --- derivations ---

    def _starts_derivation(self, rules: frozenset[str]) -> bool:
        nxt = self.peek(1)
        return self.at("(") and nxt.kind == "ident" and nxt.text in rules

    def nd_derivation(self) -> "_nd.NdDerivation":
        self.expect("(")
        tok = self.expect("ident")
        rule = tok.text
        if rule not in _ND_RULES:
            raise UnknownRule(f"{tok.line}:{tok.col}: unknown natural deduction rule {rule!r}")
        d: _nd.NdDerivation
        if rule == "hyp":
            x = self.variable()
            d = _nd.Hyp(x, self.formula())
        elif rule == "imp-i":
            x = self.variable()
            if self._starts_derivation(_ND_RULES):
                d = _nd.ImpI(x, None, self.nd_derivation())
            else:
                hypothesis = self.formula()
                d = _nd.ImpI(x, hypothesis, self.nd_derivation())
        elif rule == "imp-e":
            d = _nd.ImpE(self.nd_derivation(), self.nd_derivation())
        elif rule == "and-i":
            d = _nd.AndI(self.nd_derivation(), self.nd_derivation())
        elif rule == "and-e1":
            d = _nd.AndE1(self.nd_derivation())
        elif rule == "and-e2":
            d = _nd.AndE2(self.nd_derivation())
        elif rule == "or-i1":
            d = _nd.OrI1(self.formula(), self.nd_derivation())
        elif rule == "or-i2":
            d = _nd.OrI2(self.formula(), self.nd_derivation())
        elif rule == "or-e":
            scrutinee = self.nd_derivation()
            x = self.variable()
            left = self.nd_derivation()
            y = self.variable()
            right = self.nd_derivation()
            d = _nd.OrE(scrutinee, x, left, y, right)
        else:
            d = _nd.AbsurdE(self.formula(), self.nd_derivation())
        self.expect(")")
        return d

    def sc_derivation(self) -> "_sc.ScDerivation":
        self.expect("(")
        tok = self.expect("ident")
        rule = tok.text
        if rule not in _SC_RULES:
            raise UnknownRule(f"{tok.line}:{tok.col}: unknown sequent rule {rule!r}")
        d: _sc.ScDerivation
        if rule == "rf":
            x = self.variable()
            d = _sc.Rf(x, self.formula())
        elif rule == "and-r":
            d = _sc.AndR(self.sc_derivation(), self.sc_derivation())
        elif rule == "and-l":
            d = _sc.AndL(self.variable(), self.variable(), self.variable(), self.sc_derivation())
        elif rule == "or-r1":
            d = _sc.OrR1(self.formula(), self.sc_derivation())
        elif rule == "or-r2":
            d = _sc.OrR2(self.formula(), self.sc_derivation())
        elif rule == "or-l":
            z = self.variable()
            x = self.variable()
            y = self.variable()
            d = _sc.OrL(z, x, y, self.sc_derivation(), self.sc_derivation())
        elif rule == "imp-r":
            d = _sc.ImpR(self.variable(), self.sc_derivation())
        elif rule == "imp-l":
            x = self.variable()
            y = self.variable()
            d = _sc.ImpL(x, y, self.sc_derivation(), self.sc_derivation())
        elif rule == "absurd-l":
            d = _sc.AbsurdL(self.variable(), self.formula())
        elif rule == "weaken":
            d = _sc.Weaken(self.variable(), self.formula(), self.sc_derivation())
        elif rule == "contract":
            d = _sc.Contract(self.variable(), self.variable(), self.sc_derivation())
        else:
            d = _sc.Cut(self.variable(), self.sc_derivation(), self.sc_derivation())
        self.expect(")")
        return d


def _check_discharge_labels(d: "_nd.NdDerivation") -> None:
    for _, node in _nd.preorder(d):
        if isinstance(node, _nd.ImpI) and node.hypothesis is None:
            hypotheses = (h for _, h in _nd.preorder(node.premise) if isinstance(h, _nd.Hyp))
            if all(h.var != node.var for h in hypotheses):
                raise DanglingDischargeLabel(
                    f"imp-i label {node.var.name!r} matches no hypothesis; "
                    f"a vacuous discharge must declare its formula"
                )


@dataclass(frozen=True)
class SourceFile:
    calculus: str  # "nd" or "sc"
    name: str | None
    derivation: "_nd.NdDerivation | _sc.ScDerivation"


def _parse_source(p: _Parser, default_name: str | None) -> SourceFile:
    nxt = p.peek(1)
    if p.at("(") and nxt.kind == "ident" and nxt.text in ("nd", "sc"):
        p.advance()
        calculus = p.advance().text
        name_tok = p.expect("ident")
        d = p.nd_derivation() if calculus == "nd" else p.sc_derivation()
        p.expect(")")
        name: str | None = name_tok.text
    elif p.at("(") and nxt.kind == "ident" and nxt.text in _ND_RULES:
        calculus, name, d = "nd", default_name, p.nd_derivation()
    elif p.at("(") and nxt.kind == "ident" and nxt.text in _SC_RULES:
        calculus, name, d = "sc", default_name, p.sc_derivation()
    elif p.at("(") and nxt.kind == "ident":
        raise UnknownRule(f"{nxt.line}:{nxt.col}: unknown rule {nxt.text!r}")
    else:
        raise p.fail("expected a derivation", expected=("(",))
    p.expect("eof")
    if calculus == "nd":
        _check_discharge_labels(d)
    return SourceFile(calculus, name, d)


def parse_file(text: str, default_name: str | None = None) -> SourceFile:
    """One derivation per file, bare or (nd NAME D) / (sc NAME D)."""
    return _parse_source(_Parser(tokenize(text)), default_name)


def parse(text: str) -> "_nd.NdDerivation | _sc.ScDerivation":
    """Parse one derivation, dropping any file wrapper."""
    return parse_file(text).derivation


def parse_formula(text: str) -> Formula:
    p = _Parser(tokenize(text))
    f = p.formula()
    p.expect("eof")
    return f


def parse_term(text: str) -> Term:
    p = _Parser(tokenize(text))
    t = p.term()
    p.expect("eof")
    return t


# ---------- Rendering ----------


def render_formula(f: Formula) -> str:
    def operand(g: Formula) -> str:
        s = render_formula(g)
        return s if isinstance(g, (Atom, Absurd)) else f"({s})"

    match f:
        case Atom(name):
            return name
        case Absurd():
            return "_|_"
        case And(a, b):
            return f"{operand(a)}/\\{operand(b)}"
        case Or(a, b):
            return f"{operand(a)}\\/{operand(b)}"
        case Implies(a, b):
            return f"{operand(a)} -> {operand(b)}"
    raise TypeError(f"not a formula: {f!r}")


def _render_annotation(f: Formula) -> str:
    s = render_formula(f)
    return s if isinstance(f, (Atom, Absurd)) else f"({s})"


def render_term(t: Term, canonical: bool = False) -> str:
    """Deterministic, re-parseable rendering of t."""
    if canonical:
        t = canonicalize(t)

    def arg(u: Term) -> str:
        s = render(u)
        return f"({s})" if isinstance(u, (Lam, Case)) else s

    def render(u: Term) -> str:
        match u:
            case VarRef(v):
                return v.name
            case Lam(x, a, body):
                return f"\\{x.name}:{_render_annotation(a)}. {render(body)}"
            case App(s, v):
                return f"app({render(s)}, {render(v)})"
            case Pair(s, v):
                return f"<{render(s)}, {render(v)}>"
            case Fst(p):
                return f"fst({render(p)})"
            case Snd(p):
                return f"snd({render(p)})"
            case Inl(s, b):
                return f"inl[{render_formula(b)}] {arg(s)}"
            case Inr(s, a):
                return f"inr[{render_formula(a)}] {arg(s)}"
            case Case(r, x, a, s, y, b, v):
                return (
                    f"case {render(r)} {{ {x.name}:{_render_annotation(a)}. {render(s)}"
                    f" | {y.name}:{_render_annotation(b)}. {render(v)} }}"
                )
            case Abort(s, c):
                return f"abort[{render_formula(c)}] {arg(s)}"
        raise TypeError(f"not a term: {u!r}")

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
