"""Sense and denotation of derivations, and their comparison.

The sense of a derivation is the set of terms written down while
carrying it out. Its denotation is the value of its end term under
rewriting. Two derivations can present the same value differently,
and `classify` names the ways that can play out.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Union

from . import nd as _nd
from . import sc as _sc
from .core import (
    Abort,
    App,
    Case,
    Formula,
    Fst,
    Inl,
    Inr,
    Lam,
    Pair,
    Snd,
    Term,
    Var,
    VarRef,
    alpha_equal,
)
from .rewrite import (
    INCONCLUSIVE,
    BetaEta,
    BetaEtaGamma,
    EqualityMode,
    Inconclusive,
    equivalent,
    normalize,
)

Derivation = Union["_nd.NdDerivation", "_sc.ScDerivation"]

_ND_NODES = (
    _nd.Hyp,
    _nd.ImpI,
    _nd.ImpE,
    _nd.AndI,
    _nd.AndE1,
    _nd.AndE2,
    _nd.OrI1,
    _nd.OrI2,
    _nd.OrE,
    _nd.AbsurdE,
)


def _is_nd(d: Derivation) -> bool:
    return isinstance(d, _ND_NODES)


def _conclusion(d: Derivation) -> tuple[Term, Formula]:
    if _is_nd(d):
        j = _nd.check_nd(d)
        return j.term, j.formula
    s = _sc.check_sc(d)
    return s.term, s.succedent


def _variable_types(d: Derivation) -> dict[Var, Formula]:
    return _nd.variable_types(d) if _is_nd(d) else _sc.variable_types(d)


# ---------- Sense ----------


@dataclass(frozen=True)
class Sense:
    """The terms a derivation mentions, optionally with multiplicities."""

    elements: frozenset[Term]
    counts: Mapping[Term, int] | None = None

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, t: Term) -> bool:
        return t in self.elements


def sense_of(d: Derivation, multiset: bool = False) -> Sense:
    """Collect every term occurring at a node of d.

    For natural deduction that is the annotating term of each node,
    hypothesis leaves included. For sequents it is each node's
    succedent term together with each antecedent variable.
    """
    occurrences: list[Term] = []
    if _is_nd(d):
        for _, j in _nd.node_judgments(d):
            occurrences.append(j.term)
    else:
        for _, s in _sc.node_sequents(d):
            occurrences.append(s.term)
            occurrences.extend(VarRef(v) for v in s.antecedent.vars())
    counts = dict(Counter(occurrences)) if multiset else None
    return Sense(frozenset(occurrences), counts)


def _skeleton(t: Term, out: list[Var]):
    """Hashable shape of t with variable occurrences blanked out.

    Variables, binders included, are appended to `out` in a fixed
    traversal order, so two terms with equal skeletons correspond
    variable for variable.
    """
    match t:
        case VarRef(v):
            out.append(v)
            return ("var",)
        case Lam(x, a, b):
            out.append(x)
            return ("lam", a, _skeleton(b, out))
        case App(f, a):
            return ("app", _skeleton(f, out), _skeleton(a, out))
        case Pair(s, u):
            return ("pair", _skeleton(s, out), _skeleton(u, out))
        case Fst(p):
            return ("fst", _skeleton(p, out))
        case Snd(p):
            return ("snd", _skeleton(p, out))
        case Inl(s, b):
            return ("inl", b, _skeleton(s, out))
        case Inr(s, a):
            return ("inr", a, _skeleton(s, out))
        case Case(r, x, a, s, y, b, u):
            kr = _skeleton(r, out)
            out.append(x)
            ks = _skeleton(s, out)
            out.append(y)
            ku = _skeleton(u, out)
            return ("case", a, b, kr, ks, ku)
        case Abort(s, c):
            return ("abort", c, _skeleton(s, out))
    raise TypeError(f"not a term: {t!r}")


def sense_renaming(
    d1: Derivation, d2: Derivation, multiset: bool = False
) -> dict[Var, Var] | None:
    """A formula-preserving bijective renaming of variables carrying
    the sense of d1 onto the sense of d2, or None when there is none."""
    s1 = sense_of(d1, multiset=multiset)
    s2 = sense_of(d2, multiset=multiset)
    if len(s1.elements) != len(s2.elements):
        return None
    tau1 = _variable_types(d1)
    tau2 = _variable_types(d2)

    def prepared(sense: Sense) -> list[tuple[object, tuple[Var, ...]]]:
        items = []
        for e in sense.elements:
            vs: list[Var] = []
            skel = _skeleton(e, vs)
            count = sense.counts[e] if sense.counts is not None else 0
            items.append(((skel, count), tuple(vs)))
        return items

    items1 = prepared(s1)
    items2 = prepared(s2)
    if Counter(k for k, _ in items1) != Counter(k for k, _ in items2):
        return None

    buckets: dict[object, list[int]] = {}
    for j, (k, _) in enumerate(items2):
        buckets.setdefault(k, []).append(j)
    # Scarce shapes first keeps the search shallow.
    order = sorted(range(len(items1)), key=lambda i: len(buckets[items1[i][0]]))

    rho: dict[Var, Var] = {}
    inv: dict[Var, Var] = {}
    used = [False] * len(items2)

    def extend(vs1: tuple[Var, ...], vs2: tuple[Var, ...]):
        added: list[tuple[Var, Var]] = []
        for a, b in zip(vs1, vs2):
            if tau1.get(a) != tau2.get(b):
                break
            pa, pb = rho.get(a), inv.get(b)
            if pa is None and pb is None:
                rho[a] = b
                inv[b] = a
                added.append((a, b))
            elif pa != b or pb != a:
                break
        else:
            return added
        for a, b in added:
            del rho[a]
            del inv[b]
        return None

    def backtrack(i: int) -> bool:
        if i == len(order):
            return True
        key, vs1 = items1[order[i]]
        for j in buckets[key]:
            if used[j]:
                continue
            added = extend(vs1, items2[j][1])
            if added is None:
                continue
            used[j] = True
            if backtrack(i + 1):
                return True
            used[j] = False
            for a, b in added:
                del rho[a]
                del inv[b]
        return False

    return dict(rho) if backtrack(0) else None


def same_sense(d1: Derivation, d2: Derivation, multiset: bool = False) -> bool:
    """Whether some formula-preserving bijective renaming of variables
    carries the sense of d1 onto the sense of d2."""
    return sense_renaming(d1, d2, multiset=multiset) is not None


# ---------- Denotation ----------


def denotation_of(d: Derivation) -> Term:
    """The normal form of the end term of d."""
    term, _ = _conclusion(d)
    return normalize(term)


def same_denotation(
    d1: Derivation, d2: Derivation, mode: EqualityMode = BetaEta()
) -> bool | Inconclusive:
    """Whether the end terms of d1 and d2 are equal under `mode`.

    Derivations of different formulas never share a denotation.
    """
    t1, f1 = _conclusion(d1)
    t2, f2 = _conclusion(d2)
    if f1 != f2:
        return False
    return equivalent(t1, t2, mode)


# ---------- Classification ----------


@dataclass(frozen=True)
class SameSenseSameDenotation:
    pass


@dataclass(frozen=True)
class DifferentSenseSameDenotation:
    pass


@dataclass(frozen=True)
class DifferentDenotation:
    pass


@dataclass(frozen=True)
class SameDenotationUpToGamma:
    inconclusive: bool = False


Verdict = Union[
    SameSenseSameDenotation,
    DifferentSenseSameDenotation,
    DifferentDenotation,
    SameDenotationUpToGamma,
]


def classify(
    d1: Derivation,
    d2: Derivation,
    mode: EqualityMode = BetaEta(),
    multiset: bool = False,
) -> Verdict:
    """Place the pair (d1, d2) in the identity landscape.

    Plain rewriting equality is decided first, by comparing the normal
    forms of the end terms; only failing that, and only when the mode
    allows it, are permutative conversions tried: closed normal forms
    with different values in the finite model are refuted at once, and
    otherwise a search from them may come back without a definite
    answer.
    """
    t1, f1 = _conclusion(d1)
    t2, f2 = _conclusion(d2)
    if f1 != f2:
        return DifferentDenotation()
    n1, n2 = normalize(t1), normalize(t2)
    if alpha_equal(n1, n2):
        if same_sense(d1, d2, multiset=multiset):
            return SameSenseSameDenotation()
        return DifferentSenseSameDenotation()
    if isinstance(mode, BetaEtaGamma):
        # normalize returns a normal form unchanged, so the search starts
        # from n1 and n2 without rewriting them again.
        wide = equivalent(n1, n2, mode)
        if wide is True:
            return SameDenotationUpToGamma(inconclusive=False)
        if wide is INCONCLUSIVE:
            return SameDenotationUpToGamma(inconclusive=True)
    return DifferentDenotation()
