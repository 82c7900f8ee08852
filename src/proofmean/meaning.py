"""Sense and denotation of derivations, and their comparison.

The sense of a derivation is the set of terms written down while
carrying it out. Its denotation is the value of its end term under
rewriting. Two derivations can present the same value differently,
and `classify` names the ways that can play out.

Every fact of a derivation is read off one checker run: `check` returns
the root judgment or sequent, which carries each node's judgment (the
sense) and the variable types (for the renaming search), and its end
term gives the denotation. `classify` checks each derivation once, and
its verdict carries the evidence it found: the renaming, the two senses
or the two normal forms.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Union

from . import nd as _nd
from . import sc as _sc
from .core import (
    Abort,
    App,
    Case,
    Context,
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
Checked = Union["_nd.Judgment", "_sc.Sequent"]


def check(d: Derivation) -> Checked:
    """Check d with the checker of its own calculus. The root judgment
    or sequent also carries each node's and the variable types."""
    return _nd.check_nd(d) if isinstance(d, _nd.NdDerivation) else _sc.check_sc(d)


def conclusion(j: Checked) -> tuple[Context, Term, Formula]:
    """The context, term and formula of a judgment or a sequent."""
    match j:
        case _nd.Judgment(ctx, term, formula) | _sc.Sequent(ctx, term, formula):
            return ctx, term, formula
    raise TypeError(f"not a judgment or sequent: {j!r}")


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
    return _sense(check(d), multiset)


def _sense(root: Checked, multiset: bool) -> Sense:
    occurrences: list[Term] = []
    for _, j in root.nodes:
        occurrences.append(j.term)
        if isinstance(j, _sc.Sequent):
            occurrences.extend(VarRef(v) for v in j.antecedent.vars())
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
    c1, c2 = check(d1), check(d2)
    return _renaming(_sense(c1, multiset), c1.types, _sense(c2, multiset), c2.types)


def _renaming(
    s1: Sense, tau1: Mapping[Var, Formula], s2: Sense, tau2: Mapping[Var, Formula]
) -> dict[Var, Var] | None:
    """The renaming search of `sense_renaming`, given both senses and
    the variable types of the runs they came from."""
    if len(s1.elements) != len(s2.elements):
        return None

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

    # Depth-first over `order` on an explicit stack, so a long sense
    # costs no recursion: chosen[i] holds the bucket position matched to
    # order[i] and the bindings that match added.
    chosen: list[tuple[int, list[tuple[Var, Var]]]] = []
    start = 0
    while len(chosen) < len(order):
        key, vs1 = items1[order[len(chosen)]]
        bucket = buckets[key]
        for pos in range(start, len(bucket)):
            j = bucket[pos]
            if used[j]:
                continue
            added = extend(vs1, items2[j][1])
            if added is not None:
                used[j] = True
                chosen.append((pos, added))
                start = 0
                break
        else:
            if not chosen:
                return None
            pos, added = chosen.pop()
            used[buckets[items1[order[len(chosen)]][0]][pos]] = False
            for a, b in added:
                del rho[a]
                del inv[b]
            start = pos + 1
    return dict(rho)


def same_sense(d1: Derivation, d2: Derivation, multiset: bool = False) -> bool:
    """Whether some formula-preserving bijective renaming of variables
    carries the sense of d1 onto the sense of d2."""
    return sense_renaming(d1, d2, multiset=multiset) is not None


# ---------- Denotation ----------


def denotation_of(d: Derivation) -> Term:
    """The normal form of the end term of d."""
    return normalize(check(d).term)


def same_denotation(
    d1: Derivation, d2: Derivation, mode: EqualityMode = BetaEta()
) -> bool | Inconclusive:
    """Whether the end terms of d1 and d2 are equal under `mode`.

    Derivations of different formulas never share a denotation.
    """
    _, t1, f1 = conclusion(check(d1))
    _, t2, f2 = conclusion(check(d2))
    if f1 != f2:
        return False
    return equivalent(t1, t2, mode)


# ---------- Classification ----------


# Each verdict keeps the evidence `classify` found, outside equality
# and repr: the renaming of the first sense onto the second, the two
# senses, or the normal forms of the two end terms.


@dataclass(frozen=True)
class SameSenseSameDenotation:
    renaming: Mapping[Var, Var] | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class DifferentSenseSameDenotation:
    senses: tuple[Sense, Sense] | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class DifferentDenotation:
    normal_forms: tuple[Term, Term] | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SameDenotationUpToGamma:
    inconclusive: bool = False
    normal_forms: tuple[Term, Term] | None = field(default=None, compare=False, repr=False)


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
    answer. Each derivation is checked once, and both its sense and its
    denotation are read off that check.
    """
    c1, c2 = check(d1), check(d2)
    (_, t1, f1), (_, t2, f2) = conclusion(c1), conclusion(c2)
    n1, n2 = normalize(t1), normalize(t2)
    if f1 != f2:
        return DifferentDenotation((n1, n2))
    if alpha_equal(n1, n2):
        s1, s2 = _sense(c1, multiset), _sense(c2, multiset)
        renaming = _renaming(s1, c1.types, s2, c2.types)
        if renaming is not None:
            return SameSenseSameDenotation(renaming)
        return DifferentSenseSameDenotation((s1, s2))
    if isinstance(mode, BetaEtaGamma):
        # normalize returns a normal form unchanged, so the search starts
        # from n1 and n2 without rewriting them again.
        wide = equivalent(n1, n2, mode)
        if wide is True:
            return SameDenotationUpToGamma(False, (n1, n2))
        if wide is INCONCLUSIVE:
            return SameDenotationUpToGamma(True, (n1, n2))
    return DifferentDenotation((n1, n2))
