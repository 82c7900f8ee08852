"""Sense and denotation of derivations, and their comparison.

The sense of a derivation is the set of terms written down while
carrying it out. Its denotation is the value of its end term under
rewriting. Two derivations can present the same value differently,
and `classify` names the ways that can play out.

Every fact of a derivation is read off one checker run: `check` returns
the root judgment or sequent, which carries each node's judgment (the
sense) and the variable types (for the renaming search), and its end
term gives the denotation. The first run on a derivation object is kept
on it (`Node.checked`), and every reader here takes it from there, so a
derivation is checked once however many questions are asked of it. Its
denotation is likewise normalized once and kept on that root. A verdict
of `classify` carries the evidence it found: the renaming, the two
senses or the two normal forms.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Union

from . import nd as _nd
from . import sc as _sc
from .core import LABELS, SUBTERMS, Context, Formula, Term, Var, VarRef, alpha_equal
from .nd import Checked
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


def check(d: Derivation) -> Checked:
    """The root judgment or sequent of d's kept checker run, checking d
    with the checker of its own calculus if it has none. The root also
    carries the conclusion of every node below it and the variable types."""
    return _nd.kept(d, _nd.check_nd if isinstance(d, _nd.NdDerivation) else _sc.check_sc)


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
    occurrences = _occurrences(check(d))
    counts = dict(Counter(occurrences)) if multiset else None
    return Sense(frozenset(occurrences), counts)


def _occurrences(root: Checked) -> list[Term]:
    # The sense's terms, each as often as it occurs, in the order the
    # checker recorded the nodes, root last; antecedent variables by name.
    out: list[Term] = []
    for j in (*(j for _, j in root.nodes), root):
        out.append(j.term)
        if isinstance(j, _sc.Sequent):
            out.extend(VarRef(v) for v, _ in j.antecedent.items())
    return out


def _skeleton(t: Term, out: list[Var]):
    """Hashable shape of t with variable occurrences blanked out.

    Variables, binders included, are appended to `out` in a fixed
    traversal order, so two terms with equal skeletons correspond
    variable for variable.
    """
    cls = type(t)
    if cls is VarRef:
        out.append(t.var)
        return None
    key = [cls]
    for f in LABELS[cls]:
        key.append(getattr(t, f))
    for name, binder in SUBTERMS[cls]:
        if binder is not None:
            out.append(getattr(t, binder))
        key.append(_skeleton(getattr(t, name), out))
    return tuple(key)


def sense_renaming(
    d1: Derivation, d2: Derivation, multiset: bool = False
) -> dict[Var, Var] | None:
    """A formula-preserving bijective renaming of variables carrying
    the sense of d1 onto the sense of d2, or None when there is none.
    Each natural deduction node's term is one subterm position of the
    end term, so two judgments are matched on their end terms (see
    README, "What counts as equal"); other pairs are searched."""
    c1, c2 = check(d1), check(d2)
    rho = _Bijection(c1.types, c2.types)
    if isinstance(c1, _nd.Judgment) and isinstance(c2, _nd.Judgment):
        return rho.forward if _match(c1.term, c2.term, rho) else None
    return _search(_occurrences(c1), _occurrences(c2), rho, multiset)


class _Bijection:
    """A partial renaming between the variables of two checked
    derivations that stays bijective and keeps each variable's formula.
    `trail` lists the variables bound, oldest first."""

    def __init__(self, tau1: Mapping[Var, Formula], tau2: Mapping[Var, Formula]) -> None:
        self.tau1, self.tau2 = tau1, tau2
        self.forward, self.backward, self.trail = {}, {}, []

    def bind(self, a: Var, b: Var) -> bool:
        """Map a to b; False if that changes a formula or either is mapped elsewhere."""
        if self.tau1.get(a) != self.tau2.get(b):
            return False
        pa, pb = self.forward.get(a), self.backward.get(b)
        if pa is None and pb is None:
            self.forward[a] = b
            self.backward[b] = a
            self.trail.append(a)
            return True
        return pa == b and pb == a

    def undo(self, mark: int) -> None:
        """Take back the bindings made since the trail had length mark."""
        while len(self.trail) > mark:
            del self.backward[self.forward.pop(self.trail.pop())]


def _match(t1: Term, t2: Term, rho: _Bijection) -> bool:
    # Both terms in lockstep, each binder bound as its subterm is entered.
    cls = type(t1)
    if type(t2) is not cls:
        return False
    if cls is VarRef:
        return rho.bind(t1.var, t2.var)
    if any(getattr(t1, f) != getattr(t2, f) for f in LABELS[cls]):
        return False
    for name, binder in SUBTERMS[cls]:
        if binder is not None and not rho.bind(getattr(t1, binder), getattr(t2, binder)):
            return False
        if not _match(getattr(t1, name), getattr(t2, name), rho):
            return False
    return True


def _search(occ1: list[Term], occ2: list[Term], rho: _Bijection, multiset: bool) -> dict | None:
    """Extend rho by search until it carries the terms of occ1 onto
    those of occ2. The distinct terms are taken in the order given, so
    the renaming found does not depend on hashing."""
    counts1, counts2 = Counter(occ1), Counter(occ2)
    if len(counts1) != len(counts2):
        return None

    def prepared(counts: Counter) -> list[tuple[object, tuple[Var, ...]]]:
        items = []
        for e, count in counts.items():
            vs: list[Var] = []
            skel = _skeleton(e, vs)
            items.append(((skel, count if multiset else 0), tuple(vs)))
        return items

    items1 = prepared(counts1)
    items2 = prepared(counts2)
    if Counter(k for k, _ in items1) != Counter(k for k, _ in items2):
        return None

    buckets: dict[object, list[int]] = {}
    for j, (k, _) in enumerate(items2):
        buckets.setdefault(k, []).append(j)
    # Scarce shapes first keeps the search shallow.
    order = sorted(range(len(items1)), key=lambda i: len(buckets[items1[i][0]]))

    used = [False] * len(items2)

    # Depth-first over `order` on an explicit stack, so a long sense
    # costs no recursion: chosen[i] holds the bucket position matched to
    # order[i] and the length of rho's trail before that match.
    chosen: list[tuple[int, int]] = []
    start = 0
    while len(chosen) < len(order):
        key, vs1 = items1[order[len(chosen)]]
        bucket = buckets[key]
        for pos in range(start, len(bucket)):
            j = bucket[pos]
            if used[j]:
                continue
            mark = len(rho.trail)
            if all(rho.bind(a, b) for a, b in zip(vs1, items2[j][1])):
                used[j] = True
                chosen.append((pos, mark))
                start = 0
                break
            rho.undo(mark)
        else:
            if not chosen:
                return None
            pos, mark = chosen.pop()
            used[buckets[items1[order[len(chosen)]][0]][pos]] = False
            rho.undo(mark)
            start = pos + 1
    return dict(rho.forward)


def same_sense(d1: Derivation, d2: Derivation, multiset: bool = False) -> bool:
    """Whether some formula-preserving bijective renaming of variables
    carries the sense of d1 onto the sense of d2."""
    return sense_renaming(d1, d2, multiset=multiset) is not None


# ---------- Denotation ----------


def denotation_of(d: Derivation) -> Term:
    """The normal form of the end term of d. It is computed once and
    kept on the root of d's checker run, where every reader finds it."""
    root = check(d)
    if root.normal is None:
        object.__setattr__(root, "normal", normalize(root.term))
    return root.normal


def same_denotation(
    d1: Derivation, d2: Derivation, mode: EqualityMode = BetaEta()
) -> bool | Inconclusive:
    """Whether the end terms of d1 and d2 are equal under `mode`.

    Derivations of different formulas never share a denotation.
    """
    if conclusion(check(d1))[2] is not conclusion(check(d2))[2]:
        return False
    # normalize returns a normal form unchanged, so handing `equivalent`
    # the two denotations decides the same question.
    return equivalent(denotation_of(d1), denotation_of(d2), mode)


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
    answer. Each derivation object is checked once, and both its sense
    and its denotation are read off that check, however many pairs it
    takes part in.
    """
    c1, c2 = check(d1), check(d2)
    n1, n2 = denotation_of(d1), denotation_of(d2)
    if conclusion(c1)[2] is not conclusion(c2)[2]:
        return DifferentDenotation((n1, n2))
    if alpha_equal(n1, n2):
        renaming = sense_renaming(d1, d2, multiset)
        if renaming is not None:
            return SameSenseSameDenotation(renaming)
        return DifferentSenseSameDenotation((sense_of(d1, multiset), sense_of(d2, multiset)))
    if isinstance(mode, BetaEtaGamma):
        # normalize returns a normal form unchanged, so the search starts
        # from n1 and n2 without rewriting them again.
        wide = equivalent(n1, n2, mode)
        if wide is True:
            return SameDenotationUpToGamma(False, (n1, n2))
        if wide is INCONCLUSIVE:
            return SameDenotationUpToGamma(True, (n1, n2))
    return DifferentDenotation((n1, n2))
