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

The denotation is normalized at most once per derivation: the first
reader stores the normal form on the derivation as `_denotation`, and
`classify`, `same_denotation`, `denotation_of` and the CLI's `corpus`
all read it from there. Only the normal form is kept, never the checked
root, whose node list refers back to the derivation and would make a
reference cycle (see README, "What counts as equal").
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Union

from . import nd as _nd
from . import sc as _sc
from .core import LABELS, SUBTERMS, Absurd, Atom, Context, Formula, Term, Var, VarRef, alpha_equal
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


def _occurrences(root: Checked) -> list[Term]:
    # The sense's terms, each as often as it occurs, in the order the
    # checker recorded the nodes; antecedent variables by name.
    out: list[Term] = []
    for _, j in root.nodes:
        out.append(j.term)
        if isinstance(j, _sc.Sequent):
            out.extend(VarRef(v) for v, _ in j.antecedent.items())
    return out


def _sense(root: Checked, multiset: bool) -> Sense:
    occurrences = _occurrences(root)
    counts = dict(Counter(occurrences)) if multiset else None
    return Sense(frozenset(occurrences), counts)


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
    the sense of d1 onto the sense of d2, or None when there is none."""
    return _renaming(check(d1), check(d2), multiset)


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


def _renaming(c1: Checked, c2: Checked, multiset: bool) -> dict[Var, Var] | None:
    """The renaming of `sense_renaming` between two checked derivations.
    Each natural deduction node's term is one subterm position of the
    end term, so two judgments are matched on their end terms (see
    README, "What counts as equal"); other pairs are searched."""
    rho = _Bijection(c1.types, c2.types)
    if isinstance(c1, _nd.Judgment) and isinstance(c2, _nd.Judgment):
        return _match(c1.term, c2.term, rho)
    return _search(_occurrences(c1), _occurrences(c2), rho, multiset)


def _match(t1: Term, t2: Term, rho: _Bijection) -> dict[Var, Var] | None:
    # Both terms in lockstep on an explicit stack, each binder bound as
    # its subterm is entered.
    stack: list[tuple[Term, Term, Var | None, Var | None]] = [(t1, t2, None, None)]
    while stack:
        u1, u2, x1, x2 = stack.pop()
        cls = type(u1)
        if (x1 is not None and not rho.bind(x1, x2)) or type(u2) is not cls:
            return None
        if cls is VarRef:
            if not rho.bind(u1.var, u2.var):
                return None
        elif any(getattr(u1, f) != getattr(u2, f) for f in LABELS[cls]):
            return None
        for name, binder in reversed(SUBTERMS[cls]):
            b1, b2 = (getattr(u1, binder), getattr(u2, binder)) if binder else (None, None)
            stack.append((getattr(u1, name), getattr(u2, name), b1, b2))
    return rho.forward


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
    """The normal form of the end term of d. It is computed once, by
    this or by any other reader of d's denotation, and kept on d."""
    n = getattr(d, "_denotation", None)
    return n if n is not None else _denotation(check(d))


def _denotation(c: Checked) -> Term:
    """The normal form of c's end term, kept on the derivation c was
    checked from: the checker records premises first, so that is the
    last node. A root with no recorded nodes keeps nothing."""
    d = c.nodes[-1][0] if c.nodes else None
    n = getattr(d, "_denotation", None)
    if n is None:
        n = normalize(c.term)
        if d is not None:
            object.__setattr__(d, "_denotation", n)
    return n


def same_denotation(
    d1: Derivation, d2: Derivation, mode: EqualityMode = BetaEta()
) -> bool | Inconclusive:
    """Whether the end terms of d1 and d2 are equal under `mode`.

    Derivations of different formulas never share a denotation.
    """
    c1, c2 = check(d1), check(d2)
    if not _same_formula(conclusion(c1)[2], conclusion(c2)[2]):
        return False
    # normalize returns a normal form unchanged, so handing `equivalent`
    # the two denotations decides the same question.
    return equivalent(_denotation(c1), _denotation(c2), mode)


def _same_formula(f1: Formula, f2: Formula) -> bool:
    """f1 == f2, on an explicit stack: the dataclass __eq__ nests two
    frames per connective, too many for the conclusion of a wide
    derivation."""
    stack = [(f1, f2)]
    while stack:
        a, b = stack.pop()
        if type(a) is not type(b) or (type(a) is Atom and a.name != b.name):
            return False
        if type(a) not in (Atom, Absurd):
            stack += ((a.right, b.right), (a.left, b.left))
    return True


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
    return classify_checked(check(d1), check(d2), mode, multiset)


def classify_checked(
    c1: Checked,
    c2: Checked,
    mode: EqualityMode = BetaEta(),
    multiset: bool = False,
) -> Verdict:
    """`classify` on the roots of two checker runs, so a caller that
    holds them need not check the derivations again. Each side's
    normal form is read through `_denotation`, so it is computed once
    however many pairs the derivation takes part in."""
    n1, n2 = _denotation(c1), _denotation(c2)
    if not _same_formula(conclusion(c1)[2], conclusion(c2)[2]):
        return DifferentDenotation((n1, n2))
    if alpha_equal(n1, n2):
        renaming = _renaming(c1, c2, multiset)
        if renaming is not None:
            return SameSenseSameDenotation(renaming)
        return DifferentSenseSameDenotation((_sense(c1, multiset), _sense(c2, multiset)))
    if isinstance(mode, BetaEtaGamma):
        # normalize returns a normal form unchanged, so the search starts
        # from n1 and n2 without rewriting them again.
        wide = equivalent(n1, n2, mode)
        if wide is True:
            return SameDenotationUpToGamma(False, (n1, n2))
        if wide is INCONCLUSIVE:
            return SameDenotationUpToGamma(True, (n1, n2))
    return DifferentDenotation((n1, n2))
