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
derivation is checked once however many questions are asked of it, and
its end term keeps its normal form (see core). A verdict of `classify`
carries the evidence it found: the renaming, the two senses or the two
normal forms. In gamma mode too, a pair without sums is decided by them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import field
from typing import Mapping, Union

from . import nd as _nd
from . import sc as _sc
from .core import LABELS, SUBTERMS, Absurd, Atom, Context, Formula, Or, Term, Var, VarRef
from .core import Record, alpha_equal, free_vars, rebuild, record
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
    return _nd.kept(d, _nd.check_nd if type(d) in _nd._NdChecker.steps else _sc.check_sc)


def conclusion(j: Checked) -> tuple[Context, Term, Formula]:
    """The context, term and formula of a judgment or a sequent."""
    match j:
        case _nd.Judgment(ctx, term, formula) | _sc.Sequent(ctx, term, formula):
            return ctx, term, formula
    raise TypeError(f"not a judgment or sequent: {j!r}")


# ---------- Sense ----------


@record
class Sense(Record):
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
    counts = _occurrences(check(d))
    return Sense(frozenset(counts), counts if multiset else None)


def _occurrences(root: Checked) -> dict[Term, int]:
    # The sense's terms with their counts, in the order the checker
    # recorded the nodes, root last: each node's term, then the antecedent
    # variables first seen at that node, by name. So each variable is
    # sorted and interned once, and the antecedents are counted together.
    counts: dict[Term, int] = {}
    antecedents: list[Var] = []
    seen: set[Var] = set()
    for j in (*(j for _, j in root.nodes), root):
        counts[j.term] = counts.get(j.term, 0) + 1
        if isinstance(j, _sc.Sequent):
            ante = j.antecedent._bindings
            antecedents.extend(ante)
            if not seen.issuperset(ante):
                for v in sorted(ante.keys() - seen, key=lambda v: v.name):
                    counts.setdefault(VarRef(v), 0)
                seen.update(ante)
    for v, n in Counter(antecedents).items():
        counts[VarRef(v)] += n
    return counts


_BLANK = Var("")


def _skeleton(t: Term) -> Term:
    """t with every variable, bound or free, replaced by one blank. It
    is interned, so skeletons compare by identity, and it is computed
    once per node and kept on the node, as `normalize` keeps `_normal`."""
    skel = getattr(t, "_skeleton", None)
    if skel is None:
        changes: dict[str, object] = {"var": _BLANK} if type(t) is VarRef else {}
        for name, binder in SUBTERMS[type(t)]:
            changes[name] = _skeleton(getattr(t, name))
            if binder is not None:
                changes[binder] = _BLANK
        skel = rebuild(t, changes)
        object.__setattr__(t, "_skeleton", skel)
    return skel


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
        return rho.renaming() if _match(c1.term, c2.term, rho) else None
    return _search(_occurrences(c1), _occurrences(c2), rho, multiset)


class _Bijection:
    """A partial renaming between the variables of two checked
    derivations that stays bijective and keeps each variable's formula.
    It also pairs each term node `_match` has carried onto another.
    `trail` lists both, oldest first, each node after its variables.
    Pairs last one comparison; a node itself keeps `_normal` and
    `_skeleton` (see core)."""

    def __init__(self, tau1: Mapping[Var, Formula], tau2: Mapping[Var, Formula]) -> None:
        self.tau1, self.tau2 = tau1, tau2
        self.forward, self.backward, self.trail = {}, {}, []

    def bind(self, a: Var | Term, b: Var | Term) -> bool:
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

    def renaming(self) -> dict[Var, Var]:
        """The variables bound, oldest first."""
        return {a: b for a, b in self.forward.items() if type(a) is Var}


def _match(t1: Term, t2: Term, rho: _Bijection) -> bool:
    # Both terms in lockstep, each binder bound as its subterm is entered.
    # A renaming carries a node onto one node, so a paired one is settled.
    cls = type(t1)
    if type(t2) is not cls:
        return False
    if cls is VarRef:
        return rho.bind(t1.var, t2.var)
    known = rho.forward.get(t1)
    if known is not None:
        return known is t2
    for f in LABELS[cls]:
        if getattr(t1, f) != getattr(t2, f):
            return False
    for name, binder in SUBTERMS[cls]:
        if binder is not None and not rho.bind(getattr(t1, binder), getattr(t2, binder)):
            return False
        if not _match(getattr(t1, name), getattr(t2, name), rho):
            return False
    return rho.bind(t1, t2)


def _search(
    counts1: Mapping[Term, int], counts2: Mapping[Term, int], rho: _Bijection, multiset: bool
) -> dict | None:
    """Extend rho by search until it carries the terms of counts1 onto
    those of counts2. Each term tries, through `_match`, the terms with its
    skeleton (kept on each node, beside `_normal`) and, for multisets,
    its count. The distinct terms are taken in the order given, so the
    renaming found does not depend on hashing."""
    keys1 = {e: (_skeleton(e), n if multiset else 0) for e, n in counts1.items()}
    keys2 = {e: (_skeleton(e), n if multiset else 0) for e, n in counts2.items()}
    if Counter(keys1.values()) != Counter(keys2.values()):
        return None

    buckets: dict[tuple, list[Term]] = {}
    for e, k in keys2.items():
        buckets.setdefault(k, []).append(e)
    # Scarce skeletons first keeps the search shallow.
    order = sorted(keys1, key=lambda e: len(buckets[keys1[e]]))

    used: set[Term] = set()
    # Depth-first over `order` on an explicit stack, so a long sense
    # costs no recursion: chosen[i] holds the bucket position matched to
    # order[i] and the length of rho's trail before that match.
    chosen: list[tuple[int, int]] = []
    start = 0
    while len(chosen) < len(order):
        e1 = order[len(chosen)]
        bucket = buckets[keys1[e1]]
        for pos in range(start, len(bucket)):
            e2 = bucket[pos]
            if e2 in used:
                continue
            mark = len(rho.trail)
            if _match(e1, e2, rho):
                used.add(e2)
                chosen.append((pos, mark))
                start = 0
                break
            rho.undo(mark)
        else:
            if not chosen:
                return None
            pos, mark = chosen.pop()
            used.discard(buckets[keys1[order[len(chosen)]]][pos])
            rho.undo(mark)
            start = pos + 1
    return rho.renaming()


def same_sense(d1: Derivation, d2: Derivation, multiset: bool = False) -> bool:
    """Whether some formula-preserving bijective renaming of variables
    carries the sense of d1 onto the sense of d2."""
    return sense_renaming(d1, d2, multiset=multiset) is not None


# ---------- Denotation ----------


def denotation_of(d: Derivation) -> Term:
    """The normal form of the end term of d, which the end term keeps."""
    return normalize(check(d).term)


def same_denotation(
    d1: Derivation, d2: Derivation, mode: EqualityMode = BetaEta()
) -> bool | Inconclusive:
    """Whether the end terms of d1 and d2 are equal under `mode`.

    Derivations of different formulas, or whose denotations share a
    free variable at two formulas, never share a denotation. A pair
    without sums (`_sum_free`) compares normal forms in every mode.
    """
    c1, c2, n1, n2 = check(d1), check(d2), denotation_of(d1), denotation_of(d2)
    if not _comparable(c1, c2, n1, n2):
        return False
    # normalize returns a normal form unchanged, so handing `equivalent`
    # the two denotations decides the same question.
    return alpha_equal(n1, n2) if _sum_free(c1, c2) else equivalent(n1, n2, mode)


def _comparable(c1: Checked, c2: Checked, n1: Term, n2: Term) -> bool:
    """Whether checked derivations with denotations n1 and n2 may share
    one: they prove one formula, and each variable free in both n1 and
    n2 stands at one formula in both. One free on one side only does not
    block, as normalizing can drop it and a weakened one never occurs."""
    ctx1, _, f1 = conclusion(c1)
    ctx2, _, f2 = conclusion(c2)
    if f1 is not f2:
        return False
    # Each root's context holds its end term's free variables, so the
    # normal forms are read only when the contexts disagree somewhere.
    other = ctx2._bindings
    clash = {v for v, f in ctx1._bindings.items() if other.get(v, f) is not f}
    return not clash or clash.isdisjoint(free_vars(n1) & free_vars(n2))


def _sum_free(c1: Checked, c2: Checked) -> bool:
    """Whether neither conclusion nor either root context mentions `\\/`
    or `_|_`. Gamma equality of the two normal forms is then beta-eta
    equality, which their alpha keys decide:
      - By induction on beta-normal terms, neither holds `inl`, `inr`,
        `case`, `abort` or an annotation that mentions a sum: an intro
        form splits its type, a neutral's parts are subformulas of its
        head variable's type, and a `case` or an `abort` would need a
        `\\/` or `_|_` type there.
      - By Yoneda, the free cartesian closed category embeds fully and
        faithfully into presheaves, which are bicartesian closed; so
        terms without sums that the sum laws, gamma included, equate
        are already beta-eta equal."""
    todo = [f for ctx, _, a in map(conclusion, (c1, c2)) for f in (a, *ctx._bindings.values())]
    while todo:
        a = todo.pop()
        if type(a) is Or or type(a) is Absurd:
            return False
        todo += [] if type(a) is Atom else [a.left, a.right]
    return True


# ---------- Classification ----------


# Each verdict keeps the evidence `classify` found, outside equality
# and repr: the renaming of the first sense onto the second, the two
# senses, or the normal forms of the two end terms.


@record
class SameSenseSameDenotation(Record):
    renaming: Mapping[Var, Var] | None = field(default=None, compare=False, repr=False)


@record
class DifferentSenseSameDenotation(Record):
    senses: tuple[Sense, Sense] | None = field(default=None, compare=False, repr=False)


@record
class DifferentDenotation(Record):
    normal_forms: tuple[Term, Term] | None = field(default=None, compare=False, repr=False)


@record
class SameDenotationUpToGamma(Record):
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
    forms of the end terms. Failing that, gamma mode refutes at once a
    pair whose formulas have no sums (`_sum_free`), and closed normal
    forms with different values in the finite model; otherwise a search
    from them may come back without a definite answer. Each derivation
    object is checked once, and both its sense and its denotation are
    read off that check, however many pairs it takes part in.
    """
    c1, c2, n1, n2 = check(d1), check(d2), denotation_of(d1), denotation_of(d2)
    if not _comparable(c1, c2, n1, n2):
        return DifferentDenotation((n1, n2))
    if alpha_equal(n1, n2):
        renaming = sense_renaming(d1, d2, multiset)
        if renaming is not None:
            return SameSenseSameDenotation(renaming)
        return DifferentSenseSameDenotation((sense_of(d1, multiset), sense_of(d2, multiset)))
    if isinstance(mode, BetaEtaGamma) and not _sum_free(c1, c2):
        # normalize returns a normal form unchanged, so the search starts
        # from n1 and n2 without rewriting them again.
        wide = equivalent(n1, n2, mode)
        if wide is True:
            return SameDenotationUpToGamma(False, (n1, n2))
        if wide is INCONCLUSIVE:
            return SameDenotationUpToGamma(True, (n1, n2))
    return DifferentDenotation((n1, n2))
