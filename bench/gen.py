"""Seeded inputs for the in-process workloads.

Every generated pair carries the verdict it was built to have and the
rendered normal form of each side, written down by the generator from
the construction. Nothing here calls proofmean, so the workloads can
check its answers against values it did not produce.

The seed picks variable and atom names, which leaf a differing pair
changes and the order tasks run in. Sizes are fixed by the grids in
workloads.py, so passes on different seeds cost about the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SAME_SENSE = "SameSenseSameDenotation"
DIFFERENT_SENSE = "DifferentSenseSameDenotation"
DIFFERENT = "DifferentDenotation"
UP_TO_GAMMA = "SameDenotationUpToGamma"

# Identifiers the term syntax reserves; generated names avoid them.
_RESERVED = {"case", "fst", "snd", "inl", "inr", "abort", "app", "nd", "sc"}


@dataclass(frozen=True)
class Pair:
    """Two derivation files and what comparing them must answer."""

    family: str
    size: int
    text1: str
    text2: str
    label: str
    nf1: str
    nf2: str
    fuel: int | None = None


class Names:
    """Distinct identifiers drawn from a seeded generator."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.used: set[str] = set()

    def fresh(self) -> str:
        while True:
            name = self.rng.choice("abcdeghjkmnrstv") + str(self.rng.randrange(10_000))
            if name not in self.used and name not in _RESERVED:
                self.used.add(name)
                return name

    def many(self, count: int) -> list[str]:
        return [self.fresh() for _ in range(count)]


# ---------- ND detour chains ----------


def _detour_chain(n: int, p: str, x: str, w: str, zs: list[str], core: tuple[str, str]) -> str:
    # Wrap the core pair p/\p in n detours cycling through a first
    # projection, a second projection and an identity application.
    d = f"(and-i (hyp {core[0]} {p}) (hyp {core[1]} {p}))"
    for i in range(n):
        kind = i % 3
        if kind == 0:
            d = f"(and-e1 (and-i {d} (hyp {x} {p})))"
        elif kind == 1:
            d = f"(and-e2 (and-i (hyp {w} {p}) {d}))"
        else:
            d = f"(imp-e (imp-i {zs[i]} (hyp {zs[i]} {p}/\\{p})) {d})"
    return f"(imp-i {x} {p} (imp-i {w} {p} {d}))"


def _chain_names(names: Names, n: int) -> tuple[str, str, list[str]]:
    x, w = names.many(2)
    return x, w, names.many(n)


def _file(calculus: str, name: str, derivation: str) -> str:
    return f"({calculus} {name} {derivation})"


def detour_pairs(rng: random.Random, n: int) -> list[Pair]:
    """A chain of n detours against a renamed copy, its direct form and
    a copy whose core pair repeats one leaf."""
    names = Names(rng)
    p = names.fresh()
    x, w, zs = _chain_names(names, n)
    x2, w2, zs2 = _chain_names(names, n)
    chain = _detour_chain(n, p, x, w, zs, (x, w))
    nf = f"\\{x}:{p}. \\{w}:{p}. <{x}, {w}>"
    renamed = _detour_chain(n, p, x2, w2, zs2, (x2, w2))
    nf_renamed = f"\\{x2}:{p}. \\{w2}:{p}. <{x2}, {w2}>"
    direct = f"(imp-i {x} {p} (imp-i {w} {p} (and-i (hyp {x} {p}) (hyp {w} {p}))))"
    core = (w, w) if rng.random() < 0.5 else (x, x)
    swapped = _detour_chain(n, p, x, w, zs, core)
    nf_swapped = f"\\{x}:{p}. \\{w}:{p}. <{core[0]}, {core[1]}>"
    chain = _file("nd", "chain", chain)
    return [
        Pair("detour", n, chain, _file("nd", "renamed", renamed), SAME_SENSE, nf, nf_renamed),
        Pair("detour", n, chain, _file("nd", "direct", direct), DIFFERENT_SENSE, nf, nf),
        Pair("detour", n, chain, _file("nd", "swapped", swapped), DIFFERENT, nf, nf_swapped),
    ]


# ---------- ND left-nested pair families ----------


def _pair_family(leaves: list[str], atoms: list[str], bs: list[str] | None) -> str:
    def leaf(i: int) -> str:
        hyp = f"(hyp {leaves[i]} {atoms[i]})"
        if bs is None:
            return hyp
        return f"(imp-e (imp-i {bs[i]} (hyp {bs[i]} {atoms[i]})) {hyp})"

    d = leaf(0)
    for i in range(1, len(leaves)):
        d = f"(and-i {d} {leaf(i)})"
    return d


def _closed(vars_: list[str], atoms: list[str], body: str) -> str:
    for v, a in reversed(list(zip(vars_, atoms))):
        body = f"(imp-i {v} {a} {body})"
    return body


def _family_nf(vars_: list[str], atoms: list[str], leaves: list[str]) -> str:
    body = leaves[0]
    for leaf in leaves[1:]:
        body = f"<{body}, {leaf}>"
    return "".join(f"\\{v}:{a}. " for v, a in zip(vars_, atoms)) + body


def family_pairs(rng: random.Random, width: int) -> list[Pair]:
    """A closed left-nested pair of `width` hypotheses, each reached
    through an identity application, against a renamed copy, the plain
    family and a copy with two same-typed leaves exchanged."""
    names = Names(rng)
    kinds = names.many(3)
    atoms = [kinds[i % 3] for i in range(width)]
    a, b = names.many(width), names.many(width)
    a2, b2 = names.many(width), names.many(width)
    i = rng.randrange(width - 3)
    leaves = list(a)
    leaves[i], leaves[i + 3] = leaves[i + 3], leaves[i]
    family = _closed(a, atoms, _pair_family(a, atoms, b))
    renamed = _closed(a2, atoms, _pair_family(a2, atoms, b2))
    plain = _closed(a, atoms, _pair_family(a, atoms, None))
    swapped = _closed(a, atoms, _pair_family(leaves, atoms, b))
    nf = _family_nf(a, atoms, a)
    family = _file("nd", "family", family)
    return [
        Pair("pairs", width, family, _file("nd", "renamed", renamed), SAME_SENSE,
             nf, _family_nf(a2, atoms, a2)),
        Pair("pairs", width, family, _file("nd", "plain", plain), DIFFERENT_SENSE, nf, nf),
        Pair("pairs", width, family, _file("nd", "swapped", swapped), DIFFERENT,
             nf, _family_nf(a, atoms, leaves)),
    ]


# ---------- SC cut chains ----------


def _cut_chain(n: int, p: str, x: str, w: str, cs: list[str], core: tuple[str, str]) -> str:
    # n identity cuts on p/\p stacked over the pairing of x and w.
    d = f"(and-r (rf {core[0]} {p}) (rf {core[1]} {p}))"
    for c in cs[:n]:
        d = f"(cut {c} {d} (rf {c} {p}/\\{p}))"
    return f"(imp-r {x} (imp-r {w} {d}))"


def cut_pairs(rng: random.Random, n: int) -> list[Pair]:
    """A chain of n cuts against a renamed copy, the cut-free form and
    a copy pairing the hypotheses the other way round."""
    names = Names(rng)
    p = names.fresh()
    x, w, cs = _chain_names(names, n)
    x2, w2, cs2 = _chain_names(names, n)
    chain = _cut_chain(n, p, x, w, cs, (x, w))
    renamed = _cut_chain(n, p, x2, w2, cs2, (x2, w2))
    cutfree = _cut_chain(0, p, x, w, cs, (x, w))
    swapped = _cut_chain(n, p, x, w, cs, (w, x))
    nf = f"\\{x}:{p}. \\{w}:{p}. <{x}, {w}>"
    chain = _file("sc", "chain", chain)
    return [
        Pair("cut", n, chain, _file("sc", "renamed", renamed), SAME_SENSE,
             nf, f"\\{x2}:{p}. \\{w2}:{p}. <{x2}, {w2}>"),
        Pair("cut", n, chain, _file("sc", "cutfree", cutfree), DIFFERENT_SENSE, nf, nf),
        Pair("cut", n, chain, _file("sc", "swapped", swapped), DIFFERENT,
             nf, f"\\{x}:{p}. \\{w}:{p}. <{w}, {x}>"),
    ]


# ---------- Nested-case pairs for the gamma search ----------


def _tuple(parts: list[str], pair: str) -> str:
    d = parts[0]
    for part in parts[1:]:
        d = f"({pair} {d} {part})" if pair != "<>" else f"<{d}, {part}>"
    return d


def case_pairs(rng: random.Random, k: int, fuel: int, flip: int) -> list[Pair]:
    """Case-of-tuple (ND) against tuple-of-cases (SC) over k components.

    The first pair is joined by pair splits. The second differs in one
    leaf, so no sequence of permutations relates them: the leaf of
    component flip // 2 in the left (flip even) or right branch.
    """
    names = Names(rng)
    p = names.fresh()
    w, u, x, y = names.many(4)
    left = [w if i % 2 else x for i in range(k)]
    right = [w if i % 3 == 2 else y for i in range(k)]
    flipped_left, flipped_right = list(left), list(right)
    j = flip // 2
    if flip % 2 == 0:
        flipped_left[j] = w if left[j] == x else x
    else:
        flipped_right[j] = w if right[j] == y else y
    head = f"\\{w}:{p}. \\{u}:({p}\\/{p}). "

    def nd_side() -> str:
        tl = _tuple([f"(hyp {v} {p})" for v in left], "and-i")
        tr = _tuple([f"(hyp {v} {p})" for v in right], "and-i")
        d = f"(or-e (hyp {u} {p}\\/{p}) {x} {tl} {y} {tr})"
        return _file("nd", "case_of_tuple", f"(imp-i {w} {p} (imp-i {u} ({p}\\/{p}) {d}))")

    def sc_side(ls: list[str], rs: list[str]) -> str:
        def leaf(v: str, bound: str) -> str:
            return f"(rf {v} {p})" if v == bound else f"(weaken {bound} {p} (rf {v} {p}))"

        cases = [f"(or-l {u} {x} {y} {leaf(a, x)} {leaf(b, y)})" for a, b in zip(ls, rs)]
        d = _tuple(cases, "and-r")
        if w not in ls + rs:
            d = f"(weaken {w} {p} {d})"
        return _file("sc", "tuple_of_cases", f"(imp-r {w} (imp-r {u} {d}))")

    def case_nf(ls: list[str], rs: list[str]) -> str:
        return f"case {u} {{ {x}:{p}. {_tuple(ls, '<>')} | {y}:{p}. {_tuple(rs, '<>')} }}"

    def tuple_nf(ls: list[str], rs: list[str]) -> str:
        cases = [f"case {u} {{ {x}:{p}. {a} | {y}:{p}. {b} }}" for a, b in zip(ls, rs)]
        return _tuple(cases, "<>")

    nd = nd_side()
    nf = head + case_nf(left, right)
    return [
        Pair("case_join", k, nd, sc_side(left, right), UP_TO_GAMMA, nf,
             head + tuple_nf(left, right), fuel),
        Pair("case_split", k, nd, sc_side(flipped_left, flipped_right), DIFFERENT, nf,
             head + tuple_nf(flipped_left, flipped_right), fuel),
    ]
