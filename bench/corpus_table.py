r"""Hand-written answers for the shipped corpus, and the CLI traffic over it.

The formulas, end terms, normal forms and sense sizes below were worked
out by hand from the rule tables in the README and the derivation
files, then written in the CLI's rendering. The pair verdicts come from
the corpus comments, the README and the designated pairs of the
acceptance suite; two derivations of different formulas never share a
denotation. One correction to the comments: `sc_dist_*` inject with
`or-r2 p`, which puts p on the left, so they prove
((q/\r)\/p) -> ((p\/q)/\(p\/r)), not (q\/p)/\(r\/p) as written there.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable

from gen import DIFFERENT, DIFFERENT_SENSE, SAME_SENSE, UP_TO_GAMMA

CASE_PAIR = r"\y:(p\/p). <case y { x:p. x | x:p. x }, case y { x:p. x | x:p. x }>"
DIST = (
    r"\u:((q/\r)\/p). case u { v:(q/\r). <inr[p] fst(v), inr[p] snd(v)>"
    r" | x:p. <inl[q] x, inl[r] x> }"
)
DIST_SPLIT = (
    r"\u:((q/\r)\/p). <case u { v:(q/\r). inr[p] fst(v) | x:p. inl[q] x },"
    r" case u { v:(q/\r). inr[p] snd(v) | x:p. inl[r] x }>"
)
INL_FST = r"\y:(p/\p). inl[p] fst(y)"
TS = r"\u:(s/\p). \z:(q/\r). <snd(u), fst(z)>"


@dataclass(frozen=True)
class Entry:
    formula: str
    term: str
    normal: str
    sense_size: int


# file stem -> (formula, end term, normal form, number of sense elements)
FILES: dict[str, Entry] = {
    "nd_case_pair": Entry(r"(p\/p) -> (p/\p)", CASE_PAIR, CASE_PAIR, 5),
    "nd_identity": Entry("p -> p", r"\x:p. x", r"\x:p. x", 2),
    "nd_identity_detour": Entry("p -> p", r"fst(<\x:p. x, \y:q. y>)", r"\x:p. x", 6),
    "nd_pair_pp_1": Entry(r"p -> (p -> (p/\p))", r"\y:p. \x:p. <x, y>", r"\y:p. \x:p. <x, y>", 5),
    "nd_pair_pp_2": Entry(r"p -> (p -> (p/\p))", r"\x:p. \y:p. <x, y>", r"\x:p. \y:p. <x, y>", 5),
    "nd_weak_pq_1": Entry("p -> (q -> p)", r"\x:p. \z:q. x", r"\x:p. \z:q. x", 3),
    "nd_weak_pq_2": Entry("p -> (q -> p)", r"\y:p. \z:q. y", r"\y:p. \z:q. y", 3),
    "sc_case_pair": Entry(r"(p\/p) -> (p/\p)", CASE_PAIR, CASE_PAIR, 5),
    "sc_dist_1": Entry(r"((q/\r)\/p) -> ((p\/q)/\(p\/r))", DIST, DIST, 15),
    "sc_dist_2": Entry(r"((q/\r)\/p) -> ((p\/q)/\(p\/r))", DIST, DIST, 15),
    "sc_dist_3": Entry(r"((q/\r)\/p) -> ((p\/q)/\(p\/r))", DIST_SPLIT, DIST_SPLIT, 15),
    "sc_inl_cut": Entry(r"(p/\p) -> (p\/p)", r"\y:(p/\p). inl[p] fst(<fst(y), snd(y)>)", INL_FST, 9),
    "sc_inl_cut_plain": Entry(r"(p/\p) -> (p\/p)", INL_FST, INL_FST, 7),
    "sc_inl_cutfree": Entry(r"(p/\p) -> (p\/p)", INL_FST, INL_FST, 6),
    "sc_pair_pp": Entry(r"p -> (p -> (p/\p))", r"\x:p. \y:p. <x, y>", r"\x:p. \y:p. <x, y>", 5),
    "sc_ts_1": Entry(r"(s/\p) -> ((q/\r) -> (p/\q))", TS, TS, 11),
    "sc_ts_2": Entry(r"(s/\p) -> ((q/\r) -> (p/\q))", TS, TS, 11),
}

# Verdicts between derivations of the same formula, in beta-eta mode
# and, where it differs, with case permutations (fuel 4).
_SAME_FORMULA: dict[frozenset[str], tuple[str, str]] = {
    frozenset(k): v
    for k, v in {
        ("nd_identity", "nd_identity_detour"): (DIFFERENT_SENSE, DIFFERENT_SENSE),
        ("nd_weak_pq_1", "nd_weak_pq_2"): (SAME_SENSE, SAME_SENSE),
        ("nd_pair_pp_1", "nd_pair_pp_2"): (DIFFERENT, DIFFERENT),
        ("nd_pair_pp_1", "sc_pair_pp"): (DIFFERENT, DIFFERENT),
        ("nd_pair_pp_2", "sc_pair_pp"): (SAME_SENSE, SAME_SENSE),
        ("nd_case_pair", "sc_case_pair"): (SAME_SENSE, SAME_SENSE),
        ("sc_dist_1", "sc_dist_2"): (DIFFERENT_SENSE, DIFFERENT_SENSE),
        ("sc_dist_1", "sc_dist_3"): (DIFFERENT, UP_TO_GAMMA),
        ("sc_dist_2", "sc_dist_3"): (DIFFERENT, UP_TO_GAMMA),
        ("sc_inl_cut", "sc_inl_cut_plain"): (DIFFERENT_SENSE, DIFFERENT_SENSE),
        ("sc_inl_cut", "sc_inl_cutfree"): (DIFFERENT_SENSE, DIFFERENT_SENSE),
        ("sc_inl_cut_plain", "sc_inl_cutfree"): (DIFFERENT_SENSE, DIFFERENT_SENSE),
        ("sc_ts_1", "sc_ts_2"): (DIFFERENT_SENSE, DIFFERENT_SENSE),
    }.items()
}

EXIT_OF = {SAME_SENSE: 0, DIFFERENT_SENSE: 0, UP_TO_GAMMA: 0, DIFFERENT: 1}


def verdict(a: str, b: str, gamma: bool) -> str:
    """The verdict comparing corpus files a and b must give."""
    if FILES[a].formula != FILES[b].formula:
        return DIFFERENT
    return _SAME_FORMULA[frozenset((a, b))][1 if gamma else 0]


def all_pairs() -> list[tuple[str, str]]:
    names = sorted(FILES)
    return [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]


# ---------- Commands and their checks ----------


# problems found, and how many gamma-mode comparisons came back inconclusive
Outcome = tuple[list[str], int]


@dataclass
class Command:
    """One CLI invocation and the check of what it printed."""

    argv: list[str]
    check: Callable[[int, str], Outcome] = field(repr=False)
    gamma_comparisons: int = 0


def _expect_exit(code: int, want: int) -> list[str]:
    return [] if code == want else [f"exit {code}, expected {want}"]


def _payload(out: str) -> dict:
    return json.loads(out)


def _check_cmd(stem: str, as_json: bool) -> Callable[[int, str], Outcome]:
    e = FILES[stem]

    def check(code: int, out: str) -> Outcome:
        problems = _expect_exit(code, 0)
        first = _payload(out)["judgment"] if as_json else out.splitlines()[0]
        if not first.endswith(f"|- {e.term} : {e.formula}"):
            problems.append(f"judgment {first!r}")
        return problems, 0

    return check


def _term_cmd(stem: str, as_json: bool, normal: bool) -> Callable[[int, str], Outcome]:
    e = FILES[stem]
    want = e.normal if normal else e.term

    def check(code: int, out: str) -> Outcome:
        problems = _expect_exit(code, 0)
        got = _payload(out)["term"] if as_json else out.strip()
        if got != want:
            problems.append(f"term {got!r}, expected {want!r}")
        return problems, 0

    return check


def _sense_cmd(stem: str, as_json: bool) -> Callable[[int, str], Outcome]:
    e = FILES[stem]

    def check(code: int, out: str) -> Outcome:
        problems = _expect_exit(code, 0)
        items = _payload(out)["details"]["elements"] if as_json else out.splitlines()
        if len(items) != e.sense_size or e.term not in items:
            problems.append(f"sense of {len(items)} elements")
        return problems, 0

    return check


def _compare_cmd(a: str, b: str, gamma: bool, as_json: bool) -> Callable[[int, str], Outcome]:
    want = verdict(a, b, gamma)

    def check(code: int, out: str) -> Outcome:
        got = _payload(out)["verdict"] if as_json else out.splitlines()[0]
        if gamma and code == 3 and got == UP_TO_GAMMA:
            return [], 1
        problems = _expect_exit(code, EXIT_OF[want])
        if got != want:
            problems.append(f"verdict {got}, expected {want}")
        return problems, 0

    return check


def _corpus_cmd(gamma: bool, as_json: bool) -> Callable[[int, str], Outcome]:
    def check(code: int, out: str) -> Outcome:
        files: dict[str, str | None] = {}
        got: dict[tuple[str, str], tuple[str, bool]] = {}
        if as_json:
            details = _payload(out)["details"]
            files = {f["name"]: f.get("formula") for f in details["files"] if f["ok"]}
            for p in details["pairs"]:
                got[(p["first"], p["second"])] = (p["verdict"], p.get("inconclusive", False))
        else:
            for line in out.splitlines():
                if " vs " in line:
                    pair, v = line.split(": ", 1)
                    a, b = pair.split(" vs ")
                    got[(a, b)] = (v.removesuffix(" (inconclusive)"), v.endswith(" (inconclusive)"))
                else:
                    name, rest = line.split(": ok (", 1)
                    files[name] = rest.split(", ", 1)[1][:-1]
        inconclusive = sum(1 for _, open_ in got.values() if open_)
        problems = _expect_exit(code, 3 if gamma and inconclusive else 0)
        for stem, e in FILES.items():
            if files.get(stem) != e.formula:
                problems.append(f"{stem}: formula {files.get(stem)!r}")
        for a, b in all_pairs():
            v, open_ = got.get((a, b), (None, False))
            if v != verdict(a, b, gamma) and not (gamma and open_ and v == UP_TO_GAMMA):
                problems.append(f"{a} vs {b}: {v}")
        return problems, inconclusive

    return check


def commands(rng: random.Random, compare_pairs: int) -> list[Command]:
    """One pass of CLI traffic: every file through check, term,
    normalize and sense; a seeded sample of pairs through compare in
    both modes; and the whole directory through corpus in both modes.
    About a third of the calls use --json."""
    out: list[Command] = []

    def as_json() -> bool:
        return rng.random() < 1 / 3

    for stem in sorted(FILES):
        path = f"corpus/{stem}.{stem[:2]}"
        j = as_json()
        out.append(Command(["check", path] + ["--json"] * j, _check_cmd(stem, j)))
        j = as_json()
        out.append(Command(["term", path] + ["--json"] * j, _term_cmd(stem, j, False)))
        j = as_json()
        out.append(Command(["normalize", path] + ["--json"] * j, _term_cmd(stem, j, True)))
        j = as_json()
        out.append(Command(["sense", path] + ["--json"] * j, _sense_cmd(stem, j)))
    for a, b in rng.sample(all_pairs(), compare_pairs):
        if rng.random() < 0.5:
            a, b = b, a
        pa, pb = f"corpus/{a}.{a[:2]}", f"corpus/{b}.{b[:2]}"
        for gamma in (False, True):
            j = as_json()
            mode = ["--mode", "beta-eta-gamma"] if gamma else []
            out.append(
                Command(["compare", pa, pb, *mode] + ["--json"] * j,
                        _compare_cmd(a, b, gamma, j), int(gamma))
            )
    for gamma in (False, True):
        for j in (False, True):
            mode = ["--mode", "beta-eta-gamma"] if gamma else []
            gamma_pairs = len(all_pairs()) if gamma else 0
            out.append(Command(["corpus", "corpus", *mode] + ["--json"] * j,
                               _corpus_cmd(gamma, j), gamma_pairs))
    rng.shuffle(out)
    return out
