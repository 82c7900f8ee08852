r"""Where plain beta/eta equality stops and permutative equality starts.

Two derivations of ((q /\ r) \/ p) -> ((q \/ p) /\ (r \/ p)) end in a
case-of-pair and a pair-of-cases.  Both terms are beta/eta normal and
distinct, so the strict mode separates them; allowing case permutations
identifies them.  A second pair projects different halves of one case:
a small finite model tells them apart before any search.  A third pair
shows what a search that runs out of fuel reports instead of guessing.

Run from the repository root:

    python3 demos/permutations.py
"""

from pathlib import Path

from proofmean.meaning import classify, same_denotation
from proofmean.nd import end_term_nd
from proofmean.rewrite import INCONCLUSIVE, BetaEta, BetaEtaGamma, normalize
from proofmean.sc import end_term_sc
from proofmean.syntax import parse, parse_file, render_term

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def load(name: str):
    return parse_file((CORPUS / name).read_text(), default_name=name).derivation


FST_SIDE = r"""
(nd fst_side
  (imp-i u
    (and-e1
      (or-e (hyp u (p/\p)\/(p/\p)) x (hyp x p/\p) y (hyp y p/\p)))))
"""

SND_SIDE = r"""
(nd snd_side
  (imp-i u
    (and-e2
      (or-e (hyp u (p/\p)\/(p/\p)) x (hyp x p/\p) y (hyp y p/\p)))))
"""

CASE_OF_TUPLE = r"""
(nd case_of_tuple
  (imp-i w p (imp-i u (p\/p)
    (or-e (hyp u p\/p)
      x (and-i (and-i (and-i (hyp x p) (hyp w p)) (hyp x p)) (hyp w p))
      y (and-i (and-i (and-i (hyp y p) (hyp y p)) (hyp w p)) (hyp y p))))))
"""

TUPLE_OF_CASES = r"""
(nd tuple_of_cases
  (imp-i w p (imp-i u (p\/p)
    (and-i
      (and-i
        (and-i
          (or-e (hyp u p\/p) x (hyp x p) y (hyp y p))
          (or-e (hyp u p\/p) x (hyp w p) y (hyp y p)))
        (or-e (hyp u p\/p) x (hyp x p) y (hyp w p)))
      (or-e (hyp u p\/p) x (hyp w p) y (hyp y p))))))
"""


def show_answers(d1, d2, fuels) -> None:
    for fuel in fuels:
        answer = same_denotation(d1, d2, BetaEtaGamma(fuel=fuel))
        if answer is INCONCLUSIVE:
            text = "inconclusive, the search ran out of fuel"
        else:
            text = str(bool(answer))
        print(f"  fuel={fuel}: {text}")
        print(f"    verdict: {classify(d1, d2, BetaEtaGamma(fuel=fuel))!r}")


def main() -> None:
    one_case = load("sc_dist_1.sc")
    two_cases = load("sc_dist_3.sc")
    for name, d in (("sc_dist_1", one_case), ("sc_dist_3", two_cases)):
        t = end_term_sc(d)
        print(f"{name} end term:")
        print(f"  {render_term(t)}")
        print(f"  (already normal: {render_term(normalize(t)) == render_term(t)})")
    print()

    print(f"beta/eta mode:          {classify(one_case, two_cases, BetaEta())!r}")
    print(f"with case permutations: {classify(one_case, two_cases, BetaEtaGamma(fuel=4))!r}")
    print()

    fst_side = parse(FST_SIDE)
    snd_side = parse(SND_SIDE)
    print("projecting different halves of the same case:")
    for side in (fst_side, snd_side):
        print(f"  {render_term(end_term_nd(side))}")
    print("the finite model gives them different values, so no search runs:")
    show_answers(fst_side, snd_side, (1, 4))
    print()

    case_of_tuple = parse(CASE_OF_TUPLE)
    tuple_of_cases = parse(TUPLE_OF_CASES)
    print("a case over a four-component tuple against a tuple of four cases:")
    for side in (case_of_tuple, tuple_of_cases):
        print(f"  {render_term(end_term_nd(side))}")
    print("equal in the model, so the search decides; it needs two layers:")
    show_answers(case_of_tuple, tuple_of_cases, (1, 2))


if __name__ == "__main__":
    main()
