"""Proof pairs for gamma mode, as derivation text and as end terms.

CASE_OF_TUPLE and TUPLE_OF_CASES prove p -> (p \\/ p) -> ((p /\\ p) /\\ p)
/\\ p, one with a case over a four-component tuple, the other with a
tuple of four cases. Pair splits join them, but only at fuel 2: at fuel
1 the search is inconclusive, and the finite model cannot refute them
because they are equal.

FST_CASE and SND_CASE project different halves of one case. They have
different denotations, which the finite model shows at any fuel.
"""

CASE_OF_TUPLE = (
    r"(imp-i w p (imp-i u (p\/p) (or-e (hyp u p\/p)"
    r" x (and-i (and-i (and-i (hyp x p) (hyp w p)) (hyp x p)) (hyp w p))"
    r" y (and-i (and-i (and-i (hyp y p) (hyp y p)) (hyp w p)) (hyp y p)))))"
)
TUPLE_OF_CASES = (
    r"(imp-i w p (imp-i u (p\/p) (and-i (and-i (and-i"
    r" (or-e (hyp u p\/p) x (hyp x p) y (hyp y p))"
    r" (or-e (hyp u p\/p) x (hyp w p) y (hyp y p)))"
    r" (or-e (hyp u p\/p) x (hyp x p) y (hyp w p)))"
    r" (or-e (hyp u p\/p) x (hyp w p) y (hyp y p)))))"
)
CASE_OF_TUPLE_TERM = r"\w:p. \u:(p\/p). case u { x:p. <<<x, w>, x>, w> | y:p. <<<y, y>, w>, y> }"
TUPLE_OF_CASES_TERM = (
    r"\w:p. \u:(p\/p). <<<case u { x:p. x | y:p. y }, case u { x:p. w | y:p. y }>,"
    r" case u { x:p. x | y:p. w }>, case u { x:p. w | y:p. y }>"
)

FST_CASE = r"(imp-i u (and-e1 (or-e (hyp u (p/\p)\/(p/\p)) x (hyp x p/\p) y (hyp y p/\p))))"
SND_CASE = r"(imp-i u (and-e2 (or-e (hyp u (p/\p)\/(p/\p)) x (hyp x p/\p) y (hyp y p/\p))))"
FST_CASE_TERM = r"\u:((p/\p)\/(p/\p)). fst(case u { x:(p/\p). x | y:(p/\p). y })"
SND_CASE_TERM = r"\u:((p/\p)\/(p/\p)). snd(case u { x:(p/\p). x | y:(p/\p). y })"
