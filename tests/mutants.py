"""Run tier-1 against small semantic mutants of `src/proofmean`, and
report the first test that fails on each.

    python tests/mutants.py [NAME ...]

Each entry of MUTANTS names a file under src/proofmean, an exact text
in it, the text that replaces it, and the law the change breaks. The
old text must occur exactly once, so an edit that removes or repeats
it fails here loudly, and the entry is updated along with the code.
For each mutant (or each one named) the tree is copied to a temporary
directory, the mutant applied there, and tier-1 run with `-x`, except
the check of this table in tests/test_mutants.py. Prints one line per
mutant: "killed" with the first failing test, or "survived". Exits 1
when some mutant survived or an old text does not occur once, and 0
otherwise. Tier-1 does not collect this file; tests/test_mutants.py
checks in tier-1 that every old text occurs once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# Tier-1 without tests/test_mutants.py, which checks this table against
# the source and so fails on every mutated tree.
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors",
         "--ignore=tests/test_mutants.py"]
SKIP = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", ".benchmarks", "__pycache__")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    law: str


MUTANTS = [
    Mutant(
        "sum_free_counts_absurd_as_an_atom",
        "meaning.py",
        "        if type(a) is Or or type(a) is Absurd:\n"
        "            return False\n"
        "        if type(a) is not Atom:\n",
        "        if type(a) is Or:\n"
        "            return False\n"
        "        if type(a) is not Atom and type(a) is not Absurd:\n",
        "_|_ is initial, so its eta law equates terms that beta-eta keeps apart",
    ),
    Mutant(
        "clash_guard_dropped",
        "meaning.py",
        "    if clash and not clash.isdisjoint(free_vars(n1) & free_vars(n2)):\n"
        "        return False\n",
        "",
        "a variable free in both normal forms stands at one formula in both",
    ),
    Mutant(
        "sum_free_shortcut_skipped",
        "meaning.py",
        "isinstance(mode, BetaEta) or _sum_free([f, *ante1.values(), *ante2.values()])",
        "isinstance(mode, BetaEta)",
        "gamma mode decides a pair without sums by its normal forms",
    ),
    Mutant(
        "model_never_refutes",
        "rewrite.py",
        "return FiniteModel().separate(n1, n2, formula) is not None",
        "return False",
        "closed terms with different values in the finite model are not equal",
    ),
    Mutant(
        "search_answers_true_when_both_closures_run_dry",
        "rewrite.py",
        "        if not frontier1 and not frontier2:\n            break\n",
        "        if not frontier1 and not frontier2:\n            return True\n",
        "closures of the gamma laws that never meet prove nothing",
    ),
    Mutant(
        "alpha_key_drops_node_labels",
        "core.py",
        "    for f in LABELS[cls]:\n        key.append(getattr(t, f))\n",
        "",
        "alpha-equal terms agree on every binder type and annotation",
    ),
    Mutant(
        "pair_split_on_any_scrutinee",
        "rewrite.py",
        "            and alpha_equal(r1, r2)\n",
        "",
        "two cases merge into one only over one scrutinee",
    ),
    Mutant(
        "union_shares_its_first_operand_unasked",
        "nd.py",
        "        if b._bindings.keys() <= a._bindings.keys():\n            return a\n",
        "        return a\n",
        "a conclusion's context holds the open variables of every premise",
    ),
    Mutant(
        "or_e_tests_its_disjunction_after_the_branches",
        "nd.py",
        "        if not isinstance(j0.formula, Or):\n"
        '            raise RuleMismatch(f"major premise proves {j0.formula!r}, not a disjunction")\n'
        "        j1 = _ND[type(d.left)](self, d.left)\n"
        "        j2 = _ND[type(d.right)](self, d.right)\n",
        "        j1 = _ND[type(d.left)](self, d.left)\n"
        "        j2 = _ND[type(d.right)](self, d.right)\n"
        "        if not isinstance(j0.formula, Or):\n"
        '            raise RuleMismatch(f"major premise proves {j0.formula!r}, not a disjunction")\n',
        "or-e reports a major premise that is no disjunction before it checks a branch",
    ),
    Mutant(
        "and_l_tests_distinct_components_after_its_premise",
        "sc.py",
        "        if d.first == d.second:\n"
        '            raise RuleMismatch("the two component variables must be distinct")\n'
        "        s = _SC[type(d.premise)](self, d.premise)\n",
        "        s = _SC[type(d.premise)](self, d.premise)\n"
        "        if d.first == d.second:\n"
        '            raise RuleMismatch("the two component variables must be distinct")\n',
        "and-l reports equal component variables before it checks its premise",
    ),
    Mutant(
        "bind_accepts_a_clash",
        "nd.py",
        "        elif prev != f:\n"
        '            raise VariableTypeClash(f"{v.name} occurs at both {prev!r} and {f!r}")\n',
        "",
        "a variable stands at one formula across the whole derivation",
    ),
    Mutant(
        "introduce_skips_its_freshness_test",
        "sc.py",
        "        if existing is not None and existing != f:\n",
        "        if False:\n",
        "a rule that adds a variable to a context cannot reuse one at another formula",
    ),
    Mutant(
        "imp_i_skips_its_declared_versus_open_test",
        "nd.py",
        "        if declared is not None and from_open is not None and from_open != declared:\n",
        "        if False:\n",
        "imp-i discharges a hypothesis at the formula it declares",
    ),
    Mutant(
        "low_water_mark_never_lowered",
        "meaning.py",
        "            low[k] = min(low[k], pos)\n",
        "",
        "a term freed by backtracking can be taken again",
    ),
    Mutant(
        "multiset_sense_hands_out_the_kept_counts",
        "meaning.py",
        "dict(counts) if multiset else None",
        "counts if multiset else None",
        "a sense handed out cannot change the one kept on the root",
    ),
]


def first_failure(output: str) -> str | None:
    """The test id on pytest's first FAILED or ERROR summary line."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return None


def run(mutant: Mutant) -> tuple[bool, str]:
    """Whether tier-1 fails on the tree with mutant applied, and the
    first failing test or the reason."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        path = tree / "src" / "proofmean" / mutant.file
        text = path.read_text(encoding="utf-8")
        found = text.count(mutant.old)
        if found != 1:
            raise SystemExit(f"{mutant.name}: old text occurs {found} times in {mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        proc = subprocess.run(
            [sys.executable, *TIER1], cwd=tree, env=env, capture_output=True, text=True
        )
    if proc.returncode == 0:
        return False, "all tests pass"
    return True, first_failure(proc.stdout) or f"pytest exit {proc.returncode}"


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"no such mutant: {', '.join(sorted(unknown))}")
    survived = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        killed, detail = run(mutant)
        survived += not killed
        status = "killed" if killed else "survived"
        print(f"{mutant.name:48} {status:8} {detail}  ({mutant.file}: {mutant.law})", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
