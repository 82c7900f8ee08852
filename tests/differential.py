"""Run the CLI of this tree and of another commit on the same inputs,
and report every command whose stdout, stderr or exit code differs.

    python tests/differential.py REF

REF is anything `git archive` takes, such as HEAD^. The inputs are the
corpus, every pair that bench/gen.py writes for the benchmark's two
workloads at seeds 0-3, derivations that mention absurdity, drawn
from tests/strategies.py with a fixed seed (needs Hypothesis), since
neither of the others holds any, and sequent chains a few hundred
sense elements deep, each element holding all the ones below it. Each
file goes through `check --json`, `sense --multiset --json` and
`normalize --json`; each pair through `compare --json` in beta-eta mode
and in beta-eta-gamma mode, at the pair's fuel when it has one. Each
tree runs every command through its own `cli.main` in one worker
process, so start-up is paid once per tree.

Prints the counts and exits 0 when nothing differs. Otherwise it
prints each differing command, the first FULL of them with their diffs,
then one tally line per mode (the command, for other than compare),
old and new exit code, and old and new verdict, and exits 1. Tier-1
does not collect this file.
"""

from __future__ import annotations

import difflib
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(4)
DRAW_SEED, DRAWS = 0, 400
DEPTH = 300
FULL = 5

# Reads one JSON argv per line and writes one JSON [code, stdout, stderr].
WORKER = """
import contextlib, io, json, sys
from proofmean import cli
for line in sys.stdin:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(json.loads(line))
    print(json.dumps([code, out.getvalue(), err.getvalue()]))
"""


def generated_pairs() -> list[tuple[str, str, int | None]]:
    """(text1, text2, fuel) for each pair the benchmark builds at SEEDS."""
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]
    import workloads

    pairs = []
    for seed in SEEDS:
        pairs += workloads.scale_pairs(random.Random(f"scale_betaeta:{seed}"))
        pairs += workloads.gamma_pairs(random.Random(f"gamma_fuel:{seed}"))
    return [(p.text1, p.text2, p.fuel) for p in pairs]


def drawn_pairs() -> list[tuple[str, str]]:
    """Pairs of the derivations with _|_, absurd-e or absurd-l among
    DRAWS drawn at DRAW_SEED: each with a renamed copy of itself, and
    each with the next one that proves the same formula."""
    sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "src")]
    from hypothesis import HealthCheck, Phase, given, seed, settings
    from hypothesis import strategies as st

    import strategies
    from proofmean.meaning import check, conclusion
    from proofmean.nd import NdDerivation
    from proofmean.syntax import render_derivation

    drawn = []

    @seed(DRAW_SEED)
    @settings(database=None, max_examples=DRAWS, phases=[Phase.generate], deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(st.one_of(strategies.nd_derivations(), strategies.sc_derivations()))
    def draw(d):
        text = render_derivation(d)
        if "_|_" in text or "absurd-" in text:
            drawn.append(d)

    draw()
    pairs, last = [], {}
    for d in drawn:
        rename = strategies.rename_nd if isinstance(d, NdDerivation) else strategies.rename_sc
        copy = rename(d, strategies.fresh_renaming(check(d).types))
        pairs.append((render_derivation(d), render_derivation(copy)))
        formula = conclusion(check(d))[2]
        if formula in last:
            pairs.append((render_derivation(last[formula]), render_derivation(d)))
        last[formula] = d
    return pairs


def deep_pairs() -> list[tuple[str, str]]:
    """A chain of DEPTH or-r1 sequents against a renamed copy, and
    against a chain whose leaf has another formula."""
    def chain(v: str, leaf: str) -> str:
        return f"(imp-r {v} {'(or-r1 q ' * DEPTH}(rf {v} {leaf}){')' * (DEPTH + 1)}"

    return [(chain("x", "p"), chain("y", "p")), (chain("x", "p"), chain("y", "r"))]


def commands(inputs: Path) -> tuple[list[list[str]], int, int]:
    """Write the input files into `inputs` and list the commands over
    them, with the number of files and of pairs."""
    names: dict[str, str] = {}

    def name(text: str, stem: str | None = None) -> str:
        if text not in names:
            names[text] = stem or f"gen{len(names)}"
            (inputs / names[text]).write_text(text, encoding="utf-8")
        return names[text]

    corpus = [name(path.read_text(encoding="utf-8"), path.name)
              for path in sorted((ROOT / "corpus").iterdir())]
    pairs = [(a, b, None) for a, b in itertools.combinations(corpus, 2)]
    pairs += [(name(t1), name(t2), fuel) for t1, t2, fuel in generated_pairs()]
    pairs += [(name(t1), name(t2), None) for t1, t2 in drawn_pairs() + deep_pairs()]
    argvs = []
    for f in names.values():
        argvs += [["check", f, "--json"], ["sense", f, "--multiset", "--json"],
                  ["normalize", f, "--json"]]
    for a, b, fuel in pairs:
        gamma = ["--mode", "beta-eta-gamma"] + (["--fuel", str(fuel)] if fuel else [])
        argvs += [["compare", a, b, "--json"], ["compare", a, b, "--json", *gamma]]
    return argvs, len(names), len(pairs)


def run_tree(src: Path, inputs: Path, argvs: list[list[str]]) -> list[list]:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
    done = subprocess.run(
        [sys.executable, "-c", WORKER],
        input="".join(json.dumps(argv) + "\n" for argv in argvs),
        cwd=inputs, env=env, capture_output=True, text=True, check=True,
    )
    return [json.loads(line) for line in done.stdout.splitlines()]


def verdict(stdout: str) -> str:
    """The verdict a `--json` output names, or "-"."""
    try:
        return json.loads(stdout).get("verdict", "-")
    except ValueError:
        return "-"


def main(ref: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        other, inputs = Path(tmp, "other"), Path(tmp, "inputs")
        other.mkdir()
        inputs.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(other)], input=archive, check=True)
        argvs, files, pairs = commands(inputs)
        results = [run_tree(src, inputs, argvs) for src in (other / "src", ROOT / "src")]
    differing = [row for row in zip(argvs, *results) if row[1] != row[2]]
    tally: Counter = Counter()
    for n, (argv, theirs, ours) in enumerate(differing):
        print(f"differs: proofmean {' '.join(argv)}")
        for stream, a, b in zip(("exit code", "stdout", "stderr"), theirs, ours):
            if n < FULL and a != b:
                print(f"{stream}, {ref} (-) against this tree (+):")
                diff = difflib.unified_diff(str(a).splitlines(), str(b).splitlines(),
                                            lineterm="")
                print("\n".join(itertools.islice(diff, 40)))
        mode = argv[0]
        if mode == "compare":
            mode = argv[argv.index("--mode") + 1] if "--mode" in argv else "beta-eta"
        tally[mode, theirs[0], ours[0], verdict(theirs[1]), verdict(ours[1])] += 1
    if differing:
        print(f"{len(differing)} of {len(argvs)} commands differ from {ref} (-> this tree):")
        for (mode, c1, c2, v1, v2), n in sorted(tally.items()):
            print(f"  {n} {mode}: exit {c1} -> {c2}, {v1} -> {v2}")
        return 1
    codes = sorted({r[0] for r in results[1]})
    print(f"no difference from {ref}: {len(argvs)} commands on {files} files and "
          f"{pairs} pairs (exit codes {codes})")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
