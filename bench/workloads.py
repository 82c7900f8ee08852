"""The timed workloads and the CLI traffic: what one pass runs and how
each answer is checked.

scale_betaeta  parse, classify in beta-eta mode and render generated
             derivations that grow in depth and width.
gamma_fuel   classify nested-case pairs with case permutations over a
             grid of component counts and fuel.
CLI traffic  one `python -m proofmean.cli` subprocess at a time over the
             shipped corpus; start-up and CLI glue dominate. The traced
             run times one pass of it. It is not a timed workload: a
             pass of about a hundred commands takes some 15 s, so a run
             cannot repeat each command often enough for steady figures
             on a host whose speed drifts.

All are closed loops with one client: the next task starts when the
previous one has finished.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import corpus_table
import gen
from proofmean import cli, meaning, nd, rewrite, syntax

Outcome = corpus_table.Outcome

# Size -> inputs per pass; each input is paired three ways. The copies
# put p50 and p90 inside clusters of similar tasks rather than in a gap
# between two. The traced run's sweep takes detours to 200 and pair
# families to 100.
SCALE_GRID: dict[str, dict[int, int]] = {
    "detour": {5: 3, 10: 8, 25: 2, 50: 1},
    "pairs": {6: 3, 12: 3, 25: 2},
    "cut": {5: 2, 10: 3, 25: 3, 50: 2, 100: 1, 200: 1},
}
# (components, fuel) -> inputs per pass; each input is one joinable and
# one differing pair. Which leaf differs changes the cost of the search,
# so every cell takes each of its 2k leaves equally often, starting at a
# seeded one. Three components at fuel 5 take over a second a pair and
# are left to the traced run's sweep.
GAMMA_GRID: dict[tuple[int, int], int] = {
    (2, 2): 8, (2, 3): 8, (2, 4): 8, (2, 5): 8,
    (3, 2): 6, (3, 3): 6, (3, 4): 6,
}
COMPARE_PAIRS = 16

# Inputs above today's recursion ceiling, run once outside the timed loop.
DEEP_PROBE = (("detour", 400), ("detour", 1000), ("pairs", 300))

# Grids the traced run sweeps to fit scaling exponents.
SWEEP_DETOUR = (25, 50, 100, 200)
SWEEP_PAIRS = (12, 25, 50, 100)
SWEEP_FUEL = (2, 3, 4, 5)
SWEEP_COMPONENTS = 3

_FAMILIES = {"detour": gen.detour_pairs, "pairs": gen.family_pairs, "cut": gen.cut_pairs}


@dataclass
class Task:
    """One request of the closed loop: run it, check the answer."""

    name: str
    run: Callable[[], Outcome]
    gamma_comparisons: int


# ---------- In-process pairs ----------


def _classify_task(pair: gen.Pair) -> Task:
    def run() -> Outcome:
        d1 = syntax.parse_file(pair.text1).derivation
        d2 = syntax.parse_file(pair.text2).derivation
        mode = rewrite.BetaEtaGamma(pair.fuel) if pair.fuel else rewrite.BetaEta()
        v = meaning.classify(d1, d2, mode)
        nf1 = syntax.render_term(meaning.denotation_of(d1))
        nf2 = syntax.render_term(meaning.denotation_of(d2))
        problems = [f"normal form {got!r}, expected {want!r}"
                    for got, want in ((nf1, pair.nf1), (nf2, pair.nf2)) if got != want]
        if pair.fuel and isinstance(v, meaning.SameDenotationUpToGamma) and v.inconclusive:
            return problems, 1
        if type(v).__name__ != pair.label:
            problems.append(f"verdict {v!r}, expected {pair.label}")
        return problems, 0

    name = f"{pair.family}/{pair.size}/{pair.label}" + (f"/fuel{pair.fuel}" if pair.fuel else "")
    return Task(name, run, 1 if pair.fuel else 0)


def scale_pairs(rng: random.Random) -> list[gen.Pair]:
    return [
        pair
        for family, grid in SCALE_GRID.items()
        for size, copies in grid.items()
        for _ in range(copies)
        for pair in _FAMILIES[family](rng, size)
    ]


def gamma_pairs(rng: random.Random) -> list[gen.Pair]:
    pairs = []
    for (k, fuel), copies in GAMMA_GRID.items():
        first = rng.randrange(2 * k)
        for i in range(copies):
            pairs += gen.case_pairs(rng, k, fuel, (first + i) % (2 * k))
    return pairs


# ---------- CLI commands ----------


def _cli_env(root: Path) -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    src = str(root / "src")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def subprocess_task(cmd: corpus_table.Command, root: Path) -> Task:
    env = _cli_env(root)

    def run() -> Outcome:
        done = subprocess.run(
            [sys.executable, "-m", "proofmean.cli", *cmd.argv],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        return cmd.check(done.returncode, done.stdout)

    return Task(" ".join(cmd.argv), run, cmd.gamma_comparisons)


def inprocess_task(cmd: corpus_table.Command) -> Task:
    def run() -> Outcome:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(cmd.argv))
        return cmd.check(code, out.getvalue())

    return Task(" ".join(cmd.argv), run, cmd.gamma_comparisons)


# ---------- Building a workload ----------


def build(workload: str, seed: int) -> list[Task]:
    """One pass of a timed workload, in the order the seed gives."""
    rng = random.Random(f"{workload}:{seed}")
    pairs = scale_pairs(rng) if workload == "scale_betaeta" else gamma_pairs(rng)
    rng.shuffle(pairs)
    return [_classify_task(p) for p in pairs]


def cli_commands(seed: int, root: Path, in_process: bool = False) -> list[Task]:
    """One pass of the CLI traffic, in the order the seed gives.
    `in_process` runs the commands through cli.main instead."""
    cmds = corpus_table.commands(random.Random(f"cli_corpus:{seed}"), COMPARE_PAIRS)
    if in_process:
        return [inprocess_task(c) for c in cmds]
    return [subprocess_task(c, root) for c in cmds]


def deep_probe(seed: int) -> list[dict]:
    """Parse, check, normalize and render each deep input once. Each
    input is one operation; the first stage that raises fails it."""
    rng = random.Random(f"deep:{seed}")
    results = []
    for family, size in DEEP_PROBE:
        pair = _FAMILIES[family](rng, size)[0]
        stage, error = "parse", None
        try:
            d = syntax.parse_file(pair.text1).derivation
            stage = "check"
            term = nd.check_nd(d).term
            stage = "normalize"
            normal = rewrite.normalize(term)
            stage = "render"
            rendered = syntax.render_term(normal)
            if rendered != pair.nf1:
                error = f"normal form {rendered[:60]!r}"
        except Exception as e:  # a deep input may fail at any stage; record how
            error = f"{type(e).__name__}: {str(e)[:80]}"
        results.append({"input": f"{family}/{size}", "ok": error is None,
                        "stage": None if error is None else stage, "error": error})
    return results
