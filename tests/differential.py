"""Run the CLI of this tree and of another commit on the same inputs,
and report the first command whose stdout, stderr or exit code differs.

    python tests/differential.py REF

REF is anything `git archive` takes, such as HEAD^. The inputs are the
corpus and every pair that bench/gen.py writes for the benchmark's two
workloads at seeds 0-3. Each file goes through `check --json`,
`sense --multiset --json` and `normalize --json`; each pair through
`compare --json` in beta-eta mode and in beta-eta-gamma mode, at the
pair's fuel when it has one. Each tree runs every command through its
own `cli.main` in one worker process, so start-up is paid once per tree.

Prints the counts and exits 0 when nothing differs; prints the first
difference and exits 1 otherwise. Tier-1 does not collect this file.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(4)

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
    for argv, theirs, ours in zip(argvs, *results):
        if theirs != ours:
            print(f"differs: proofmean {' '.join(argv)}")
            for stream, a, b in zip(("exit code", "stdout", "stderr"), theirs, ours):
                if a != b:
                    print(f"{stream}, {ref} (-) against this tree (+):")
                    diff = difflib.unified_diff(str(a).splitlines(), str(b).splitlines(),
                                                lineterm="")
                    print("\n".join(itertools.islice(diff, 40)))
            return 1
    codes = sorted({r[0] for r in results[1]})
    print(f"no difference from {ref}: {len(argvs)} commands on {files} files and "
          f"{pairs} pairs (exit codes {codes})")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
