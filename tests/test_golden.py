"""The CLI's stdout and exit code on the corpus, byte for byte.

`tests/golden/` holds what `cli.main` printed for every command below.
Re-record it only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import itertools
import json
import os
import pathlib
import sys

import pytest

from proofmean.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
MODES = ("beta-eta", "beta-eta-gamma")


def _commands() -> dict[str, list[list[str]]]:
    files = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "corpus").iterdir())
    return {
        "check": [["check", f, "--json"] for f in files],
        "sense": [["sense", f, "--multiset", "--json"] for f in files],
        "compare": [
            ["compare", a, b, "--json", "--mode", mode]
            for mode in MODES
            for a, b in itertools.combinations(files, 2)
        ],
        "corpus": [
            ["corpus", "corpus", *json_flag, "--mode", mode]
            for mode in MODES
            for json_flag in ([], ["--json"])
        ],
    }


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for group, commands in _commands().items():
        runs = [_run(argv) for argv in commands]
        (GOLDEN / f"{group}.json").write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")


@pytest.mark.parametrize("group", list(_commands()))
def test_cli_output_matches_the_recording(group, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("PROOFMEAN_FUEL", raising=False)
    recorded = json.loads((GOLDEN / f"{group}.json").read_text(encoding="utf-8"))
    assert [r["argv"] for r in recorded] == _commands()[group]
    for want in recorded:
        assert _run(want["argv"]) == want


if __name__ == "__main__":
    os.chdir(ROOT)
    os.environ.pop("PROOFMEAN_FUEL", None)
    sys.exit(_record())
