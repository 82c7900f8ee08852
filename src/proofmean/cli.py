"""Command-line front end over derivation files.

Subcommands: check, term, normalize, sense, compare, corpus. Exit
codes: 0 success, 1 check failure or different denotations, 2 usage or
parse error, 3 inconclusive comparison, 4 input nested too deeply to
process. `--json` emits one object per invocation; its shape is fixed
by the shipped schema.json.

Each command checks each derivation once and formats facts kept
elsewhere: judgments from the one `meaning.check` run (its root carries
the judgment of every node below it, and stays on the derivation for
every later reader), the tree's shape from `nd.preorder`, node labels from
`syntax.render_node`, and a comparison's details from the evidence its
verdict carries.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from functools import cache, partial
from pathlib import Path

from . import nd as _nd
from . import syntax
from .core import ProofmeanError, Term, term_size
from .meaning import (
    Checked,
    Derivation,
    DifferentDenotation,
    DifferentSenseSameDenotation,
    SameDenotationUpToGamma,
    SameSenseSameDenotation,
    Verdict,
    check,
    classify,
    conclusion,
    sense_of,
    # Not called here; kept because bench/spans.py traces cli.sense_renaming.
    sense_renaming,
)
from .rewrite import BetaEta, BetaEtaGamma, EqualityMode, normalize
from .syntax import (
    DanglingDischargeLabel,
    ParseError,
    SourceFile,
    UnknownRule,
    # Not called here; re-exported, and traced by bench/spans.py as cli.parse.
    parse,
    render_formula,
    render_node,
    render_term,
)

__all__ = ["main", "parse", "render_term"]


class _UsageError(Exception):
    pass


class _NotText(ProofmeanError):
    pass


def _stage_of(e: BaseException) -> tuple[str, int] | None:
    """The stage of `corpus` that e belongs to, and the exit code it
    gives; None for an error that no command reports."""
    if isinstance(e, OSError):
        return "read", 2
    if isinstance(e, (_UsageError, ParseError, UnknownRule, DanglingDischargeLabel, _NotText)):
        return "parse", 2
    if isinstance(e, ProofmeanError):
        return "check", 1
    return None

# Each command runs in one thread whose stack holds _RECURSION_LIMIT
# levels of recursion, the limit while it runs: CPython 3.10 and 3.11
# take at most about 420 bytes of C stack per level, so each gets 1 KiB.
_STACK_BYTES = 512 * 2**20
_RECURSION_LIMIT = _STACK_BYTES // 1024


# ---------- Shared helpers ----------


def _load(path: str) -> SourceFile:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise _NotText(f"{path}: not UTF-8 text") from None
    return syntax.parse_file(text, default_name=Path(path).stem)


def _judgment_str(j: Checked) -> str:
    ctx, term, formula = conclusion(j)
    left = ", ".join(f"{v.name}:{render_formula(f)}" for v, f in ctx.items())
    prefix = f"{left} " if left else ""
    return f"{prefix}|- {render_term(term)} : {render_formula(formula)}"


def _tree_lines(d, root: Checked) -> list[str]:
    shown = {id(node): _judgment_str(j) for node, j in root.nodes}
    shown[id(d)] = _judgment_str(root)
    return [
        f"{'  ' * depth}{render_node(node)}  [{shown[id(node)]}]"
        for depth, node in _nd.preorder(d)
    ]


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _sorted_terms(terms) -> list[tuple[str, Term]]:
    """Each term with its rendering, rendered once; smallest first, then by text."""
    shown = [(render_term(t), t) for t in terms]
    return sorted(shown, key=lambda pair: (term_size(pair[1]), pair[0]))


def _effective_fuel(args) -> int:
    if getattr(args, "fuel", None) is not None:
        fuel = args.fuel
    else:
        raw = os.environ.get("PROOFMEAN_FUEL")
        if raw is None:
            fuel = BetaEtaGamma().fuel
        else:
            try:
                fuel = int(raw)
            except ValueError:
                raise _UsageError(f"PROOFMEAN_FUEL must be an integer, got {raw!r}")
    if fuel < 1:
        raise _UsageError(f"fuel must be at least 1, got {fuel}")
    return fuel


def _mode_of(args) -> EqualityMode:
    if args.mode == "beta-eta-gamma":
        return BetaEtaGamma(fuel=_effective_fuel(args))
    return BetaEta()


# ---------- Subcommands ----------


def _cmd_check(args) -> int:
    sf = _load(args.file)
    root = check(sf.derivation)
    headline = _judgment_str(root)
    tree = _tree_lines(sf.derivation, root)
    payload = {
        "command": "check",
        "inputs": [args.file],
        "judgment": headline,
        "details": {"calculus": sf.calculus, "name": sf.name, "tree": tree},
    }
    _emit(args, payload, [headline, *tree])
    return 0


def _cmd_term(args) -> int:
    sf = _load(args.file)
    _, term, formula = conclusion(check(sf.derivation))
    rendered = render_term(term, canonical=args.canonical)
    payload = {
        "command": "term",
        "inputs": [args.file],
        "term": rendered,
        "details": {"formula": render_formula(formula), "calculus": sf.calculus},
    }
    _emit(args, payload, [rendered])
    return 0


def _cmd_normalize(args) -> int:
    sf = _load(args.file)
    _, term, formula = conclusion(check(sf.derivation))
    normal = normalize(term)
    rendered = render_term(normal, canonical=args.canonical)
    payload = {
        "command": "normalize",
        "inputs": [args.file],
        "term": rendered,
        "details": {
            "formula": render_formula(formula),
            "from": render_term(term, canonical=args.canonical),
        },
    }
    _emit(args, payload, [rendered])
    return 0


def _cmd_sense(args) -> int:
    sf = _load(args.file)
    sense = sense_of(sf.derivation, multiset=args.multiset)
    ordered = _sorted_terms(sense.elements)
    lines = [text for text, _ in ordered]
    details: dict = {"calculus": sf.calculus, "name": sf.name, "elements": lines}
    if args.multiset:
        assert sense.counts is not None
        details["counts"] = [[text, sense.counts[t]] for text, t in ordered]
        lines = [f"{text}  x{count}" for text, count in details["counts"]]
    payload = {"command": "sense", "inputs": [args.file], "details": details}
    _emit(args, payload, lines)
    return 0


def _verdict_details(args, mode: EqualityMode, verdict: Verdict) -> dict:
    details: dict = {"mode": args.mode}
    if isinstance(mode, BetaEtaGamma):
        details["fuel"] = mode.fuel
    match verdict:
        case SameSenseSameDenotation(renaming):
            details["renaming"] = {
                a.name: b.name for a, b in sorted(renaming.items(), key=lambda kv: kv[0].name)
            }
        case DifferentSenseSameDenotation((s1, s2)):
            details["only_in_first"] = [s for s, _ in _sorted_terms(s1.elements - s2.elements)]
            details["only_in_second"] = [s for s, _ in _sorted_terms(s2.elements - s1.elements)]
        case DifferentDenotation(normal_forms):
            details["normal_forms"] = [render_term(t) for t in normal_forms]
        case SameDenotationUpToGamma(inconclusive, normal_forms):
            details["inconclusive"] = inconclusive
            details["normal_forms"] = [render_term(t) for t in normal_forms]
    return details


def _verdict_exit(verdict: Verdict) -> int:
    match verdict:
        case DifferentDenotation():
            return 1
        case SameDenotationUpToGamma(True):
            return 3
    return 0


def _cmd_compare(args) -> int:
    sf1 = _load(args.first)
    sf2 = _load(args.second)
    mode = _mode_of(args)
    verdict = classify(sf1.derivation, sf2.derivation, mode, multiset=args.multiset)
    details = _verdict_details(args, mode, verdict)
    name = type(verdict).__name__
    lines = [name]
    for key in ("renaming", "only_in_first", "only_in_second", "normal_forms"):
        if key in details:
            lines.append(f"{key}: {details[key]}")
    if details.get("inconclusive"):
        lines.append("inconclusive: the search found no meeting and the model no difference")
    payload = {
        "command": "compare",
        "inputs": [args.first, args.second],
        "verdict": name,
        "details": details,
    }
    _emit(args, payload, lines)
    return _verdict_exit(verdict)


def _cmd_corpus(args) -> int:
    directory = Path(args.dir)
    paths = sorted(
        (p for p in directory.iterdir() if p.suffix in (".nd", ".sc")),
        key=lambda p: p.name,
    )
    mode = _mode_of(args)
    files: list[dict] = []
    checked: list[tuple[str, Derivation]] = []
    codes = {0}
    for p in paths:
        label = p.stem
        try:
            sf = _load(str(p))
            _, _, formula = conclusion(check(sf.derivation))
        except (OSError, ProofmeanError) as e:
            stage, code = _stage_of(e)
            codes.add(code)
            files.append({"name": label, "ok": False, "stage": stage, "error": str(e)})
            continue
        files.append(
            {
                "name": label,
                "ok": True,
                "calculus": sf.calculus,
                "formula": render_formula(formula),
            }
        )
        checked.append((label, sf.derivation))
    pairs: list[dict] = []
    for i in range(len(checked)):
        for j in range(i + 1, len(checked)):
            a, d_a = checked[i]
            b, d_b = checked[j]
            verdict = classify(d_a, d_b, mode)
            entry = {"first": a, "second": b, "verdict": type(verdict).__name__}
            if isinstance(verdict, SameDenotationUpToGamma):
                entry["inconclusive"] = verdict.inconclusive
                codes.add(3 if verdict.inconclusive else 0)
            pairs.append(entry)
    lines = []
    for f in files:
        if f["ok"]:
            lines.append(f"{f['name']}: ok ({f['calculus']}, {f['formula']})")
        else:
            lines.append(f"{f['name']}: {f['stage']} error: {f['error']}")
    for e in pairs:
        suffix = " (inconclusive)" if e.get("inconclusive") else ""
        lines.append(f"{e['first']} vs {e['second']}: {e['verdict']}{suffix}")
    payload = {
        "command": "corpus",
        "inputs": [args.dir],
        "details": {"files": files, "pairs": pairs},
    }
    _emit(args, payload, lines)
    return min(codes, key=(2, 1, 3, 0).index)  # the gravest first


# ---------- Entry point ----------


@cache  # once per process, on first use: at import it would add about 1 ms to start-up
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proofmean",
        description="Check term-annotated derivations and compare their senses and denotations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true")
    add = partial(sub.add_parser, parents=[json_flag])  # every command takes --json

    def mode_flags(sp):
        sp.add_argument(
            "--mode",
            choices=["beta-eta", "beta-eta-gamma"],
            default="beta-eta",
            help="equality used on denotations",
        )
        sp.add_argument(
            "--fuel",
            type=int,
            default=None,
            help=f"search depth for permutative conversions (default {BetaEtaGamma().fuel},"
            " or PROOFMEAN_FUEL)",
        )

    sp = add("check", help="validate a derivation file")
    sp.add_argument("file")

    sp = add("term", help="print the end term")
    sp.add_argument("file")
    sp.add_argument("--canonical", action="store_true", help="rename binders to x1, x2, ...")

    sp = add("normalize", help="print the normal form of the end term")
    sp.add_argument("file")
    sp.add_argument("--canonical", action="store_true", help="rename binders to x1, x2, ...")

    sp = add("sense", help="print the sense set, sorted")
    sp.add_argument("file")
    sp.add_argument("--multiset", action="store_true", help="keep multiplicities")

    sp = add("compare", help="classify a pair of derivations")
    sp.add_argument("first")
    sp.add_argument("second")
    sp.add_argument("--multiset", action="store_true", help="compare senses as multisets")
    mode_flags(sp)

    sp = add("corpus", help="check a directory and classify every pair")
    sp.add_argument("dir")
    mode_flags(sp)

    return parser


def _run(argv: list[str] | None) -> int | BaseException:
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_RECURSION_LIMIT)
    try:
        args = _build_parser().parse_args(argv)
        # Looked up when the command runs, as the parser is built only once.
        return globals()[f"_cmd_{args.command}"](args)
    except SystemExit as e:
        return int(e.code or 0)
    except RecursionError:
        print("error: input nested too deeply to process", file=sys.stderr)
        return 4
    except BaseException as e:
        if (reported := _stage_of(e)) is None:
            return e  # raised again by main, in the calling thread
        print(f"error: {e}", file=sys.stderr)
        return reported[1]
    finally:
        sys.setrecursionlimit(old_limit)


def main(argv: list[str] | None = None) -> int:
    """Run the command argv names in one thread on a _STACK_BYTES stack."""
    outcome: list = []
    worker = threading.Thread(target=lambda: outcome.append(_run(argv)), daemon=True)
    old_stack = threading.stack_size(_STACK_BYTES)
    try:
        worker.start()
    finally:
        threading.stack_size(old_stack)
    worker.join()
    if isinstance(outcome[0], BaseException):
        raise outcome[0]
    return outcome[0]


if __name__ == "__main__":
    sys.exit(main())
