"""Command-line front end over derivation files.

Subcommands: check, term, normalize, sense, compare, corpus. Exit
codes: 0 success, 1 check failure or different denotations, 2 usage or
parse error, 3 inconclusive comparison, 4 input nested too deeply to
process. `--json` emits one object per invocation; its shape is fixed
by the shipped schema.json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import nd as _nd
from . import sc as _sc
from . import syntax
from .core import Context, Formula, ProofmeanError, Term, term_size
from .meaning import (
    DifferentDenotation,
    DifferentSenseSameDenotation,
    SameDenotationUpToGamma,
    SameSenseSameDenotation,
    Verdict,
    classify,
    sense_of,
    sense_renaming,
)
from .rewrite import BetaEta, BetaEtaGamma, EqualityMode, normalize
from .syntax import (
    DanglingDischargeLabel,
    ParseError,
    SourceFile,
    UnknownRule,
    parse,
    render_formula,
    render_term,
)

__all__ = ["main", "parse", "render_term"]

DEFAULT_FUEL = 4

_PARSE_ERRORS = (ParseError, UnknownRule, DanglingDischargeLabel)


class _UsageError(Exception):
    pass


# ---------- Shared helpers ----------


def _load(path: str) -> SourceFile:
    text = Path(path).read_text(encoding="utf-8")
    return syntax.parse_file(text, default_name=Path(path).stem)


def _conclusion(sf: SourceFile) -> tuple[Term, Formula]:
    if sf.calculus == "nd":
        j = _nd.check_nd(sf.derivation)
        return j.term, j.formula
    s = _sc.check_sc(sf.derivation)
    return s.term, s.succedent


def _judgment_str(ctx: Context, term: Term, formula: Formula) -> str:
    entries = sorted(ctx.items(), key=lambda kv: kv[0].name)
    left = ", ".join(f"{v.name}:{render_formula(f)}" for v, f in entries)
    prefix = f"{left} " if left else ""
    return f"{prefix}|- {render_term(term)} : {render_formula(formula)}"


def _node_label(d) -> str:
    match d:
        case _nd.Hyp(x, f):
            return f"hyp {x.name} {render_formula(f)}"
        case _nd.ImpI(x, None, _):
            return f"imp-i {x.name}"
        case _nd.ImpI(x, h, _):
            return f"imp-i {x.name} {render_formula(h)}"
        case _nd.ImpE():
            return "imp-e"
        case _nd.AndI():
            return "and-i"
        case _nd.AndE1():
            return "and-e1"
        case _nd.AndE2():
            return "and-e2"
        case _nd.OrI1(other, _):
            return f"or-i1 {render_formula(other)}"
        case _nd.OrI2(other, _):
            return f"or-i2 {render_formula(other)}"
        case _nd.OrE(_, x, _, y, _):
            return f"or-e {x.name} {y.name}"
        case _nd.AbsurdE(target, _):
            return f"absurd-e {render_formula(target)}"
        case _sc.Rf(x, f):
            return f"rf {x.name} {render_formula(f)}"
        case _sc.AndR():
            return "and-r"
        case _sc.AndL(z, x, y, _):
            return f"and-l {z.name} {x.name} {y.name}"
        case _sc.OrR1(other, _):
            return f"or-r1 {render_formula(other)}"
        case _sc.OrR2(other, _):
            return f"or-r2 {render_formula(other)}"
        case _sc.OrL(z, x, y, _, _):
            return f"or-l {z.name} {x.name} {y.name}"
        case _sc.ImpR(x, _):
            return f"imp-r {x.name}"
        case _sc.ImpL(x, y, _, _):
            return f"imp-l {x.name} {y.name}"
        case _sc.AbsurdL(x, target):
            return f"absurd-l {x.name} {render_formula(target)}"
        case _sc.Weaken(x, f, _):
            return f"weaken {x.name} {render_formula(f)}"
        case _sc.Contract(kept, merged, _):
            return f"contract {kept.name} {merged.name}"
        case _sc.Cut(x, _, _):
            return f"cut {x.name}"
    raise TypeError(f"not a derivation node: {d!r}")


def _node_children(d) -> tuple:
    match d:
        case _nd.Hyp():
            return ()
        case _nd.ImpI(_, _, premise):
            return (premise,)
        case _nd.ImpE(fun, arg):
            return (fun, arg)
        case _nd.AndI(left, right):
            return (left, right)
        case _nd.AndE1(premise) | _nd.AndE2(premise):
            return (premise,)
        case _nd.OrI1(_, premise) | _nd.OrI2(_, premise):
            return (premise,)
        case _nd.OrE(scrutinee, _, left, _, right):
            return (scrutinee, left, right)
        case _nd.AbsurdE(_, premise):
            return (premise,)
    return _sc._children(d)


def _tree_lines(sf: SourceFile) -> list[str]:
    if sf.calculus == "nd":
        recorded = _nd.node_judgments(sf.derivation)
        shown = {id(n): _judgment_str(j.open, j.term, j.formula) for n, j in recorded}
    else:
        recorded = _sc.node_sequents(sf.derivation)
        shown = {
            id(n): _judgment_str(s.antecedent, s.term, s.succedent) for n, s in recorded
        }
    lines: list[str] = []

    def walk(node, depth: int) -> None:
        lines.append(f"{'  ' * depth}{_node_label(node)}  [{shown[id(node)]}]")
        for child in _node_children(node):
            walk(child, depth + 1)

    walk(sf.derivation, 0)
    return lines


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _sorted_terms(terms) -> list[str]:
    return [
        render_term(t)
        for t in sorted(terms, key=lambda t: (term_size(t), render_term(t)))
    ]


def _effective_fuel(args) -> int:
    if getattr(args, "fuel", None) is not None:
        fuel = args.fuel
    else:
        raw = os.environ.get("PROOFMEAN_FUEL")
        if raw is None:
            fuel = DEFAULT_FUEL
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
    term, formula = _conclusion(sf)
    if sf.calculus == "nd":
        j = _nd.check_nd(sf.derivation)
        headline = _judgment_str(j.open, term, formula)
    else:
        s = _sc.check_sc(sf.derivation)
        headline = _judgment_str(s.antecedent, term, formula)
    tree = _tree_lines(sf)
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
    term, formula = _conclusion(sf)
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
    term, formula = _conclusion(sf)
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
    _conclusion(sf)
    sense = sense_of(sf.derivation, multiset=args.multiset)
    ordered = sorted(sense.elements, key=lambda t: (term_size(t), render_term(t)))
    details: dict = {
        "calculus": sf.calculus,
        "name": sf.name,
        "elements": [render_term(t) for t in ordered],
    }
    lines = [render_term(t) for t in ordered]
    if args.multiset:
        assert sense.counts is not None
        details["counts"] = [[render_term(t), sense.counts[t]] for t in ordered]
        lines = [f"{render_term(t)}  x{sense.counts[t]}" for t in ordered]
    payload = {"command": "sense", "inputs": [args.file], "details": details}
    _emit(args, payload, lines)
    return 0


def _verdict_details(args, sf1: SourceFile, sf2: SourceFile, verdict: Verdict) -> dict:
    details: dict = {"mode": args.mode}
    if args.mode == "beta-eta-gamma":
        details["fuel"] = _effective_fuel(args)
    match verdict:
        case SameSenseSameDenotation():
            renaming = sense_renaming(sf1.derivation, sf2.derivation, args.multiset)
            assert renaming is not None
            details["renaming"] = {
                a.name: b.name for a, b in sorted(renaming.items(), key=lambda kv: kv[0].name)
            }
        case DifferentSenseSameDenotation():
            s1 = sense_of(sf1.derivation).elements
            s2 = sense_of(sf2.derivation).elements
            details["only_in_first"] = _sorted_terms(s1 - s2)
            details["only_in_second"] = _sorted_terms(s2 - s1)
        case DifferentDenotation():
            t1, _ = _conclusion(sf1)
            t2, _ = _conclusion(sf2)
            details["normal_forms"] = [
                render_term(normalize(t1)),
                render_term(normalize(t2)),
            ]
        case SameDenotationUpToGamma(inconclusive):
            t1, _ = _conclusion(sf1)
            t2, _ = _conclusion(sf2)
            details["inconclusive"] = inconclusive
            details["normal_forms"] = [
                render_term(normalize(t1)),
                render_term(normalize(t2)),
            ]
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
    details = _verdict_details(args, sf1, sf2, verdict)
    name = type(verdict).__name__
    lines = [name]
    for key in ("renaming", "only_in_first", "only_in_second", "normal_forms"):
        if key in details:
            lines.append(f"{key}: {details[key]}")
    if details.get("inconclusive"):
        lines.append("inconclusive: fuel exhausted before the search closed")
    payload = {
        "command": "compare",
        "inputs": [args.first, args.second],
        "verdict": name,
        "details": details,
    }
    _emit(args, payload, lines)
    return _verdict_exit(verdict)


def _cmd_corpus(args) -> int:
    root = Path(args.dir)
    paths = sorted(
        (p for p in root.iterdir() if p.suffix in (".nd", ".sc")),
        key=lambda p: p.name,
    )
    mode = _mode_of(args)
    files: list[dict] = []
    checked: list[tuple[str, SourceFile]] = []
    parse_failed = False
    check_failed = False
    for p in paths:
        label = p.stem
        try:
            sf = _load(str(p))
            term, formula = _conclusion(sf)
        except _PARSE_ERRORS as e:
            parse_failed = True
            files.append({"name": label, "ok": False, "stage": "parse", "error": str(e)})
            continue
        except ProofmeanError as e:
            check_failed = True
            files.append({"name": label, "ok": False, "stage": "check", "error": str(e)})
            continue
        files.append(
            {
                "name": label,
                "ok": True,
                "calculus": sf.calculus,
                "formula": render_formula(formula),
            }
        )
        checked.append((label, sf))
    pairs: list[dict] = []
    inconclusive = False
    for i in range(len(checked)):
        for j in range(i + 1, len(checked)):
            a, sfa = checked[i]
            b, sfb = checked[j]
            verdict = classify(sfa.derivation, sfb.derivation, mode)
            entry = {"first": a, "second": b, "verdict": type(verdict).__name__}
            if isinstance(verdict, SameDenotationUpToGamma):
                entry["inconclusive"] = verdict.inconclusive
                inconclusive = inconclusive or verdict.inconclusive
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
    if parse_failed:
        return 2
    if check_failed:
        return 1
    if inconclusive:
        return 3
    return 0


# ---------- Entry point ----------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proofmean",
        description="Check term-annotated derivations and compare their senses and denotations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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
            help="search depth for permutative conversions (default 4, or PROOFMEAN_FUEL)",
        )

    sp = sub.add_parser("check", help="validate a derivation file")
    sp.add_argument("file")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(handler=_cmd_check)

    sp = sub.add_parser("term", help="print the end term")
    sp.add_argument("file")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--canonical", action="store_true", help="rename binders to x1, x2, ...")
    sp.set_defaults(handler=_cmd_term)

    sp = sub.add_parser("normalize", help="print the normal form of the end term")
    sp.add_argument("file")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--canonical", action="store_true", help="rename binders to x1, x2, ...")
    sp.set_defaults(handler=_cmd_normalize)

    sp = sub.add_parser("sense", help="print the sense set, sorted")
    sp.add_argument("file")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--multiset", action="store_true", help="keep multiplicities")
    sp.set_defaults(handler=_cmd_sense)

    sp = sub.add_parser("compare", help="classify a pair of derivations")
    sp.add_argument("first")
    sp.add_argument("second")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--multiset", action="store_true", help="compare senses as multisets")
    mode_flags(sp)
    sp.set_defaults(handler=_cmd_compare)

    sp = sub.add_parser("corpus", help="check a directory and classify every pair")
    sp.add_argument("dir")
    sp.add_argument("--json", action="store_true")
    mode_flags(sp)
    sp.set_defaults(handler=_cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.handler(args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except _PARSE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ProofmeanError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input nested too deeply to process", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
