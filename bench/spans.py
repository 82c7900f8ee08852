"""Spans around the calls into proofmean's modules, and the per-layer
metrics derived from them.

The tracer replaces functions at the module attributes through which
callers reach them, including names imported into `meaning`, `cli` and
`rewrite`, so a call from any module records one span: function name,
start, end and parent span. Spans stay in memory until the run ends.
`Tracer.restore` puts every original function back.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from typing import Callable

from proofmean import cli, core, meaning, nd, rewrite, sc, syntax

LAYERS = ("cli", "syntax", "nd", "sc", "core", "rewrite", "meaning")

CHECKS_ND = {"nd.check_nd", "nd.node_judgments", "nd.variable_types", "nd.end_term_nd"}
CHECKS_SC = {"sc.check_sc", "sc.node_sequents", "sc.variable_types", "sc.end_term_sc"}
CHECKS = CHECKS_ND | CHECKS_SC

_TERMS = (core.VarRef, core.Lam, core.App, core.Pair, core.Fst, core.Snd,
          core.Inl, core.Inr, core.Case, core.Abort)
_TERM_FIELDS = {cls: tuple(f.name for f in fields(cls)) for cls in _TERMS}


def tree_size(roots) -> int:
    """Total constructor count of the terms in roots, shared subterms
    counted at each occurrence; iterative, so depth does not matter."""
    memo: dict[int, int] = {}
    total = 0
    for root in roots:
        stack = [(root, False)]
        while stack:
            t, expanded = stack.pop()
            if id(t) in memo:
                continue
            kids = [k for k in (getattr(t, f) for f in _TERM_FIELDS[type(t)]) if isinstance(k, _TERMS)]
            if expanded:
                memo[id(t)] = 1 + sum(memo[id(k)] for k in kids)
            else:
                stack.append((t, True))
                stack.extend((k, False) for k in kids if id(k) not in memo)
        total += memo[id(root)]
    return total


def _mode_name(args, kwargs) -> str:
    mode = args[2] if len(args) > 2 else kwargs.get("mode", rewrite.BetaEta())
    return type(mode).__name__


# Where each traced function is reached, and what to record besides
# its span: a tag taken from the arguments, a value from the result.
_HOOKS: list[tuple[object, str, Callable | None, Callable | None]] = [
    (syntax, "parse_file", None, None),
    (syntax, "parse", None, None),
    (syntax, "tokenize", None, len),
    (syntax, "render_term", None, None),
    (nd, "check_nd", None, None),
    (nd, "node_judgments", None, None),
    (nd, "variable_types", None, None),
    (nd, "end_term_nd", None, None),
    (sc, "check_sc", None, None),
    (sc, "node_sequents", None, None),
    (sc, "variable_types", None, None),
    (sc, "end_term_sc", None, None),
    (core, "alpha_key", None, hash),
    (rewrite, "alpha_key", None, hash),
    (rewrite, "alpha_equal", None, None),
    (rewrite, "normalize", None, lambda t: tree_size([t])),
    (rewrite, "equivalent", _mode_name, None),
    (rewrite, "gamma_steps", None, len),
    (meaning, "normalize", None, lambda t: tree_size([t])),
    (meaning, "equivalent", _mode_name, None),
    (meaning, "classify", None, None),
    (meaning, "same_denotation", None, None),
    (meaning, "same_sense", None, None),
    (meaning, "sense_of", None, lambda s: tree_size(s.elements)),
    (meaning, "sense_renaming", None, lambda r: r is not None),
    (meaning, "denotation_of", None, None),
    (cli, "main", None, None),
    (cli, "parse", None, None),
    (cli, "render_term", None, None),
    (cli, "render_formula", None, None),
    (cli, "term_size", None, None),
    (cli, "normalize", None, lambda t: tree_size([t])),
    (cli, "classify", None, None),
    (cli, "sense_of", None, lambda s: tree_size(s.elements)),
    (cli, "sense_renaming", None, lambda r: r is not None),
]


@dataclass
class Span:
    name: str
    start: float
    parent: int
    tag: object = None
    end: float = 0.0
    value: object = None
    # time the tracer itself spent inside this span, taken out of its duration
    overhead: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, attr, tag, value in _HOOKS:
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, tag, value))

    def restore(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn, tag, value):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else -1,
                        tag(args, kwargs) if tag is not None else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if value is not None:
                t0 = clock()
                span.value = value(result)
                spent = clock() - t0
                for i in stack:
                    spans[i].overhead += spent
            return result

        traced.__wrapped__ = fn
        return traced


# ---------- Metrics from spans ----------


def _durations(spans: list[Span], base: int) -> tuple[list[float], list[float]]:
    """Inclusive and self time of each span; parents index absolutely."""
    incl = [s.end - s.start - s.overhead for s in spans]
    own = list(incl)
    for i, s in enumerate(spans):
        if s.parent >= base:
            own[s.parent - base] -= incl[i]
    return incl, own


def _roots(spans: list[Span], base: int, pick: Callable[[Span], bool]) -> list[int]:
    """For each span, the index of its outermost ancestor-or-self that
    `pick` selects, or -1."""
    root = [-1] * len(spans)
    for i, s in enumerate(spans):
        up = root[s.parent - base] if s.parent >= base else -1
        root[i] = up if up >= 0 else (i if pick(s) else -1)
    return root


def layer_metrics(spans: list[Span], base: int = 0) -> dict[str, float]:
    """The per-layer metrics of spans[...] whose first index is base.
    Times are seconds of traced work with the tracer's own
    measurements taken out."""
    incl, own = _durations(spans, base)
    names = [s.name for s in spans]

    def total(of: set[str], times: list[float]) -> float:
        return sum(t for n, t in zip(names, times) if n in of)

    def count(of: set[str]) -> int:
        return sum(1 for n in names if n in of)

    def values(of: str) -> list:
        return [s.value for s in spans if s.name == of]

    def mean(xs: list) -> float:
        return sum(xs) / len(xs) if xs else 0.0

    def outer_check(i: int) -> bool:
        p = spans[i].parent
        return names[i] in CHECKS and not (p >= base and names[p - base] in CHECKS)

    classify_root = _roots(spans, base, lambda s: s.name == "meaning.classify")
    outer_checks = [i for i in range(len(spans)) if outer_check(i)]
    classifies = sum(1 for i, r in enumerate(classify_root) if r == i)
    in_classify = sum(1 for i in outer_checks if classify_root[i] >= 0)

    gamma_root = _roots(
        spans, base, lambda s: s.name == "rewrite.equivalent" and s.tag == "BetaEtaGamma"
    )
    gamma_s = sum(incl[i] for i, r in enumerate(gamma_root) if r == i)
    keys = [(gamma_root[i], spans[i].value) for i in range(len(spans))
            if names[i] == "core.alpha_key" and gamma_root[i] >= 0]

    equal_search = 0.0
    for i, s in enumerate(spans):
        if s.name == "rewrite.equivalent" and s.tag == "BetaEta":
            equal_search += incl[i]
        elif s.name == "rewrite.normalize" and s.parent >= base:
            parent = spans[s.parent - base]
            if parent.name == "rewrite.equivalent" and parent.tag == "BetaEta":
                equal_search -= incl[i]

    found = values("meaning.sense_renaming")
    successors = sum(values("rewrite.gamma_steps"))
    out = {
        "syntax.parse_s": total({"syntax.parse_file", "syntax.parse", "syntax.tokenize"}, own),
        "syntax.tokens": sum(values("syntax.tokenize")),
        "syntax.render_s": total({"syntax.render_term", "syntax.render_formula"}, own),
        "nd.check_calls": sum(1 for i in outer_checks if names[i] in CHECKS_ND),
        "nd.check_s": total(CHECKS_ND, own),
        "sc.check_calls": sum(1 for i in outer_checks if names[i] in CHECKS_SC),
        "sc.check_s": total(CHECKS_SC, own),
        "meaning.checks_per_classify": in_classify / classifies if classifies else 0.0,
        "meaning.sense_of_s": total({"meaning.sense_of"}, own),
        "meaning.sense_total_size": mean(values("meaning.sense_of")),
        "meaning.renaming_s": total({"meaning.sense_renaming"}, own),
        "meaning.renaming_found_ratio": mean([1.0 if f else 0.0 for f in found]),
        "rewrite.normalize_calls": count({"rewrite.normalize"}),
        "rewrite.normalize_s": total({"rewrite.normalize"}, own),
        "core.normal_size": mean(values("rewrite.normalize")),
        "rewrite.equal_search_s": equal_search,
        "rewrite.gamma_s": gamma_s,
        "rewrite.gamma_steps_calls": count({"rewrite.gamma_steps"}),
        "rewrite.gamma_successors": successors,
        "rewrite.gamma_new_ratio": len(set(keys)) / len(keys) if keys else 0.0,
        "core.alpha_key_calls": count({"core.alpha_key"}),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for s, t in zip(spans, own) if s.layer == layer)
    out["meaning.classify_s"] = sum(incl[i] for i, r in enumerate(classify_root) if r == i)
    return out


def fit_exponent(sizes: list[float], times: list[float]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(max(t, 1e-9)) for t in times]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
