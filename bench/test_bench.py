"""Tests of the benchmark itself: inputs, expected answers, tracing and
the result format. Run from the repository root with

    python3 -m pytest bench/test_bench.py
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from proofmean import meaning, nd, rewrite, sc, syntax  # noqa: E402


def _pairs(workload: str, seed: int) -> list[gen.Pair]:
    rng = random.Random(f"{workload}:{seed}")
    return workloads.scale_pairs(rng) if workload == "scale_betaeta" else workloads.gamma_pairs(rng)


def test_generators_are_deterministic_per_seed():
    def shape(pairs: list[gen.Pair]) -> list:
        return sorted((p.family, p.size, p.label, p.fuel or 0) for p in pairs)

    for workload in ("scale_betaeta", "gamma_fuel"):
        assert _pairs(workload, 3) == _pairs(workload, 3)
        assert _pairs(workload, 3) != _pairs(workload, 4)
        assert shape(_pairs(workload, 3)) == shape(_pairs(workload, 4)), "seeds keep the sizes"

    def argv(seed: int) -> list[str]:
        return [t.name for t in workloads.cli_commands(seed, ROOT)]

    assert argv(3) == argv(3)
    assert argv(3) != argv(4)


def test_every_timed_input_parses_and_checks():
    for workload in ("scale_betaeta", "gamma_fuel"):
        for pair in _pairs(workload, 0):
            for text in (pair.text1, pair.text2):
                sf = syntax.parse_file(text)
                (nd.check_nd if sf.calculus == "nd" else sc.check_sc)(sf.derivation)


def test_expected_labels_hold_at_the_smallest_size():
    rng = random.Random(0)
    smallest = gen.detour_pairs(rng, 1) + gen.family_pairs(rng, 4) + gen.cut_pairs(rng, 1)
    for pair in smallest:
        problems, inconclusive = workloads._classify_task(pair).run()
        assert problems == [] and inconclusive == 0, (pair.family, pair.label, problems)
    join, split = gen.case_pairs(rng, 2, 4, 0)
    assert workloads._classify_task(join).run() == ([], 0)
    d1, d2 = (syntax.parse_file(t).derivation for t in (split.text1, split.text2))
    assert meaning.classify(d1, d2) == meaning.DifferentDenotation()
    wide = meaning.classify(d1, d2, rewrite.BetaEtaGamma(4))
    assert wide in (meaning.DifferentDenotation(), meaning.SameDenotationUpToGamma(True))


def test_corpus_answers_match_the_cli():
    for task in workloads.cli_commands(0, ROOT, in_process=True):
        problems, _ = task.run()
        assert problems == [], (task.name, problems)


def test_tracer_restores_every_wrapper():
    before = {(m.__name__, a): getattr(m, a) for m, a, _, _ in spans._HOOKS}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert meaning.classify is not before[("proofmean.meaning", "classify")]
        pair = gen.detour_pairs(random.Random(0), 3)[0]
        workloads._classify_task(pair).run()
    finally:
        tracer.restore()
    assert {(m.__name__, a): getattr(m, a) for m, a, _, _ in spans._HOOKS} == before
    names = {s.name for s in tracer.spans}
    assert {"syntax.parse_file", "meaning.classify", "nd.check_nd", "rewrite.normalize"} <= names
    assert all(s.end >= s.start for s in tracer.spans)


def test_self_time_subtracts_children_and_tracer_work():
    outer = spans.Span("meaning.classify", 0.0, -1, end=10.0, overhead=1.0)
    inner = spans.Span("nd.check_nd", 2.0, 0, end=5.0)
    incl, own = spans._durations([outer, inner], 0)
    assert incl == [9.0, 3.0] and own == [6.0, 3.0]
    m = spans.layer_metrics([outer, inner])
    assert m["meaning.self_s"] == 6.0 and m["nd.check_s"] == 3.0
    assert m["meaning.checks_per_classify"] == 1.0


def test_best_per_task_takes_each_tasks_least_time_over_the_passes():
    assert run.best_per_task([3.0, 1.0, 2.0, 1.0, 5.0, 1.5], 3) == [1.0, 1.0, 1.5]


def test_fit_exponent_recovers_a_power_law():
    sizes = [10, 20, 40, 80]
    assert abs(spans.fit_exponent(sizes, [3 * n**2.0 for n in sizes]) - 2.0) < 1e-9


def test_benchmark_json_names_every_metric_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_deep_probe_reports_each_input():
    results = workloads.deep_probe(0)
    assert [r["input"] for r in results] == [f"{f}/{n}" for f, n in workloads.DEEP_PROBE]
    assert all(r["ok"] or r["stage"] for r in results)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gamma_fuel", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
