"""Run one workload of the proofmean benchmark and print its metrics.

    python3 bench/run.py --workload scale_betaeta --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout; it works on the `src/` and
`corpus/` next to this directory. It builds the workload's inputs from
the seed, runs whole passes of them in a closed loop with one client
until `--seconds` have gone by, checks every answer against the answer
the input was built to have, and prints a report. The last line of
standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.

--trace 0 gives the end-to-end metrics. The task timings come from each
task's best time over the passes of the run, and CLI start-up from the
best of its samples. On a shared host the CPU's speed can change by
half in phases that last from seconds to minutes. A task's best time is
what it costs when nothing else slows it, and it repeats from run to run
far better than a median over all samples, which follows the phases.

--trace 1 runs each task of the same passes untraced and then traced,
and gives the per-layer metrics from spans recorded around the calls
into each module, plus scaling curves over fixed size and fuel grids.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scale_betaeta", "gamma_fuel")
SETUP_REPEATS = 15
STARTUP_REPEATS = 41
SWEEP_REPEATS = 3

END_TO_END = [
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("task_p50_ms", "ms"),
    ("task_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("cli_startup_ms", "ms"),
]

# Metrics that are ratios or means; the rest add up over a pass.
_NOT_ADDITIVE = {
    "meaning.checks_per_classify",
    "meaning.sense_total_size",
    "meaning.renaming_found_ratio",
    "core.normal_size",
    "rewrite.gamma_new_ratio",
}


def per_layer_units() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run prints, with its unit."""
    import workloads

    units = [
        ("cli.interp_ms", "ms"), ("cli.import_ms", "ms"), ("cli.inproc_ms", "ms"),
        ("cli.command_p50_ms", "ms"), ("cli.command_p90_ms", "ms"),
        ("syntax.parse_s", "s"), ("syntax.tokens", "count"), ("syntax.render_s", "s"),
        ("nd.check_calls", "count"), ("nd.check_s", "s"),
        ("sc.check_calls", "count"), ("sc.check_s", "s"),
        ("meaning.checks_per_classify", "ratio"), ("meaning.classify_s", "s"),
        ("meaning.sense_of_s", "s"), ("meaning.sense_total_size", "nodes"),
        ("meaning.renaming_s", "s"), ("meaning.renaming_found_ratio", "ratio"),
        ("rewrite.normalize_calls", "count"), ("rewrite.normalize_s", "s"),
        ("core.normal_size", "nodes"), ("rewrite.equal_search_s", "s"),
        ("rewrite.gamma_s", "s"), ("rewrite.gamma_steps_calls", "count"),
        ("rewrite.gamma_successors", "count"), ("rewrite.gamma_new_ratio", "ratio"),
        ("core.alpha_key_calls", "count"),
    ]
    units += [(f"{layer}.self_s", "s") for layer in
              ("cli", "syntax", "nd", "sc", "core", "rewrite", "meaning")]
    units += [
        ("trace.overhead_share", "ratio"),
        ("fail_share", "ratio"),
        ("inconclusive_share", "ratio"),
        ("deep_probe.failed", "count"),
        ("meaning.classify_exp_detour", "1"),
        ("meaning.renaming_exp_detour", "1"),
        ("nd.check_exp_detour", "1"),
        ("syntax.parse_exp_detour", "1"),
        ("meaning.classify_exp_pairs", "1"),
        ("rewrite.gamma_fuel_growth", "x"),
    ]
    units += [(f"meaning.classify_ms.detour_{n}", "ms") for n in workloads.SWEEP_DETOUR]
    units += [(f"meaning.classify_ms.pairs_{n}", "ms") for n in workloads.SWEEP_PAIRS]
    units += [(f"rewrite.gamma_ms.fuel_{f}", "ms") for f in workloads.SWEEP_FUEL]
    return units


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    gamma: int = 0
    inconclusive: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{name}: {problems[0]}")


def run_pass(tasks, tally: Tally, latencies: list[float], probes=None) -> None:
    """Run every task once, in order, appending each one's seconds to
    latencies. Probes due are taken after a task, outside its timing."""
    clock = time.perf_counter
    for task in tasks:
        t0 = clock()
        try:
            problems, inconclusive = task.run()
        except Exception as e:  # a failing task is counted, and the loop goes on
            problems, inconclusive = [f"{type(e).__name__}: {str(e)[:120]}"], 0
        latencies.append(clock() - t0)
        tally.record(task.name, problems)
        tally.gamma += task.gamma_comparisons
        tally.inconclusive += inconclusive
        if probes is not None:
            probes.after(latencies[-1])


def _child(argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)


def _wall_ms(argv: list[str]) -> float:
    t0 = time.perf_counter()
    _child(argv)
    return (time.perf_counter() - t0) * 1000


def _run_py(args, probe: str) -> list[str]:
    return [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--probe", probe]


class Probes:
    """Set-up and CLI start-up samples, each in a fresh process.

    They are taken one at a time between tasks, evenly over the measured
    seconds, so that they see the machine in the same state the tasks do.
    """

    def __init__(self, args) -> None:
        self.setup_argv = _run_py(args, "setup")
        self.startup_argv = [sys.executable, "-c", "import proofmean.cli"]
        kinds = zip_longest(["setup"] * SETUP_REPEATS, ["startup"] * STARTUP_REPEATS)
        self.todo = [k for pair in kinds for k in pair if k]
        self.interval = args.seconds / len(self.todo)
        self.busy = 0.0  # task seconds so far
        self.setup_s: list[float] = []
        self.startup_ms: list[float] = []
        self._setup()  # warm-up samples, discarded
        self.setup_s.clear()
        _wall_ms(self.startup_argv)

    def _setup(self) -> None:
        done = _child(self.setup_argv)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-300:]}")
        self.setup_s.append(float(done.stdout.strip().splitlines()[-1]))

    def _take(self) -> None:
        if self.todo.pop(0) == "setup":
            self._setup()
        else:
            self.startup_ms.append(_wall_ms(self.startup_argv))

    def after(self, seconds: float) -> None:
        """Account a task's time; take the samples now due."""
        self.busy += seconds
        taken = SETUP_REPEATS + STARTUP_REPEATS - len(self.todo)
        while self.todo and self.busy >= taken * self.interval:
            self._take()
            taken += 1

    def finish(self) -> None:
        while self.todo:
            self._take()


def _deep_probe(args) -> list[dict]:
    # In a child, so that a crash on deep input is recorded, not fatal.
    done = _child(_run_py(args, "deep"))
    if done.returncode != 0:
        reason = f"probe process exited {done.returncode}: {done.stderr.strip()[-200:]}"
        return [{"input": "deep probe", "ok": False, "stage": None, "error": reason}]
    return json.loads(done.stdout.strip().splitlines()[-1])


def _quantile(xs: list[float], q: int) -> float:
    return statistics.quantiles(xs, n=10, method="inclusive")[q - 1]


def best_per_task(latencies: list[float], tasks: int) -> list[float]:
    """Each task's least time over the passes; latencies hold whole
    passes of `tasks` timings each, in the same task order."""
    return [min(latencies[i::tasks]) for i in range(tasks)]


def _line(name: str, value: float, unit: str, samples: int | str) -> None:
    print(f"  {name:34s} {value:14.6g} {unit:6s} n={samples}")


def _probe_lines(probe: list[dict]) -> int:
    """Print the deep probe's results; return how many inputs failed."""
    for r in probe:
        status = "ok" if r["ok"] else f"FAILED at {r['stage']}: {r['error']}"
        print(f"  deep probe {r['input']}: {status}")
    return sum(not r["ok"] for r in probe)


def end_to_end(args) -> tuple[dict, Tally]:
    import workloads

    tasks = workloads.build(args.workload, args.seed)
    tally, latencies = Tally(), []
    run_pass(tasks[:1], Tally(), [])  # warm-up, not counted
    probes = Probes(args)
    passes = 0
    while passes == 0 or sum(latencies) < args.seconds:
        run_pass(tasks, tally, latencies, probes)
        passes += 1
    probes.finish()
    wall = sum(latencies)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    inconclusive_share = tally.inconclusive / tally.gamma if tally.gamma else 0.0
    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, "
          f"{passes} passes of {len(tasks)} tasks in {wall:.2f} s")
    best = best_per_task(latencies, len(tasks))
    per_task = f"{len(tasks)} tasks, best of {passes}"
    values = {
        "setup_s": (statistics.median(probes.setup_s), len(probes.setup_s)),
        "tasks_per_s": (len(best) / sum(best), per_task),
        "task_p50_ms": (statistics.median(best) * 1000, per_task),
        "task_p90_ms": (_quantile(best, 9) * 1000, per_task),
        "peak_rss_mb": (peak_mb, 1),
        "cli_startup_ms": (min(probes.startup_ms), f"best of {len(probes.startup_ms)}"),
    }
    metrics = {}
    for name, unit in END_TO_END:
        value, n = values[name]
        _line(name, value, unit, n)
        metrics[name] = {"value": value, "unit": unit}
    _line("fail_share", tally.failed / tally.attempted, "ratio", tally.attempted)
    _line("inconclusive_share", inconclusive_share, "ratio", tally.gamma)
    return metrics, tally


def _sweep(seed: int) -> dict[str, float]:
    """Traced runs over fixed grids: per-size times and fitted exponents.
    Each point is the median of SWEEP_REPEATS traced runs."""
    import spans
    import workloads

    rng = random.Random(f"sweep:{seed}")
    tracer = spans.Tracer()
    out: dict[str, float] = {}

    def traced(pair) -> dict[str, float]:
        runs = []
        for _ in range(SWEEP_REPEATS):
            base = len(tracer.spans)
            tracer.install()
            try:
                problems, _ = workloads._classify_task(pair).run()
            finally:
                tracer.restore()
            if problems:
                raise RuntimeError(f"sweep input {pair.family}/{pair.size}: {problems[0]}")
            runs.append(spans.layer_metrics(tracer.spans[base:], base))
        return {k: statistics.median(r[k] for r in runs) for k in runs[0]}

    print("  scaling (traced; classify, renaming, nd check, parse in ms):")
    for family, sizes, make in (("detour", workloads.SWEEP_DETOUR, gen.detour_pairs),
                                ("pairs", workloads.SWEEP_PAIRS, gen.family_pairs)):
        rows = [traced(make(rng, n)[0]) for n in sizes]
        for n, r in zip(sizes, rows):
            out[f"meaning.classify_ms.{family}_{n}"] = r["meaning.classify_s"] * 1000
            print(f"    {family:6s} {n:5d}  " + "  ".join(
                f"{r[k] * 1000:9.2f}" for k in ("meaning.classify_s", "meaning.renaming_s",
                                                 "nd.check_s", "syntax.parse_s")))

        def exp(key: str) -> float:
            return spans.fit_exponent(list(sizes), [r[key] for r in rows])

        if family == "detour":
            out["meaning.classify_exp_detour"] = exp("meaning.classify_s")
            out["meaning.renaming_exp_detour"] = exp("meaning.renaming_s")
            out["nd.check_exp_detour"] = exp("nd.check_s")
            out["syntax.parse_exp_detour"] = exp("syntax.parse_s")
        else:
            out["meaning.classify_exp_pairs"] = exp("meaning.classify_s")
    gamma = []
    for fuel in workloads.SWEEP_FUEL:
        split = gen.case_pairs(rng, workloads.SWEEP_COMPONENTS, fuel, 0)[1]
        gamma.append(traced(split)["rewrite.gamma_s"])
        out[f"rewrite.gamma_ms.fuel_{fuel}"] = gamma[-1] * 1000
        print(f"    gamma  fuel {fuel}  {gamma[-1] * 1000:9.2f}")
    out["rewrite.gamma_fuel_growth"] = (gamma[-1] / gamma[0]) ** (1 / (len(gamma) - 1))
    return out


def per_layer(args) -> tuple[dict, Tally]:
    import spans
    import workloads

    interp, imported = [], []
    for _ in range(STARTUP_REPEATS + 1):
        interp.append(_wall_ms([sys.executable, "-c", "pass"]))
        imported.append(_wall_ms([sys.executable, "-c", "import proofmean.cli"]))
    interp, imported = interp[1:], imported[1:]  # the first pair warms up
    tasks = workloads.build(args.workload, args.seed)
    tally = Tally()
    run_pass(tasks[:1], Tally(), [])  # warm-up, not counted
    tracer = spans.Tracer()
    # Each task runs untraced and then traced, so that the two timings
    # see the machine in the same state.
    latencies, traced = [], []
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < args.seconds:
        for task in tasks:
            run_pass([task], tally, latencies)
            tracer.install()
            try:
                run_pass([task], tally, traced)
            finally:
                tracer.restore()
        passes += 1
    layers = spans.layer_metrics(tracer.spans)
    for name in layers:
        if name not in _NOT_ADDITIVE:
            layers[name] /= passes
    cli_tally, inproc, commands = Tally(), [], []
    run_pass(workloads.cli_commands(args.seed, ROOT, in_process=True), cli_tally, inproc)
    run_pass(workloads.cli_commands(args.seed, ROOT), cli_tally, commands)
    tally.problems += cli_tally.problems
    tally.attempted += cli_tally.attempted
    tally.failed += cli_tally.failed
    print(f"workload {args.workload}, seed {args.seed}: traced run, "
          f"{passes} passes of {len(tasks)} tasks, each task untraced then traced")
    sweep = _sweep(args.seed)
    layers.update(sweep)
    probe = _deep_probe(args) if args.workload == "scale_betaeta" else []
    layers.update({
        "deep_probe.failed": _probe_lines(probe),
        "cli.interp_ms": statistics.median(interp),
        "cli.import_ms": statistics.median(imported) - statistics.median(interp),
        "cli.inproc_ms": statistics.median(inproc) * 1000,
        "cli.command_p50_ms": statistics.median(commands) * 1000,
        "cli.command_p90_ms": _quantile(commands, 9) * 1000,
        "trace.overhead_share": sum(traced) / sum(latencies) - 1,
        "fail_share": tally.failed / tally.attempted,
        "inconclusive_share": tally.inconclusive / tally.gamma if tally.gamma else 0.0,
    })
    samples: dict[str, int | str] = {name: 1 for name in sweep}
    samples.update({"cli.interp_ms": len(interp), "cli.import_ms": len(imported),
                    "cli.inproc_ms": len(inproc), "cli.command_p50_ms": len(commands),
                    "cli.command_p90_ms": len(commands), "trace.overhead_share": len(traced),
                    "fail_share": tally.attempted, "inconclusive_share": tally.gamma,
                    "deep_probe.failed": len(probe)})
    metrics = {}
    for name, unit in per_layer_units():
        _line(name, layers[name], unit, samples.get(name, f"{passes} traced passes"))
        metrics[name] = {"value": layers[name], "unit": unit}
    return metrics, tally


def setup_probe(args) -> int:
    t0 = time.perf_counter()
    import workloads

    workloads.build(args.workload, args.seed)
    print(time.perf_counter() - t0)
    return 0


def deep_probe(args) -> int:
    import workloads

    print(json.dumps(workloads.deep_probe(args.seed)))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "deep"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "proofmean" / "cli.py").is_file() or not (ROOT / "corpus").is_dir():
        print(f"bench: no src/proofmean or corpus/ under {ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    if args.probe == "setup":
        return setup_probe(args)
    if args.probe == "deep":
        return deep_probe(args)
    metrics, tally = per_layer(args) if args.trace else end_to_end(args)
    for problem in tally.problems:
        print(f"  problem: {problem}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
