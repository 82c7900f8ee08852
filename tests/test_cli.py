import collections
import gc
import importlib.resources
import itertools
import json
import os
import pathlib
import subprocess
import sys
import threading

import jsonschema
import pytest

import proofmean
from proofmean import cli
from gamma_examples import CASE_OF_TUPLE, FST_CASE, SND_CASE, TUPLE_OF_CASES
from proofmean.cli import main
from proofmean.meaning import classify
from proofmean.rewrite import BetaEta, BetaEtaGamma
from proofmean.sc import cut_nodes
from proofmean.syntax import render_derivation
from test_meaning import church_numeral, pair_family

ID_ND = "(nd ident (imp-i x (hyp x p)))"
DETOUR_ND = "(nd detour (and-e1 (and-i (imp-i x (hyp x p)) (imp-i y (hyp y q)))))"
WEAK_1 = "(imp-i x (imp-i z q (hyp x p)))"
WEAK_2 = "(imp-i y (imp-i z q (hyp y p)))"
REUSE_ND = "(and-i (hyp x p) (hyp x p))"
PAIR_1 = "(imp-i y (imp-i x (and-i (hyp x p) (hyp y p))))"
PAIR_2 = "(imp-i x (imp-i y (and-i (hyp x p) (hyp y p))))"


@pytest.fixture
def write(tmp_path):
    def _write(name: str, text: str) -> str:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return _write


@pytest.fixture(scope="module")
def schema():
    text = importlib.resources.files("proofmean").joinpath("schema.json").read_text()
    return json.loads(text)


def run_json(capsys, schema, argv):
    code = main(argv)
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, schema)
    return code, payload


def test_check_prints_the_judgment_and_tree(write, capsys):
    path = write("id.nd", ID_ND)
    assert main(["check", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == r"|- \x:p. x : p -> p"
    assert out[1].startswith("imp-i x  [")
    assert out[2].startswith("  hyp x p  [x:p |- x : p]")


def test_check_shows_open_hypotheses(write, capsys):
    path = write("open.nd", "(hyp x p)")
    assert main(["check", path]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "x:p |- x : p"


def test_check_json_is_schema_valid(write, capsys, schema):
    path = write("id.nd", ID_ND)
    code, payload = run_json(capsys, schema, ["check", path, "--json"])
    assert code == 0
    assert payload["command"] == "check"
    assert payload["inputs"] == [path]
    assert payload["judgment"] == r"|- \x:p. x : p -> p"
    assert payload["details"]["calculus"] == "nd"
    assert payload["details"]["name"] == "ident"


def test_check_failure_exits_1(write, capsys):
    path = write("bad.nd", "(and-e1 (hyp x p))")
    assert main(["check", path]) == 1
    assert "error:" in capsys.readouterr().err


def test_parse_failures_exit_2(write, tmp_path, capsys):
    assert main(["check", write("broken.nd", "(imp-i")]) == 2
    assert main(["check", write("tonk.nd", "(tonk-i (hyp x p))")]) == 2
    assert main(["check", write("dangling.nd", "(imp-i z (hyp x p))")]) == 2
    assert main(["check", "/nonexistent/no.nd"]) == 2
    capsys.readouterr()
    binary = tmp_path / "binary.nd"
    binary.write_bytes(b"\xff\xfe")
    good = write("good.nd", ID_ND)
    for argv in (["check"], ["term"], ["normalize"], ["sense"], ["compare", good]):
        assert main([*argv, str(binary)]) == 2, argv
        assert capsys.readouterr().err == f"error: {binary}: not UTF-8 text\n"


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["frobnicate", "x"]) == 2
    capsys.readouterr()


def detour_chain(n: int) -> str:
    # n nested pair-then-project detours around a hypothesis
    d = "(hyp x p)"
    for _ in range(n):
        d = f"(and-e1 (and-i {d} (hyp x p)))"
    return f"(nd chain (imp-i x {d}))"


def test_too_deep_input_exits_4_without_a_traceback(write, capsys, monkeypatch):
    # The runner's recursion limit is what stops a deep input: lowered
    # here, a chain that fits below it answers and one past it exits 4.
    monkeypatch.setattr(cli, "_RECURSION_LIMIT", 1500)
    deep = write("deep.nd", detour_chain(1000))
    for command in ("check", "normalize"):
        assert main([command, deep]) == 4
        captured = capsys.readouterr()
        assert "error: input nested too deeply" in captured.err
        assert "Traceback" not in captured.out + captured.err
    shallow = write("shallow.nd", detour_chain(200))
    for command in ("check", "normalize"):
        assert main([command, shallow]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == r"\x:p. x"


def test_commands_answer_on_deep_input(write, capsys):
    limit, stack = sys.getrecursionlimit(), threading.stack_size()
    chain = write("chain.nd", detour_chain(600))
    for argv in (["check"], ["normalize"], ["sense"], ["compare", chain]):
        assert main([*argv, chain]) == 0, argv
    capsys.readouterr()
    deep = write("deep.nd", detour_chain(10_000))
    assert main(["normalize", deep]) == 0
    assert capsys.readouterr().out == "\\x:p. x\n"
    assert main(["compare", deep, deep]) == 0
    assert capsys.readouterr().out == "SameSenseSameDenotation\nrenaming: {'x': 'x'}\n"
    # The runner puts both settings back.
    assert sys.getrecursionlimit() == limit != cli._RECURSION_LIMIT
    assert threading.stack_size() == stack != cli._STACK_BYTES


def test_compare_answers_on_a_wide_pair_family(write, capsys):
    # render_derivation recurses once per level, which at width 1000 is
    # past the default recursion limit.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)
    try:
        a, b = (write(f"{tag}.nd", render_derivation(pair_family(1000, tag))) for tag in "ab")
    finally:
        sys.setrecursionlimit(limit)
    assert main(["compare", a, b]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "SameSenseSameDenotation"


def test_an_unexpected_error_is_raised_in_the_calling_thread(write, monkeypatch):
    def fail(args):
        raise ValueError("not handled")

    monkeypatch.setattr(cli, "_cmd_check", fail)
    with pytest.raises(ValueError, match="not handled"):
        main(["check", write("id.nd", ID_ND)])


def test_check_and_normalize_answer_on_a_wide_pair_family(write, capsys):
    path = write("a.nd", render_derivation(pair_family(300, "a")))
    for command in ("check", "normalize"):
        assert main([command, path]) == 0, command
    assert "Traceback" not in capsys.readouterr().err


def run_module(*argv: str) -> subprocess.CompletedProcess:
    src = str(pathlib.Path(proofmean.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "proofmean.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )


def test_module_entry_point_writes_nothing_to_stderr(corpus_dir):
    # The package must not import `cli` itself: runpy would then find the
    # module already loaded and warn on every `python -m proofmean.cli`.
    proc = run_module("check", str(corpus_dir / "nd_identity.nd"))
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_a_deep_formula_in_an_error_message_does_not_crash(write):
    # The message shows the formula by its dataclass repr, which recurses
    # through C: on CPython 3.11 about 500 bytes of stack per connective,
    # past a default thread stack at 20,000. CPython 3.12 and later stop
    # that recursion at a fixed depth instead, and exit 4.
    path = write("deep.nd", "(and-e1 (hyp x p" + " -> p" * 20_000 + "))")
    proc = run_module("check", path)
    assert proc.returncode in (1, 4)
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_a_deep_declared_formula_is_compared_by_identity(write):
    # The declared and the hypothesis formula are one object, so checking
    # and comparing never recurse into them. A dataclass == recurses
    # through C, which CPython 3.12.1 stops at a fixed depth (exit 4).
    formula = "p" + " -> p" * 3_000
    path = write("deep.nd", f"(imp-i x {formula} (hyp x {formula}))")
    for argv in (("check", path), ("compare", path, path)):
        proc = run_module(*argv)
        assert (proc.returncode, proc.stderr) == (0, ""), argv


def test_deep_sequent_senses_are_compared_by_flat_keys(write):
    # Each of the 2,000 nested or-r1 sequents is a sense element, matched
    # by its skeleton, an interned term hashed and compared by identity.
    # A nested tuple would be hashed and compared by recursion through C,
    # which CPython 3.12.1 stops at a fixed depth (exit 4).
    paths = [write(f"{v}.sc", f"(imp-r {v} {'(or-r1 q ' * 2_000}(rf {v} p){')' * 2_001}")
             for v in "xy"]
    proc = run_module("compare", *paths)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("SameSenseSameDenotation")


def test_term_command(write, capsys, schema):
    path = write("id.nd", "(imp-i a (hyp a p))")
    assert main(["term", path]) == 0
    assert capsys.readouterr().out.strip() == r"\a:p. a"
    assert main(["term", path, "--canonical"]) == 0
    assert capsys.readouterr().out.strip() == r"\x1:p. x1"
    code, payload = run_json(capsys, schema, ["term", path, "--json"])
    assert code == 0
    assert payload["term"] == r"\a:p. a"
    assert payload["details"]["formula"] == "p -> p"


def test_normalize_command(write, capsys, schema):
    path = write("detour.nd", DETOUR_ND)
    assert main(["normalize", path]) == 0
    assert capsys.readouterr().out.strip() == r"\x:p. x"
    code, payload = run_json(capsys, schema, ["normalize", path, "--json"])
    assert code == 0
    assert payload["term"] == r"\x:p. x"
    assert payload["details"]["from"] == r"fst(<\x:p. x, \y:q. y>)"


def test_sense_is_sorted_by_size_then_text(write, capsys):
    path = write("detour.nd", DETOUR_ND)
    assert main(["sense", path]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "x",
        "y",
        r"\x:p. x",
        r"\y:q. y",
        r"<\x:p. x, \y:q. y>",
        r"fst(<\x:p. x, \y:q. y>)",
    ]


def test_sense_multiset_counts(write, capsys, schema):
    path = write("reuse.nd", REUSE_ND)
    assert main(["sense", path, "--multiset"]) == 0
    assert capsys.readouterr().out.splitlines() == ["x  x2", "<x, x>  x1"]
    code, payload = run_json(capsys, schema, ["sense", path, "--multiset", "--json"])
    assert code == 0
    assert payload["details"]["counts"] == [["x", 2], ["<x, x>", 1]]


def test_compare_same_sense_reports_the_renaming(write, capsys, schema):
    a = write("w1.nd", WEAK_1)
    b = write("w2.nd", WEAK_2)
    code, payload = run_json(capsys, schema, ["compare", a, b, "--json"])
    assert code == 0
    assert payload["verdict"] == "SameSenseSameDenotation"
    assert payload["details"]["renaming"] == {"x": "y", "z": "z"}
    assert main(["compare", a, b]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "SameSenseSameDenotation"
    assert any("renaming" in line for line in out)


def test_compare_prints_one_renaming_under_every_hash_seed(write):
    # y and z both weaken p, so two renamings carry one sense onto the
    # other; the one printed must not follow the hash seed.
    a = write("a.sc", "(sc w1 (imp-r x (weaken y p (weaken z p (rf x p)))))")
    b = write("b.sc", "(sc w2 (imp-r u (weaken v p (weaken w p (rf u p)))))")
    src = str(pathlib.Path(proofmean.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outputs = set()
    for seed in range(8):
        proc = subprocess.run(
            [sys.executable, "-m", "proofmean.cli", "compare", a, b, "--json"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(seed)},
            timeout=60,
        )
        assert proc.returncode == 0
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    assert json.loads(outputs.pop())["verdict"] == "SameSenseSameDenotation"


def test_compare_different_sense_lists_the_difference(write, capsys, schema):
    a = write("id.nd", ID_ND)
    b = write("detour.nd", DETOUR_ND)
    code, payload = run_json(capsys, schema, ["compare", a, b, "--json"])
    assert code == 0
    assert payload["verdict"] == "DifferentSenseSameDenotation"
    assert payload["details"]["only_in_first"] == []
    assert r"\y:q. y" in payload["details"]["only_in_second"]


def test_compare_different_denotation_exits_1(write, capsys, schema):
    a = write("p1.nd", PAIR_1)
    b = write("p2.nd", PAIR_2)
    code, payload = run_json(capsys, schema, ["compare", a, b, "--json"])
    assert code == 1
    assert payload["verdict"] == "DifferentDenotation"
    assert len(payload["details"]["normal_forms"]) == 2


def test_compare_gamma_definitive_answers(write, capsys, schema):
    # The finite model separates the two projections before any search,
    # so even fuel 1 gives a definite answer.
    a = write("a.nd", FST_CASE)
    b = write("b.nd", SND_CASE)
    for fuel in (1, 4):
        code, payload = run_json(
            capsys, schema, ["compare", a, b, "--json", "--mode=beta-eta-gamma", f"--fuel={fuel}"]
        )
        assert code == 1
        assert payload["verdict"] == "DifferentDenotation"
        assert payload["details"]["fuel"] == fuel


def test_compare_gamma_refutes_church_numerals_2_and_4(write, capsys, schema):
    # No \/ or _|_ in either file, so both modes answer by the normal forms.
    a = write("two.nd", church_numeral(2))
    b = write("four.nd", church_numeral(4))
    for mode in ("beta-eta", "beta-eta-gamma"):
        code, payload = run_json(capsys, schema, ["compare", a, b, "--json", f"--mode={mode}"])
        assert code == 1
        assert payload["verdict"] == "DifferentDenotation"
    assert main(["compare", a, b, "--mode", "beta-eta-gamma"]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "DifferentDenotation"


def test_compare_inconclusive_exits_3(write, capsys, schema):
    a = write("a.nd", CASE_OF_TUPLE)
    b = write("b.nd", TUPLE_OF_CASES)
    code, payload = run_json(
        capsys, schema, ["compare", a, b, "--json", "--mode=beta-eta-gamma", "--fuel=1"]
    )
    assert code == 3
    assert payload["verdict"] == "SameDenotationUpToGamma"
    assert payload["details"]["inconclusive"] is True
    assert main(["compare", a, b, "--mode=beta-eta-gamma", "--fuel=1"]) == 3
    assert "inconclusive" in capsys.readouterr().out
    assert main(["compare", a, b, "--mode=beta-eta-gamma", "--fuel=2"]) == 0
    capsys.readouterr()


def test_compare_gamma_success_exits_0(write, capsys, schema, corpus_dir):
    a = str(corpus_dir / "sc_dist_1.sc")
    b = str(corpus_dir / "sc_dist_3.sc")
    code, payload = run_json(capsys, schema, ["compare", a, b, "--json", "--mode=beta-eta-gamma"])
    assert code == 0
    assert payload["verdict"] == "SameDenotationUpToGamma"
    assert payload["details"]["inconclusive"] is False


def test_fuel_comes_from_the_environment(write, capsys, monkeypatch):
    a = write("a.nd", CASE_OF_TUPLE)
    b = write("b.nd", TUPLE_OF_CASES)
    monkeypatch.setenv("PROOFMEAN_FUEL", "1")
    assert main(["compare", a, b, "--mode=beta-eta-gamma"]) == 3
    assert main(["compare", a, b, "--mode=beta-eta-gamma", "--fuel=2"]) == 0
    monkeypatch.setenv("PROOFMEAN_FUEL", "2")
    assert main(["compare", a, b, "--mode=beta-eta-gamma"]) == 0
    monkeypatch.setenv("PROOFMEAN_FUEL", "1")
    c = write("c.nd", FST_CASE)
    d = write("d.nd", SND_CASE)
    assert main(["compare", c, d, "--mode=beta-eta-gamma"]) == 1
    monkeypatch.setenv("PROOFMEAN_FUEL", "banana")
    assert main(["compare", a, b, "--mode=beta-eta-gamma"]) == 2
    capsys.readouterr()


def test_fuel_must_be_positive(write, capsys):
    a = write("a.nd", FST_CASE)
    b = write("b.nd", SND_CASE)
    assert main(["compare", a, b, "--mode=beta-eta-gamma", "--fuel=0"]) == 2
    assert "fuel" in capsys.readouterr().err


def test_compare_multiset_flag_tightens_sense(write, capsys):
    a = write("r1.nd", REUSE_ND)
    b = write("r2.sc", "(and-r (rf x p) (rf x p))")
    assert main(["compare", a, b]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "SameSenseSameDenotation"
    assert main(["compare", a, b, "--multiset"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "DifferentSenseSameDenotation"


def test_corpus_classifies_every_pair(capsys, schema, corpus_dir):
    code, payload = run_json(capsys, schema, ["corpus", str(corpus_dir), "--json"])
    assert code == 0
    files = payload["details"]["files"]
    assert len(files) == 17
    assert all(f["ok"] for f in files)
    pairs = payload["details"]["pairs"]
    assert len(pairs) == 17 * 16 // 2
    by_key = {(e["first"], e["second"]): e["verdict"] for e in pairs}
    assert by_key[("nd_case_pair", "sc_case_pair")] == "SameSenseSameDenotation"
    assert by_key[("nd_identity", "nd_identity_detour")] == "DifferentSenseSameDenotation"
    assert by_key[("nd_pair_pp_1", "nd_pair_pp_2")] == "DifferentDenotation"


def test_corpus_reports_bad_files(write, tmp_path, capsys, schema):
    write("good.nd", ID_ND)
    write("broken.nd", "(imp-i")
    (tmp_path / "binary.nd").write_bytes(b"\xff\xfe")
    code, payload = run_json(capsys, schema, ["corpus", str(tmp_path), "--json"])
    assert code == 2
    files = {f["name"]: f for f in payload["details"]["files"]}
    assert files["broken"]["stage"] == "parse"
    assert files["binary"]["stage"] == "parse"
    assert files["binary"]["error"].endswith("binary.nd: not UTF-8 text")
    assert files["good"]["ok"] is True


def test_corpus_lists_an_unreadable_entry_and_reports_the_rest(write, tmp_path, capsys, schema):
    write("good.nd", ID_ND)
    (tmp_path / "sub.nd").mkdir()
    code, payload = run_json(capsys, schema, ["corpus", str(tmp_path), "--json"])
    assert code == 2
    files = {f["name"]: f for f in payload["details"]["files"]}
    assert files["sub"]["ok"] is False
    assert files["sub"]["stage"] == "read"
    assert files["good"]["ok"] is True
    assert main(["corpus", str(tmp_path)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("sub: read error: ") for line in lines)
    assert any(line.startswith("good: ok ") for line in lines)


def test_corpus_exit_distinguishes_check_failures(write, tmp_path, capsys):
    write("good.nd", ID_ND)
    write("bad.nd", "(and-e1 (hyp x p))")
    assert main(["corpus", str(tmp_path)]) == 1
    capsys.readouterr()


def test_corpus_inconclusive_exits_3(write, tmp_path, capsys):
    write("a.nd", CASE_OF_TUPLE)
    write("b.nd", TUPLE_OF_CASES)
    write("c.nd", FST_CASE)
    write("d.nd", SND_CASE)
    assert main(["corpus", str(tmp_path), "--mode=beta-eta-gamma", "--fuel=1"]) == 3
    out = capsys.readouterr().out
    assert "a vs b: SameDenotationUpToGamma (inconclusive)" in out
    assert "c vs d: DifferentDenotation" in out
    assert main(["corpus", str(tmp_path), "--mode=beta-eta-gamma", "--fuel=2"]) == 0
    assert "(inconclusive)" not in capsys.readouterr().out


def test_commands_leave_no_cyclic_garbage(write, capsys, tmp_path, corpus_dir, load_corpus):
    # Interned nodes live for the whole process, so each collection the
    # cyclic collector makes walks all of them. Nothing a classification,
    # a cut listing or a command leaves behind should need one. The first
    # round builds the parser, once per process, and imports what commands
    # load on use; the second is counted, with the collector off and every
    # object it finds kept. No command changes the collector's state.
    files = [load_corpus(p.name) for p in sorted(corpus_dir.iterdir())]
    sources = [f.derivation for f in files]
    pairs = [*itertools.combinations(sources, 2), (pair_family(12, "a"), pair_family(12, "b"))]
    a, b = write("a.nd", WEAK_1), write("b.nd", WEAK_2)
    commands = [
        ["check", a], ["term", a, "--canonical"], ["normalize", write("d.nd", DETOUR_ND)],
        ["sense", b, "--multiset"], ["compare", a, b], ["compare", a, b, "--mode=beta-eta-gamma"],
        ["corpus", str(corpus_dir)], ["check", write("bad.nd", "(and-e1 (hyp x p))")],
        ["check", str(tmp_path / "missing.nd")],
    ]

    def run():
        for (d1, d2), mode in itertools.product(pairs, (BetaEta(), BetaEtaGamma())):
            classify(d1, d2, mode)
        for f in files:
            if f.calculus == "sc":
                cut_nodes(f.derivation)
        assert [main(argv) for argv in commands] == [0, 0, 0, 0, 0, 0, 0, 1, 2]
        capsys.readouterr()

    run()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        run()
        state = gc.isenabled(), gc.get_debug()
        gc.collect()
        left = collections.Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
        if enabled:
            gc.enable()
    assert not left, left.most_common(8)
    assert state == (False, flags | gc.DEBUG_SAVEALL)
