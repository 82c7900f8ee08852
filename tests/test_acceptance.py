"""End-to-end checks over the shipped corpus, one test per guarantee.

Each test prints a single PASS or FAIL line (bypassing capture) so a
full run reads as a checklist.
"""

import json

import jsonschema
import pytest
from hypothesis import settings

from gamma_examples import CASE_OF_TUPLE, FST_CASE, SND_CASE, TUPLE_OF_CASES
from proofmean.cli import main
from proofmean.core import alpha_equal
from proofmean.meaning import (
    DifferentDenotation,
    DifferentSenseSameDenotation,
    SameDenotationUpToGamma,
    SameSenseSameDenotation,
    classify,
    denotation_of,
    sense_of,
    sense_renaming,
)
from proofmean.nd import end_term_nd
from proofmean.rewrite import BetaEtaGamma
from proofmean.sc import end_term_sc
from proofmean.syntax import parse_file, parse_term, render_file


@pytest.fixture
def checklist(capsys):
    def report(label: str, failures: list[str]) -> None:
        status = "PASS" if not failures else "FAIL"
        with capsys.disabled():
            print(f"\n{status}: {label}", flush=True)
        assert not failures, f"{label}: {failures}"

    return report


def check(failures: list[str], ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


def end_term(sf):
    return end_term_nd(sf.derivation) if sf.calculus == "nd" else end_term_sc(sf.derivation)


DIST_TERM = (
    r"\u:((q/\r)\/p). case u { v:(q/\r). <inr[p] fst(v), inr[p] snd(v)>"
    r" | x:p. <inl[q] x, inl[r] x> }"
)
DIST_SPLIT_TERM = (
    r"\u:((q/\r)\/p). <case u { v:(q/\r). inr[p] fst(v) | x:p. inl[q] x },"
    r" case u { v:(q/\r). inr[p] snd(v) | x:p. inl[r] x }>"
)
TS_TERM = r"\u:(s/\p). \z:(q/\r). <snd(u), fst(z)>"
CASE_PAIR_TERM = r"\y:(p\/p). <case y { x:p. x | x:p. x }, case y { x:p. x | x:p. x }>"


def test_end_terms_of_the_corpus_derivations(load_corpus, checklist):
    failures: list[str] = []
    expected = {
        "nd_identity.nd": r"\x:p. x",
        "nd_identity_detour.nd": r"fst(<\x:p. x, \y:q. y>)",
        "sc_inl_cutfree.sc": r"\y:(p/\p). inl[p] fst(y)",
        "sc_inl_cut.sc": r"\y:(p/\p). inl[p] fst(<fst(y), snd(y)>)",
        "sc_dist_1.sc": DIST_TERM,
        "sc_dist_2.sc": DIST_TERM,
        "sc_dist_3.sc": DIST_SPLIT_TERM,
        "sc_ts_1.sc": TS_TERM,
        "sc_ts_2.sc": TS_TERM,
        "nd_case_pair.nd": CASE_PAIR_TERM,
        "sc_case_pair.sc": CASE_PAIR_TERM,
    }
    for name, text in expected.items():
        got = end_term(load_corpus(name))
        check(failures, alpha_equal(got, parse_term(text)), f"end term of {name}")
    sc1 = end_term(load_corpus("sc_dist_1.sc"))
    sc2 = end_term(load_corpus("sc_dist_2.sc"))
    check(failures, alpha_equal(sc1, sc2), "two routes to the distribution term")
    nd_cp = end_term(load_corpus("nd_case_pair.nd"))
    sc_cp = end_term(load_corpus("sc_case_pair.sc"))
    check(failures, alpha_equal(nd_cp, sc_cp), "case-pair term across calculi")
    checklist("end terms of the corpus derivations", failures)


def test_sense_sets_and_their_differences(load_corpus, checklist):
    failures: list[str] = []
    d1 = load_corpus("sc_dist_1.sc").derivation
    d2 = load_corpus("sc_dist_2.sc").derivation
    s1, s2 = sense_of(d1).elements, sense_of(d2).elements
    check(failures, len(s1) == 15 and len(s2) == 15, "distribution sense sizes")
    check(
        failures,
        s1 - s2 == {parse_term("inr[p] y"), parse_term("inr[p] z")},
        "terms only the one-case route writes down",
    )
    check(
        failures,
        s2 - s1 == {parse_term("fst(v)"), parse_term("snd(v)")},
        "terms only the projection route writes down",
    )
    t1 = load_corpus("sc_ts_1.sc").derivation
    t2 = load_corpus("sc_ts_2.sc").derivation
    u1, u2 = sense_of(t1).elements, sense_of(t2).elements
    check(failures, len(u1) == 11 and len(u2) == 11, "argument-order sense sizes")
    check(failures, u1 - u2 == {parse_term("<x, fst(z)>")}, "pair built left first")
    check(failures, u2 - u1 == {parse_term("<snd(u), y>")}, "pair built right first")
    cp_nd = load_corpus("nd_case_pair.nd").derivation
    cp_sc = load_corpus("sc_case_pair.sc").derivation
    check(
        failures,
        sense_of(cp_nd).elements == sense_of(cp_sc).elements
        and len(sense_of(cp_nd)) == 5,
        "case-pair senses coincide across calculi",
    )
    w1 = load_corpus("nd_weak_pq_1.nd").derivation
    w2 = load_corpus("nd_weak_pq_2.nd").derivation
    rho = sense_renaming(w1, w2)
    check(
        failures,
        rho is not None and {a.name: b.name for a, b in rho.items()} == {"x": "y", "z": "z"},
        "renaming between the weakened identities",
    )
    checklist("sense sets and their differences", failures)


def test_classification_of_every_designated_pair(load_corpus, checklist):
    failures: list[str] = []
    matrix = [
        ("nd_identity.nd", "nd_identity_detour.nd", DifferentSenseSameDenotation()),
        ("nd_weak_pq_1.nd", "nd_weak_pq_2.nd", SameSenseSameDenotation()),
        ("nd_pair_pp_1.nd", "nd_pair_pp_2.nd", DifferentDenotation()),
        ("nd_pair_pp_2.nd", "sc_pair_pp.sc", SameSenseSameDenotation()),
        ("nd_case_pair.nd", "sc_case_pair.sc", SameSenseSameDenotation()),
        ("sc_dist_1.sc", "sc_dist_2.sc", DifferentSenseSameDenotation()),
        ("sc_dist_1.sc", "sc_dist_3.sc", DifferentDenotation()),
        ("sc_dist_2.sc", "sc_dist_3.sc", DifferentDenotation()),
        ("sc_inl_cut.sc", "sc_inl_cutfree.sc", DifferentSenseSameDenotation()),
        ("sc_inl_cut_plain.sc", "sc_inl_cutfree.sc", DifferentSenseSameDenotation()),
        ("sc_ts_1.sc", "sc_ts_2.sc", DifferentSenseSameDenotation()),
    ]
    for a, b, want in matrix:
        got = classify(load_corpus(a).derivation, load_corpus(b).derivation)
        check(failures, got == want, f"{a} vs {b}: {got!r}")
    gamma = BetaEtaGamma(fuel=4)
    wide = classify(
        load_corpus("sc_dist_1.sc").derivation,
        load_corpus("sc_dist_3.sc").derivation,
        gamma,
    )
    check(
        failures,
        wide == SameDenotationUpToGamma(inconclusive=False),
        f"permutative mode on the distribution pair: {wide!r}",
    )
    checklist("classification of every designated pair", failures)


def test_property_suites_run_at_full_width(checklist):
    failures: list[str] = []
    import test_properties as props

    suites = [
        name
        for name, fn in vars(props).items()
        if name.startswith("test_") and hasattr(fn, "hypothesis")
    ]
    check(failures, len(suites) >= 8, f"only {len(suites)} randomized suites")
    check(
        failures,
        settings().max_examples >= 500,
        f"profile runs {settings().max_examples} examples",
    )
    checklist("randomized suites present and sized", failures)


def test_cut_and_cut_free_denotations_coincide(load_corpus, checklist):
    failures: list[str] = []
    names = ["sc_inl_cut.sc", "sc_inl_cut_plain.sc", "sc_inl_cutfree.sc"]
    values = {name: denotation_of(load_corpus(name).derivation) for name in names}
    want = parse_term(r"\y:(p/\p). inl[p] fst(y)")
    for name, value in values.items():
        check(failures, alpha_equal(value, want), f"denotation of {name}")
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            check(failures, alpha_equal(values[a], values[b]), f"{a} vs {b}")
    checklist("cut and cut-free denotations coincide", failures)


def test_round_trips_schema_and_exit_codes(load_corpus, corpus_dir, tmp_path, capsys, checklist):
    failures: list[str] = []
    for path in sorted(corpus_dir.iterdir()):
        if path.suffix not in (".nd", ".sc"):
            continue
        sf = load_corpus(path.name)
        check(failures, parse_file(render_file(sf)) == sf, f"round trip of {path.name}")

    import importlib.resources

    schema = json.loads(
        importlib.resources.files("proofmean").joinpath("schema.json").read_text()
    )
    id_path = str(corpus_dir / "nd_identity.nd")
    detour_path = str(corpus_dir / "nd_identity_detour.nd")
    for argv in (
        ["check", id_path, "--json"],
        ["term", id_path, "--json"],
        ["normalize", detour_path, "--json"],
        ["sense", detour_path, "--json", "--multiset"],
        ["compare", id_path, detour_path, "--json"],
        ["corpus", str(corpus_dir), "--json"],
    ):
        code = main(argv)
        payload = json.loads(capsys.readouterr().out)
        try:
            jsonschema.validate(payload, schema)
        except jsonschema.ValidationError as e:
            check(failures, False, f"schema violation for {argv[0]}: {e.message}")
        check(failures, code == 0, f"{argv[0]} exited {code}")

    pair_1 = tmp_path / "pair_1.nd"
    pair_1.write_text("(imp-i y (imp-i x (and-i (hyp x p) (hyp y p))))")
    pair_2 = tmp_path / "pair_2.nd"
    pair_2.write_text("(imp-i x (imp-i y (and-i (hyp x p) (hyp y p))))")
    broken = tmp_path / "broken.nd"
    broken.write_text("(imp-i")
    clash = tmp_path / "clash.nd"
    clash.write_text("(and-i (hyp x p) (hyp x q))")
    case_of_tuple = tmp_path / "case_of_tuple.nd"
    case_of_tuple.write_text(CASE_OF_TUPLE)
    tuple_of_cases = tmp_path / "tuple_of_cases.nd"
    tuple_of_cases.write_text(TUPLE_OF_CASES)
    fst_case = tmp_path / "fst_case.nd"
    fst_case.write_text(FST_CASE)
    snd_case = tmp_path / "snd_case.nd"
    snd_case.write_text(SND_CASE)
    gamma_at_fuel_1 = ["--mode=beta-eta-gamma", "--fuel=1"]
    observed = {
        0: main(["check", id_path]),
        1: main(["compare", str(pair_1), str(pair_2)]),
        2: main(["check", str(broken)]),
        3: main(["compare", str(case_of_tuple), str(tuple_of_cases), *gamma_at_fuel_1]),
    }
    capsys.readouterr()
    for want, got in observed.items():
        check(failures, want == got, f"expected exit {want}, got {got}")
    refuted = main(["compare", str(fst_case), str(snd_case), *gamma_at_fuel_1])
    check(failures, refuted == 1, f"model-refuted pair exited {refuted}")
    check(failures, main(["check", str(clash)]) == 1, "variable clash should exit 1")
    capsys.readouterr()
    checklist("round trips, schema validation, and exit codes", failures)
