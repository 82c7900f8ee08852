r"""Cut elimination preserves what a proof proves, not how it says it.

Three sequent derivations of (p /\ p) -> (p \/ q): one with a cut on a
rebuilt pair, one with a cut on an axiom, and one cut-free.  All three
denote the same function.  No two of them write down the same terms.

Run from the repository root:

    python3 demos/cut_senses.py
"""

from pathlib import Path

from proofmean.core import alpha_equal
from proofmean.meaning import classify, denotation_of, sense_of
from proofmean.sc import cut_nodes, end_term_sc
from proofmean.syntax import parse_file, render_term

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

NAMES = ["sc_inl_cut.sc", "sc_inl_cut_plain.sc", "sc_inl_cutfree.sc"]


def load(name: str):
    return parse_file((CORPUS / name).read_text(), default_name=name).derivation


def main() -> None:
    derivations = {name: load(name) for name in NAMES}

    for name, d in derivations.items():
        cuts = cut_nodes(d)
        print(f"{name}:")
        print(f"  end term:   {render_term(end_term_sc(d))}")
        print(f"  denotation: {render_term(denotation_of(d))}")
        if cuts:
            kinds = ", ".join(
                "principal" if c.principal else "non-principal" for c in cuts
            )
            print(f"  cuts:       {len(cuts)} ({kinds})")
        else:
            print("  cuts:       none")
        print()

    values = [denotation_of(d) for d in derivations.values()]
    assert all(alpha_equal(values[0], v) for v in values[1:])
    print("all three denotations agree.")
    print()

    cut = derivations["sc_inl_cut.sc"]
    cutfree = derivations["sc_inl_cutfree.sc"]
    print("terms only the cut derivation mentions:")
    for t in sorted(sense_of(cut).elements - sense_of(cutfree).elements, key=render_term):
        print(f"  {render_term(t)}")
    print("terms only the cut-free derivation mentions:")
    for t in sorted(sense_of(cutfree).elements - sense_of(cut).elements, key=render_term):
        print(f"  {render_term(t)}")
    print()
    print(f"verdict: {classify(cut, cutfree)!r}")


if __name__ == "__main__":
    main()
