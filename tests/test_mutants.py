"""The mutant table of `tests/mutants.py` still fits the source.

Running the mutants takes a tier-1 run each, so tier-1 only checks
that every entry's old text occurs exactly once in its file: a
refactor that moves or repeats that text must update the entry too.
"""

import mutants


def test_every_mutant_old_text_occurs_once_in_its_file():
    src = mutants.ROOT / "src" / "proofmean"
    found = {m.name: (src / m.file).read_text(encoding="utf-8").count(m.old) for m in mutants.MUTANTS}
    assert found == dict.fromkeys(found, 1)
