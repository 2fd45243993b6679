"""The mutant catalogue of ``tests/mutants.py`` cannot rot; the mutants themselves are run by hand."""

from mutants import MUTANTS, PACKAGE


def test_every_mutant_old_text_occurs_once_in_src():
    # an edit that moves or rewrites a mutated line must update its entry
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert mutant.old != mutant.new, mutant.name
        assert sources[mutant.file].count(mutant.old) == 1, mutant.name
        assert sum(text.count(mutant.old) for text in sources.values()) == 1, mutant.name
