"""scripts/mutation_audit.py's mutants against the code they mutate, so an
edit to a mutated line shows in seconds, not only in the audit's run."""

from reference import script


def test_every_mutant_text_occurs_exactly_once():
    assert script("mutation_audit").stale_entries() == []


def test_every_mutant_changes_its_text():
    assert [m.fault for m in script("mutation_audit").MUTANTS if m.new == m.old] == []


def test_the_audit_runs_tier1_without_this_file():
    # in a mutated copy the stale-entry check fails for every mutant
    assert "--ignore=tests/test_mutation_audit.py" in script("mutation_audit").TIER1
