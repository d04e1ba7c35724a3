"""The mutation sweep's list of equivalent mutants stays current.

``tests/mutants.py`` runs tier-1 once per mutant, so tier-1 runs none of
them: this test only generates the mutants of today's ``src/omniscio``
and checks that every mutant the sweep lists as equivalent is among them,
so that a listed name cannot go stale when the code it names changes.
"""

import mutants


def test_every_listed_equivalent_is_generated():
    generated = [m.name for m in mutants.generate()]
    assert len(set(generated)) == len(generated)
    assert set(mutants.EQUIVALENT) <= set(generated)
    assert all(reason.strip() for reason in mutants.EQUIVALENT.values())
