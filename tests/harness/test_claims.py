"""Every paper claim holds: :data:`repro.harness.claims.CLAIMS`, evaluated.

One test per family and parameter set its claims are stated at; a claim that
compares several runs (``fig11``: perfect against jittered pulls) is judged
by the test of the last run it names.  The runs go through the persistent
result cache, as ``python -m repro.cli claims`` does, so a session after an
edit outside ``src/`` simulates nothing.
"""

from __future__ import annotations

import pytest

from repro.harness import claims, figures, sweep

_RUNS = claims.parameter_sets(claims.CLAIMS)
#: ``fig2-0`` ... ``fig11-0``, ``fig11-1``: the family and which of its parameter sets
_IDS = [
    f"{family}-{[name for name, _params in _RUNS[:index]].count(family)}"
    for index, (family, _params) in enumerate(_RUNS)
]


@pytest.mark.parametrize("family, params", _RUNS, ids=_IDS)
def test_claims_hold(family, params):
    selected = [
        c for c in claims.CLAIMS if c.family == family and c.param_sets[-1] == params
    ]
    results = sweep.run_plans([
        figures.FAMILIES[name].plan(**each) for name, each in claims.parameter_sets(selected)
    ])
    false = [c.name for c, holds in claims.verdicts(selected, results) if not holds]
    assert not false, f"{len(false)} of {family}'s {len(selected)} claims are false: {false}"


def test_every_family_states_a_claim_or_is_exempt():
    stated = {declared.family for declared in claims.CLAIMS}
    assert stated.isdisjoint(claims.EXEMPT)
    assert stated | set(claims.EXEMPT) == set(figures.FAMILIES)
