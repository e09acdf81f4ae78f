"""The CLI surface of every experiment family, pinned.

``golden/plans.json`` records, per family of
:data:`repro.harness.figures.FAMILIES` and in catalogue order, the plan
builder's parameter names (the valid ``--set`` keys, in declaration order)
and the ``RunSpec.experiment`` labels of its default plan (what progress
lines and cache records are named).  Building a plan simulates nothing, so
this runs in well under a second.

A family's parameters and labels are its user contract: a refactor of the
unit runs underneath must leave this file untouched.  After an *intended*
change, regenerate it with::

    PYTHONPATH=src python tests/harness/test_family_plans.py
"""

from __future__ import annotations

import inspect
import json
import os

from repro.harness import figures

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "plans.json")


def manifest() -> dict:
    """``{family: {"parameters": [...], "specs": [...]}}`` of the live table."""
    return {
        name: {
            "parameters": list(inspect.signature(declared.plan).parameters),
            "specs": [spec.experiment for spec in declared.plan().specs],
        }
        for name, declared in figures.FAMILIES.items()
    }


def _golden() -> dict:
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_catalogue_order_is_pinned():
    assert list(manifest()) == list(_golden())


def test_set_keys_of_every_family_are_pinned():
    live, golden = manifest(), _golden()
    for name in golden:
        assert live[name]["parameters"] == golden[name]["parameters"], name


def test_default_spec_labels_of_every_family_are_pinned():
    live, golden = manifest(), _golden()
    for name in golden:
        assert live[name]["specs"] == golden[name]["specs"], name
    assert sum(len(entry["specs"]) for entry in live.values()) == 154


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest(), fh, indent=2)
        fh.write("\n")
