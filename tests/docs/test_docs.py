"""Documentation conformance: markdown links resolve, figure index complete,
named tests exist.

Thin pytest wrapper around ``tools/check_docs.py`` (which CI also runs
directly) so broken doc links fail the tier-1 suite, not just the docs job.
"""

from __future__ import annotations

import importlib.util
import os

_TOOL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "tools",
    "check_docs.py",
)
_spec = importlib.util.spec_from_file_location("check_docs", _TOOL)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


def test_markdown_links_resolve():
    assert check_docs.check_links() == []


def test_readme_figure_index_is_complete():
    assert [p for p in check_docs.check_family_docs() if p.startswith("README.md")] == []


def test_repo_has_the_documentation_front_door():
    for path in ("README.md", os.path.join("docs", "architecture.md")):
        assert os.path.exists(os.path.join(check_docs.ROOT, path)), path


def test_experiments_handbook_is_complete():
    assert check_docs.check_family_docs() == []


def test_handbook_check_catches_an_undocumented_family(monkeypatch):
    """A registered family absent from the handbook/index must fail loudly;
    an uncharted one owes nothing to the render section."""
    from repro.harness import figures

    ghost = figures.Family("fig_unwritten", "ghost", lambda: None, None, list)
    monkeypatch.setitem(figures.FAMILIES, ghost.name, ghost)
    problems = check_docs.check_family_docs()
    assert any("docs/experiments.md" in p and "fig_unwritten" in p for p in problems)
    assert any("README.md" in p and "fig_unwritten" in p for p in problems)
    assert not any("rendered figure" in p for p in problems)


def test_rendered_figures_are_documented_and_wired():
    assert [p for p in check_docs.check_family_docs() if "rendered figure" in p] == []


def test_sharded_docs_are_complete():
    assert check_docs.check_sharded_docs() == []


def test_sharded_check_catches_a_dropped_rule(tmp_path):
    """An architecture text that stops naming the digest-merge rule fails."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "architecture.md").write_text(
        "## Sharded simulation\n\nWindows are one lookahead long.\n"
    )
    assert check_docs.check_sharded_docs(str(tmp_path)) == [
        "docs/architecture.md: sharded-simulation section no longer explains "
        "the digest-merge rule"
    ]


def test_family_check_catches_an_undocumented_chart(monkeypatch):
    """Giving a documented family a ``chart`` makes it a rendered figure,
    which must then be listed under "From runs to figures" — caught here,
    not discovered by a reader of the rendered index."""
    from repro.harness import figures

    charted = figures.FAMILIES["fig2"]._replace(chart=figures.FAMILIES["fig12"].chart)
    monkeypatch.setitem(figures.FAMILIES, "fig2", charted)
    assert check_docs.check_family_docs() == [
        "docs/experiments.md: rendered figure 'fig2' missing from the "
        "handbook (From runs to figures)"
    ]


def test_docs_name_only_tests_that_exist():
    assert check_docs.check_test_references() == []


def test_test_reference_check_catches_a_renamed_test(tmp_path):
    """A doc still naming a test, or a test file, that was renamed away is
    reported; module names, defined names and the change logs pass."""
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_drain.py").write_text(
        "class TestDrainThroughTheScheduler:\n"
        "    def test_each_completion_is_one_dispatch(self):\n"
        "        pass\n"
    )
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "architecture.md").write_text(
        "`TestFastForwardGuard` in `tests/test_queues.py` and\n"
        "`tests/test_drain.py::TestDrainThroughTheScheduler::"
        "test_each_completion_is_one_dispatch` (module `test_drain`, "
        "`test_drain.py`)\n"
    )
    (tmp_path / "CHANGES.md").write_text("Renamed `TestFastForwardGuard`.\n")
    assert check_docs.check_test_references(str(tmp_path)) == [
        "docs/architecture.md: undefined test name -> TestFastForwardGuard",
        "docs/architecture.md: missing test file -> tests/test_queues.py",
    ]
