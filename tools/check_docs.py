#!/usr/bin/env python3
"""Link/reference checker for the repository's markdown documentation.

Checks, without any network access:

1. every relative markdown link (``[text](path)``) in the repo's ``*.md``
   files resolves to an existing file or directory (anchors are stripped;
   ``http(s)://`` / ``mailto:`` links are skipped);
2. every experiment family declared in ``repro.harness.figures.FAMILIES``
   is covered by the experiments handbook (``docs/experiments.md``) *and*
   the README figure index, and everything ``render`` draws (the families
   declared with a ``chart``) is listed in the handbook's "From runs to
   figures" section — the experiment catalogue cannot rot;
3. every markdown anchor referenced as ``path#anchor`` exists as a heading
   in the target file (GitHub-style slugs);
4. the architecture document keeps its sharded-simulation section and the
   two rules it explains (the lookahead and the digest-merge rule);
5. every backticked ``tests/...py`` path names an existing file, and every
   backticked ``Test...`` / ``test_...`` identifier is defined under
   ``tests/`` or ``benchmarks/`` — a renamed or deleted test cannot linger
   in the docs (root-level records such as the change log are exempt:
   they name removed tests on purpose).

Run from anywhere: ``python tools/check_docs.py``.  Exits non-zero and
prints one line per problem; also exercised by ``tests/docs/test_docs.py``
and the CI docs job.
"""

from __future__ import annotations

import os
import re
import sys
from typing import List, Set

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", "node_modules"}
# (?<!!) skips image embeds: retrieved paper dumps (PAPERS.md) reference
# figure bitmaps that are intentionally not vendored into the repo
LINK_RE = re.compile(r"(?<!!)\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
TEST_PATH_RE = re.compile(r"(?<![\w./-])tests/[\w./-]*?\.py\b")
# a name followed by ``.py`` is a module file, not a test name
TEST_NAME_RE = re.compile(r"\b(Test[A-Z]\w*|test_\w+)\b(?!\.py)")
DEFINITION_RE = re.compile(r"^\s*(?:async\s+)?(?:def|class)\s+(\w+)", re.MULTILINE)
#: the root-level markdown held to the test-reference check; the other root
#: files are records (the change log, the paper, related work) that name
#: removed tests on purpose or quote other code
ROOT_DOCUMENTS = {"README.md", "ROADMAP.md"}


def markdown_files(root: str = ROOT) -> List[str]:
    found = []
    for directory, subdirs, filenames in os.walk(root):
        subdirs[:] = [d for d in subdirs if d not in SKIP_DIRS]
        for filename in filenames:
            if filename.endswith(".md"):
                found.append(os.path.join(directory, filename))
    return sorted(found)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: lowercase, spaces to dashes, drop punctuation."""
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\- ]", "", slug, flags=re.UNICODE)
    return slug.replace(" ", "-")


def check_links() -> List[str]:
    problems = []
    for path in markdown_files():
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        relpath = os.path.relpath(path, ROOT)
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            if target.startswith("#"):
                anchor, file_target = target[1:], path
            else:
                file_part, _, anchor = target.partition("#")
                file_target = os.path.normpath(
                    os.path.join(os.path.dirname(path), file_part)
                )
                if not os.path.exists(file_target):
                    problems.append(f"{relpath}: broken link -> {target}")
                    continue
            if anchor and file_target.endswith(".md"):
                with open(file_target, "r", encoding="utf-8") as fh:
                    headings = HEADING_RE.findall(fh.read())
                slugs = {github_slug(h) for h in headings}
                if anchor.lower() not in slugs:
                    problems.append(f"{relpath}: broken anchor -> {target}")
    return problems


def check_family_docs() -> List[str]:
    """Every registered family must be documented where users look for it.

    ``repro.harness.figures.FAMILIES`` is the only experiment registry there
    is, so this is the only check over one.  Each name must appear as a
    backticked code span (`` `name` ``, the way both documents list
    experiments) in the experiments handbook and in the README figure
    index; what ``render`` draws — a family declared with a ``chart`` —
    must also be listed in the handbook's "From runs to figures" section.
    """
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from repro.analysis import registered_figures
        from repro.harness.figures import FAMILIES
    except Exception as error:  # pragma: no cover - import environment issue
        return [f"could not import repro to verify the experiment docs: {error}"]
    texts = {}
    for relpath in ("docs/experiments.md", "README.md"):
        path = os.path.join(ROOT, relpath)
        if not os.path.exists(path):
            return [f"{relpath} is missing"]
        with open(path, "r", encoding="utf-8") as fh:
            texts[relpath] = fh.read()
    problems = [
        f"{relpath}: experiment family {name!r} missing from {where}"
        for name in FAMILIES
        for relpath, where in (
            ("docs/experiments.md", "the handbook"),
            ("README.md", "the figure index"),
        )
        if f"`{name}`" not in texts[relpath]
    ]
    render_section = (
        texts["docs/experiments.md"]
        .partition("\n## From runs to figures")[2]
        .partition("\n## ")[0]
    )
    problems += [
        f"docs/experiments.md: rendered figure {name!r} missing from the "
        f"handbook (From runs to figures)"
        for name in registered_figures()
        if f"`{name}`" not in render_section
    ]
    return problems


def check_sharded_docs(root: str = ROOT) -> List[str]:
    """The sharded harness's two rules must stay documented.

    The architecture document must keep its "Sharded simulation" section
    naming the two rules the conformance suite enforces: the lookahead
    invariant and the digest-merge rule.
    """
    architecture = os.path.join(root, "docs", "architecture.md")
    if not os.path.exists(architecture):
        return ["docs/architecture.md is missing"]
    with open(architecture, "r", encoding="utf-8") as fh:
        architecture_text = fh.read()
    if "## Sharded simulation" not in architecture_text:
        return ["docs/architecture.md: the 'Sharded simulation' section is missing"]
    return [
        f"docs/architecture.md: sharded-simulation section no longer explains "
        f"the {phrase} rule"
        for phrase in ("lookahead", "digest-merge")
        if phrase not in architecture_text
    ]


def defined_test_names(root: str = ROOT) -> Set[str]:
    """Every class, function and module name under ``tests/`` and ``benchmarks/``."""
    names = set()
    for top in ("tests", "benchmarks"):
        for directory, subdirs, filenames in os.walk(os.path.join(root, top)):
            subdirs[:] = [d for d in subdirs if d not in SKIP_DIRS]
            for filename in filenames:
                if filename.endswith(".py"):
                    names.add(filename[:-3])
                    with open(os.path.join(directory, filename), "r", encoding="utf-8") as fh:
                        names.update(DEFINITION_RE.findall(fh.read()))
    return names


def check_test_references(root: str = ROOT) -> List[str]:
    """Backticked test paths and test names in the docs must still exist."""
    defined = defined_test_names(root)
    problems = []
    for path in markdown_files(root):
        relpath = os.path.relpath(path, root)
        if os.sep not in relpath and relpath not in ROOT_DOCUMENTS:
            continue
        with open(path, "r", encoding="utf-8") as fh:
            spans = CODE_SPAN_RE.findall(fh.read())
        for span in spans:
            for test_path in TEST_PATH_RE.findall(span):
                if not os.path.isfile(os.path.join(root, test_path)):
                    problems.append(f"{relpath}: missing test file -> {test_path}")
            for name in TEST_NAME_RE.findall(span):
                if name not in defined:
                    problems.append(f"{relpath}: undefined test name -> {name}")
    return problems


def main() -> int:
    problems = (
        check_links()
        + check_family_docs()
        + check_sharded_docs()
        + check_test_references()
    )
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} documentation problem(s)", file=sys.stderr)
        return 1
    print(f"docs OK: {len(markdown_files())} markdown files checked")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
