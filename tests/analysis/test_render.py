"""Behavioural tests for the ``render`` pipeline and its CLI front end.

Byte-determinism across cold/cached/parallel renders is golden-locked in
``test_golden.py``; this file covers everything else: name resolution,
artifact layout, the HTML index, the Vega-Lite specs, and the
optional-matplotlib gating.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

from repro import cli
from repro.analysis import (
    UnknownFigureError,
    registered_figures,
    render_figures,
    vega_lite_spec,
)
from repro.harness import sweep
from repro.harness.figures import FAMILIES


@pytest.fixture(autouse=True)
def isolated_environment(tmp_path, monkeypatch):
    """Throwaway result cache for every test."""
    monkeypatch.setenv(sweep.CACHE_DIR_ENV, str(tmp_path / "cache"))
    yield


class TestResolution:
    def test_unknown_name_raises_before_touching_disk(self, tmp_path):
        out = tmp_path / "artifacts"
        with pytest.raises(UnknownFigureError) as excinfo:
            render_figures(["fig12", "figments"], str(out))
        assert "figments" in str(excinfo.value)
        assert "fig12" in str(excinfo.value)  # lists the registered names
        assert not out.exists()  # fails before any simulation or write

    def test_cli_unknown_figure_exits_2_and_lists_registry(self, capsys):
        assert cli.main(["render", "nope", "--out", "/tmp/unused"]) == 2
        err = capsys.readouterr().err
        assert "unknown figure(s): nope" in err
        for name in registered_figures():
            assert name in err

    def test_cli_render_requires_out(self, capsys):
        assert cli.main(["render", "fig12"]) == 2
        assert "--out" in capsys.readouterr().err


class TestArtifacts:
    def test_layout_and_report(self, tmp_path):
        report = render_figures(["fig12", "fig10"], str(tmp_path / "a"))
        assert report.figures == ["fig12", "fig10"]
        assert report.artifacts == [
            "fig12.csv", "fig12.vl.json", "fig10.csv", "fig10.vl.json",
            "index.html",
        ]
        for artifact in report.artifacts:
            assert os.path.exists(os.path.join(report.out_dir, artifact))
        assert report.rows_per_figure["fig12"] > 0
        assert report.rows_per_figure["fig10"] > 0
        assert not report.png_written and report.png_note is None

    def test_a_repeated_name_renders_once(self, tmp_path):
        report = render_figures(["fig12", "fig10", "fig12"], str(tmp_path / "a"))
        assert report.figures == ["fig12", "fig10"] and report.runs == 4
        index = (tmp_path / "a" / "index.html").read_text()
        assert index.count('<section id="fig12">') == 1

    def test_csv_is_canonical_lf_with_sorted_header(self, tmp_path):
        render_figures(["fig12"], str(tmp_path / "a"))
        with open(tmp_path / "a" / "fig12.csv", "rb") as fh:
            data = fh.read()
        assert b"\r" not in data and data.endswith(b"\n")
        header = data.decode().splitlines()[0].split(",")
        assert header == sorted(header)
        assert "packet_bytes" in header

    def test_cli_render_writes_and_reports(self, tmp_path, capsys):
        out = str(tmp_path / "artifacts")
        assert cli.main(["render", "fig12", "--out", out, "-q"]) == 0
        stdout = capsys.readouterr().out
        assert "fig12: " in stdout and "fig12.csv" in stdout
        assert "index: " in stdout and "index.html" in stdout
        assert os.path.exists(os.path.join(out, "index.html"))

    @pytest.mark.skipif(
        importlib.util.find_spec("matplotlib") is not None,
        reason="matplotlib is installed: the missing-dependency note cannot appear",
    )
    def test_png_flag_without_matplotlib_notes_and_continues(
        self, tmp_path, capsys
    ):
        out = str(tmp_path / "artifacts")
        assert cli.main(["render", "fig12", "--out", out, "--png", "-q"]) == 0
        assert "matplotlib is not installed" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "fig12.png"))


class TestVegaLite:
    def test_spec_file_matches_generator(self, tmp_path):
        render_figures(["fig12"], str(tmp_path / "a"))
        with open(tmp_path / "a" / "fig12.vl.json", "r", encoding="utf-8") as fh:
            on_disk = json.load(fh)
        assert on_disk == vega_lite_spec(FAMILIES["fig12"].chart, "fig12.csv")
        assert on_disk["data"] == {"url": "fig12.csv", "format": {"type": "csv"}}
        assert on_disk["$schema"].endswith("vega-lite/v5.json")

    def test_line_marks_get_points_and_series_gets_color(self):
        spec = vega_lite_spec(FAMILIES["fig16"].chart, "fig16.csv")
        assert spec["mark"] == {"type": "line", "point": True}
        assert spec["encoding"]["color"]["field"] == "protocol"
        bar = vega_lite_spec(FAMILIES["fig12"].chart, "fig12.csv")
        assert bar["mark"] == "bar"
        assert "color" not in bar["encoding"]


class TestIndex:
    def test_index_links_every_figure_and_inlines_the_table(self, tmp_path):
        render_figures(["fig12", "fig10"], str(tmp_path / "a"))
        text = (tmp_path / "a" / "index.html").read_text()
        for name in ("fig12", "fig10"):
            assert f'<section id="{name}">' in text
            assert f'<a href="{name}.csv">' in text
            assert f"vegaEmbed('#vis-{name}', '{name}.vl.json')" in text
        assert text.count("<table>") == 2  # both data tables are inlined
