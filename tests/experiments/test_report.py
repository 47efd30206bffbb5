"""Tests for the EXPERIMENTS.md report generator."""

import io

import pytest

from repro.experiments.report import PAPER_TABLE_2, write_report


@pytest.fixture(scope="module")
def report_text():
    buffer = io.StringIO()
    # Tiny request counts keep this fast; section structure and the
    # presence of every artifact is what we assert.
    write_report(buffer, n_requests=12, seed=0)
    return buffer.getvalue()


def test_report_contains_every_artifact_section(report_text):
    for heading in ("## Fig. 3", "## Fig. 4", "## Fig. 6", "## Fig. 7",
                    "## Fig. 9", "## Table 1", "## Table 2",
                    "## Substitutions"):
        assert heading in report_text, heading


def test_report_quotes_paper_numbers(report_text):
    # Fig. 3 anchors.
    for value in ("398", "620", "154"):
        assert value in report_text
    # Table 2 paper costs.
    assert "0.268" in report_text
    assert "0.895" in report_text


def test_report_renders_all_table2_rows(report_text):
    for _, config, *_ in PAPER_TABLE_2:
        assert config in report_text


def test_report_names_the_command_that_reproduces_it(report_text):
    assert "`python -m repro --requests 12 --seed 0 report " \
        "> EXPERIMENTS.md`" in report_text


def test_report_cites_no_retired_bench_artifacts(report_text):
    # The repository benchmark is perfbench/; the report is built from
    # simulated results only and carries no host-speed appendix.
    assert "repro bench" not in report_text
    assert "benchmarks/baselines" not in report_text
    assert "Appendix" not in report_text


def test_report_is_markdown_tables(report_text):
    assert report_text.count("|---|") >= 5
    assert report_text.startswith("# EXPERIMENTS")


def test_paper_table2_constants_sane():
    n_clients = [row[0] for row in PAPER_TABLE_2]
    assert n_clients == [1, 2, 3, 4, 5]
    faults = [row[4] for row in PAPER_TABLE_2]
    assert faults == [2, 2, 2, 2, 1]
