"""Tests for the one-shot reproduction report, ``python -m repro
figures`` (sections and names derived from ``FIGURES``)."""

import contextlib
import dataclasses
import io

import pytest

from repro.__main__ import main
from repro.analysis.reporting import FIGURES
from test_paper_artefacts import bench


def _swept(name: str):
    """A generator returning ``bench``'s result for ``name``: the sweep
    test_paper_artefacts runs once per session (~10 s for all of them)."""
    result = bench(name)[0]
    return lambda **kwargs: result


class TestFullReport:
    @pytest.fixture(scope="class")
    def report(self):
        # Class-scoped so the content checks share one run.
        out = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, \
                contextlib.redirect_stdout(out):
            for name, artefact in FIGURES.items():
                mp.setitem(FIGURES, name, dataclasses.replace(
                    artefact, generator=_swept(name)))
            assert main(["figures"]) == 0
        return out.getvalue()

    def test_all_sections_present(self, report):
        for name, artefact in FIGURES.items():
            assert f"[{name}]  [{artefact.group}]" in report
        assert report.count("claim: holds") == len(FIGURES)

    def test_all_implementations_reported(self, report):
        names = {row["name"]
                 for figure in ("fig9_lu_scaling", "fig10_cholesky_scaling")
                 for row in FIGURES[figure].generator(**FIGURES[figure].kwargs)}
        assert {"conflux", "confchox", "mkl", "slate", "candmc",
                "capital"} <= names
        for name in names:
            assert name in report

    def test_reduction_row_present(self, report):
        assert "predicted" in report
        assert "measured" in report

    def test_report_is_plain_text(self, report):
        assert isinstance(report, str)
        assert len(report.splitlines()) > 40
