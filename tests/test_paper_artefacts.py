"""The paper's artefacts hold their claims and their numbers.

Every entry of ``repro.analysis.reporting.FIGURES`` is generated at
bench scale; its claim must hold and every cell of its printed tables
must match ``paper_tables_pinned.json`` — numeric cells to the entry's
``rtol`` (0.0 for trace-derived tables), strings exactly.  A PR that
moves a table shows up as a diff of that file.

Regenerate (only for an intended change of the numbers)::

    PYTHONPATH=src python tests/test_paper_artefacts.py
"""

from __future__ import annotations

import copy
import dataclasses
import fnmatch
import functools
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro.analysis
from repro.__main__ import main
from repro.analysis import reporting
from repro.analysis.reporting import FIGURES

ROOT = pathlib.Path(__file__).resolve().parents[1]
PINNED = pathlib.Path(__file__).with_name("paper_tables_pinned.json")


@functools.cache
def bench(name: str):
    """``(result, tables)`` of one artefact at bench scale."""
    result = FIGURES[name].generator(**FIGURES[name].kwargs)
    return result, FIGURES[name].tables(result)


def violated(name: str, result) -> list[str]:
    """The clauses of the artefact's claim that ``result`` breaks."""
    return [clause for clause, holds in FIGURES[name].clauses(result)
            if not holds]


@functools.cache
def pins() -> dict:
    return json.loads(PINNED.read_text())


def dump_pins() -> str:
    """One table row per line, so a moved number is a one-line diff."""
    entries = []
    for name in FIGURES:
        tables = [
            '  {"title": %s,\n   "headers": %s,\n   "rows": [\n%s]}' % (
                json.dumps(title), json.dumps(headers),
                ",\n".join("    " + json.dumps(row) for row in rows))
            for title, headers, rows, _ in bench(name)[1]]
        entries.append(' %s: [\n%s]' % (json.dumps(name), ",\n".join(tables)))
    return "{\n" + ",\n".join(entries) + "\n}\n"


@pytest.mark.parametrize("name", FIGURES)
def test_claim_holds_and_cells_match_the_pins(name):
    artefact = FIGURES[name]
    result, tables = bench(name)
    assert violated(name, result) == []
    for (title, _, rows, _), want in zip(tables, pins()[name], strict=True):
        assert title == want["title"]
        for row, want_row in zip(rows, want["rows"], strict=True):
            for cell, want_cell in zip(row, want_row, strict=True):
                if isinstance(want_cell, float):
                    assert cell == pytest.approx(
                        want_cell, rel=artefact.rtol, abs=0.0), (title, row)
                else:
                    assert cell == want_cell, (title, row)


def test_pins_cover_exactly_the_registry():
    pinned = pins()
    assert list(pinned) == list(FIGURES)
    for name in FIGURES:
        assert [headers for _, headers, _, _ in bench(name)[1]] == \
            [table["headers"] for table in pinned[name]]


def test_building_the_registry_loads_no_scipy():
    """``derive_*`` import ``scipy.optimize`` on their first solve, not
    when ``FIGURES`` (or the CLI's parser) is built."""
    probe = ("import sys, repro.__main__; "
             "print([m for m in sys.modules if m.startswith('scipy')])")
    out = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True,
        text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.stdout.strip() == "[]"


def test_every_public_generator_is_registered():
    """An entry registers its generator, or — when that is a
    registry-level wrapper — the public generators it ``prints``."""
    public = {name for name in repro.analysis.__all__ if any(
        fnmatch.fnmatch(name, pattern) for pattern in
        ("fig*", "table*", "*_ablation", "lower_bound_ratios"))}
    registered = {generator.__name__ for artefact in FIGURES.values()
                  for generator in artefact.prints or (artefact.generator,)}
    # ``derived_bounds`` fronts ``repro.lowerbounds``, not ``repro.analysis``.
    assert registered == public | {"derived_bounds"}


def architecture_rows() -> list[str]:
    """The "Paper artefacts" table of ARCHITECTURE.md, from the
    registry."""
    return [f"| `{name}` | {artefact.group} | "
            f"`{artefact.generator.__name__}` | "
            + "; ".join(clause for clause, _ in
                        artefact.clauses(bench(name)[0])) + " |"
            for name, artefact in FIGURES.items()]


def test_architecture_lists_every_artefact_with_its_claim():
    text = (ROOT / "ARCHITECTURE.md").read_text()
    for row in architecture_rows():
        assert row in text, row


def _scaled(key, factor, where=lambda row: True):
    def doctor(rows):
        for row in rows:
            if where(row):
                row[key] *= factor
    return doctor


def _swap_series(series):
    series["conflux"], series["candmc"] = series["candmc"], series["conflux"]


#: group -> (artefact, what to break in a copy of its result).
DOCTORED = {
    "fig1-11": ("fig1_lu_heatmap",
                _scaled("speedup", 0.5, lambda c: c["status"] == "ok")),
    "fig8": ("fig8a_comm_volume", _swap_series),
    "fig9-10": ("fig9_lu_scaling",
                _scaled("peak_pct", 0.1, lambda r: r["name"] == "conflux")),
    "tables": ("table2_model_validation",
               lambda res: _scaled("error_pct", 50)(res["validation"])),
    "bounds": ("lower_bound_ratios", _scaled("ratio", 0.5)),
    "ablations": ("ablation_replication",
                  _scaled("mean_recv_words", 0.1, lambda r: r["c"] == 1)),
}


@pytest.mark.parametrize("group", DOCTORED)
def test_a_doctored_result_violates_the_claim(group):
    assert set(DOCTORED) == {a.group for a in FIGURES.values()}
    name, doctor = DOCTORED[group]
    assert FIGURES[name].group == group
    result = copy.deepcopy(bench(name)[0])
    doctor(result)
    assert violated(name, result) != []


def test_cli_prints_the_selected_artefacts_and_exits_by_the_claims(
        capsys, monkeypatch):
    assert main(["figures", "--only", "pivoting_latency",
                 "ablation_row_masking"]) == 0
    out = capsys.readouterr().out
    assert "[pivoting_latency]" in out and "[ablation_row_masking]" in out
    assert "fig8a" not in out and out.count("claim: holds") == 2
    broken = dataclasses.replace(
        FIGURES["pivoting_latency"],
        clauses=lambda lat: [("the moon is made of cheese", False)])
    monkeypatch.setitem(reporting.FIGURES, "pivoting_latency", broken)
    assert main(["figures", "--only", "pivoting_latency"]) == 1
    out = capsys.readouterr().out
    assert "[VIOLATED] the moon" in out and "claim: violated in 1 of 1" in out
    with pytest.raises(SystemExit):
        main(["figures", "--only", "fig99"])


if __name__ == "__main__":
    PINNED.write_text(dump_pins())
