"""Benchmark-suite configuration.

Each ``bench_*.py`` file regenerates one table or figure of the paper,
named in the file name (``bench_fig8_exact.py`` is Figure 8's exact
half, ``bench_table3_decomp_share.py`` Table 3), or runs an ablation
(``bench_ablation_*.py``).  Every bench

* times a representative algorithm call with pytest-benchmark, and
* regenerates the artefact's rows, printing them and writing them to
  ``benchmarks/out/<artefact>.txt`` so the tables survive pytest's
  output capture.

``REPRO_BENCH_SCALE`` (default 0.25) scales the surrogate datasets:
raise it toward 1.0 for higher-fidelity tables, lower it for speed.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import pytest

from repro import env
from repro.experiments.harness import format_table

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return env.number("REPRO_BENCH_SCALE")


@pytest.fixture(scope="session")
def emit():
    """Write an artefact table to disk and stdout; returns the text."""

    def _emit(
        name: str,
        rows: Sequence[dict],
        title: str,
        columns: Sequence[str] | None = None,
        chart: str = "",
    ) -> str:
        text = format_table(rows, columns=columns, title=title)
        if chart:
            text = f"{text}\n\n{chart}"
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}\n[written to benchmarks/out/{name}.txt]")
        return text

    return _emit
