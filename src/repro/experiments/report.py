"""Aggregate regenerated artefacts into a single report.

After ``pytest benchmarks/ --benchmark-only`` has populated
``benchmarks/out/``, this module stitches every artefact file into one
markdown report (used to refresh the measured sections of
EXPERIMENTS.md):

    python -m repro.experiments.report benchmarks/out report.md
"""

from __future__ import annotations

import sys
from pathlib import Path

#: Presentation order: headline figures first, tables, then ablations.
ARTEFACT_ORDER = [
    "table2_dataset_stats",
    "fig8_exact",
    "fig8_approx",
    "fig9_flow_sizes",
    "fig10_prunings",
    "table3_decomp_share",
    "table4_emcore",
    "fig11_ratios",
    "fig12_exact_vs_app",
    "fig13_random_exact",
    "fig14_random_approx",
    "table5_densities",
    "fig15_pds_exact",
    "fig16_pds_approx",
    "fig20_additional",
    "ablation_solvers",
    "ablation_construct_plus",
    "ablation_coreapp_prefix",
]


def collect(out_dir: Path) -> list[tuple[str, str]]:
    """Read artefact files in presentation order; unknown files go last.

    Returns ``(name, text)`` pairs; missing artefacts are skipped.
    """
    found = {p.stem: p for p in sorted(out_dir.glob("*.txt"))}
    ordered = [name for name in ARTEFACT_ORDER if name in found]
    ordered += [name for name in found if name not in ARTEFACT_ORDER]
    return [(name, found[name].read_text(encoding="utf-8")) for name in ordered]


def render(artefacts: list[tuple[str, str]]) -> str:
    """Render artefacts as a single markdown document."""
    lines = [
        "# Regenerated evaluation artefacts",
        "",
        "One section per paper table/figure; produced by",
        "`pytest benchmarks/ --benchmark-only` (see EXPERIMENTS.md for the",
        "paper-vs-measured analysis).",
        "",
    ]
    for name, text in artefacts:
        lines.append(f"## {name}")
        lines.append("")
        lines.append("```text")
        lines.append(text.rstrip())
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    out_dir = Path(args[0]) if args else Path("benchmarks/out")
    target = Path(args[1]) if len(args) > 1 else Path("benchmarks/REPORT.md")
    if not out_dir.is_dir():
        print(f"no artefact directory at {out_dir}; run the benchmarks first", file=sys.stderr)
        return 1
    artefacts = collect(out_dir)
    if not artefacts:
        print(f"no artefacts in {out_dir}", file=sys.stderr)
        return 1
    target.write_text(render(artefacts), encoding="utf-8")
    print(f"wrote {target} ({len(artefacts)} artefacts)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
