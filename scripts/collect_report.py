"""Aggregate all rendered experiment outputs into one REPORT.md.

Run after ``pytest benchmarks/ --benchmark-only`` (which writes the
individual ``results/*.txt`` files).

    python scripts/collect_report.py [output.md]
"""

import sys
from pathlib import Path

SECTIONS = (
    ("Paper figures and tables", (
        "table1_catalog", "fig01_motivation", "fig02_naive_metrics",
        "fig06_smt4v1_at4", "fig07_instruction_mix", "fig08_smt4v2_at4",
        "fig09_smt2v1_at2", "fig10_nehalem", "fig11_at_smt1_p7",
        "fig12_at_smt1_nehalem", "fig13_two_chip_41", "fig14_two_chip_42",
        "fig15_two_chip_21", "fig16_gini", "fig17_ppi",
    )),
    ("Applications of the metric", (
        "online_optimizer", "batch_scheduler", "offline_vs_online",
        "threshold_transfer", "scaling_cores",
    )),
    ("Ablations and extensions", (
        "ablation_factors", "ablation_perf_overhead",
        "ablation_threshold_methods", "ablation_priorities",
        "coschedule_symbiosis", "related_mathis_power5", "armsmt_transfer",
        "hetero_biglittle",
    )),
)


def main(out_path: str = "REPORT.md") -> int:
    results = Path(__file__).resolve().parent.parent / "results"
    if not results.is_dir():
        print("results/ missing — run: pytest benchmarks/ --benchmark-only",
              file=sys.stderr)
        return 1
    lines = ["# Experiment report", "",
             "Generated from `results/*.txt` by `scripts/collect_report.py`.",
             ""]
    missing = []
    for title, names in SECTIONS:
        lines.append(f"## {title}")
        lines.append("")
        for name in names:
            path = results / f"{name}.txt"
            if not path.exists():
                missing.append(name)
                continue
            lines.append(f"### {name}")
            lines.append("")
            lines.append("```")
            lines.append(path.read_text().rstrip())
            lines.append("```")
            lines.append("")
    if missing:
        lines.append(f"_Missing results: {', '.join(missing)}_")
    Path(out_path).write_text("\n".join(lines) + "\n")
    print(f"wrote {out_path} ({len(lines)} lines)"
          + (f"; missing: {missing}" if missing else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "REPORT.md"))
