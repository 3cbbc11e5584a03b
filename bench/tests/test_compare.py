"""The paired comparison rule, and BENCHMARK.json against the metric table."""

import json
from pathlib import Path

from bench import metrics
from bench.compare import compare, verdict

ROOT = Path(__file__).resolve().parents[2]


def test_a_consistent_win_beyond_the_parent_spread_is_an_improvement():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    change = [v * 0.9 for v in parent]
    assert verdict(parent, change, "lower", 0.1)[0] == "improved"


def test_fewer_than_ten_pairs_cannot_claim_a_gain():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    change = [v * 0.9 for v in parent]
    assert verdict(parent, change, "lower", 0.1)[0] == "within-bound"


def test_a_median_worse_by_more_than_the_bound_regresses():
    parent = [100.0] * 10
    change = [120.0] * 10
    assert verdict(parent, change, "lower", 0.1)[0] == "regressed"
    assert verdict(change, parent, "higher", 0.1)[0] == "regressed"


def test_a_spread_wider_than_the_bound_is_unresolved():
    parent = [80.0, 120.0, 90.0, 110.0, 100.0, 70.0, 130.0, 95.0, 105.0, 100.0]
    change = [v + 1.0 for v in parent]
    assert verdict(parent, change, "lower", 0.1)[0] == "unresolved"


def test_benchmark_json_matches_the_metric_table():
    contract = metrics.load_contract(ROOT)
    assert contract["paths"] == ["bench"]
    assert [w["name"] for w in contract["workloads"]] == list(metrics.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in contract["per_layer"]} == metrics.PER_LAYER
    bounds = {entry["name"]: entry["bound"] for entry in contract["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    for entry in contract["end_to_end"]:
        if entry["name"] in metrics.E2E:
            assert (entry["unit"], entry["better"]) == metrics.E2E[entry["name"]]


def _report(op_ms, p50_high):
    workload = {
        "end_to_end": {
            "setup_s": {"value": 0.5},
            "peak_rss_mb": {"value": 50.0},
            "p50_ms.high": {"value": p50_high},
        },
        "counters": {"op_ms": op_ms},
    }
    return {"workloads": {"serve-mixed": workload}}


def test_compare_gives_verdicts_only_for_benchmark_json_metrics(tmp_path, capsys):
    contract = {"end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "op_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    ]}

    def write(tag, reports):
        paths = []
        for i, report in enumerate(reports):
            path = tmp_path / f"{tag}{i}.json"
            path.write_text(json.dumps(report))
            paths.append(str(path))
        return paths

    parent = write("p", [_report(8.0, 12.0)] * 10)
    # p50_ms.high doubles, but BENCHMARK.json does not bound it.
    same = write("s", [_report(8.0, 24.0)] * 10)
    assert compare(parent, same, contract) == 0
    rows = {tuple(line.split()[:2]): line.split()[-1]
            for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows[("serve-mixed", "op_ms")] == "within-bound"
    assert rows[("serve-mixed", "p50_ms.high")] == "report-only"
    slower = write("c", [_report(9.0, 12.0)] * 10)
    assert compare(parent, slower, contract) == 1
    assert "regressed" in capsys.readouterr().out
