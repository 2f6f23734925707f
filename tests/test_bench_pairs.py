"""scripts/bench_pairs.py's summary of paired benchmark runs, with no
subprocess: fed the runs BENCH_41.json records, it gives back every
median, quartile, relative change, win count and status there, and the
summary sentence; a failed run, a slower change and a noisy parent get
their own statuses."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _script():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CONTRACT = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def test_reproduces_bench_41():
    bench, bp = json.loads((ROOT / "BENCH_41.json").read_text()), _script()
    for workload in bench["workloads"].values():
        for name, recorded in workload["metrics"].items():
            got = bp.metric_record(CONTRACT[name], recorded["parent"]["runs"],
                                   recorded["change"]["runs"])
            assert got == recorded, name
    assert bp.summary(bench["workloads"]) == bench["summary"]


def test_statuses_beyond_within_bound():
    bp, wall = _script(), CONTRACT["wall_s"]          # lower is better, bound 0.2
    steady = [1.0, 1.01, 0.99, 1.0]
    assert bp.metric_record(wall, steady, [1.3, 1.31, 1.29, 1.3])["status"] == "over bound"
    noisy = bp.metric_record(wall, [0.5, 1.0, 1.5, 2.0], [1.0, 1.1, 1.2, 1.3])
    assert noisy["status"] == "unresolved" and noisy["pairs_change_better"] == 2
    failed = bp.metric_record(wall, steady, [0.9, None, 1.0, 1.0])
    assert failed["status"] == "runs failed" and failed["change"]["runs"][1] is None
    assert failed["change"]["median"] == 1.0 and failed["pairs_change_better"] == 1
    digits = CONTRACT["min_oracle_digits"]            # higher is better, bound 0.05
    assert bp.metric_record(digits, [58.0] * 4, [50.0] * 4)["status"] == "over bound"
    assert bp.metric_record(digits, [58.0] * 4, [58.0] * 4)["status"] == "within bound"
