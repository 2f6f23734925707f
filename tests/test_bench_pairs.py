"""scripts/bench_pairs.py's summary of paired benchmark runs, with no
subprocess: fed the runs BENCH_41.json records, it gives back every
median, quartile, relative change, win count and status there, and the
summary sentence; a failed run, a slower change and a noisy parent get
their own statuses; fed BENCH_39.json's zero-sums wall_s runs, it gives
back the claim block recorded there by hand.  make_roots exports both
sides, so neither starts with the working tree's cached bytecode."""

import importlib.util
import json
import subprocess
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


def test_claim_block_of_bench_39():
    # BENCH_39 stores its runs to 6 decimals, its claim block from the
    # unrounded runs: medians and the interquartile range agree to 2e-6
    bench, bp = json.loads((ROOT / "BENCH_39.json").read_text()), _script()
    runs = bench["workloads"]["zero-sums"]["metrics"]["wall_s"]["runs"]
    got = bp.claim_record("zero-sums", "wall_s", bp.metric_record(
        CONTRACT["wall_s"], runs["parent"], runs["change"]))
    want = bench["claim"]
    assert (got["met"], got["pairs_change_better"], got["pairs"]) == (True, 10, 10)
    assert (got["workload"], got["metric"], got["median_change_rel"]) == (
        want["workload"], want["metric"], want["median_change_rel"])
    for key in ("parent_median", "change_median", "median_gap", "parent_iqr"):
        assert abs(got[key] - want[key]) <= 2e-6, key


def test_claim_needs_nine_pairs_in_ten_and_a_gap_past_the_iqr():
    bp, wall = _script(), CONTRACT["wall_s"]
    parent = [1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0]
    faster = [v - 0.1 for v in parent]
    assert bp.claim_record("w", "wall_s", bp.metric_record(wall, parent, faster))["met"]
    eight = faster[:8] + [1.2, 1.2]                 # 8 of 10 pairs better
    assert not bp.claim_record("w", "wall_s", bp.metric_record(wall, parent, eight))["met"]
    close = [v - 0.01 for v in parent]              # 10 of 10, gap 0.01 < IQR 0.015
    got = bp.claim_record("w", "wall_s", bp.metric_record(wall, parent, close))
    assert got["pairs_change_better"] == 10 and not got["met"]
    digits = CONTRACT["min_oracle_digits"]          # higher is better
    got = bp.claim_record("w", "d", bp.metric_record(digits, [58.0] * 10, [59.0] * 10))
    assert got["met"] and got["median_gap"] == 1.0


def test_both_roots_are_exports_without_bytecode(tmp_path, monkeypatch):
    # the change side is an export of the working tree, as the parent is an
    # archive of its commit: neither holds a __pycache__ (cached bytecode
    # would spare one side the compiles its runs time), and the change root
    # holds exactly the working tree's files that git tracks or would track.
    # The checkout is a throwaway repository, so the test runs in a clone
    # and in a plain export alike.
    repo, bp = tmp_path / "repo", _script()

    def git(*args):
        config = ("-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false")
        return subprocess.run(["git", *config, *args], cwd=repo, check=True,
                              capture_output=True).stdout.decode()

    for name, text in (("perfbench/run.py", "print(1)\n"), ("src/pkg/mod.py", "X = 1\n"),
                       (".gitignore", "__pycache__/\n")):
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(text)
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "seed")
    (repo / "src" / "pkg" / "mod.py").write_text("X = 2\n")       # a tracked file, edited
    (repo / "notes.txt").write_text("untracked, not ignored\n")
    (repo / "src" / "pkg" / "__pycache__").mkdir()                # as any test run leaves
    (repo / "src" / "pkg" / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"\0")
    monkeypatch.setattr(bp, "ROOT", repo)
    roots = bp.make_roots("HEAD", tmp_path / "roots")
    for root in roots.values():
        assert (root / "perfbench" / "run.py").is_file()
        assert not list(root.rglob("__pycache__")), root
    assert (roots["parent"] / "src" / "pkg" / "mod.py").read_text() == "X = 1\n"
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    tree = {n for n in listed.split("\0") if n and (repo / n).is_file()}
    assert "notes.txt" in tree
    copied = {str(p.relative_to(roots["change"])) for p in roots["change"].rglob("*") if p.is_file()}
    assert copied == tree
    assert all((roots["change"] / n).read_bytes() == (repo / n).read_bytes() for n in tree)
