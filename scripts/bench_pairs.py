#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit and of this checkout, written
as a BENCH_<n>.json record:

    python scripts/bench_pairs.py --out BENCH_<n>.json --seeds FIRST-LAST [--parent REV]
                                  [--claim WORKLOAD:METRIC]

The parent is a git archive of --parent (default HEAD, the commit an
uncommitted change sits on) in a temporary directory; the change is an
export of this checkout's working tree into another, the files git tracks
or would track (git ls-files --cached --others --exclude-standard), so
that neither side holds an ignored file such as a __pycache__, whose
bytecode would spare one side its compiles.  For each workload
BENCHMARK.json declares and each seed S in turn, both sides run

    python3 perfbench/run.py --workload W --seed S --seconds 12 --trace 0

(12: BENCHMARK.json's run_seconds) from their own root, the parent first
on odd seeds and the change first on even ones.  A run's result is its
last stdout line.  A run that exits non-zero, takes longer than
RUN_TIMEOUT_S or prints a malformed last line counts as failed for
its pair: it stays in the record, with null metrics, and its side's
medians are taken over the runs that gave a number.  For each end-to-end
metric of BENCHMARK.json the record keeps each side's runs, median and
quartiles, the relative change of the medians, the pairs the change wins
and a status by STATUS_RULE with the metric's bound.  The record is
rewritten after every pair; keys it already holds that this script does
not write (what, notes, and claim without --claim) are kept.  With
--claim, the record's claim block states whether the change's gain on
that workload's end-to-end metric is shown, by CLAIM_RULE.  perfbench/
and BENCHMARK.json are only read.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_TIMEOUT_S = 600   # runs are sized to take about run_seconds, plus set-up
QUARTILES = "statistics.quantiles(n=4, method='inclusive') over the runs of one side"
STATUS_RULE = ("runs failed: a run of the change failed, or no run of the parent gave a "
               "number; over bound: the change's median is worse than the parent's by more "
               "than the bound; unresolved: the parent's interquartile range relative to its "
               "median is wider than the bound and not every change run beats every parent "
               "run; else within bound")

CLAIM_PAIRS = (9, 10)  # at least 9 pairs in 10 better
CLAIM_RULE = ("met: the change is better in at least 9 of every 10 pairs, and its median is "
              "better than the parent's by more than the parent's interquartile range")


def relative_change(p: float, c: float) -> float:
    """(c - p)/|p|, or the sign of c - p when p = 0."""
    return (c - p) / abs(p) if p else float((c > p) - (c < p))


def side_record(runs: list) -> dict:
    """Median and quartiles over the runs that gave a number, and the runs."""
    values = [v for v in runs if v is not None]
    if len(values) < 2:
        v = values[0] if values else None
        return {"median": v, "q1": v, "q3": v, "runs": runs}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": runs}


def metric_record(spec: dict, parent_runs: list, change_runs: list) -> dict:
    """One end-to-end metric over paired runs; spec is its BENCHMARK.json
    entry (name, better, bound), a run that failed is None."""
    lower, bound = spec["better"] == "lower", spec["bound"]
    parent, change = side_record(parent_runs), side_record(change_runs)

    def beats(c, p) -> bool:
        return c < p if lower else c > p

    record = {"better": spec["better"], "bound": bound, "parent": parent, "change": change,
              "median_change_rel": None,
              "pairs_change_better": sum(c is not None and p is not None and beats(c, p)
                                         for p, c in zip(parent_runs, change_runs)),
              "status": "runs failed"}
    if None in change_runs or parent["median"] is None:
        return record
    p, c = parent["median"], change["median"]
    rel = relative_change(p, c)
    record["median_change_rel"] = round(rel, 4)
    if (rel if lower else -rel) > bound:
        record["status"] = "over bound"
    elif parent["q3"] - parent["q1"] > bound * abs(p) and not all(
            beats(cv, pv) for cv in change_runs for pv in parent_runs if pv is not None):
        record["status"] = "unresolved"
    else:
        record["status"] = "within bound"
    return record


def claim_record(workload: str, metric: str, record: dict) -> dict:
    """The claim block of one metric_record: both medians, the gap by
    which the change's median is better, the parent's interquartile
    range, the pairs the change wins and whether CLAIM_RULE is met."""
    parent, p, c = record["parent"], record["parent"]["median"], record["change"]["median"]
    pairs = len(parent["runs"])
    gap = None if None in (p, c) else (p - c if record["better"] == "lower" else c - p)
    iqr = None if p is None else parent["q3"] - parent["q1"]
    need, of = CLAIM_PAIRS
    met = (record["status"] != "runs failed" and record["pairs_change_better"] * of >= need * pairs
           and gap is not None and gap > iqr)
    return {"workload": workload, "metric": metric,
            "pairs_change_better": record["pairs_change_better"], "pairs": pairs,
            "parent_median": p, "change_median": c,
            "median_gap": gap, "median_change_rel": record["median_change_rel"],
            "parent_iqr": iqr, "met": met, "rule": CLAIM_RULE}


def summary(workloads: dict) -> str:
    """One sentence over every workload and metric, as BENCH_*.json keep it."""
    parts, statuses = [], set()
    for name, w in workloads.items():
        for metric, r in w["metrics"].items():
            statuses.add(r["status"])
            p, c = r["parent"]["median"], r["change"]["median"]
            if r["median_change_rel"] is None:
                parts.append(f"{name} {metric} {r['status']}")
                continue
            rel = relative_change(p, c)
            parts.append(f"{name} {metric} {p:.4g} -> {c:.4g} ({100 * rel:+.1f}%, "
                         f"{r['pairs_change_better']} of {w['pairs']} better, {r['status']})")
    return (f"End-to-end statuses over all workloads and metrics: {sorted(statuses)}. "
            + "; ".join(parts))


def run_one(root: Path, workload: str, seed: int, seconds: int, metrics: list[str]):
    """(result, None) for one perfbench run from root whose last stdout line
    gives a number for each of metrics, else (None, the reason)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {RUN_TIMEOUT_S} s"
    if done.returncode != 0:
        return None, f"exit {done.returncode}: {done.stderr.strip()[-300:]}"
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if all(isinstance(result["metrics"][m]["value"], (int, float)) for m in metrics):
            return result, None
    except (IndexError, ValueError, KeyError, TypeError):
        pass
    return None, "malformed last line: " + done.stdout.strip()[-300:]


def make_roots(commit: str, tmp: Path) -> dict[str, Path]:
    """The two roots the runs start from, under tmp: parent, a git archive of
    commit, and change, a copy of the working tree's files that git tracks or
    would track, as they stand (a tracked file deleted from the tree is left
    out)."""
    roots = {"parent": tmp / "parent", "change": tmp / "change"}
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    tarfile.open(fileobj=io.BytesIO(archive)).extractall(roots["parent"])
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, check=True, capture_output=True).stdout.decode()
    for name in filter(None, listed.split("\0")):
        if (ROOT / name).is_file():
            (roots["change"] / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, roots["change"] / name)
    return roots


def machine() -> dict:
    import mpmath
    cpu = platform.processor()
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND}


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    ap.add_argument("--seeds", type=seed_list, required=True, help="first-last, e.g. 1001-1010")
    ap.add_argument("--parent", default="HEAD", help="the parent commit (default HEAD)")
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC",
                    help="write the claim block of this end-to-end metric on this workload")
    args = ap.parse_args()
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds, metrics = contract["run_seconds"], [spec["name"] for spec in contract["end_to_end"]]
    claim = args.claim.partition(":")[::2] if args.claim else None
    if claim and (claim[0] not in [w["name"] for w in contract["workloads"]]
                  or claim[1] not in metrics):
        ap.error(f"--claim {args.claim}: not a BENCHMARK.json workload:metric")
    commit = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.update({
        "parent_commit": commit,
        "change_tree": "the working tree of the change, exported as the parent is: the files of "
                       "git ls-files --cached --others --exclude-standard copied into a temporary "
                       "root, so that neither side starts with cached bytecode",
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} "
                   "--trace 0 (run from each side's temporary root: the parent a git archive of "
                   "its commit, the change an export of the working tree)",
        "order": "for each workload the seeds run in turn, each as a parent/change pair; the "
                 "parent runs first on odd seeds, the change first on even seeds",
        "quartiles": QUARTILES, "status_rule": STATUS_RULE, "machine": machine(),
        "workloads": {}})
    with tempfile.TemporaryDirectory() as tmp:
        roots = make_roots(commit, Path(tmp))
        for name in (w["name"] for w in contract["workloads"]):
            runs = {side: [] for side in roots}
            w = record["workloads"][name] = {"seeds": args.seeds, "pairs": 0, "first": [],
                                             "correct": {s: [] for s in roots},
                                             "failed": {s: [] for s in roots}, "metrics": {}}
            for seed in args.seeds:
                first = "parent" if seed % 2 else "change"
                w["first"].append(first)
                for side in (first, "change" if first == "parent" else "parent"):
                    result, error = run_one(roots[side], name, seed, seconds, metrics)
                    runs[side].append(result)
                    w["correct"][side].append(bool(result and result.get("correct")))
                    w["failed"][side].append(result and result.get("failed"))
                    if error:
                        w.setdefault("errors", []).append(f"seed {seed} {side}: {error}")
                    print(f"{name} seed {seed} {side}: {error or 'ok'}", file=sys.stderr)
                w["pairs"] += 1
                w["metrics"] = {spec["name"]: metric_record(
                    spec, *([r and r["metrics"][spec["name"]]["value"] for r in runs[s]]
                            for s in ("parent", "change")))
                    for spec in contract["end_to_end"]}
                if claim and claim[0] == name:
                    record["claim"] = claim_record(*claim, w["metrics"][claim[1]])
                record["summary"] = summary(record["workloads"])
                args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(record["summary"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
