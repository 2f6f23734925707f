"""zeta-explicit benchmark: time to a verified result, end to end and
layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workloads (see workloads.py and
BENCHMARK.json) are closed loops with one caller, in one process and one
thread: ``zero-sums``, ``prime-scan`` and ``constants`` run in a worker
process (worker.py) after a warm-up on ops from a different stream;
``cli-cold`` starts one fresh ``python -m zeta_explicit.cli ... --json``
per op.  The op list is fixed by workload, seed and seconds, and is sized
so that one run takes about S seconds at the seed commit.

Times are host-speed scaled: a short fixed probe (hostspeed.py) runs
between ops, and each op's time is scaled by the reference probe time
over the mean of the probes around it, because the shared hosts this
runs on change speed by up to 1.8x several times a minute.  Raw times
are printed and written beside the scaled ones.

Every result is checked against an independent oracle (oracles.py) after
the timed run, in this process.  Known-defect probes (workloads.py: op
kinds that fail because of a defect in the package) run after the timed
ops, untimed; each is reported on its own line and counts in ok_frac,
but not in ``correct`` or ``failed``.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (a traced run also repeats the op list untraced, to
measure the tracing overhead).  The line before it records the
environment; each failed op is reported on its own line; everything,
per op, is also written to ``.perfbench_out/``.

Exit status 2 means the benchmark could not run (no package source,
failed self-check, worker crash or timeout).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import hostspeed
import oracles
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
N_SETUP = 4          # set-ups measured per run: the timed worker + 3 probes
N_IMPORT = 5         # fresh-interpreter import probes for cli-cold
WORKER_TIMEOUT_S = 150
CLI_TIMEOUT_S = 60

END_TO_END = {
    "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s",
    "peak_rss_mb": "MB", "ok_frac": "ratio", "min_oracle_digits": "digits",
}

IMPORT_PROBE = ("import time; t = time.perf_counter(); import zeta_explicit.cli; "
                "print(time.perf_counter() - t)")


class BenchError(Exception):
    """The benchmark itself cannot produce a result."""


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _run(cmd: list, root: str, timeout: float) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(cmd, cwd=root, env=_child_env(root),
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out after {timeout} s: {' '.join(cmd[:4])} ...") from None


def _peak_children_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def environment(root: str, seed: int) -> dict:
    import mpmath
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                           capture_output=True, text=True)
        commit = p.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "zeta_explicit")
    for dirpath, dirnames, files in sorted(os.walk(pkg)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".txt")):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
            "git_commit": commit, "src_sha256": digest.hexdigest()[:16],
            "seed": seed}


def tail(times_ms: list) -> tuple:
    """(value, percentile, samples): the highest percentile with at
    least ten samples beyond it."""
    t = sorted(times_ms)
    n = len(t)
    if n <= 10:
        return t[-1], 100.0, n
    return t[n - 11], 100.0 * (n - 10) / n, n


# ----------------------------------------------------------------------
# Warm workloads
# ----------------------------------------------------------------------

def _worker(root, workload, ops_path, out_path, trace=False, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--ops", ops_path, "--out", out_path]
    cmd += ["--trace"] if trace else []
    cmd += ["--setup-only"] if setup_only else []
    p = _run(cmd, root, WORKER_TIMEOUT_S)
    if p.returncode != 0:
        raise BenchError(f"worker exited {p.returncode}: "
                         f"{p.stderr.decode(errors='replace')[-2000:]}")
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def run_warm(root: str, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    ops = workloads.timed_ops(workload, seed, seconds)
    warm = workloads.warmup_ops(workload, seed)
    probes = workloads.defect_probes(workload, seed)
    stem = os.path.join(root, OUT_DIR, f"{workload}-s{seed}-t{int(trace)}")
    ops_path = stem + ".ops.json"
    with open(ops_path, "w", encoding="utf-8") as fh:
        json.dump({"warmup": warm, "ops": ops, "probes": probes}, fh)

    run = {"ops": ops}
    if trace:
        plain = _worker(root, workload, ops_path, stem + ".plain.json")
        res = _worker(root, workload, ops_path, stem + ".worker.json", trace=True)
        with open(stem + ".worker.json.spans", encoding="utf-8") as fh:
            sp = json.load(fh)
        requested = sum(op["pairs"] for op in ops)
        layer = tracing.layer_metrics(sp["spans"], sp["table_calls"],
                                      sp["table_builds"], requested)
        layer["trace.overhead_frac"] = res["wall_s"] / plain["wall_s"] - 1
        run["layer"] = layer
    else:
        res = _worker(root, workload, ops_path, stem + ".worker.json")
        run["peak_rss_mb"] = _peak_children_mb()
        setups = [res["setup_s"]]
        for i in range(N_SETUP - 1):
            probe = _worker(root, workload, ops_path, f"{stem}.probe{i}.json",
                            setup_only=True)
            setups.append(probe["setup_s"])
        run["setups"] = setups
    run["wall_s"] = res["wall_s"]
    run["wall_raw_s"] = res["wall_raw_s"]
    run["warmup_errors"] = res["warmup_errors"]

    tables = oracles.load_tables(root)
    run["records"] = [_check(op, rec, tables) for op, rec in zip(ops, res["ops"])]
    run["probes"] = [_check(op, rec, tables)
                     for op, rec in zip(probes, res.get("probes", []))]
    return run


def _check(op: dict, rec: dict, tables: dict) -> dict:
    """Oracle verdict on one worker record."""
    reasons, digits = [], []
    if rec["error"]:
        reasons.append(rec["error"])
    else:
        ch = oracles.check_op(op, rec["out"], tables)
        reasons += ch.failures()
        digits = ch.digits()
    return {"id": op["id"], "kind": op["kind"], "ms": rec.get("ms"),
            "raw_ms": rec.get("raw_ms"), "failed": bool(reasons), "reasons": reasons,
            "digits": min(digits) if digits else None}


# ----------------------------------------------------------------------
# cli-cold
# ----------------------------------------------------------------------

# Bare interpreter start-up time of the reference host in its fast state.
REF_START_S = 0.045


def _start_probe(root) -> float:
    """Host speed for process-per-op timing: the faster of two bare
    interpreter start-ups."""
    out = []
    for _ in range(2):
        t0 = time.perf_counter()
        _run([sys.executable, "-c", "pass"], root, CLI_TIMEOUT_S)
        out.append(time.perf_counter() - t0)
    return min(out)


def _cli_pass(root, ops, trace: bool, stem: str):
    """Run every op as a fresh process; returns (wall_s, raw wall_s,
    per-op list), times scaled by host-speed probes between processes."""
    done = []
    before = _start_probe(root)
    for op in ops:
        argv = op["args"]["argv"] + ["--json"]
        if trace:
            spans = f"{stem}.cli{op['id']}.spans"
            cmd = [sys.executable, os.path.join(HERE, "cli_traced.py"), spans,
                   str(op["id"])] + argv
        else:
            cmd = [sys.executable, "-m", "zeta_explicit.cli"] + argv
        t0 = time.perf_counter()
        p = _run(cmd, root, CLI_TIMEOUT_S)
        raw = (time.perf_counter() - t0) * 1e3
        after = _start_probe(root)
        done.append({"raw_ms": raw, "ms": raw * REF_START_S * 2 / (before + after),
                     "rc": p.returncode, "stdout": p.stdout, "stderr": p.stderr[-500:]})
        before = after
    return (sum(d["ms"] for d in done) / 1e3, sum(d["raw_ms"] for d in done) / 1e3,
            done)


def _cli_layers(ops, done, stem, requested) -> dict:
    spans, calls, builds = [], 0, 0
    import_s = interp_s = 0.0
    for op, d in zip(ops, done):
        with open(f"{stem}.cli{op['id']}.spans", encoding="utf-8") as fh:
            rec = json.load(fh)
        off = len(spans)
        spans += [[n, t0, t1, p + off if p >= 0 else -1, o, a]
                  for n, t0, t1, p, o, a in rec["spans"]]
        calls += rec["table_calls"]
        builds += rec["table_builds"]
        import_s += rec["import_s"]
        interp_s += d["raw_ms"] / 1e3 - rec["script_s"]
    layer = tracing.layer_metrics(spans, calls, builds, requested)
    layer["cli.import_s"] = import_s
    layer["cli.interpreter_s"] = interp_s
    return layer


def run_cli(root: str, seed: int, seconds: int, trace: bool) -> dict:
    ops = workloads.timed_ops("cli-cold", seed, seconds)
    stem = os.path.join(root, OUT_DIR, f"cli-cold-s{seed}-t{int(trace)}")
    run = {"ops": ops}
    if trace:
        plain_wall, _, _ = _cli_pass(root, ops, False, stem)
        wall, raw_wall, done = _cli_pass(root, ops, True, stem)
        layer = _cli_layers(ops, done, stem, sum(op["pairs"] for op in ops))
        layer["trace.overhead_frac"] = wall / plain_wall - 1
        run["layer"] = layer
    else:
        setups, before = [], _start_probe(root)
        for _ in range(N_IMPORT):
            p = _run([sys.executable, "-c", IMPORT_PROBE], root, CLI_TIMEOUT_S)
            if p.returncode != 0:
                raise BenchError(f"import probe failed: {p.stderr.decode()[-500:]}")
            after = _start_probe(root)
            setups.append(float(p.stdout) * REF_START_S * 2 / (before + after))
            before = after
        run["setups"] = setups
        wall, raw_wall, done = _cli_pass(root, ops, False, stem)
        run["peak_rss_mb"] = _peak_children_mb()
        # Determinism: the first invocation again must print the same bytes.
        _, _, again = _cli_pass(root, ops[:1], False, stem)
    run["wall_s"] = wall
    run["wall_raw_s"] = raw_wall

    tables = oracles.load_tables(root)
    records = []
    for i, (op, d) in enumerate(zip(ops, done)):
        reasons, digits = [], []
        if d["rc"] != 0:
            reasons.append(f"exit {d['rc']}: {d['stderr'].decode(errors='replace')}")
        else:
            try:
                payload = json.loads(d["stdout"])
            except ValueError as exc:
                payload = None
                reasons.append(f"unparsable --json output: {exc}")
            if payload is not None:
                ch = oracles.check_cli(op["args"]["argv"], payload, tables)
                if i == 0 and not trace:
                    ch.true("json_byte_identical", again[0]["stdout"] == d["stdout"],
                            "repeated invocation printed different bytes")
                reasons += ch.failures()
                digits = ch.digits()
        records.append({"id": op["id"], "kind": op["args"]["argv"][0], "ms": d["ms"],
                        "raw_ms": d["raw_ms"],
                        "failed": bool(reasons), "reasons": reasons,
                        "digits": min(digits) if digits else None})
    run["records"] = records
    return run


# ----------------------------------------------------------------------
# Self-checks, metrics, output
# ----------------------------------------------------------------------

def self_check_ops(workload: str, seed: int, seconds: int) -> None:
    a = workloads.timed_ops(workload, seed, seconds)
    b = workloads.timed_ops(workload, seed, seconds)
    if json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True):
        raise BenchError("one seed gave two different op lists")
    keys = [workloads.op_key(op) for op in a]
    if len(set(keys)) != len(keys):
        raise BenchError("an op repeats within the run")
    warm = {workloads.op_key(op) for op in workloads.warmup_ops(workload, seed)}
    if warm & set(keys):
        raise BenchError("a timed op repeats a warm-up op")
    probes = [workloads.op_key(op) for op in workloads.defect_probes(workload, seed)]
    if len(set(probes)) != len(probes) or set(probes) & (warm | set(keys)):
        raise BenchError("a known-defect probe repeats an op")


def self_check_metrics(root: str, metrics: dict, trace: bool) -> None:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != want:
        raise BenchError(f"printed metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(want) - set(got))}, "
                         f"extra {sorted(set(got) - set(want))}, "
                         f"units {[k for k in want if k in got and got[k] != want[k]]}")


def end_to_end(run: dict) -> tuple:
    """End-to-end values from the timed ops; ok_frac also counts the
    known-defect probes, which are checked but not timed."""
    recs = run["records"]
    checked = recs + run.get("probes", [])
    times = [r["ms"] for r in recs]
    t_val, t_pct, t_n = tail(times)
    digits = [r["digits"] for r in recs if r["digits"] is not None]
    values = {
        "wall_s": run["wall_s"],
        "op_p50_ms": statistics.median(times),
        "op_tail_ms": t_val,
        "setup_s": statistics.median(run["setups"]),
        "peak_rss_mb": run["peak_rss_mb"],
        "ok_frac": sum(not r["failed"] for r in checked) / len(checked),
        "min_oracle_digits": min(digits) if digits else 0.0,
    }
    return values, {"op_tail_percentile": t_pct, "op_tail_samples": t_n,
                    "wall_raw_s": run["wall_raw_s"],
                    "op_p50_raw_ms": statistics.median(r["raw_ms"] for r in recs)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    trace = bool(args.trace)
    try:
        for need in (os.path.join("src", "zeta_explicit", "__init__.py"),
                     os.path.join("data", "zeros_10k.txt"), "BENCHMARK.json"):
            if not os.path.isfile(os.path.join(root, need)):
                raise BenchError(f"{need} not found: run from the repository root")
        self_check_ops(args.workload, args.seed, args.seconds)
        os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
        env = environment(root, args.seed)
        cache = os.path.join(root, OUT_DIR, "stieltjes-oracle.json")
        oracles.load_stieltjes(cache)
        if args.workload == "cli-cold":
            run = run_cli(root, args.seed, args.seconds, trace)
        else:
            run = run_warm(root, args.workload, args.seed, args.seconds, trace)
        oracles.save_stieltjes(cache)
        extra = {}
        if trace:
            values = run["layer"]
            units = {k: u for k, (u, _) in tracing.LAYER_METRICS.items()}
        else:
            values, extra = end_to_end(run)
            units = END_TO_END
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        self_check_metrics(root, metrics, trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    recs = run["records"]
    failed = sum(r["failed"] for r in recs)
    result = {"correct": failed == 0, "attempted": len(recs), "failed": failed,
              "metrics": metrics}
    with open(os.path.join(root, OUT_DIR, f"result-{args.workload}-s{args.seed}"
                           f"-t{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "workload": args.workload, "seconds": args.seconds,
                   "trace": args.trace, **extra, "result": result,
                   "warmup_errors": run.get("warmup_errors", []),
                   "records": recs, "probes": run.get("probes", [])}, fh, indent=1)
    for r in recs:
        if r["failed"]:
            print(f"FAIL op {r['id']} ({r['kind']}): {'; '.join(r['reasons'])[:400]}")
    for r in run.get("probes", []):
        print(f"known-defect probe {r['id']} ({r['kind']}): "
              + ("FAIL: " + "; ".join(r["reasons"])[:300] if r["failed"] else "ok"))
    if extra:
        print("op_tail_ms is p%.1f of %d ops; raw wall %.3f s, raw op p50 %.3f ms"
              % (extra["op_tail_percentile"], extra["op_tail_samples"],
                 extra["wall_raw_s"], extra["op_p50_raw_ms"]))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
