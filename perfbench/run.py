"""Seeded benchmark of the presdim command line, one workload per process.

Run from the root of a checkout::

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 7 --out results.json   # every workload
    python3 perfbench/run.py --record                        # re-record references

Each workload runs in a fresh Python process (perfbench/worker.py) that
imports ``presdim`` from ``src/`` of this checkout, builds its inputs from the
seed, warms up, and then drives ``presdim.cli.main`` in a closed loop with one
client for whole rounds until ``--seconds`` have passed. Every operation's
output is checked against the results in perfbench/reference/. Set-up is
timed from process start to the end of the warm-up pass, three times, and
the median is reported. ``--trace 1`` runs the same loop with spans around
presdim's public functions and reports per-layer metrics instead of
end-to-end ones. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3
RUN_DEADLINE_S = 170.0  # a run, with all its set-up samples, ends within this
# latency_tail_ms: the highest percentile that keeps at least ten calls
# beyond it in every run of every workload on the baseline, slow periods
# included (runs hold about 90 to 150 calls).
TAIL_PCT = 85


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict[str, str]:
    """Cap BLAS and OpenMP threads at the number of usable cores."""
    env = dict(os.environ)
    cap = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            env[var] = str(max(1, min(int(env[var]), cap)))
        except (KeyError, ValueError):
            env[var] = str(cap)
    env["PYTHONHASHSEED"] = "0"
    # A fixed mmap threshold stops glibc from raising it after large frees,
    # so large arrays are always returned to the system, as in a fresh CLI
    # process, and peak RSS does not depend on the order of earlier calls.
    env["MALLOC_MMAP_THRESHOLD_"] = str(128 * 1024)
    return env


def environment(seed: int, res: dict) -> dict:
    """Where a result was measured; the worker reports the library versions."""
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "seed": seed,
        "nproc": nproc(),
        "python": platform.python_version(),
        **res["versions"],
        "blas_threads": worker_env()["OPENBLAS_NUM_THREADS"],
        "git_commit": commit,
        "machine": platform.machine(),
    }


def run_worker(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return seconds until it reported READY and its result.

    The worker is killed if it is still running at ``deadline``
    (a ``time.perf_counter`` value).
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    timer.start()
    try:
        setup_s = None
        result = None
        for line in proc.stdout:
            if line.strip() == "READY" and setup_s is None:
                setup_s = time.perf_counter() - t0
            elif line.startswith("{"):
                result = json.loads(line)
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if rc != 0 or setup_s is None:
        raise RuntimeError(f"worker {' '.join(args)} exited with code {rc}")
    return setup_s, result


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up samples plus one measured loop of one workload."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    common = ["--workload", name, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_worker(common + ["--setup-only"], deadline)[0])
    setup_s, result = run_worker(common + ["--seconds", str(seconds), "--trace", str(int(trace))], deadline)
    setups.append(setup_s)
    result["setup_samples_s"] = setups
    return result


def end_to_end(res: dict) -> tuple[dict[str, float], dict]:
    """End-to-end metrics of an untraced run, plus details for the report."""
    lat_ms = sorted(x * 1e3 for x in res["latencies_s"])
    ops = len(lat_ms)
    tail = statistics.quantiles(lat_ms, n=100, method="inclusive")[TAIL_PCT - 1] if ops > 1 else lat_ms[0]
    metrics = {
        "setup_s": statistics.median(res["setup_samples_s"]),
        "ops_per_s": ops / sum(res["round_wall_s"]),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": tail,
        "cpu_ms_per_op": sum(res["round_cpu_s"]) * 1e3 / ops,
        "peak_rss_mb": res["peak_rss_mb"],
        "ops_failed_frac": res["failed"] / ops,
    }
    info = {"tail_pct": TAIL_PCT, "tail_beyond": sum(1 for x in lat_ms if x > tail), "samples": ops}
    return metrics, info


def check_predictions(layers: dict[str, dict[str, float]]) -> list[dict]:
    """Test each layer -> end-to-end prediction against traced runs.

    A layer can move a metric on a workload only if it does work in that
    workload's timed loop; a layer said to move only set-up elsewhere must do
    no work in the other workloads' timed loops.
    """
    rows = []
    for metric, (_, _, moves) in tracer.LAYER_METRICS.items():
        for e2e, wl in moves:
            if wl not in layers:
                continue
            value = layers[wl][metric]
            rows.append({"layer": metric, "workload": wl, "moves": e2e, "value": value, "holds": value > 0})
        if metric in tracer.SETUP_ONLY_ELSEWHERE:
            predicted = {wl for _, wl in moves}
            for wl, values in layers.items():
                if wl not in predicted:
                    rows.append({"layer": metric, "workload": wl, "moves": "setup_s", "value": values[metric],
                                 "holds": values[metric] == 0})
    return rows


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def select(metrics: dict[str, float], specs: list[dict]) -> dict:
    return {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in specs}


def print_metrics(name: str, seed: int, res: dict, metrics: dict, units: dict, info: dict | None) -> None:
    ops = len(res["latencies_s"])
    print(f"workload {name} seed {seed}: {res['rounds']} rounds x {res['ops_per_round']} ops, "
          f"{res['failed']} of {ops} failed")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")
    for key, value in metrics.items():
        note = ""
        if key == "latency_tail_ms" and info:
            note = f"  (p{info['tail_pct']}, {info['tail_beyond']} of {info['samples']} samples beyond)"
        elif key == "setup_s":
            note = "  (median of " + ", ".join(f"{s:.3f}" for s in res["setup_samples_s"]) + ")"
        print(f"  {key:<42} {value:>12.6g} {units.get(key, '')}{note}")


def run_one(args: argparse.Namespace) -> int:
    contract = load_contract()
    res = measure(args.workload, args.seed, args.seconds, args.trace)
    if args.trace:
        metrics = tracer.layer_metrics(res)
        specs = contract["per_layer"]
        info = None
    else:
        metrics, info = end_to_end(res)
        specs = contract["end_to_end"]
    units = {s["name"]: s["unit"] for s in specs}
    units["ops_failed_frac"] = "1"
    print("env " + json.dumps(environment(args.seed, res)))
    print_metrics(args.workload, args.seed, res, metrics, units, info)
    ops = len(res["latencies_s"])
    correct = res["failed"] == 0 and res["warmup_ok"]
    print(json.dumps({"correct": correct, "attempted": ops, "failed": res["failed"],
                      "metrics": select(metrics, specs)}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, with overhead and prediction check."""
    contract = load_contract()
    units = {s["name"]: s["unit"] for s in contract["end_to_end"] + contract["per_layer"]}
    units["ops_failed_frac"] = "1"
    report = {"seconds": args.seconds, "workloads": {}}
    layers = {}
    correct = True
    for name in workloads.WORKLOADS:
        plain = measure(name, args.seed, args.seconds, trace=False)
        traced = measure(name, args.seed, args.seconds, trace=True)
        e2e, info = end_to_end(plain)
        layers[name] = tracer.layer_metrics(traced)
        overhead = e2e["ops_per_s"] / layers[name]["trace.ops_per_s"]
        print_metrics(name, args.seed, plain, e2e, units, info)
        print(f"  tracing overhead: untraced/traced ops_per_s = {overhead:.4f}; spans in {traced['trace_file']}")
        correct &= plain["failed"] == 0 and traced["failed"] == 0 and plain["warmup_ok"]
        report["environment"] = environment(args.seed, plain)
        report["workloads"][name] = {
            "why": workloads.WORKLOADS[name].why,
            "end_to_end": e2e,
            "latency_tail": info,
            "rounds": plain["rounds"],
            "ops_per_round": plain["ops_per_round"],
            "failures": plain["failures"] + traced["failures"],
            "tracing_overhead": overhead,
            "per_layer": layers[name],
            "self_ms_per_round": {
                span: row["self_ms"] / traced["rounds"] for span, row in sorted(traced["summary"].items())
            },
        }
    report["predictions"] = check_predictions(layers)
    print("per-layer metrics (traced runs; .ms and .calls per round):")
    names = list(workloads.WORKLOADS)
    print(f"  {'metric':<42}" + "".join(f"{n:>14}" for n in names))
    for metric in tracer.LAYER_METRICS:
        print(f"  {metric:<42}" + "".join(f"{layers[n][metric]:>14.6g}" for n in names))
    print("predictions (layer does work where it should move a metric; none where only set-up):")
    for row in report["predictions"]:
        mark = "ok  " if row["holds"] else "MISS"
        print(f"  {mark} {row['layer']:<42} {row['moves']:<16} on {row['workload']:<11} value {row['value']:.6g}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    print(json.dumps({"correct": correct, "workloads": names}))
    return 0


def record(names: list[str]) -> int:
    for name in names:
        path = os.path.join(HERE, "reference", f"{name}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name, "--record", path]
        rc = subprocess.run(cmd, env=worker_env(), cwd=ROOT).returncode
        if rc != 0:
            return rc
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="with --workload all: write the full report here")
    ap.add_argument("--record", action="store_true", help="re-record the reference results")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "presdim", "__init__.py")):
        print(f"error: no presdim sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record:
        return record(names)
    if args.seconds is None:
        args.seconds = load_contract()["run_seconds"]
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
