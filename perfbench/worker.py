"""One workload in its own process: set up, warm up, then a timed closed loop.

Started by run.py, never imported by it. Protocol on standard output: a line
``READY`` when set-up (import, input files, warm-up pass) is done, then, unless
``--setup-only``, one JSON line with the raw measurements. The operations'
own output is captured, so nothing else reaches standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (needs HERE on the path)

WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
TRACE_ROOT = os.path.join(ROOT, ".perfbench_out")


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Runner:
    """Runs operations through ``presdim.cli.main`` and checks their output."""

    def __init__(self, cli, reference: dict | None) -> None:
        self.cli = cli
        self.reference = reference
        self.failures: list[str] = []

    def call(self, op: workloads.Op) -> tuple[int, str, float, float]:
        """Exit code, captured stdout, wall seconds and CPU seconds of one call."""
        if op.out and os.path.exists(op.out):
            os.remove(op.out)
        # Start each call from a collected heap, as a fresh CLI process would,
        # so garbage left by earlier calls neither pauses nor inflates this one.
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(list(op.argv))
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # noqa: BLE001 - a crash is a failed operation
                traceback.print_exc()
                rc = -1
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        if rc == -1:
            self.failures.append(f"{op.key}: crashed\n{err.getvalue()}")
        return rc, out.getvalue(), wall, cpu

    def check(self, op: workloads.Op, rc: int, stdout: str) -> bool:
        if rc == -1:
            return False
        if rc != op.expect_rc:
            self.failures.append(f"{op.key}: exit code {rc}, expected {op.expect_rc}")
            return False
        ref = self.reference.get(op.key)
        if ref is None:
            self.failures.append(f"{op.key}: no reference result recorded")
            return False
        try:
            got = workloads.observe(op, rc, stdout)
        except (OSError, ValueError) as exc:
            self.failures.append(f"{op.key}: unreadable output: {exc}")
            return False
        diff = workloads.compare(ref, got)
        if diff:
            self.failures.append(f"{op.key}: {diff}")
            return False
        return True


def build_inputs(ops: list[workloads.Op]) -> None:
    for op in ops:
        for fname, spec in op.inputs:
            if not os.path.exists(fname):
                workloads.build_input(fname, spec)


def import_presdim():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import presdim
    from presdim import cli

    if not os.path.abspath(presdim.__file__).startswith(src + os.sep):
        raise ImportError(f"presdim imported from {presdim.__file__}, not from {src}")
    return presdim, cli


def versions(presdim) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"presdim": presdim.__version__, "numpy": np.__version__, "blas": blas}


def record(wl: workloads.Workload, ref_path: str) -> int:
    """Run every operation any seed can pick once and store its result."""
    _, cli = import_presdim()
    runner = Runner(cli, None)
    ops = wl.universe()
    build_inputs(ops)
    results = {}
    for i, op in enumerate(ops):
        rc, stdout, wall, _ = runner.call(op)
        if rc != op.expect_rc:
            print(f"{op.key}: exit code {rc}, expected {op.expect_rc}", file=sys.stderr)
            print("\n".join(runner.failures), file=sys.stderr)
            return 1
        results[op.key] = workloads.observe(op, rc, stdout)
        print(f"[{i + 1}/{len(ops)}] {op.key} {wall * 1e3:.1f} ms", file=sys.stderr)
    with open(ref_path, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def measure(wl: workloads.Workload, args: argparse.Namespace) -> int:
    presdim, cli = import_presdim()
    pool = wl.pool(args.seed)
    with open(os.path.join(HERE, "reference", f"{wl.name}.json")) as fh:
        runner = Runner(cli, json.load(fh))
    build_inputs([op for ops in pool for op in ops])
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    first_of_kind: dict[str, workloads.Op] = {}
    for op in pool[0]:
        first_of_kind.setdefault(op.kind, op)
    warm_ok = True
    for op in first_of_kind.values():
        rc, stdout, _, _ = runner.call(op)
        warm_ok &= runner.check(op, rc, stdout)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if tracer:
        tracer.reset()
    latencies, round_wall, round_cpu, failed = [], [], [], 0
    start = time.perf_counter()
    while not round_wall or time.perf_counter() - start < args.seconds:
        wall_sum = cpu_sum = 0.0
        if tracer:
            tracer.mark_round()
        for op in pool[len(round_wall) % len(pool)]:
            rc, stdout, wall, cpu = runner.call(op)
            latencies.append(wall)
            wall_sum += wall
            cpu_sum += cpu
            failed += not runner.check(op, rc, stdout)
        round_wall.append(wall_sum)
        round_cpu.append(cpu_sum)
    result = {
        "versions": versions(presdim),
        "rounds": len(round_wall),
        "ops_per_round": len(pool[0]),
        "latencies_s": latencies,
        "round_wall_s": round_wall,
        "round_cpu_s": round_cpu,
        "failed": failed,
        "warmup_ok": warm_ok,
        "failures": runner.failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        os.makedirs(TRACE_ROOT, exist_ok=True)
        path = os.path.join(TRACE_ROOT, f"trace-{wl.name}-seed{args.seed}.json.gz")
        result["summary"] = tracer.summary()
        tracer.write(path, result["summary"])
        result["trace_file"] = os.path.relpath(path, ROOT)
        first_end = tracer.round_starts[1] if len(tracer.round_starts) > 1 else None
        result["first_round_summary"] = tracer.summary(0, first_end)
        result["units"] = tracer.units
        result["heap_peak_mb"] = tracer.heap_peak_mb
    print(json.dumps(result), flush=True)
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", metavar="FILE", help="record reference results into FILE")
    args = ap.parse_args()
    wl = workloads.WORKLOADS[args.workload]
    if args.record:
        args.record = os.path.abspath(args.record)
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK_ROOT)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return record(wl, args.record) if args.record else measure(wl, args)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
