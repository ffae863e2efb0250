"""The four CLI workloads: their operations, input files and output checks.

A workload is a list of slots. Each slot is an operation template that
takes an instance number. Every instance lies in a finite universe whose
results are recorded in ``reference/``; the run seed orders that universe
into a pool of rounds, so the same seed gives the same inputs. One round runs
every slot once, on fresh instances, and a run measures whole rounds, so the
mix of operations is the same in every run and on every seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable

# Relative tolerance for floats in outputs (alpha_max, interval ends,
# certificate extremes); everything else must match exactly.
FLOAT_RTOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One CLI call. File names are relative to the run's work directory."""

    key: str  # names the inputs fully; the reference result is stored under it
    kind: str  # the warm-up pass runs the first operation of each kind
    argv: tuple[str, ...]
    inputs: tuple[tuple[str, tuple], ...] = ()  # (file name, input spec)
    result: str = "stdout_json"  # how the output is read, see observe()
    out: str | None = None  # output file the operation writes
    expect_rc: int = 0


@dataclass(frozen=True)
class Slot:
    group: str  # slots of one group draw distinct instances
    make: Callable[[int], tuple[Op, ...]]  # the operations on one instance


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slots: tuple[Slot, ...] = field(repr=False)

    def universe_size(self, group: str) -> int:
        return max(16, 2 * self._count(group))

    def _count(self, group: str) -> int:
        return sum(1 for s in self.slots if s.group == group)

    def pool(self, seed: int) -> list[list[Op]]:
        """The rounds a run cycles through, each with every slot once.

        The seed permutes each group's instances; round r takes the next
        instances of the permutation, so consecutive rounds run on different
        inputs and the pool covers the whole universe.
        """
        rng = random.Random(f"{self.name}:{seed}")
        groups = list(dict.fromkeys(s.group for s in self.slots))
        perm = {g: rng.sample(range(self.universe_size(g)), self.universe_size(g)) for g in groups}
        n_rounds = max(-(-self.universe_size(g) // self._count(g)) for g in groups)
        rounds = []
        for r in range(n_rounds):
            taken = {g: r * self._count(g) for g in groups}
            ops = []
            for s in self.slots:
                inst = perm[s.group][taken[s.group] % len(perm[s.group])]
                taken[s.group] += 1
                ops += s.make(inst)
            rounds.append(ops)
        return rounds

    def universe(self) -> list[Op]:
        """Every distinct operation any seed can produce, in an order where an
        operation that reads a file comes after the one that writes it."""
        ops: dict[str, Op] = {}
        size = max(self.universe_size(s.group) for s in self.slots)
        for inst in range(size):
            for s in self.slots:
                if inst < self.universe_size(s.group):
                    for op in s.make(inst):
                        ops.setdefault(op.key, op)
        return list(ops.values())


def seed_of(text: str) -> int:
    """A generator seed that depends only on the input's name."""
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little")


def _num(x: float) -> str:
    return repr(float(x))


# -- analyze -------------------------------------------------------------------


def _gnp_file(n: int, p: float, inst: int) -> tuple[str, tuple]:
    name = f"gnp-n{n}-p{p}-i{inst}.el"
    return name, ("gnp", n, p, seed_of(name))


def _analyze_op(graph: tuple[str, tuple], alpha: float, kind: str) -> Op:
    fname, spec = graph
    return Op(
        key=f"analyze/{fname}/a{_num(alpha)}",
        kind=kind,
        argv=("analyze", fname, "--alpha", _num(alpha), "--out", "report.json"),
        inputs=((fname, spec),),
        result="report",
        out="report.json",
    )


def _analyze_slots() -> tuple[Slot, ...]:
    slots = []
    # G(n, p) grid, alpha on a checkerboard so each n and each p meets both.
    for i, n in enumerate((50, 60, 70, 80)):
        for j, p in enumerate((0.3, 0.5)):
            alpha = (0.8, 1.5)[(i + j) % 2]
            slots.append(Slot(
                f"gnp{n}-{p}",
                lambda inst, n=n, p=p, alpha=alpha: (_analyze_op(_gnp_file(n, p, inst), alpha, "analyze"),),
            ))
    for alpha in (0.8, 1.5):
        slots.append(Slot(
            "planted",
            lambda inst, alpha=alpha: (_analyze_op(
                (f"planted-3x20-i{inst}.el", ("planted", (20, 20, 20), 0.7, 0.1, seed_of(f"planted-3x20-i{inst}"))),
                alpha,
                "analyze",
            ),),
        ))
        slots.append(Slot(
            "named",
            lambda inst, alpha=alpha: (_analyze_op(
                ("two_cliques_matched-60.el", ("named", "two_cliques_matched", 60)), alpha, "analyze"
            ),),
        ))
    # Graphs small enough that report builds and certifies every constructive upper bound.
    for n, p, alpha in ((24, 0.5, 1.5), (32, 0.3, 0.8), (40, 0.5, 1.5)):
        slots.append(Slot(
            f"small{n}",
            lambda inst, n=n, p=p, alpha=alpha: (_analyze_op(_gnp_file(n, p, inst), alpha, "analyze-validated"),),
        ))
    return tuple(slots)


# -- experiment ------------------------------------------------------------------

ALPHA_GRID = "0.6,0.8,1.2,1.5,1.8"


def _sweep_op(family: str, params: str, inst: int) -> Op:
    fname = f"sweep-{family}-i{inst}.cfg"
    text = f"family={family}\nn=60\n{params}trials=1\nseed={inst}\nalpha_grid={ALPHA_GRID}\n"
    return Op(
        key=f"experiment/{fname}",
        kind="sweep",
        argv=("experiment", "--kind", "sweep", "--config", fname, "--jobs", "1", "--out", "rows.csv"),
        inputs=((fname, ("text", text)),),
        result="csv",
        out="rows.csv",
    )


def _mc_op(kind: str, args: tuple[str, ...], inst: int) -> Op:
    argv = ("experiment", "--kind", kind, *args, "--trials", "1", "--seed", str(inst), "--jobs", "1")
    return Op(key="experiment/" + " ".join(argv[2:]), kind=kind, argv=argv)


def _experiment_slots() -> tuple[Slot, ...]:
    slots = [
        Slot("sweep-gnp", lambda inst: (_sweep_op("gnp", "p=0.5\n", inst),)),
        Slot("sweep-planted", lambda inst: (_sweep_op("planted", "k=3\np=0.7\nq=0.1\n", inst),)),
    ]
    slots += [Slot("diameter2", lambda inst: (_mc_op("diameter2", ("--n", "600", "--q", "0.5"), inst),))] * 4
    slots += [Slot("clique", lambda inst: (_mc_op("clique", ("--n", "150"), inst),))] * 16
    return tuple(slots)


# -- certify ---------------------------------------------------------------------

# (construction, build level, verify level inside the claimed interval)
CONSTRUCTIONS = (
    ("spm", 1.0, 1.5),
    ("collapse", 0.8, 0.7),
    ("prop6", 1.5, 1.4),
    ("frechet", 1.0, 1.5),
    ("frechet-q", 1.0, 1.5),
    ("schoenberg", 1.0, 0.9),
    ("simplex-jl", 0.8, 0.7),
)
# The shortest-path metric of a diameter-2 graph has alpha_max exactly 2, so
# this level sits just above it and verify must exit 1.
ABOVE_ALPHA_MAX = ("spm", 2.0000001)


def _embed_op(graph: tuple[str, tuple], tag: str, alpha: float, inst: int) -> Op:
    fname, spec = graph
    out = f"emb-{tag}.json"
    return Op(
        key=f"certify/{fname}/embed-{tag}-a{_num(alpha)}",
        kind=f"embed-{tag}",
        argv=("embed", fname, "--construction", tag, "--alpha", _num(alpha), "--seed", str(inst), "--out", out),
        inputs=((fname, spec),),
        result="stdout_text",
        out=out,
    )


def _verify_op(graph: tuple[str, tuple], tag: str, alpha: float, expect_rc: int = 0) -> Op:
    fname, spec = graph
    return Op(
        key=f"certify/{fname}/verify-{tag}-a{_num(alpha)}",
        kind=f"verify-{tag}",
        argv=("verify", fname, f"emb-{tag}.json", "--alpha", _num(alpha)),
        inputs=((fname, spec),),
        expect_rc=expect_rc,
    )


def _certify_round(inst: int) -> tuple[Op, ...]:
    graph = _gnp_file(300, 0.3, inst)
    ops = []
    for tag, build, level in CONSTRUCTIONS:
        ops += [_embed_op(graph, tag, build, inst), _verify_op(graph, tag, level)]
    tag, level = ABOVE_ALPHA_MAX
    ops.append(_verify_op(graph, tag, level, expect_rc=1))
    return tuple(ops)


# -- doubling --------------------------------------------------------------------


def _points_op(n: int, mode: str, inst: int) -> Op:
    fname = f"gauss-n{n}-d3-i{inst}.pts"
    return Op(
        key=f"doubling/{fname}/{mode}",
        kind=f"points-{mode}",
        argv=("doubling", "--points", fname, "--mode", mode),
        inputs=((fname, ("points", n, 3, seed_of(fname))),),
    )


def _pseudo_op(n: int, inst: int) -> Op:
    graph = _gnp_file(n, 0.5, inst)
    fname = f"prop6-{graph[0]}.json"
    return Op(
        key=f"doubling/{fname}/exact",
        kind="embedding-exact",
        argv=("doubling", "--embedding", fname, "--mode", "exact"),
        inputs=((fname, ("prop6", graph[1], 1.5)),),
    )


def _doubling_slots() -> tuple[Slot, ...]:
    slots = [Slot("greedy", lambda inst: (_points_op(20, "greedy", inst),))] * 4
    slots += [Slot("exact", lambda inst: (_points_op(13, "exact", inst),))] * 8
    slots += [Slot("pseudo", lambda inst: (_pseudo_op(14, inst),))] * 6
    return tuple(slots)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analyze",
            "bound reports on G(n,p), planted and two-clique graphs; candidate-subset lower bounds dominate",
            _analyze_slots(),
        ),
        Workload(
            "experiment",
            "alpha-grid sweeps and Monte Carlo trials; generators, BFS diameter and max-clique search dominate",
            _experiment_slots(),
        ),
        Workload(
            "certify",
            "embed then verify all seven constructions on G(300,0.3) via JSON files; distance matrices and JSON I/O dominate",
            (Slot("graph", _certify_round),),
        ),
        Workload(
            "doubling",
            "greedy and exact doubling dimension on point sets with many and embeddings with few distinct distances",
            _doubling_slots(),
        ),
    )
}


# -- input files -------------------------------------------------------------------


def _graph(spec: tuple):
    from presdim import graph

    kind = spec[0]
    if kind == "gnp":
        _, n, p, seed = spec
        return graph.gen_gnp(n, p, seed)
    if kind == "planted":
        _, sizes, p, q, seed = spec
        return graph.gen_planted_partition(list(sizes), p, q, seed)
    if kind == "named":
        _, family, n = spec
        return graph.gen_named(family, n)
    raise ValueError(f"unknown graph spec {spec!r}")


def build_input(path: str, spec: tuple) -> None:
    """Write one input file from its spec with the library's own writers."""
    from presdim import construct, graph, metric

    kind = spec[0]
    if kind == "text":
        with open(path, "w") as fh:
            fh.write(spec[1])
    elif kind == "points":
        import numpy as np

        _, n, d, seed = spec
        pts = np.random.default_rng(seed).standard_normal((n, d))
        metric.write_points(metric.PointSet(pts), path)
    elif kind == "prop6":
        _, gspec, alpha = spec
        res = construct.pseudo_metric_embedding(_graph(gspec), alpha)
        with open(path, "w") as fh:
            fh.write(construct.result_to_json(res) + "\n")
    else:
        graph.write_edge_list(_graph(spec), path)


# -- output checks -------------------------------------------------------------------


def observe(op: Op, rc: int, stdout: str) -> dict:
    """The parts of an operation's output that the reference pins down."""
    obs: dict = {"rc": rc}
    if rc != 0:
        # A negative verification still prints its certificate.
        if op.result == "stdout_json" and stdout.strip():
            obs["stdout"] = json.loads(stdout)
        return obs
    if op.result == "report":
        with open(op.out) as fh:
            obs["report"] = json.load(fh)
    elif op.result == "csv":
        with open(op.out, "rb") as fh:
            data = fh.read()
        obs["csv_sha256"] = hashlib.sha256(data).hexdigest()
        obs["csv_rows"] = data.count(b"\n") - 1
    elif op.result == "stdout_text":
        obs["stdout"] = stdout
    else:
        obs["stdout"] = json.loads(stdout)
    return obs


def _close(a: float, b: float) -> bool:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    return abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b))


def compare(ref, got, where: str = "") -> str | None:
    """None when ``got`` matches ``ref``, else a description of the first
    difference. Floats match within FLOAT_RTOL; all other values exactly."""
    if type(ref) is not type(got):
        return f"{where or 'value'}: expected {ref!r}, got {got!r}"
    if isinstance(ref, float):
        return None if _close(ref, got) else f"{where}: expected {ref!r}, got {got!r}"
    if isinstance(ref, dict):
        if ref.keys() != got.keys():
            return f"{where}: keys {sorted(ref)} != {sorted(got)}"
        for k in ref:
            diff = compare(ref[k], got[k], f"{where}.{k}")
            if diff:
                return diff
        return None
    if isinstance(ref, list):
        if len(ref) != len(got):
            return f"{where}: length {len(ref)} != {len(got)}"
        for i, (r, g) in enumerate(zip(ref, got)):
            diff = compare(r, g, f"{where}[{i}]")
            if diff:
                return diff
        return None
    return None if ref == got else f"{where}: expected {ref!r}, got {got!r}"
