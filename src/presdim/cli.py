"""Command-line interface: generate, analyze, embed, verify, doubling, experiment.

Exit codes: 0 success, 1 negative verification (a failed certificate or an
exhausted probabilistic construction), 2 usage, I/O and out-of-memory
errors. All randomness sits behind an explicit --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from typing import Sequence

from . import bounds, construct, experiment, metric, preserve
from .config import DEFAULT_LIMITS
from .graph import (
    GenerationError,
    NAMED_FAMILIES,
    RANDOM_FAMILIES,
    gen_family,
    read_edge_list,
    write_edge_list,
)
from .partition import SearchBudgetExceeded
from .util import dump_json

__all__ = ["main"]


def _write_out(path: str | None, doc: str) -> None:
    """Write a verb's JSON document to its ``--out`` file, if one was given."""
    if path:
        with open(path, "w") as fh:
            fh.write(doc + "\n")


def _cmd_generate(args: argparse.Namespace) -> int:
    g = gen_family(args.family, args.n, args.p, args.q, args.k, args.seed)
    write_edge_list(g, args.out)
    print(f"wrote {args.out}: n={g.n} edges={g.edge_count}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    g = read_edge_list(args.graph)
    limits = DEFAULT_LIMITS
    if args.mode == "greedy":
        limits = replace(DEFAULT_LIMITS, exact_cover=0)
    rep = bounds.report(g, args.alpha, limits=limits)
    print(bounds.format_report(rep))
    _write_out(args.out, bounds.report_to_json(rep))
    return 0


def _cmd_embed(args: argparse.Namespace) -> int:
    g = read_edge_list(args.graph)
    res = construct.BY_CLI[args.construction].build(g, args.alpha, args.seed, DEFAULT_LIMITS)
    doc = construct.result_to_json(res)
    if args.out:
        _write_out(args.out, doc)
        print(f"wrote {args.out}: source={res.source} dim_bound={res.claimed_dim_bound}")
    else:
        print(doc)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    g = read_edge_list(args.graph)
    with open(args.embedding) as fh:
        res = construct.result_from_json(fh.read())
    if isinstance(res.target, metric.FiniteMetric):
        # result_from_json has already run validate_entries on the matrix. The
        # identity and triangle checks stay out of that reader, which `doubling
        # --embedding` shares: there they cost each doubling call on a 14-point
        # prop6 target about 0.25 ms (median 0.41-0.56 -> 0.68-0.82 ms, 2 vCPUs).
        bad = metric._validate_identity_and_triangle(res.target)
        if bad is not None:
            raise ValueError(f"{args.embedding}: distance_matrix {bad}")
    cert = preserve.check(g, res, args.alpha)
    doc = preserve.certificate_to_json(cert)
    _write_out(args.out, doc)
    print(doc)
    return 0 if cert.passed else 1


def _cmd_doubling(args: argparse.Namespace) -> int:
    if args.metric:
        m = metric.read_metric(args.metric)
    elif args.points:
        m = metric.induced_metric(metric.read_points(args.points))
    else:
        with open(args.embedding) as fh:
            res = construct.result_from_json(fh.read())
        target = res.target
        m = metric.induced_metric(target) if isinstance(target, metric.PointSet) else target
    d = metric.doubling_dimension(m, mode=args.mode)
    print(json.dumps({"mode": args.mode, "n": m.n, "doubling_dimension": d}))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.kind == "sweep":
        if not args.config:
            raise ValueError("sweep needs --config")
        cfg = experiment.parse_config(args.config)
        records = experiment.sweep(cfg, jobs=args.jobs)
        if args.out:
            experiment.write_csv(records, args.out)
            print(f"wrote {args.out}: {len(records)} rows")
        else:
            sys.stdout.write(experiment.rows_to_csv(records))
        return 0
    run, params, default_trials = experiment.MONTE_CARLO[args.kind]
    trials = default_trials if args.trials is None else args.trials
    res = run(*(getattr(args, name) for name in params), trials, args.seed, jobs=args.jobs)
    doc = dump_json(res.to_dict())
    _write_out(args.out, doc)
    print(doc)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="presdim",
        description="neighborhood-preserving embeddings: bounds, constructions, certificates",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("generate", help="write a graph edge list")
    p.add_argument("--family", required=True, choices=NAMED_FAMILIES + RANDOM_FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--q", type=float, default=0.0)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("analyze", help="bound report for a graph")
    p.add_argument("graph")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--mode", choices=("exact", "greedy"), default="exact",
                   help="greedy skips the exact clique cover regardless of size")
    p.add_argument("--out", default=None, help="write the report JSON here")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("embed", help="build a certified embedding")
    p.add_argument("graph")
    p.add_argument("--construction", required=True, choices=tuple(construct.BY_CLI))
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("verify", help="certify an embedding at a level")
    p.add_argument("graph")
    p.add_argument("embedding")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("doubling", help="doubling dimension of a metric or embedding")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--metric")
    src.add_argument("--points")
    src.add_argument("--embedding")
    p.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    p.set_defaults(func=_cmd_doubling)

    p = sub.add_parser("experiment", help="seeded Monte Carlo experiments")
    p.add_argument("--kind", required=True, choices=(*experiment.MONTE_CARLO, "sweep"))
    p.add_argument("--n", type=int, default=40)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=None,
                   help="default: the kind's own trial count")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GenerationError, construct.JLProjectionError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, SearchBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
