import json
import math
import re
import warnings

import numpy as np
import pytest

from presdim import experiment, metric, partition
from presdim.cli import build_parser, main
from presdim.config import Limits
from presdim.construct import result_from_json
from presdim.graph import gen_named, read_edge_list
from presdim.metric import validate_entries
from presdim.preserve import certificate_from_json


def test_generate_round_trip(tmp_path):
    out = tmp_path / "g.el"
    assert main(["generate", "--family", "star", "--n", "10", "--out", str(out)]) == 0
    g = read_edge_list(str(out))
    assert g.rows == gen_named("star", 10).rows
    assert g.edge_count == 9


def test_generate_random_needs_seed(tmp_path):
    out = tmp_path / "g.el"
    assert main(["generate", "--family", "gnp", "--n", "8", "--out", str(out)]) == 2
    assert (
        main(["generate", "--family", "gnp", "--n", "8", "--seed", "3", "--out", str(out)])
        == 0
    )


def test_analyze_embed_verify_chain(tmp_path):
    g_path = tmp_path / "g.el"
    rep_path = tmp_path / "rep.json"
    emb_path = tmp_path / "emb.json"
    cert_path = tmp_path / "cert.json"
    assert main(["generate", "--family", "two_cliques_matched", "--n", "10", "--out", str(g_path)]) == 0
    assert main(["analyze", str(g_path), "--alpha", "1.0", "--out", str(rep_path)]) == 0
    rep = json.loads(rep_path.read_text())
    assert rep["feasible"] is True
    assert main([
        "embed", str(g_path), "--construction", "prop6", "--alpha", "1.5", "--out", str(emb_path)
    ]) == 0
    res = result_from_json(emb_path.read_text())
    assert res.source.startswith("pseudo_metric")
    assert main([
        "verify", str(g_path), str(emb_path), "--alpha", "1.5", "--out", str(cert_path)
    ]) == 0
    cert = certificate_from_json(cert_path.read_text())
    assert cert.passed


def test_verify_failure_exit_code(tmp_path):
    g_path = tmp_path / "p3.el"
    emb_path = tmp_path / "emb.json"
    assert main(["generate", "--family", "path", "--n", "3", "--out", str(g_path)]) == 0
    assert main(["embed", str(g_path), "--construction", "spm", "--out", str(emb_path)]) == 0
    assert main(["verify", str(g_path), str(emb_path), "--alpha", "2.0"]) == 1
    assert main(["verify", str(g_path), str(emb_path), "--alpha", "1.9"]) == 0


def test_embed_all_constructions(tmp_path, capsys):
    g_path = tmp_path / "g.el"
    assert main(["generate", "--family", "cycle", "--n", "8", "--out", str(g_path)]) == 0
    capsys.readouterr()
    for name, alpha, seed in [
        ("spm", "1.0", None),
        ("collapse", "0.5", None),
        ("prop6", "1.3", None),
        ("frechet", "1.0", None),
        ("frechet-q", "1.0", None),
        ("schoenberg", "1.0", None),
        ("simplex-jl", "0.8", "4"),
    ]:
        argv = ["embed", str(g_path), "--construction", name, "--alpha", alpha]
        if seed:
            argv += ["--seed", seed]
        assert main(argv) == 0, name
        doc = json.loads(capsys.readouterr().out)
        assert doc["vertex_map"] and "source" in doc


def test_usage_errors_exit_two(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
    assert main(["analyze", str(tmp_path / "missing.el"), "--alpha", "1.0"]) == 2
    g_path = tmp_path / "g.el"
    main(["generate", "--family", "path", "--n", "4", "--out", str(g_path)])
    assert main(["embed", str(g_path), "--construction", "collapse", "--alpha", "1.5"]) == 2


def test_doubling_verb(tmp_path, capsys):
    g_path = tmp_path / "g.el"
    emb_path = tmp_path / "emb.json"
    main(["generate", "--family", "two_cliques_matched", "--n", "8", "--out", str(g_path)])
    main(["embed", str(g_path), "--construction", "prop6", "--alpha", "1.5", "--out", str(emb_path)])
    capsys.readouterr()
    assert main(["doubling", "--embedding", str(emb_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["doubling_dimension"] >= 0


def test_experiment_verbs(tmp_path, capsys):
    assert main([
        "experiment", "--kind", "diameter2", "--n", "12", "--q", "0.6",
        "--trials", "20", "--seed", "5",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trials"] == 20

    cfg = tmp_path / "cfg.txt"
    cfg.write_text("family=gnp\nn=8\ntrials=2\nseed=3\nalpha_grid=0.5,1.5\np=0.5\n")
    out = tmp_path / "sweep.csv"
    assert main(["experiment", "--kind", "sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5  # header + 2 trials x 2 levels
    assert main(["experiment", "--kind", "sweep"]) == 2  # missing --config


def test_diameter2_on_one_vertex(capsys):
    assert main(["experiment", "--kind", "diameter2", "--n", "1", "--trials", "3", "--seed", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bound"] == doc["empirical"] == 1.0 and not doc["bound_clamped"]


def test_verify_checks_the_entries_once(tmp_path, monkeypatch):
    g_path = tmp_path / "p4.el"
    emb_path = tmp_path / "emb.json"
    assert main(["generate", "--family", "path", "--n", "4", "--out", str(g_path)]) == 0
    assert main(["embed", str(g_path), "--construction", "spm", "--out", str(emb_path)]) == 0
    calls = []

    def counted(d):
        calls.append(d.shape)
        return validate_entries(d)

    monkeypatch.setattr(metric, "validate_entries", counted)
    assert main(["verify", str(g_path), str(emb_path), "--alpha", "1.5"]) == 0
    assert calls == [(4, 4)]


def _set_distances(value, *cells):
    def edit(doc):
        for i, j in cells:
            doc["distance_matrix"][i][j] = value
    return edit


@pytest.mark.parametrize(
    "edit, alpha",
    [
        (lambda doc: doc.update(vertex_map=[0, 1, 2, -1]), "1.5"),  # would alias the last point
        (lambda doc: doc.update(vertex_map=[0, 1, 2, 7]), "1.5"),  # beyond the target
        (lambda doc: doc.update(vertex_map=[0, 1, 2, 2.5]), "1.5"),  # not an integer
        (lambda doc: doc.pop("r"), "1.5"),
        (_set_distances(5.0, (0, 3)), "1.5"),
        (_set_distances(-1.0, (0, 1), (1, 0)), "1.5"),
        (_set_distances(0.5, (2, 2)), "1.5"),
        (_set_distances(math.nan, (0, 1), (1, 0)), "1.5"),
        (_set_distances(math.inf, (0, 3), (3, 0)), "1.5"),
        (lambda doc: doc.update(points=[[math.nan], [1.0], [2.0], [3.0]], norm=2), "1.5"),
        (lambda doc: None, "nan"),
        (_set_distances(5.0, (0, 3), (3, 0)), "1.5"),
        (_set_distances(0.0, (0, 1), (1, 0)), "1.5"),
        (lambda doc: doc.update(pseudo="false"), "1.5"),  # a string, not a bool
        (lambda doc: doc.update(dim_bound=7.9), "1.5"),
        (lambda doc: doc.update(source=5), "1.5"),
        (lambda doc: doc.update(alpha_interval="ab"), "1.5"),
        (lambda doc: doc.update(r="1.5"), "1.5"),
    ],
    ids=[
        "negative", "out-of-range", "fractional", "missing-r", "asymmetric-distance",
        "negative-distance", "nonzero-diagonal", "nan-distance", "inf-distance", "nan-point",
        "nan-level", "triangle-violation", "off-diagonal-zero", "string-pseudo",
        "fractional-dim-bound", "numeric-source", "string-interval", "string-r",
    ],
)
def test_verify_rejects_malformed_embedding(tmp_path, edit, alpha):
    g_path = tmp_path / "p4.el"
    emb_path = tmp_path / "emb.json"
    assert main(["generate", "--family", "path", "--n", "4", "--out", str(g_path)]) == 0
    assert main(["embed", str(g_path), "--construction", "spm", "--out", str(emb_path)]) == 0
    doc = json.loads(emb_path.read_text())
    edit(doc)
    emb_path.write_text(json.dumps(doc))
    assert main(["verify", str(g_path), str(emb_path), "--alpha", alpha]) == 2


def test_verify_names_the_violated_axiom(tmp_path, capsys):
    g_path = tmp_path / "p4.el"
    emb_path = tmp_path / "emb.json"
    assert main(["generate", "--family", "path", "--n", "4", "--out", str(g_path)]) == 0
    assert main(["embed", str(g_path), "--construction", "spm", "--out", str(emb_path)]) == 0
    doc = json.loads(emb_path.read_text())
    _set_distances(5.0, (0, 3), (3, 0))(doc)
    emb_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(g_path), str(emb_path), "--alpha", "1.5"]) == 2
    assert "fails triangle at (0, 1, 3) (excess = 2)" in capsys.readouterr().err


def test_verify_rejects_deep_nesting(tmp_path, capsys):
    g_path = tmp_path / "p4.el"
    emb_path = tmp_path / "emb.json"
    assert main(["generate", "--family", "path", "--n", "4", "--out", str(g_path)]) == 0
    emb_path.write_text("[" * 200_000)
    capsys.readouterr()
    assert main(["verify", str(g_path), str(emb_path), "--alpha", "1.5"]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def _embedding_text(**target):
    """An embedding document on three points; ``target`` gives its array."""
    doc = {"vertex_map": [0, 1, 2], "alpha_interval": [0, 1], "r": 1, "dim_bound": 2, "source": "spm"}
    return json.dumps({**doc, **target})


# numpy reads a JSON boolean among numbers as 0 or 1: here the metric of a path.
BOOLEAN_MATRIX = [[0, True, 2], [True, 0, 1], [2, 1, 0]]


@pytest.mark.parametrize(
    "flag, text",
    [
        ("--metric", "3\n0 1 nan\n1 0 1\nnan 1 0\n"),
        ("--metric", "3\n0 1 inf\n1 0 1\ninf 1 0\n"),
        ("--metric", "3\n0 1 -5\n1 0 1\n-5 1 0\n"),
        ("--metric", "3\n0 1 2\n1 0 1\n3 1 0\n"),
        ("--points", "3 1 2\n0\n1\nnan\n"),
        ("--points", "3 1 2\n0\n1\ninf\n"),
        ("--embedding", json.dumps({
            "distance_matrix": [[0, 1, math.inf], [1, 0, 1], [math.inf, 1, 0]], "vertex_map": [0, 1, 2],
            "alpha_interval": [0, 1], "r": 1, "dim_bound": 2, "source": "spm",
        })),
        ("--metric", "3\n0.5 1 1\n1 0 1\n1 1 0\n"),
        ("--embedding", _embedding_text(distance_matrix=[[0, -1, 1], [-1, 0, 1], [1, 1, 0]])),
        ("--embedding", _embedding_text(distance_matrix=[[0, 1, 2], [1, 0, 1], [3, 1, 0]])),
        ("--embedding", _embedding_text(distance_matrix=[[0.5, 1, 1], [1, 0, 1], [1, 1, 0]])),
        ("--embedding", _embedding_text(distance_matrix=[[0, math.nan, 1], [math.nan, 0, 1], [1, 1, 0]])),
        ("--embedding", _embedding_text(points=[[0], [1], [math.nan]], norm=2)),
        ("--embedding", "[" * 200_000),
        ("--embedding", _embedding_text(points=[[0], [1], [2]], norm=3)),
        ("--embedding", _embedding_text(distance_matrix=BOOLEAN_MATRIX)),
    ],
    ids=[
        "nan-distance", "inf-distance", "negative-distance", "asymmetric-distance",
        "nan-point", "inf-point", "inf-embedding-distance", "nonzero-diagonal",
        "negative-embedding-distance", "asymmetric-embedding-distance",
        "nonzero-embedding-diagonal", "nan-embedding-distance", "nan-embedding-point",
        "deep-nesting", "norm-3", "boolean-distance",
    ],
)
def test_doubling_rejects_malformed_input(tmp_path, flag, text):
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert main(["doubling", flag, str(path)]) == 2


@pytest.mark.parametrize(
    "member, target",
    [
        ("norm", {"points": [[0], [1], [2]], "norm": 3}),
        ("norm", {"points": [[0], [1], [2]], "norm": True}),
        ("points", {"points": [[0], [False], [2]], "norm": 2}),
        ("distance_matrix", {"distance_matrix": BOOLEAN_MATRIX}),
    ],
    ids=["norm-3", "norm-true", "boolean-point", "boolean-distance"],
)
def test_embedding_reader_names_a_bad_norm_or_a_boolean_entry(member, target):
    with pytest.raises(ValueError, match=f"^malformed embedding document: key '{member}': "):
        result_from_json(_embedding_text(**target))


MALFORMED_EDGE_LISTS = {
    "one token": "3 1\n0\n",
    "three tokens": "3 1\n0 1 2\n",
    "three tokens after a good line": "3 2\n0 1\n1 2 0\n",
    "non-integer token": "3 1\n0 1.5\n",
    "integral float token": "3 1\n0 2.0\n",
    "exponent token": "3 1\n0 1e0\n",
    "trailing comment": "3 1\n0 1 # note\n",
    "out of range": "3 1\n0 3\n",
    "negative endpoint": "3 1\n-1 2\n",
    "self-loop": "3 1\n1 1\n",
    "count after duplicates collapse": "3 2\n0 1\n1 0\n",
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(MALFORMED_EDGE_LISTS))
def test_malformed_edge_lists_are_rejected(tmp_path, name):
    path = tmp_path / "g.el"
    path.write_text(MALFORMED_EDGE_LISTS[name])
    with pytest.raises(ValueError):
        read_edge_list(str(path))
    assert main(["analyze", str(path), "--alpha", "1.0"]) == 2


@pytest.mark.parametrize(
    "text, names",
    [
        ("a b\n", "header 'a b'"),
        ("-3 0\n", "header '-3 0'"),
        ("3 1 2\n0 1\n", "header '3 1 2'"),
        ("3 0\nblocks: 0 x\n", "'blocks:' line"),
    ],
)
def test_rejected_header_and_blocks_lines_are_named(tmp_path, capsys, text, names):
    path = tmp_path / "g.el"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(names)):
        read_edge_list(str(path))
    assert main(["analyze", str(path), "--alpha", "1.0"]) == 2
    assert names in capsys.readouterr().err


@pytest.mark.parametrize("alpha, code", [("0.5", 2), ("1.0", 2), ("1.5", 2), ("2.0", 0), ("2.5", 0)])
def test_analyze_the_empty_vertex_set(tmp_path, capsys, alpha, code):
    path = tmp_path / "g.el"
    path.write_text("0 0\n")
    assert main(["analyze", str(path), "--alpha", alpha]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == "" and "error: the empty vertex set has no bounds" in captured.err
    else:
        assert "feasible=True" in captured.out


def _loadtxt_with_float_fallback(real):
    # numpy 1.23 up to the end of its deprecation period parsed an integer
    # token such as "2.0" via a float, truncated it and only issued a
    # DeprecationWarning; when that warning is an error, loadtxt raises
    # ValueError. This stand-in reproduces that on any numpy.
    def loadtxt(lines, dtype=float, **kwargs):
        try:
            return real(lines, dtype=dtype, **kwargs)
        except ValueError:
            try:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            except DeprecationWarning as exc:
                raise ValueError("could not convert string to int64") from exc
            return real(lines, dtype=float, **kwargs).astype(dtype)

    return loadtxt


@pytest.mark.parametrize("lenient", [False, True], ids=["numpy", "float-fallback"])
@pytest.mark.parametrize("body", ["0 1.5", "0 2.0", "0 1e0"])
def test_float_tokens_are_rejected_with_deprecation_warnings_ignored(tmp_path, monkeypatch, body, lenient):
    if lenient:
        monkeypatch.setattr(np, "loadtxt", _loadtxt_with_float_fallback(np.loadtxt))
    path = tmp_path / "g.el"
    path.write_text(f"3 1\n{body}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        with pytest.raises(ValueError):
            read_edge_list(str(path))
        assert main(["analyze", str(path), "--alpha", "1.0"]) == 2


@pytest.mark.filterwarnings("error")
def test_edge_list_comments_blanks_and_no_edges(tmp_path):
    path = tmp_path / "g.el"
    path.write_text("# a comment\n\n4 0\n  # indented comment\n")
    g = read_edge_list(str(path))
    assert (g.n, g.edge_count) == (4, 0)
    path.write_text("4 2\n# note\n\t0 1 \n\n3 2\nblocks: 0 0 1 1\n")
    g = read_edge_list(str(path))
    assert sorted(g.edges()) == [(0, 1), (2, 3)] and g.blocks == (0, 0, 1, 1)
    assert main(["analyze", str(path), "--alpha", "1.0"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["--kind", "planted", "--k", "0"],
        ["--kind", "planted", "--k", "-2"],
        ["--kind", "theorem2", "--alpha", "0"],
        ["--kind", "theorem2", "--alpha", "2"],
    ],
    ids=["planted-k0", "planted-negative-k", "theorem2-alpha0", "theorem2-alpha2"],
)
def test_experiment_out_of_range_parameters_exit_two(argv):
    assert main(["experiment", *argv, "--n", "12", "--trials", "2", "--seed", "1"]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--kind", "clique", "--n", "0"], "needs n >= 1, got n=0"),
        (["--kind", "clique", "--n", "-3"], "needs n >= 1, got n=-3"),
        (["--kind", "theorem2", "--n", "0"], "needs n >= 2, got n=0"),
        (["--kind", "theorem2", "--n", "1"], "needs n >= 2, got n=1"),
        (["--kind", "diameter2", "--n", "0"], "needs n >= 1, got n=0"),
        (["--kind", "diameter2", "--n", "-2"], "needs n >= 1, got n=-2"),
        (["--kind", "diameter2", "--n", "8", "--jobs", "0"], "jobs must be at least 1, got 0"),
        (["--kind", "clique", "--n", "8", "--jobs", "-1"], "jobs must be at least 1, got -1"),
        (["--kind", "planted", "--n", "0", "--k", "2"], "got n=0, k=2"),
        (["--kind", "planted", "--n", "-4", "--k", "2"], "got n=-4, k=2"),
    ],
    ids=[
        "clique-n0", "clique-negative-n", "theorem2-n0", "theorem2-n1",
        "diameter2-n0", "diameter2-negative-n", "jobs0", "negative-jobs",
        "planted-n0", "planted-negative-n",
    ],
)
def test_experiment_rejects_tiny_n_and_jobs_below_one(argv, message, capsys):
    assert main(["experiment", *argv, "--trials", "2", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("kind", ["diameter2", "clique", "theorem2", "planted"])
def test_experiment_rejects_zero_trials(kind, capsys):
    assert main(["experiment", "--kind", kind, "--n", "8", "--trials", "0", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "needs trials >= 1, got trials=0" in captured.err


def _strict_json(text):
    """json.loads rejecting NaN and +-Infinity, which RFC 8259 JSON does not have."""

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_an_infinite_trial_value_is_written_as_valid_json(tmp_path, capsys):
    # n = 4 samples disconnected graphs, whose clique-partition value is -inf.
    out = tmp_path / "mc.json"
    argv = ["experiment", "--kind", "theorem2", "--n", "4", "--trials", "20", "--seed", "1", "--out", str(out)]
    assert main(argv) == 0
    doc = _strict_json(capsys.readouterr().out)
    assert doc["extras"]["mean_trial_value"] == "-inf"
    assert _strict_json(out.read_text()) == doc


def test_analyze_rejects_a_level_that_is_not_finite(tmp_path, capsys):
    g_path, out = tmp_path / "g.el", tmp_path / "rep.json"
    assert main(["generate", "--family", "cycle", "--n", "6", "--out", str(g_path)]) == 0
    capsys.readouterr()
    for level in ("inf", "nan"):
        assert main(["analyze", str(g_path), "--alpha", level, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
    assert not out.exists()
    assert main(["analyze", str(g_path), "--alpha", "2.5", "--out", str(out)]) == 0
    assert _strict_json(out.read_text())["alpha"] == 2.5


def test_spent_search_budget_exits_two(monkeypatch, capsys):
    # SearchBudgetExceeded is a RuntimeError; exit 1 would read as a failed verification.
    monkeypatch.setattr(partition, "DEFAULT_LIMITS", Limits(clique_budget=3))
    assert main(["experiment", "--kind", "clique", "--n", "40", "--trials", "2", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "budget 3 exhausted" in captured.err


def test_planted_sweep_without_k_exits_two(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("family=planted\nn=8\ntrials=1\nseed=3\nalpha_grid=1.5\np=0.9\nq=0.1\n")
    assert main(["experiment", "--kind", "sweep", "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "flag, text",
    [
        ("--metric", ""),
        ("--metric", "# only a comment\n"),
        ("--metric", "3\n0 1\n1 0\n"),
        ("--metric", "2\n0 1 1\n1 0 1\n"),
        ("--metric", "2\n0 1\n1 0\n1 1\n"),
        ("--points", ""),
    ],
    ids=["empty-metric", "comment-only-metric", "missing-row", "long-rows", "extra-row", "empty-points"],
)
def test_doubling_rejects_misshapen_input(tmp_path, flag, text):
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert main(["doubling", flag, str(path)]) == 2


@pytest.mark.parametrize(
    "text",
    ["2 1 2\n0\n1\n2\n", "2 2 2\n1 2 3 4\n"],
    ids=["extra-point-row", "tokens-of-two-rows-on-one"],
)
def test_doubling_rejects_points_off_their_header(tmp_path, text):
    path = tmp_path / "points.txt"
    path.write_text(text)
    assert main(["doubling", "--points", str(path)]) == 2


def test_a_second_call_keeps_nothing_of_the_first(tmp_path, capsys):
    """``main`` reuses one parser per process: a call that omits the options
    an earlier call set (--out, --seed) behaves as it does on its own."""
    g_path, rep_path = tmp_path / "g.el", tmp_path / "rep.json"
    assert main(["generate", "--family", "cycle", "--n", "6", "--out", str(g_path)]) == 0
    pairs = [
        (["analyze", str(g_path), "--alpha", "1.0", "--out", str(rep_path)], ["analyze", str(g_path), "--alpha", "1.0"]),
        (["experiment", "--kind", "diameter2", "--n", "8", "--trials", "3", "--seed", "4"],
         ["experiment", "--kind", "diameter2", "--n", "8", "--trials", "3"]),
    ]
    for first, second in pairs:
        main(first)
        rep_path.unlink(missing_ok=True)
        capsys.readouterr()
        after = (main(second), capsys.readouterr())
        assert not rep_path.exists()
        build_parser.cache_clear()
        assert (main(second), capsys.readouterr()) == after
    assert after[0] == 2 and "pass --seed" in after[1].err
    assert build_parser() is build_parser()


def test_a_negative_seed_exits_two_and_is_named(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("family=gnp\nn=8\ntrials=2\nseed=-1\nalpha_grid=0.5\n")
    for argv in (
        ["experiment", "--kind", "diameter2", "--n", "8", "--trials", "2", "--seed", "-1"],
        ["experiment", "--kind", "sweep", "--config", str(cfg)],
        ["generate", "--family", "gnp", "--n", "8", "--seed", "-1", "--out", str(tmp_path / "g.el")],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "seed must be >= 0, got seed=-1" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--family", "gnp", "--n", "-3", "--seed", "1"], "got n=-3"),
        (["--family", "kregular", "--n", "10", "--k", "-2", "--seed", "1"], "got n=10, k=-2"),
        (["--family", "kregular", "--n", "-4", "--k", "2", "--seed", "1"], "got n=-4, k=2"),
        (["--family", "planted", "--n", "-4", "--k", "2", "--seed", "1"], "got n=-4, k=2"),
    ],
    ids=["gnp-negative-n", "kregular-negative-k", "kregular-negative-n", "planted-negative-n"],
)
def test_generate_names_a_negative_size(argv, message, tmp_path, capsys):
    assert main(["generate", *argv, "--out", str(tmp_path / "g.el")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err


def test_a_graph_too_large_for_memory_exits_two(tmp_path, capsys):
    # numpy refuses the 10^16-byte adjacency matrix at once; nothing is allocated.
    path = tmp_path / "huge.el"
    path.write_text("100000000 0\n")
    for argv in (
        ["analyze", str(path), "--alpha", "1.0"],
        ["embed", str(path), "--construction", "spm"],
        ["generate", "--family", "empty", "--n", "100000000", "--out", str(tmp_path / "g.el")],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: out of memory")


@pytest.mark.parametrize("level", ["nan", "inf", "-1", "0"])
def test_planted_experiment_rejects_a_level_before_its_trials(level, monkeypatch, capsys):
    monkeypatch.setattr(experiment, "_trial_planted", lambda *a: pytest.fail("ran a trial"))
    argv = ["experiment", "--kind", "planted", "--n", "8", "--k", "2", "--alpha", level, "--trials", "2", "--seed", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f"got alpha={float(level)}" in captured.err
