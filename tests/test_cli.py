import json

import pytest

from presdim.cli import main
from presdim.construct import result_from_json
from presdim.graph import gen_named, read_edge_list
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


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.update(vertex_map=[0, 1, 2, -1]),  # would alias the last point
        lambda doc: doc.update(vertex_map=[0, 1, 2, 7]),  # beyond the target
        lambda doc: doc.update(vertex_map=[0, 1, 2, 2.5]),  # not an integer
        lambda doc: doc.pop("r"),
    ],
    ids=["negative", "out-of-range", "fractional", "missing-r"],
)
def test_verify_rejects_malformed_embedding(tmp_path, edit):
    g_path = tmp_path / "p4.el"
    emb_path = tmp_path / "emb.json"
    assert main(["generate", "--family", "path", "--n", "4", "--out", str(g_path)]) == 0
    assert main(["embed", str(g_path), "--construction", "spm", "--out", str(emb_path)]) == 0
    doc = json.loads(emb_path.read_text())
    edit(doc)
    emb_path.write_text(json.dumps(doc))
    assert main(["verify", str(g_path), str(emb_path), "--alpha", "1.5"]) == 2
