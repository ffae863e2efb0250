import hashlib
import math

import numpy as np
import pytest

from presdim.graph import (
    GenerationError,
    Graph,
    all_pairs_distances,
    derive_seed,
    diameter,
    from_edge_list,
    gen_gnp,
    gen_kregular,
    gen_named,
    gen_planted_partition,
    graph_stats,
    quotient_by_neighborhood,
    read_edge_list,
    rng_for,
    spectrum_top2,
    write_edge_list,
)

from oracles import diameter_oracle, isomorphic_brute


def test_from_edge_list_path():
    g = from_edge_list(3, [(0, 1), (1, 2)])
    assert g.degrees() == [1, 2, 1]


def test_from_edge_list_empty_and_dedup():
    assert from_edge_list(2, []).edge_count == 0
    assert from_edge_list(3, [(0, 1), (1, 0)]).edge_count == 1


def test_from_edge_list_rejects_bad_input():
    with pytest.raises(ValueError):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_edge_list(3, [(1, 1)])


def test_constructed_graphs_are_symmetric_and_loop_free():
    for seed in range(5):
        g = gen_gnp(15, 0.4, seed)
        for v in range(g.n):
            assert not g.has_edge(v, v)
            for u in g.neighbors(v):
                assert g.has_edge(u, v)
        assert g.edge_count * 2 == sum(g.degrees())


def test_diameter_named():
    assert diameter(gen_named("complete", 5)) == 1
    assert diameter(gen_named("star", 10)) == 2
    assert diameter(gen_named("cycle", 6)) == 3
    assert diameter(from_edge_list(4, [(0, 1), (2, 3)])) == math.inf


def test_diameter_matches_oracle_on_random_graphs():
    for seed in range(20):
        g = gen_gnp(25, 0.15, seed)
        assert diameter(g) == diameter_oracle(g)


def test_gnp_extremes():
    assert gen_gnp(7, 1.0, 3).edge_count == 21
    assert gen_gnp(7, 0.0, 3).edge_count == 0


def test_gnp_edge_count_statistics():
    # mean over 1000 seeds within 3 standard errors of C(50,2)/2 = 612.5
    counts = [gen_gnp(50, 0.5, s).edge_count for s in range(1000)]
    se = math.sqrt(1225 * 0.25 / 1000)
    assert abs(np.mean(counts) - 612.5) <= 3 * se


def test_gnp_deterministic():
    assert gen_gnp(30, 0.5, 11).rows == gen_gnp(30, 0.5, 11).rows


def test_kregular():
    assert gen_kregular(4, 3, 0).edge_count == 6  # K_4 is the only 3-regular graph
    matching = gen_kregular(6, 1, 5)
    assert matching.edge_count == 3 and set(matching.degrees()) == {1}
    with pytest.raises(ValueError):
        gen_kregular(5, 3, 0)
    with pytest.raises(ValueError):
        gen_kregular(4, 4, 0)
    for n, k, seed in [(10, 3, 1), (12, 4, 2), (20, 5, 3)]:
        g = gen_kregular(n, k, seed)
        assert set(g.degrees()) == {k}
        assert g.rows == gen_kregular(n, k, seed).rows


def test_kregular_budget_error():
    with pytest.raises(GenerationError):
        gen_kregular(8, 5, 0, restarts=0)


def test_planted_partition_extremes():
    g = gen_planted_partition([3, 3], 1.0, 0.0, 9)
    assert g.edge_count == 6 and g.blocks == (0, 0, 0, 1, 1, 1)
    assert diameter(g) == math.inf
    assert gen_planted_partition([2, 2], 1.0, 1.0, 9).edge_count == 6  # K_4


def test_planted_single_block_equals_gnp():
    # one block with p == q consumes the same random stream as the plain model
    assert gen_planted_partition([12], 0.4, 0.4, 17).rows == gen_gnp(12, 0.4, 17).rows


def test_planted_rejects_bad_params():
    with pytest.raises(ValueError):
        gen_planted_partition([3, 0], 0.5, 0.1, 0)
    with pytest.raises(ValueError):
        gen_planted_partition([3, 3], 0.3, 0.5, 0)


def test_named_families():
    star = gen_named("star", 5)
    assert star.degree(0) == 4 and all(star.degree(v) == 1 for v in range(1, 5))
    assert gen_named("two_cliques_matched", 10).edge_count == 25
    assert gen_named("complete_bipartite", 8).edge_count == 16
    with pytest.raises(ValueError):
        gen_named("cycle", 2)
    with pytest.raises(ValueError):
        gen_named("two_cliques_matched", 7)
    with pytest.raises(ValueError):
        gen_named("mystery", 5)


def test_quotient_examples():
    assert quotient_by_neighborhood(gen_named("complete", 6)).n == 1
    two_k5 = from_edge_list(
        10,
        [(u, v) for u in range(5) for v in range(u + 1, 5)]
        + [(5 + u, 5 + v) for u in range(5) for v in range(u + 1, 5)],
    )
    q = quotient_by_neighborhood(two_k5)
    assert q.n == 2 and q.edge_count == 0
    c4 = gen_named("cycle", 4)
    assert isomorphic_brute(quotient_by_neighborhood(c4), c4)


def test_quotient_idempotent():
    for seed in range(30):
        g = gen_gnp(9, 0.5, seed)
        once = quotient_by_neighborhood(g)
        twice = quotient_by_neighborhood(once)
        assert isomorphic_brute(once, twice)


def test_spectrum_closed_forms():
    lam1, lam2 = spectrum_top2(gen_named("complete", 8))
    assert abs(lam1 - 7) < 1e-9 and abs(lam2 + 1) < 1e-9
    for n in (5, 8, 11):
        ring = sorted((2 * math.cos(2 * math.pi * j / n) for j in range(n)), reverse=True)
        got1, got2 = spectrum_top2(gen_named("cycle", n))
        assert abs(got1 - ring[0]) < 1e-9 and abs(got2 - ring[1]) < 1e-9
    assert spectrum_top2(gen_named("empty", 4)) == (0.0, 0.0)


def test_spectrum_bounded_by_degree():
    for seed in range(10):
        g = gen_gnp(18, 0.4, seed)
        stats = graph_stats(g)
        assert stats.lambda_max <= stats.max_degree + 1e-9
        assert stats.lambda_2 <= stats.lambda_max + 1e-12


def test_all_pairs_symmetry():
    g = gen_gnp(14, 0.3, 2)
    d = all_pairs_distances(g)
    assert np.array_equal(d, d.T)


def test_edge_list_round_trip(tmp_path):
    g = gen_planted_partition([4, 4], 0.9, 0.2, 21)
    path = tmp_path / "g.el"
    write_edge_list(g, str(path))
    back = read_edge_list(str(path))
    assert back.rows == g.rows and back.blocks == g.blocks


def test_edge_list_comments_and_errors(tmp_path):
    path = tmp_path / "g.el"
    path.write_text("# a comment\n3 2\n0 1\n1 2\n")
    assert read_edge_list(str(path)).degrees() == [1, 2, 1]
    bad = tmp_path / "bad.el"
    bad.write_text("3 5\n0 1\n")
    with pytest.raises(ValueError):
        read_edge_list(str(bad))


def test_digest_distinguishes_graphs():
    a = gen_named("path", 4)
    b = gen_named("cycle", 4)
    assert a.digest() == gen_named("path", 4).digest()
    assert a.digest() != b.digest()


def test_rng_for_streams_are_independent_and_stable():
    a = rng_for(7, 0).random(3)
    b = rng_for(7, 1).random(3)
    assert not np.allclose(a, b)
    assert np.allclose(a, rng_for(7, 0).random(3))


def test_every_random_draw_needs_an_explicit_nonnegative_seed():
    for draw in (lambda: rng_for(None), lambda: derive_seed(None, 0), lambda: gen_gnp(5, 0.5, None)):
        with pytest.raises(ValueError, match="this operation is randomized; pass --seed"):
            draw()
    for draw in (lambda: rng_for(-1), lambda: derive_seed(-1), lambda: gen_kregular(6, 2, -1)):
        with pytest.raises(ValueError, match="seed must be >= 0, got seed=-1"):
            draw()


def test_induced_diameter_dominates_pairwise_distances():
    rng = np.random.default_rng(70)
    for _ in range(10):
        g = gen_gnp(16, 0.4, int(rng.integers(0, 1000)))
        subset = sorted(rng.choice(16, size=8, replace=False).tolist())
        sub = g.induced(subset)
        diam_sub = diameter(sub)
        full = all_pairs_distances(g)
        for i in range(8):
            for j in range(8):
                assert diam_sub >= full[subset[i], subset[j]] or diam_sub == math.inf


def test_induced_equals_the_checked_submatrix():
    """``induced`` skips ``Graph.of``'s check, which a principal submatrix of
    a checked matrix always passes; the graph is the one the check builds."""
    rng = np.random.default_rng(71)
    for n in (1, 2, 9, 30):
        g = gen_gnp(n, float(rng.uniform(0.1, 0.9)), int(rng.integers(0, 1000)))
        subsets = [[], [int(rng.integers(0, n))], rng.permutation(n)[: (n + 1) // 2].tolist(), rng.permutation(n).tolist()]
        for subset in subsets:
            sub = g.induced(subset)
            assert sub == Graph.of(g.matrix[np.ix_(subset, subset)].copy())
            assert sub.n == len(subset) and sub.blocks is None
            assert not sub.matrix.flags.writeable
    with pytest.raises(ValueError, match="duplicate"):
        g.induced([0, 0])


# Outcome of ``read_edge_list`` on each text: (n, rows, blocks) of the graph
# read, or the type of the error raised. Recorded from the line-by-line reader
# this table was written against.
READER_PARITY = {
    "comment before the header": ("# c\n# d\n3 2\n0 1\n1 2\n", (3, (2, 5, 2), None)),
    "comment between edges": ("3 2\n0 1\n# c\n1 2\n", (3, (2, 5, 2), None)),
    "comment at the end": ("3 2\n0 1\n1 2\n# end", (3, (2, 5, 2), None)),
    "indented comment": ("3 2\n0 1\n \t # c\n1 2\n", (3, (2, 5, 2), None)),
    "blank lines": ("\n3 2\n\n0 1\n\n\n1 2\n\n", (3, (2, 5, 2), None)),
    "whitespace-only lines": ("  \n3 2\n \t \n0 1\n1 2\n   ", (3, (2, 5, 2), None)),
    "tab-separated": ("3\t2\n0\t1\n\t1 \t 2\t\n", (3, (2, 5, 2), None)),
    "CRLF endings": ("3 2\r\n0 1\r\n1 2\r\nblocks: 0 0 1\r\n", (3, (2, 5, 2), (0, 0, 1))),
    "one blocks line": ("3 1\n0 1\nblocks: 0 0 1\n", (3, (2, 1, 0), (0, 0, 1))),
    "two blocks lines, the last wins": ("3 1\nblocks: 1 1 1\n0 1\n  blocks: 0 0 1\n", (3, (2, 1, 0), (0, 0, 1))),
    "blocks line with no space": ("3 0\nblocks:0 1 2\n", (3, (0, 0, 0), (0, 1, 2))),
    "blocks line of the wrong length": ("3 1\n0 1\nblocks: 0 1\n", ValueError),
    "blocks line as the header": ("blocks: 0\n2 1\n0 1\n", ValueError),
    "inline comment": ("3 1\n0 1 # note\n", ValueError),
    "inline comment on a later line": ("3 2\n0 1\n1 2 # note\n", ValueError),
    "1-token edge line": ("3 1\n0\n", ValueError),
    "3-token edge line": ("3 1\n0 1 2\n", ValueError),
    "1-token line after an edge": ("3 2\n0 1\n2\n", ValueError),
    "token 1.5": ("3 1\n0 1.5\n", ValueError),
    "token 2.0": ("3 1\n0 2.0\n", ValueError),
    "edge count does not match": ("3 5\n0 1\n", ValueError),
    "duplicate edge counted once": ("3 1\n0 1\n1 0\n", (3, (2, 1, 0), None)),
    "signed tokens": ("+3 +1\n0 +1\n", (3, (2, 1, 0), None)),
    "empty file": ("", ValueError),
    "comment-only file": ("# nothing\n\n# here\n", ValueError),
    "0 0": ("0 0\n", (0, (), None)),
    "no edge lines": ("3 0\n", (3, (0, 0, 0), None)),
    "header of three tokens": ("3 1 2\n0 1\n", ValueError),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(READER_PARITY))
def test_reader_parity_table(tmp_path, name):
    text, want = READER_PARITY[name]
    path = tmp_path / "g.el"
    path.write_bytes(text.encode())
    if isinstance(want, type):
        with pytest.raises(want):
            read_edge_list(str(path))
    else:
        g = read_edge_list(str(path))
        assert (g.n, g.rows, g.blocks) == want


# The bytes ``write_edge_list`` wrote for each graph, or their SHA-256 when
# long, recorded from the writer of the line-by-line reader.
WRITER_BYTES = {
    "path": (lambda: gen_named("path", 4), b"4 3\n0 1\n1 2\n2 3\n"),
    "no edges": (lambda: from_edge_list(3, []), b"3 0\n"),
    "planted, with blocks": (
        lambda: gen_planted_partition([3, 2], 0.9, 0.3, 5),
        b"5 6\n0 1\n0 2\n0 4\n1 2\n2 3\n2 4\nblocks: 0 0 0 1 1\n",
    ),
    "G(60, 0.3)": (lambda: gen_gnp(60, 0.3, 2), "dbb1016c087e5398b0e6b0d17d021c41b15d744aca3dc6ac18d40dedf8c63318"),
}


@pytest.mark.parametrize("name", sorted(WRITER_BYTES))
def test_edge_list_writer_keeps_its_bytes(tmp_path, name):
    build, want = WRITER_BYTES[name]
    path = tmp_path / "g.el"
    g = build()
    write_edge_list(g, str(path))
    data = path.read_bytes()
    assert (data if isinstance(want, bytes) else hashlib.sha256(data).hexdigest()) == want
    back = read_edge_list(str(path))
    assert (back.rows, back.blocks) == (g.rows, g.blocks)
