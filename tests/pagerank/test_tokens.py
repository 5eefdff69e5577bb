"""Unit tests for the vectorized token kinematics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.pagerank import tokens as tk
from repro.errors import AlgorithmError
from repro.graphs.graph import Graph
from repro.kmachine.distgraph import group_neighbors_by_home
from oracles import empty_graph


# The per-vertex / per-β-row forms of the heavy path: the reference the
# batched kernels (``tk.move_heavy_tokens`` / ``tk.receive_heavy_tokens``)
# must reproduce draw for draw.

def heavy_machine_counts(
    vertex: int,
    tokens: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    home: np.ndarray,
    k: int,
    rng: np.random.Generator,
    nbr_home: np.ndarray | None = None,
) -> np.ndarray:
    """Sample destination machines for a heavy vertex's tokens.

    Implements Algorithm 1's line 23: each token picks machine ``j`` with
    probability ``n_{j,u} / d_u`` (the fraction of ``u``'s neighbors hosted
    at ``j``).  Returns a ``(k,)`` array ``β`` of token counts per machine.

    ``nbr_home`` is the cached home-of-neighbor column aligned with
    ``indices`` (see :class:`~repro.kmachine.distgraph.DistributedGraph`);
    when given, the per-call ``home[nbrs]`` gather is skipped.
    """
    lo, hi = indptr[vertex], indptr[vertex + 1]
    if hi == lo or tokens == 0:
        return np.zeros(k, dtype=np.int64)
    homes = nbr_home[lo:hi] if nbr_home is not None else home[indices[lo:hi]]
    per_machine = np.bincount(homes, minlength=k).astype(np.float64)
    return rng.multinomial(tokens, per_machine / per_machine.sum()).astype(np.int64)


def split_tokens_among_local_neighbors(
    vertex: int,
    tokens: int,
    local_neighbors: np.ndarray,
    rng: np.random.Generator,
    machine: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Receiving side of a heavy message (Algorithm 1, lines 31-36).

    The destination machine delivers each of the ``tokens`` tokens to a
    uniform vertex among the locally-hosted neighbors of the heavy source.
    Returns ``(dest_vertices, dest_counts)``.  ``machine`` only names the
    receiver in the error raised when ``local_neighbors`` is empty.
    """
    local_neighbors = np.asarray(local_neighbors, dtype=np.int64)
    if local_neighbors.size == 0:
        raise tk._no_local_neighbors(vertex, machine)
    if tokens == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    picks = rng.multinomial(tokens, np.full(local_neighbors.size, 1.0 / local_neighbors.size))
    nz = picks > 0
    return local_neighbors[nz], picks[nz].astype(np.int64)


class TestTerminate:
    def test_eps_one_kills_everything(self):
        rng = np.random.default_rng(0)
        out = tk.terminate_tokens(np.array([5, 10, 0]), 1.0, rng)
        assert out.tolist() == [0, 0, 0]

    def test_eps_zero_keeps_everything(self):
        rng = np.random.default_rng(0)
        counts = np.array([5, 10, 0])
        out = tk.terminate_tokens(counts, 1e-12, rng)
        assert np.array_equal(out, counts)

    def test_expected_survival_rate(self):
        rng = np.random.default_rng(1)
        counts = np.full(1000, 100)
        out = tk.terminate_tokens(counts, 0.25, rng)
        assert out.sum() == pytest.approx(0.75 * counts.sum(), rel=0.02)

    def test_never_negative(self):
        rng = np.random.default_rng(2)
        out = tk.terminate_tokens(np.array([1, 2, 3]), 0.9, rng)
        assert np.all(out >= 0)

    def test_empty_input(self):
        rng = np.random.default_rng(3)
        assert tk.terminate_tokens(np.zeros(0, dtype=np.int64), 0.5, rng).size == 0


class TestMoveLight:
    def test_token_conservation(self):
        g = repro.gnp_random_graph(30, 0.2, seed=0)
        rng = np.random.default_rng(4)
        verts = np.arange(30)
        counts = np.full(30, 7)
        dv, dc = tk.move_light_tokens(verts, counts, g.indptr, g.indices, rng)
        assert dc.sum() == 7 * (g.degrees() > 0).sum()

    def test_tokens_land_on_neighbors(self):
        g = repro.star_graph(10)
        rng = np.random.default_rng(5)
        dv, dc = tk.move_light_tokens(
            np.array([0]), np.array([100]), g.indptr, g.indices, rng
        )
        assert set(dv.tolist()) <= set(range(1, 10))
        assert dc.sum() == 100

    def test_degree_zero_absorbs(self):
        g = empty_graph(5)
        rng = np.random.default_rng(6)
        dv, dc = tk.move_light_tokens(np.array([0, 1]), np.array([3, 4]), g.indptr, g.indices, rng)
        assert dv.size == 0 and dc.size == 0

    def test_aggregation_across_sources(self):
        # Two leaves of a star both send to the hub: one aggregated entry.
        g = repro.star_graph(5)
        rng = np.random.default_rng(7)
        dv, dc = tk.move_light_tokens(
            np.array([1, 2]), np.array([4, 6]), g.indptr, g.indices, rng
        )
        assert dv.tolist() == [0]
        assert dc.tolist() == [10]

    def test_roughly_uniform_over_neighbors(self):
        g = repro.complete_graph(5)
        rng = np.random.default_rng(8)
        dv, dc = tk.move_light_tokens(np.array([0]), np.array([40_000]), g.indptr, g.indices, rng)
        assert np.allclose(dc, 10_000, rtol=0.1)


class TestHeavyPath:
    def test_machine_distribution_proportional_to_neighbors(self):
        g = repro.star_graph(41)  # hub 0 with 40 leaves
        home = np.zeros(41, dtype=np.int64)
        home[1:21] = 1  # 20 leaves on machine 1
        home[21:31] = 2  # 10 leaves on machine 2
        home[31:41] = 3  # 10 leaves on machine 3
        rng = np.random.default_rng(9)
        beta = heavy_machine_counts(0, 40_000, g.indptr, g.indices, home, 4, rng)
        assert beta.sum() == 40_000
        assert beta[1] == pytest.approx(20_000, rel=0.05)
        assert beta[2] == pytest.approx(10_000, rel=0.1)
        assert beta[0] == 0  # machine 0 hosts no neighbor of the hub

    def test_zero_tokens(self):
        g = repro.star_graph(5)
        home = np.zeros(5, dtype=np.int64)
        rng = np.random.default_rng(10)
        beta = heavy_machine_counts(0, 0, g.indptr, g.indices, home, 2, rng)
        assert beta.sum() == 0

    def test_split_among_local_neighbors_conserves(self):
        rng = np.random.default_rng(11)
        dv, dc = split_tokens_among_local_neighbors(0, 1000, np.array([3, 5, 7]), rng)
        assert dc.sum() == 1000
        assert set(dv.tolist()) <= {3, 5, 7}

    def test_split_uniform(self):
        rng = np.random.default_rng(12)
        dv, dc = split_tokens_among_local_neighbors(0, 90_000, np.array([1, 2, 3]), rng)
        assert np.allclose(dc, 30_000, rtol=0.05)

    def test_split_raises_without_local_neighbors(self):
        rng = np.random.default_rng(13)
        with pytest.raises(AlgorithmError, match="machine 3 .* vertex 0 "):
            split_tokens_among_local_neighbors(
                0, 10, np.array([], dtype=np.int64), rng, machine=3
            )

    def test_receive_raises_without_local_neighbors(self):
        g = repro.star_graph(5)
        home = np.array([1, 0, 0, 0, 0])  # leaf 2's only neighbor lives on machine 1
        rng = np.random.default_rng(13)
        with pytest.raises(AlgorithmError, match="machine 0 .* vertex 2 "):
            tk.receive_heavy_tokens(
                np.array([0, 2]), np.array([10, 10]), 0, _groups(g, home, 2), 2, rng
            )


def _sequential_send(vertices, counts, g, home, k, rng):
    """``heavy_machine_counts`` per vertex, rows emitted as the kernels used to."""
    src, dst, cnt = [], [], []
    for u, c in zip(vertices.tolist(), counts.tolist()):
        beta = heavy_machine_counts(
            u, c, g.indptr, g.indices, home, k, rng, nbr_home=home[g.indices]
        )
        for j in np.flatnonzero(beta).tolist():
            src.append(u)
            dst.append(j)
            cnt.append(int(beta[j]))
    return src, dst, cnt


def _sequential_receive(vertices, counts, machine, g, home, rng):
    """``split_tokens_among_local_neighbors`` per β row, results concatenated."""
    dvs, dcs = [], []
    for u, c in zip(vertices.tolist(), counts.tolist()):
        nbrs = g.indices[g.indptr[u] : g.indptr[u + 1]]
        dv, dc = split_tokens_among_local_neighbors(
            u, c, nbrs[home[nbrs] == machine], rng, machine=machine
        )
        dvs += dv.tolist()
        dcs += dc.tolist()
    return dvs, dcs


def _groups(g, home, k):
    """The home-grouped table the batched kernels read."""
    return group_neighbors_by_home(g.indptr, g.indices, home[g.indices], k)


def _assert_draw_for_draw(batched, scalar, seed):
    """Same outputs and same generator state from two equally seeded streams."""
    rng_b, rng_s = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = batched(rng_b), scalar(rng_s)
    assert [a.tolist() for a in got] == list(want)
    assert all(a.dtype == np.int64 for a in got)
    assert rng_b.bit_generator.state == rng_s.bit_generator.state


def _assert_send_matches(vertices, counts, g, home, k, seed):
    _assert_draw_for_draw(
        lambda rng: tk.move_heavy_tokens(vertices, counts, _groups(g, home, k), k, rng),
        lambda rng: _sequential_send(vertices, counts, g, home, k, rng),
        seed,
    )


def _assert_receive_matches(vertices, counts, machine, g, home, k, seed):
    _assert_draw_for_draw(
        lambda rng: tk.receive_heavy_tokens(
            vertices, counts, machine, _groups(g, home, k), k, rng
        ),
        lambda rng: _sequential_receive(vertices, counts, machine, g, home, rng),
        seed,
    )


def _rows_for(machine, g, home, counts_rng, high):
    """β rows ``machine`` could receive: vertices with a neighbor hosted there."""
    hosted = home[g.indices] == machine
    vertices = np.unique(np.repeat(np.arange(g.n), np.diff(g.indptr))[hosted])
    return vertices, counts_rng.integers(1, high, vertices.size)


class TestBatchedHeavyPathDrawForDraw:
    """The batched helpers consume the generator exactly like the scalar ones.

    Outputs *and* the generator state afterwards must match: a NumPy that
    reordered the rows of a broadcast multinomial would fail here first.
    """

    @pytest.mark.parametrize("k", [2, 4, 7])
    @pytest.mark.parametrize("high", [20, 5000], ids=["inversion", "btpe"])
    def test_send_matches_sequential_calls(self, k, high):
        # high=5000 puts n*p well above 30, the BTPE branch of the binomial.
        g = repro.gnp_random_graph(60, 0.04, seed=k)  # sparse: some isolated rows
        setup = np.random.default_rng(100 + k)
        home = setup.integers(0, k, g.n)
        vertices = setup.permutation(g.n)[:40]
        counts = setup.integers(0, high, vertices.size)  # includes 0-token rows
        _assert_send_matches(vertices, counts, g, home, k, seed=high + k)

    def test_send_skips_isolated_and_empty_rows_without_drawing(self):
        g = Graph(n=4, edges=np.array([[0, 1]]))
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        out = tk.move_heavy_tokens(
            np.array([2, 3, 0]), np.array([50, 50, 0]),
            _groups(g, np.zeros(g.n, dtype=np.int64), 2), 2, rng,
        )
        assert [a.size for a in out] == [0, 0, 0]
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("high", [20, 5000], ids=["inversion", "btpe"])
    def test_receive_matches_sequential_calls(self, k, high):
        g = repro.gnp_random_graph(60, 0.15, seed=k)
        setup = np.random.default_rng(200 + k)
        home = setup.integers(0, k, g.n)
        for machine in range(k):
            vertices, counts = _rows_for(machine, g, home, setup, high)
            counts[::5] = 0  # a 0-token row draws nothing either way
            _assert_receive_matches(vertices, counts, machine, g, home, k, seed=high + machine)

    def test_receive_single_neighbor_rows_draw_nothing(self):
        # Every leaf of a star has one neighbor, so every row has width 1.
        g = repro.star_graph(30)
        home = np.zeros(g.n, dtype=np.int64)
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        leaves = np.arange(1, 30)
        dv, dc = tk.receive_heavy_tokens(leaves, leaves * 3, 0, _groups(g, home, 1), 1, rng)
        assert dv.tolist() == [0] * 29 and dc.tolist() == (leaves * 3).tolist()
        assert rng.bit_generator.state == before
        _assert_receive_matches(leaves, leaves * 3, 0, g, home, 1, seed=2)

    def test_receive_mixes_narrow_and_wide_rows(self):
        # The hub's row is wider than the uniform-pvals table; leaves are width 1.
        g = repro.star_graph(200)
        home = np.zeros(g.n, dtype=np.int64)
        home[150:] = 1
        vertices = np.array([5, 0, 7, 0, 160])
        counts = np.array([9, 4000, 1, 3, 12])
        _assert_receive_matches(vertices[:4], counts[:4], 0, g, home, 2, seed=3)
        _assert_receive_matches(vertices[[1, 3]], counts[[1, 3]], 1, g, home, 2, seed=4)

    def test_empty_batch(self):
        g = repro.star_graph(5)
        home = np.zeros(g.n, dtype=np.int64)
        none = np.zeros(0, dtype=np.int64)
        _assert_send_matches(none, none, g, home, 2, seed=5)
        _assert_receive_matches(none, none, 0, g, home, 2, seed=5)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_graphs_and_placements(self, data):
        n = data.draw(st.integers(2, 14))
        k = data.draw(st.integers(2, 5))
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(possible), max_size=30, unique=True))
        g = Graph(n=n, edges=np.array(edges, dtype=np.int64).reshape(-1, 2))
        home = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rows = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 400)), max_size=12)
        sent = np.array(data.draw(rows), dtype=np.int64).reshape(-1, 2)
        _assert_send_matches(sent[:, 0], sent[:, 1], g, home, k, seed)
        machine = data.draw(st.integers(0, k - 1))
        hosted = sorted({u for u, v in edges if home[v] == machine}
                        | {v for u, v in edges if home[u] == machine})
        if hosted:
            rows = st.lists(st.tuples(st.sampled_from(hosted), st.integers(0, 400)), max_size=12)
            got = np.array(data.draw(rows), dtype=np.int64).reshape(-1, 2)
            _assert_receive_matches(got[:, 0], got[:, 1], machine, g, home, k, seed)

    def test_receive_batch_spanning_blocks(self):
        # Sources on machine 1 with 1.._WIDE neighbors on machine 0, plus
        # one wider source; the batch crosses three block boundaries.
        block, widest = tk._BLOCK, tk._WIDE
        rows = 3 * block + 7
        setup = np.random.default_rng(17)
        widths = setup.integers(1, widest, rows)  # narrower than the widest
        widths[::9] = 1
        widths[block] = widths[3 * block - 1] = widest  # first of one block, last of the next
        widths[40] = 3 * widest  # a call of its own, splitting the first block
        targets = int(widths.max())
        edges = [
            (targets + i, int(t))
            for i, w in enumerate(widths.tolist())
            for t in setup.choice(targets, w, replace=False).tolist()
        ]
        g = Graph(n=targets + rows, edges=np.array(edges, dtype=np.int64))
        home = np.r_[np.zeros(targets, dtype=np.int64), np.ones(rows, dtype=np.int64)]
        counts = setup.integers(1, 30, rows)  # n * p < 30: inversion
        counts[::4] = setup.integers(2000, 6000, counts[::4].size)  # BTPE
        counts[::7] = 0
        counts[block] = 5000
        vertices = targets + np.arange(rows)  # batch row i has width widths[i]
        _assert_receive_matches(vertices, counts, 0, g, home, 2, seed=21)
