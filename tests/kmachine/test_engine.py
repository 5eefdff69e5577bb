"""Unit tests for the pluggable execution-engine layer."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from message_engine import MessageEngine
from repro.errors import ModelError
from repro.kmachine.cluster import Cluster
from repro.kmachine.engine import (
    ENGINES,
    MessageBatch,
    VectorEngine,
    make_engine,
)
from repro.kmachine.network import LinkNetwork

ENGINE_NAMES = sorted(ENGINES)


def _batch(src, dst, bits, **columns):
    return MessageBatch(
        kind="t",
        src=np.asarray(src, dtype=np.int64),
        dst=np.asarray(dst, dtype=np.int64),
        bits=np.asarray(bits, dtype=np.int64),
        columns={k: np.asarray(v) for k, v in columns.items()},
    )


class TestMessageBatch:
    def test_validates_lengths(self):
        with pytest.raises(ModelError):
            _batch([0, 1], [1], [4, 4])

    def test_validates_column_lengths(self):
        with pytest.raises(ModelError):
            _batch([0, 1], [1, 0], [4, 4], u=[7])

    def test_rejects_nonpositive_bits(self):
        with pytest.raises(ModelError):
            _batch([0], [1], [0])

class TestEngineRegistry:
    def test_registry_contents(self):
        assert ENGINES["message"] is MessageEngine
        assert ENGINES["vector"] is VectorEngine

    def test_product_table_is_vector_and_process(self):
        """Without conftest's oracle registration: two engines, one default."""
        code = textwrap.dedent("""
            from repro.cli import build_parser
            from repro.errors import ModelError
            from repro.kmachine import LinkNetwork
            from repro.kmachine.engine import DEFAULT_ENGINE, ENGINES, make_engine

            assert sorted(ENGINES) == ["process", "vector"], sorted(ENGINES)
            assert DEFAULT_ENGINE == "vector"
            try:
                make_engine("message", LinkNetwork(3, bandwidth=8))
            except ModelError as exc:
                assert "['process', 'vector']" in str(exc), exc
            else:
                raise AssertionError("message resolved outside the tests")
            try:
                build_parser().parse_args(["run", "pagerank", "--engine", "message"])
            except SystemExit as exc:
                assert exc.code == 2
            else:
                raise AssertionError("--engine message accepted outside the tests")
        """)
        src = Path(__file__).resolve().parents[2] / "src"
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 0, done.stderr

    def test_process_resolves_without_importing_the_backend_first(self):
        """``"process"`` is known before, and loaded by, its first lookup."""
        code = textwrap.dedent("""
            import sys

            from repro.kmachine.engine import ENGINES, make_engine
            from repro.kmachine.network import LinkNetwork

            assert "process" in ENGINES and "multiprocessing" not in sys.modules
            assert not [m for m in sys.modules if m.startswith("repro.kmachine.parallel")]
            engine = make_engine("process", LinkNetwork(3, bandwidth=8), workers=1)
            assert type(engine).__module__ == "repro.kmachine.parallel.engine"
            assert ENGINES["process"] is type(engine)
            engine.close()
        """)
        src = Path(__file__).resolve().parents[2] / "src"
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 0, done.stderr

    def test_make_engine_from_name_and_class(self):
        net = LinkNetwork(3, bandwidth=8)
        assert isinstance(make_engine("vector", net), VectorEngine)
        assert isinstance(make_engine(MessageEngine, net), MessageEngine)
        inst = VectorEngine(net)
        assert make_engine(inst, net) is inst

    def test_make_engine_rejects_unknown(self):
        net = LinkNetwork(3, bandwidth=8)
        with pytest.raises(ModelError):
            make_engine("tachyon", net)
        with pytest.raises(ModelError):
            make_engine(42, net)

    def test_instance_must_match_network(self):
        a = LinkNetwork(3, bandwidth=8)
        b = LinkNetwork(3, bandwidth=8)
        with pytest.raises(ModelError):
            make_engine(VectorEngine(a), b)


@pytest.mark.parametrize("engine", ENGINE_NAMES)
class TestExchangeBatches:
    def test_accounting_matches_message_objects(self, engine):
        c = Cluster(k=3, bandwidth=8, seed=0, engine=engine)
        ref = Cluster(k=3, bandwidth=8, seed=0, engine="message")
        rows = [(0, 1, 6), (0, 2, 6), (2, 1, 10), (1, 1, 3)]
        for cluster in (c, ref):
            cluster.exchange_batches(
                [_batch([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows])]
            )
        assert c.rounds == ref.rounds == 2  # ceil(10/8) on link 2 -> 1
        assert c.metrics.as_dict() == ref.metrics.as_dict()
        assert c.metrics.local_messages == 1

    def test_delivery_is_canonical_order(self, engine):
        c = Cluster(k=4, bandwidth=64, seed=0, engine=engine)
        # Emission order deliberately scrambled in src.
        b = _batch([2, 0, 2, 1, 0], [3, 3, 3, 3, 0], [4] * 5, u=[0, 1, 2, 3, 4])
        (d,) = c.exchange_batches([b])
        sl = d.machine_slice(3)
        assert d.src[sl].tolist() == [0, 1, 2, 2]
        # Same src keeps emission order (stable).
        assert d.columns["u"][sl].tolist() == [1, 3, 0, 2]
        assert d.for_machine(0)["u"].tolist() == [4]
        assert len(d) == 5

    def test_multiple_batches_share_one_phase(self, engine):
        c = Cluster(k=3, bandwidth=8, seed=0, engine=engine)
        a = _batch([0], [1], [6])
        b = _batch([0], [1], [6])
        c.exchange_batches([a, b])
        # One phase: 12 bits on link (0,1) -> ceil(12/8) = 2 rounds,
        # not 1 + 1 from two separate phases.
        assert c.metrics.phases == 1
        assert c.rounds == 2

    def test_empty_batches(self, engine):
        c = Cluster(k=3, bandwidth=8, seed=0, engine=engine)
        (d,) = c.exchange_batches([_batch([], [], [])])
        assert len(d) == 0
        assert d.offsets.tolist() == [0, 0, 0, 0]
        assert c.rounds == 0 and c.metrics.phases == 1

    def test_rejects_out_of_range_machines(self, engine):
        c = Cluster(k=3, bandwidth=8, seed=0, engine=engine)
        with pytest.raises(ModelError):
            c.exchange_batches([_batch([0], [3], [4])])
        with pytest.raises(ModelError):
            c.exchange_batches([_batch([-1], [0], [4])])

class TestEngineEquivalence:
    def test_randomized_batches_identical_across_backends(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            t = int(rng.integers(0, 50))
            src = rng.integers(0, k, t)
            dst = rng.integers(0, k, t)
            bits = rng.integers(1, 25, t)
            payload = rng.integers(0, 1000, t)
            results = {}
            for engine in ENGINE_NAMES:
                c = Cluster(k=k, bandwidth=5, seed=0, engine=engine)
                (d,) = c.exchange_batches([_batch(src, dst, bits, u=payload)])
                results[engine] = (
                    c.rounds,
                    c.metrics.bits,
                    c.metrics.messages,
                    c.metrics.local_messages,
                    d.src.tolist(),
                    d.dst.tolist(),
                    d.columns["u"].tolist(),
                    d.offsets.tolist(),
                )
            first = results[ENGINE_NAMES[0]]
            for engine in ENGINE_NAMES[1:]:
                assert results[engine] == first


class TestBroadcast:
    def test_excludes_source_machine(self):
        # The src == dst exclusion edge case: k - 1 copies, none to the
        # sender, and no local message accounted.
        for engine in ENGINE_NAMES:
            c = Cluster(k=5, bandwidth=64, seed=0, engine=engine)
            assert c.broadcast(2, bits=4) == 1
            assert c.metrics.messages == 4
            assert c.metrics.received_messages[2] == 0
            assert c.metrics.local_messages == 0

    def test_rejects_nonpositive_bits(self):
        c = Cluster(k=3, bandwidth=8, seed=0)
        with pytest.raises(ModelError):
            c.broadcast(0, bits=0)
        with pytest.raises(ModelError):
            c.broadcast(0, bits=-3)
