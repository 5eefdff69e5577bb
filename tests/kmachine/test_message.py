"""Unit tests for the MessageBatch envelope: one row is one logical message."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.kmachine.cluster import Cluster
from repro.kmachine.engine import MessageBatch


class TestMessageConstruction:
    def test_basic_fields(self):
        m = MessageBatch(kind="x", src=[0], dst=[1], bits=[8], columns={"payload": [42]})
        assert m.kind == "x" and len(m) == 1
        for field in (m.src, m.dst, m.bits):
            assert field.dtype == np.int64 and field.ndim == 1
        assert (m.src[0], m.dst[0], m.bits[0]) == (0, 1, 8)
        assert isinstance(m.columns["payload"], np.ndarray)
        assert m.columns["payload"].tolist() == [42]

    def test_local_flag(self):
        # A row whose source is its destination is local: delivered, free.
        c = Cluster(k=4, bandwidth=8, seed=0)
        c.exchange_batches([MessageBatch(kind="x", src=[2, 2], dst=[2, 3], bits=[40, 8])])
        assert c.metrics.local_messages == 1
        assert c.metrics.messages == 1 and c.metrics.bits == 8
        assert c.metrics.rounds == 1

    def test_rejects_zero_bits(self):
        with pytest.raises(ModelError, match="'x': message sizes must be positive"):
            MessageBatch(kind="x", src=[0, 0], dst=[1, 1], bits=[4, 0])

    def test_rejects_negative_bits(self):
        with pytest.raises(ModelError, match="positive"):
            MessageBatch(kind="x", src=[0], dst=[1], bits=[-5])

    def test_rejects_negative_indices(self):
        # The envelope does not know k: its machine indices are checked by
        # the phase that carries it, before anything is charged.
        c = Cluster(k=3, bandwidth=8, seed=0)
        with pytest.raises(ModelError, match="source machine out of range"):
            c.exchange_batches([MessageBatch(kind="x", src=[-1], dst=[0], bits=[4])])
        with pytest.raises(ModelError, match="destination machine out of range"):
            c.exchange_batches([MessageBatch(kind="x", src=[0], dst=[-2], bits=[4])])
        assert c.metrics.phases == 0

    def test_rejects_non_1d_fields(self):
        with pytest.raises(ModelError, match="src must be a 1-D array"):
            MessageBatch(kind="x", src=[[0, 1]], dst=[1, 0], bits=[4, 4])

    def test_batch_envelope(self):
        # Ten logical messages on one link travel as ten rows of one batch:
        # metrics count every row and the sum of their sizes.
        m = MessageBatch(kind="batch", src=np.zeros(10), dst=np.ones(10),
                         bits=np.full(10, 10), columns={"u": np.arange(10)})
        assert len(m) == 10
        c = Cluster(k=2, bandwidth=8, seed=0)
        (delivered,) = c.exchange_batches([m])
        assert delivered.for_machine(1)["u"].tolist() == list(range(10))
        assert c.metrics.rounds == 13  # ceil(100 / 8)
        assert c.metrics.messages == 10 and c.metrics.bits == 100
