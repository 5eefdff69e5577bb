"""Unit tests for the link network and its phase accounting."""

import numpy as np
import pytest

from message_engine import MessageEngine
from repro.errors import ModelError
from repro.kmachine.engine import MessageBatch, VectorEngine
from repro.kmachine.network import LinkNetwork


def loads(k, links):
    """(bits, messages) matrices of ``{(src, dst): (bits, messages)}``."""
    bits = np.zeros((k, k), dtype=np.int64)
    msgs = np.zeros((k, k), dtype=np.int64)
    for (s, d), (b, m) in links.items():
        bits[s, d], msgs[s, d] = b, m
    return bits, msgs


class TestExchange:
    """A batch exchange as the network sees it: every row charged to its link."""

    @staticmethod
    def exchange(net, src, dst, bits, **columns):
        batch = MessageBatch("a", src=src, dst=dst, bits=bits, columns=columns)
        (delivered,) = VectorEngine(net).exchange_batches([batch])
        return delivered

    def test_rounds_max_over_links(self):
        net = LinkNetwork(3, bandwidth=8)
        self.exchange(net, [0, 0], [1, 2], [20, 7])
        assert net.rounds == 3  # ceil(20/8)

    def test_parallel_links_dont_add(self):
        # Loads on distinct links are delivered in parallel.
        net = LinkNetwork(4, bandwidth=8)
        self.exchange(net, range(4), [(i + 1) % 4 for i in range(4)], [8] * 4)
        assert net.rounds == 1

    def test_k_must_be_at_least_two(self):
        # Every integer k < 2 is the model's error, zero and negatives too.
        for k in (1, 0, -3, np.int64(0)):
            with pytest.raises(ModelError, match=f"requires k >= 2, got k={k}"):
                LinkNetwork(k, bandwidth=8)
        with pytest.raises(TypeError):
            LinkNetwork(2.5, bandwidth=8)

    def test_reset_metrics(self):
        net = LinkNetwork(2, bandwidth=8)
        self.exchange(net, [0], [1], [8])
        assert net.rounds == 1
        net.reset_metrics()
        assert net.rounds == 0 and net.metrics.messages == 0

    def test_delivery_to_inboxes(self):
        net = LinkNetwork(3, bandwidth=16)
        d = self.exchange(net, [0, 2, 1], [1, 1, 0], [4, 4, 4],
                          payload=np.array(["x", "y", "z"]))
        assert d.for_machine(1)["payload"].tolist() == ["x", "y"]
        assert d.for_machine(0)["payload"].tolist() == ["z"]
        assert d.for_machine(2)["payload"].tolist() == []
        assert net.rounds == 1

    def test_same_link_accumulates(self):
        net = LinkNetwork(2, bandwidth=8)
        self.exchange(net, [0] * 5, [1] * 5, [5] * 5)
        assert net.rounds == 4  # ceil(25/8)
        assert net.metrics.phase_log[-1].max_link_bits == 25

    def test_local_message_free_and_delivered(self):
        net = LinkNetwork(2, bandwidth=8)
        d = self.exchange(net, [0], [0], [999], payload=[1])
        assert net.rounds == 0
        assert d.for_machine(0)["payload"].tolist() == [1]
        assert net.metrics.local_messages == 1 and net.metrics.bits == 0

    def test_multiplicity_counts_messages(self):
        # Four rows on one link are four messages, their sizes summed.
        net = LinkNetwork(2, bandwidth=8)
        self.exchange(net, [0] * 4, [1] * 4, [4] * 4)
        assert net.metrics.messages == 4
        assert net.metrics.bits == 16

    def test_wrong_src_rejected(self):
        net = LinkNetwork(2, bandwidth=8)
        with pytest.raises(ModelError, match="source"):
            self.exchange(net, [2], [0], [4])
        assert net.metrics.phases == 0

    def test_out_of_range_dst_rejected(self):
        net = LinkNetwork(2, bandwidth=8)
        with pytest.raises(ModelError, match="destination"):
            self.exchange(net, [0], [5], [4])
        assert net.metrics.phases == 0


class TestAccountPhase:
    def test_aggregate_accounting(self):
        net = LinkNetwork(3, bandwidth=10)
        bits = np.zeros((3, 3), dtype=np.int64)
        msgs = np.zeros((3, 3), dtype=np.int64)
        bits[0, 1] = 35
        msgs[0, 1] = 7
        rounds = net.account_phase(bits, msgs, label="agg")
        assert rounds == 4
        assert net.metrics.messages == 7
        assert net.metrics.phase_log[-1].label == "agg"

    def test_exchange_charges_what_account_phase_charges(self):
        # The oracle engine tallies its rows one by one and accounts the
        # loads through account_phase(): the two phases must log alike.
        by_exchange = LinkNetwork(3, bandwidth=8)
        MessageEngine(by_exchange).exchange_batches(
            [MessageBatch("a", src=[0, 0, 0, 2, 1], dst=[1, 1, 1, 0, 1],
                          bits=[6, 7, 9, 30, 50])], label="p")
        by_loads = LinkNetwork(3, bandwidth=8)
        bits, counts = loads(3, {(0, 1): (22, 3), (2, 0): (30, 1)})
        assert by_loads.account_phase(bits, counts, label="p", local_messages=1) == 4
        assert by_exchange.metrics.phase_log == by_loads.metrics.phase_log
        assert by_exchange.metrics.as_dict() == by_loads.metrics.as_dict()

    def test_local_messages_are_free(self):
        net = LinkNetwork(2, bandwidth=8)
        net.account_phase(*loads(2, {}), local_messages=3)
        assert net.rounds == 0
        assert net.metrics.local_messages == 3 and net.metrics.messages == 0

    def test_diagonal_loads_rejected(self):
        net = LinkNetwork(2, bandwidth=8)
        with pytest.raises(ValueError, match="diagonal"):
            net.account_phase(*loads(2, {(0, 0): (8, 1)}))

    def test_empty_phase_costs_no_rounds_but_is_counted(self):
        net = LinkNetwork(4, bandwidth=8)
        zeros = np.zeros((4, 4), dtype=np.int64)
        assert net.account_phase(zeros, zeros, label="idle") == 0
        assert net.rounds == 0 and net.metrics.phases == 1
