"""Unit tests for the link network and its phase accounting."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.kmachine.message import Message
from repro.kmachine.network import LinkNetwork


def boxes(k, msgs):
    out = [[] for _ in range(k)]
    for m in msgs:
        out[m.src].append(m)
    return out


class TestExchange:
    def test_delivery_to_inboxes(self):
        net = LinkNetwork(3, bandwidth=16)
        msgs = [
            Message(src=0, dst=1, kind="a", payload="x", bits=4),
            Message(src=2, dst=1, kind="a", payload="y", bits=4),
            Message(src=1, dst=0, kind="b", payload="z", bits=4),
        ]
        inboxes = net.exchange(boxes(3, msgs))
        assert [m.payload for m in inboxes[1]] == ["x", "y"]
        assert [m.payload for m in inboxes[0]] == ["z"]
        assert inboxes[2] == []

    def test_rounds_max_over_links(self):
        net = LinkNetwork(3, bandwidth=8)
        msgs = [Message(src=0, dst=1, kind="a", bits=20), Message(src=0, dst=2, kind="a", bits=7)]
        net.exchange(boxes(3, msgs))
        assert net.rounds == 3  # ceil(20/8)

    def test_parallel_links_dont_add(self):
        # Loads on distinct links are delivered in parallel.
        net = LinkNetwork(4, bandwidth=8)
        msgs = [Message(src=i, dst=(i + 1) % 4, kind="a", bits=8) for i in range(4)]
        net.exchange(boxes(4, msgs))
        assert net.rounds == 1

    def test_same_link_accumulates(self):
        net = LinkNetwork(2, bandwidth=8)
        msgs = [Message(src=0, dst=1, kind="a", bits=5) for _ in range(5)]
        net.exchange(boxes(2, msgs))
        assert net.rounds == 4  # ceil(25/8)

    def test_local_message_free_and_delivered(self):
        net = LinkNetwork(2, bandwidth=8)
        msgs = [Message(src=0, dst=0, kind="a", payload=1, bits=999)]
        inboxes = net.exchange(boxes(2, msgs))
        assert net.rounds == 0
        assert inboxes[0][0].payload == 1
        assert net.metrics.local_messages == 1

    def test_multiplicity_counts_messages(self):
        net = LinkNetwork(2, bandwidth=8)
        msgs = [Message(src=0, dst=1, kind="a", bits=16, multiplicity=4)]
        net.exchange(boxes(2, msgs))
        assert net.metrics.messages == 4
        assert net.metrics.bits == 16

    def test_wrong_src_rejected(self):
        net = LinkNetwork(2, bandwidth=8)
        out = [[Message(src=1, dst=0, kind="a")], []]
        with pytest.raises(ModelError, match="src"):
            net.exchange(out)

    def test_out_of_range_dst_rejected(self):
        net = LinkNetwork(2, bandwidth=8)
        out = [[Message(src=0, dst=5, kind="a")], []]
        with pytest.raises(ModelError, match="destination"):
            net.exchange(out)

    def test_wrong_outbox_count_rejected(self):
        net = LinkNetwork(3, bandwidth=8)
        with pytest.raises(ModelError, match="outbox"):
            net.exchange([[], []])

    def test_k_must_be_at_least_two(self):
        # Every integer k < 2 is the model's error, zero and negatives too.
        for k in (1, 0, -3, np.int64(0)):
            with pytest.raises(ModelError, match=f"requires k >= 2, got k={k}"):
                LinkNetwork(k, bandwidth=8)
        with pytest.raises(TypeError):
            LinkNetwork(2.5, bandwidth=8)

    def test_reset_metrics(self):
        net = LinkNetwork(2, bandwidth=8)
        net.exchange(boxes(2, [Message(src=0, dst=1, kind="a", bits=8)]))
        assert net.rounds == 1
        net.reset_metrics()
        assert net.rounds == 0 and net.metrics.messages == 0


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
        # exchange() scatters its messages into link loads and accounts
        # them through account_phase(): the two phases must log alike.
        msgs = [Message(src=0, dst=1, kind="a", bits=13, multiplicity=2),
                Message(src=0, dst=1, kind="a", bits=9),
                Message(src=2, dst=0, kind="a", bits=30),
                Message(src=1, dst=1, kind="a", bits=50)]
        by_exchange = LinkNetwork(3, bandwidth=8)
        by_exchange.exchange(boxes(3, msgs), label="p")
        bits = np.zeros((3, 3), dtype=np.int64)
        counts = np.zeros((3, 3), dtype=np.int64)
        bits[0, 1], counts[0, 1] = 22, 3
        bits[2, 0], counts[2, 0] = 30, 1
        by_loads = LinkNetwork(3, bandwidth=8)
        assert by_loads.account_phase(bits, counts, label="p", local_messages=1) == 4
        assert by_exchange.metrics.phase_log == by_loads.metrics.phase_log
        assert by_exchange.metrics.as_dict() == by_loads.metrics.as_dict()

    def test_empty_phase_costs_no_rounds_but_is_counted(self):
        net = LinkNetwork(4, bandwidth=8)
        zeros = np.zeros((4, 4), dtype=np.int64)
        assert net.account_phase(zeros, zeros, label="idle") == 0
        assert net.rounds == 0 and net.metrics.phases == 1
