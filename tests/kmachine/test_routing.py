"""Unit tests for routing strategies and the Lemma-13 envelope."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.kmachine.network import LinkNetwork
from repro.kmachine.routing import direct_exchange, lemma13_round_bound, valiant_exchange


def random_workload(k, x_per_machine, bits, rng):
    """``(src, dst, bits)``: each machine sends x messages to i.u.r. destinations."""
    src = np.repeat(np.arange(k), x_per_machine)
    return src, rng.integers(0, k, size=src.size), np.full(src.size, bits)


def to_sink(k, x, bits, senders):
    """``(src, dst, bits)``: every sender sends x messages to machine 0."""
    src = np.repeat(np.asarray(senders), x)
    return src, np.zeros(src.size, dtype=np.int64), np.full(src.size, bits)


class TestDirectExchange:
    def test_charges_every_message(self):
        rng = np.random.default_rng(0)
        k = 6
        net = LinkNetwork(k, bandwidth=16)
        src, dst, bits = random_workload(k, 20, 4, rng)
        assert direct_exchange(net, src, dst, bits) == net.rounds
        remote = src != dst
        assert net.metrics.messages == int(remote.sum())
        assert net.metrics.local_messages == int((~remote).sum())
        assert net.metrics.bits == int(bits[remote].sum())

    def test_delivers_everything(self):
        # Every remote message leaves its source and reaches its destination.
        rng = np.random.default_rng(4)
        k = 5
        net = LinkNetwork(k, bandwidth=16)
        src, dst, bits = random_workload(k, 30, 4, rng)
        direct_exchange(net, src, dst, bits)
        remote = src != dst
        assert np.array_equal(net.metrics.sent_messages,
                              np.bincount(src[remote], minlength=k))
        assert np.array_equal(net.metrics.received_messages,
                              np.bincount(dst[remote], minlength=k))

    def test_rounds_are_the_heaviest_link(self):
        net = LinkNetwork(3, bandwidth=8)
        direct_exchange(net, [0, 0, 0, 2], [1, 1, 2, 2], [5, 6, 7, 99])
        assert net.rounds == 2  # 11 bits on (0, 1); (2, 2) is local

    def test_lemma13_envelope_holds_for_random_destinations(self):
        # Measured rounds of a random-destination workload stay below the
        # Lemma-13 O((x log x)/k) envelope.
        rng = np.random.default_rng(1)
        k, x, bits, B = 8, 400, 8, 32
        net = LinkNetwork(k, bandwidth=B)
        direct_exchange(net, *random_workload(k, x, bits, rng))
        assert net.rounds <= max(1.0, 4 * lemma13_round_bound(x, k, bits, B))

    def test_adversarial_destinations_blow_up(self):
        # All messages to one machine: rounds ~ x·bits/B per link, much
        # worse than the random-destination case with the same volume.
        k, x, bits, B = 8, 400, 8, 32
        net_bad = LinkNetwork(k, bandwidth=B)
        direct_exchange(net_bad, *to_sink(k, x, bits, range(1, k)))
        rng = np.random.default_rng(2)
        net_rand = LinkNetwork(k, bandwidth=B)
        direct_exchange(net_rand, *random_workload(k, x, bits, rng))
        assert net_bad.rounds > 3 * net_rand.rounds

    @pytest.mark.parametrize("src, dst, bits, match", [
        ([0], [3], [4], "out of range"),
        ([-1], [0], [4], "out of range"),
        ([0], [1], [0], "positive"),
        ([0, 1], [1], [4], "one length"),
    ])
    def test_rejects_malformed_traffic(self, src, dst, bits, match):
        net = LinkNetwork(3, bandwidth=8)
        with pytest.raises(ModelError, match=match):
            direct_exchange(net, src, dst, bits)
        assert net.metrics.phases == 0


class TestValiantExchange:
    def test_is_two_direct_hops_through_drawn_intermediates(self):
        k = 5
        src = np.repeat(np.arange(k), 10)
        dst = (src + 1 + np.tile(np.arange(10), k)) % k
        bits = np.full(src.size, 4)
        net = LinkNetwork(k, bandwidth=64)
        rounds = valiant_exchange(net, src, dst, bits, rng=np.random.default_rng(3))
        mid = np.random.default_rng(3).integers(0, k, size=src.size)
        ref = LinkNetwork(k, bandwidth=64)
        assert rounds == (direct_exchange(ref, src, mid, bits, label="valiant/hop1")
                          + direct_exchange(ref, mid, dst, bits, label="valiant/hop2"))
        assert net.metrics.as_dict() == ref.metrics.as_dict()

    def test_delivers_to_final_destinations(self):
        # All traffic aims at machine 0 from elsewhere: whichever hop lands
        # a message on 0 (hop 1 if 0 was drawn as its intermediate, else
        # hop 2), it arrives there exactly once.
        k, x = 6, 40
        net = LinkNetwork(k, bandwidth=64)
        valiant_exchange(net, *to_sink(k, x, 4, range(1, k)), rng=np.random.default_rng(7))
        assert net.metrics.received_messages[0] == x * (k - 1)
        hop2 = net.metrics.phase_log[-1]
        assert hop2.max_machine_received == hop2.messages < x * (k - 1)

    def test_costs_two_phases(self):
        net = LinkNetwork(3, bandwidth=64)
        valiant_exchange(net, [0], [2], [4], rng=np.random.default_rng(5))
        assert [p.label for p in net.metrics.phase_log] == ["valiant/hop1", "valiant/hop2"]

    def test_balances_adversarial_single_sink(self):
        # With all traffic aimed at one machine, Valiant's first hop
        # spreads the *send* load; receive load at the sink still binds,
        # but per-source-link load drops to ~x/k.
        k, x, bits, B = 8, 200, 8, 8
        flow = to_sink(k, x, bits, [1])
        net = LinkNetwork(k, bandwidth=B)
        valiant_exchange(net, *flow, rng=np.random.default_rng(6))
        direct = LinkNetwork(k, bandwidth=B)
        direct_exchange(direct, *flow)
        # Direct: the single (1, 0) link carries everything.
        assert direct.rounds == x * bits // B
        # Valiant: hop 1 spreads over k links; hop 2 converges on the sink
        # but from k different sources.
        assert net.rounds < direct.rounds


class TestLemma13Bound:
    def test_zero_messages(self):
        assert lemma13_round_bound(0, 8, 8, 32) == 0.0

    def test_monotone_in_x(self):
        values = [lemma13_round_bound(x, 8, 8, 32) for x in (10, 100, 1000)]
        assert values[0] < values[1] < values[2]

    def test_inverse_in_k(self):
        assert lemma13_round_bound(100, 16, 8, 32) < lemma13_round_bound(100, 4, 8, 32)
