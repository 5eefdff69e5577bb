"""Property-based tests for the k-machine substrate (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro._util import bits_for, bits_for_count, iroot
from repro.kmachine.engine import MessageBatch, VectorEngine
from repro.kmachine.network import LinkNetwork
from repro.kmachine.partition import random_vertex_partition
from repro.kmachine.routing import direct_exchange


@st.composite
def workloads(draw):
    """A small random message workload: ``(k, src, dst, bits)`` lists."""
    k = draw(st.integers(2, 6))
    n_msgs = draw(st.integers(0, 40))
    machine = st.integers(0, k - 1)
    src = draw(st.lists(machine, min_size=n_msgs, max_size=n_msgs))
    dst = draw(st.lists(machine, min_size=n_msgs, max_size=n_msgs))
    bits = draw(st.lists(st.integers(1, 25), min_size=n_msgs, max_size=n_msgs))
    return k, src, dst, bits


class TestNetworkProperties:
    @given(workloads(), st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_delivery_conserves_messages(self, workload, bandwidth):
        # A batch exchange hands every row, payload and all, to its
        # destination exactly once.
        k, src, dst, bits = workload
        net = LinkNetwork(k, bandwidth=bandwidth)
        batch = MessageBatch("w", src=src, dst=dst, bits=bits,
                             columns={"u": list(range(len(src)))})
        (delivered,) = VectorEngine(net).exchange_batches([batch])
        received = sorted(
            (int(s), j, int(u))
            for j in range(k)
            for s, u in zip(delivered.src[delivered.machine_slice(j)],
                            delivered.for_machine(j)["u"])
        )
        assert received == sorted(zip(src, dst, range(len(src))))
        net.metrics.check_conservation()

    @given(workloads(), st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_every_message_is_charged_once(self, workload, bandwidth):
        k, src, dst, bits = workload
        net = LinkNetwork(k, bandwidth=bandwidth)
        direct_exchange(net, src, dst, bits)
        assert net.metrics.messages + net.metrics.local_messages == len(src)
        net.metrics.check_conservation()

    @given(workloads(), st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_rounds_lower_bounded_by_total_bits(self, workload, bandwidth):
        # Rounds >= total remote bits / (B * k * (k-1)): the network cannot
        # move more than B bits per link per round.
        k, src, dst, bits = workload
        net = LinkNetwork(k, bandwidth=bandwidth)
        direct_exchange(net, src, dst, bits)
        remote_bits = sum(b for s, d, b in zip(src, dst, bits) if s != d)
        assert net.rounds * bandwidth * k * (k - 1) >= remote_bits

    @given(workloads(), st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_phase_charge_is_heaviest_link_ceiling(self, workload, bandwidth):
        # The charge is exactly max_ij ceil(L_ij / B) over remote links.
        k, src, dst, bits = workload
        loads = {}
        for s, d, b in zip(src, dst, bits):
            if s != d:
                loads[s, d] = loads.get((s, d), 0) + b
        net = LinkNetwork(k, bandwidth=bandwidth)
        direct_exchange(net, src, dst, bits)
        assert net.rounds == max((-(-b // bandwidth) for b in loads.values()), default=0)

    @given(st.integers(1, 500), st.integers(2, 12), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_partition_covers_everything(self, n, k, seed):
        p = random_vertex_partition(n, k, seed=seed)
        counts = p.counts()
        assert counts.sum() == n
        assert counts.size == k


class TestUtilProperties:
    @given(st.integers(2, 10**9))
    def test_bits_for_addresses_all_values(self, n):
        b = bits_for(n)
        assert 2**b >= n
        assert 2 ** (b - 1) < n

    @given(st.integers(0, 10**9))
    def test_bits_for_count_covers_range(self, c):
        b = bits_for_count(c)
        assert 2**b >= c + 1

    @given(st.integers(0, 10**12), st.integers(2, 6))
    def test_iroot_definition(self, n, r):
        x = iroot(n, r)
        assert x**r <= n < (x + 1) ** r
