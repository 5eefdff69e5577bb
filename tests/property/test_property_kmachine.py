"""Property-based tests for the k-machine substrate (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro._util import bits_for, bits_for_count, iroot
from repro.kmachine.message import Message
from repro.kmachine.network import LinkNetwork
from repro.kmachine.partition import random_vertex_partition


@st.composite
def workloads(draw):
    """A small random message workload with valid sources."""
    k = draw(st.integers(2, 6))
    n_msgs = draw(st.integers(0, 40))
    msgs = []
    for _ in range(n_msgs):
        i = draw(st.integers(0, k - 1))
        j = draw(st.integers(0, k - 1))
        bits = draw(st.integers(1, 25))
        msgs.append(Message(src=i, dst=j, kind="w", bits=bits))
    return k, msgs


class TestNetworkProperties:
    @given(workloads(), st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_delivery_conserves_messages(self, workload, bandwidth):
        k, msgs = workload
        net = LinkNetwork(k, bandwidth=bandwidth)
        out = [[] for _ in range(k)]
        for m in msgs:
            out[m.src].append(m)
        inboxes = net.exchange(out)
        assert sum(len(b) for b in inboxes) == len(msgs)
        net.metrics.check_conservation()

    @given(workloads(), st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_rounds_lower_bounded_by_total_bits(self, workload, bandwidth):
        # Rounds >= total remote bits / (B * k * (k-1)): the network cannot
        # move more than B bits per link per round.
        k, msgs = workload
        net = LinkNetwork(k, bandwidth=bandwidth)
        out = [[] for _ in range(k)]
        for m in msgs:
            out[m.src].append(m)
        net.exchange(out)
        remote_bits = sum(m.bits for m in msgs if not m.is_local)
        assert net.rounds * bandwidth * k * (k - 1) >= remote_bits

    @given(workloads(), st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_phase_charge_is_heaviest_link_ceiling(self, workload, bandwidth):
        # The charge is exactly max_ij ceil(L_ij / B) over remote links.
        k, msgs = workload
        loads = {}
        for m in msgs:
            if m.src != m.dst:
                loads[m.src, m.dst] = loads.get((m.src, m.dst), 0) + m.bits
        net = LinkNetwork(k, bandwidth=bandwidth)
        net.exchange([[m for m in msgs if m.src == i] for i in range(k)])
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
