"""Unit tests for round/message/bit accounting."""

import dataclasses

import numpy as np
import pytest

from repro.kmachine.metrics import Metrics, unit_load_matrix


def mats(k, entries):
    """Build (bits, msgs) matrices from {(i, j): (bits, msgs)}."""
    bits = np.zeros((k, k), dtype=np.int64)
    msgs = np.zeros((k, k), dtype=np.int64)
    for (i, j), (b, m) in entries.items():
        bits[i, j] = b
        msgs[i, j] = m
    return bits, msgs


class TestRecordPhase:
    def test_round_is_ceiling_of_max_link(self):
        met = Metrics(k=3, bandwidth=10)
        bits, msgs = mats(3, {(0, 1): (25, 5), (1, 2): (9, 1)})
        stats = met.record_phase(bits, msgs)
        assert stats.rounds == 3  # ceil(25/10)
        assert met.rounds == 3

    def test_exact_multiple_of_bandwidth(self):
        met = Metrics(k=2, bandwidth=10)
        bits, msgs = mats(2, {(0, 1): (30, 1)})
        assert met.record_phase(bits, msgs).rounds == 3

    def test_empty_phase_costs_zero(self):
        met = Metrics(k=2, bandwidth=10)
        bits, msgs = mats(2, {})
        assert met.record_phase(bits, msgs).rounds == 0
        assert met.phases == 1

    def test_totals_accumulate(self):
        met = Metrics(k=3, bandwidth=8)
        bits, msgs = mats(3, {(0, 1): (16, 2), (2, 0): (8, 1)})
        met.record_phase(bits, msgs)
        met.record_phase(bits, msgs)
        assert met.rounds == 4 and met.messages == 6 and met.bits == 48
        assert met.phases == 2

    def test_per_machine_aggregates(self):
        met = Metrics(k=3, bandwidth=8)
        bits, msgs = mats(3, {(0, 1): (16, 2), (0, 2): (8, 3), (1, 2): (8, 1)})
        met.record_phase(bits, msgs)
        assert met.sent_messages.tolist() == [5, 1, 0]
        assert met.received_messages.tolist() == [0, 2, 4]
        assert int(met.sent_messages.max()) == 5
        assert met.max_machine_received == 4

    def test_phase_stats_machine_extremes(self):
        met = Metrics(k=3, bandwidth=8)
        bits, msgs = mats(3, {(0, 1): (16, 2), (0, 2): (8, 3)})
        stats = met.record_phase(bits, msgs)
        assert stats.max_machine_sent == 5
        assert stats.max_machine_received == 3
        assert stats.max_link_bits == 16

    def test_rejects_diagonal_load(self):
        met = Metrics(k=2, bandwidth=8)
        bits = np.zeros((2, 2), dtype=np.int64)
        bits[0, 0] = 4
        with pytest.raises(ValueError, match="diagonal"):
            met.record_phase(bits, np.zeros((2, 2), dtype=np.int64))

    def test_rejects_wrong_shape(self):
        met = Metrics(k=3, bandwidth=8)
        with pytest.raises(ValueError, match="shape"):
            met.record_phase(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_rejects_negative_load(self):
        met = Metrics(k=2, bandwidth=8)
        bits = np.zeros((2, 2), dtype=np.int64)
        bits[0, 1] = -1
        with pytest.raises(ValueError, match="non-negative"):
            met.record_phase(bits, np.zeros((2, 2), dtype=np.int64))

    def test_local_messages_counted_separately(self):
        met = Metrics(k=2, bandwidth=8)
        bits, msgs = mats(2, {})
        met.record_phase(bits, msgs, local_messages=7)
        assert met.local_messages == 7
        assert met.messages == 0


class TestConsistency:
    def test_check_conservation_passes(self):
        met = Metrics(k=3, bandwidth=8)
        bits, msgs = mats(3, {(0, 1): (16, 2), (1, 2): (8, 1)})
        met.record_phase(bits, msgs)
        met.check_conservation()

    def test_check_conservation_catches_dropped_phase(self):
        met = Metrics(k=2, bandwidth=8)
        bits, msgs = mats(2, {(0, 1): (8, 1)})
        met.record_phase(bits, msgs)
        met.record_phase(bits, msgs)
        met.phase_log.pop()  # a buggy accounting path that loses phase entries
        with pytest.raises(AssertionError, match="phase"):
            met.check_conservation()

    def test_check_conservation_catches_corrupt_machine_arrays(self):
        met = Metrics(k=3, bandwidth=8)
        bits, msgs = mats(3, {(0, 1): (8, 1)})
        met.record_phase(bits, msgs)
        met.sent_messages = met.sent_messages[:2]  # wrong shape after a bad merge
        with pytest.raises(AssertionError, match="shape"):
            met.check_conservation()
        met = Metrics(k=3, bandwidth=8)
        met.record_phase(bits, msgs)
        met.received_bits[1] = -4
        with pytest.raises(AssertionError, match="negative"):
            met.check_conservation()

    @pytest.mark.parametrize("corrupt, match", [
        (lambda m: setattr(m, "received_bits", m.received_bits[:2]),
         r"received_bits must have shape \(3,\)"),
        (lambda m: m.sent_messages.__setitem__(2, -1), "sent_messages has negative"),
        (lambda m: m.sent_messages.__setitem__(0, m.sent_messages[0] + 1),
         "sent message totals"),
        (lambda m: m.received_messages.__setitem__(1, m.received_messages[1] + 1),
         "received message totals"),
        (lambda m: m.sent_bits.__setitem__(0, m.sent_bits[0] + 8), "bit totals"),
        (lambda m: m.received_bits.__setitem__(2, m.received_bits[2] + 8), "bit totals"),
        (lambda m: setattr(m, "phases", m.phases + 1), "phase count"),
        (lambda m: setattr(m, "rounds", m.rounds + 1), "round total"),
        (lambda m: m.phase_log.__setitem__(0, dataclasses.replace(
            m.phase_log[0], messages=m.phase_log[0].messages + 1)), "message total"),
        (lambda m: m.phase_log.__setitem__(1, dataclasses.replace(
            m.phase_log[1], bits=m.phase_log[1].bits - 8)), "bit total does not match"),
    ], ids=["shape", "negative", "sent-messages", "received-messages", "sent-bits",
            "received-bits", "phase-count", "round-total", "phase-log-messages",
            "phase-log-bits"])
    def test_check_conservation_names_each_fault(self, corrupt, match):
        met = Metrics(k=3, bandwidth=8)
        met.record_phase(*mats(3, {(0, 1): (16, 2), (1, 2): (8, 1)}))
        met.record_phase(*mats(3, {(2, 0): (24, 3)}))
        met.check_conservation()
        corrupt(met)
        with pytest.raises(AssertionError, match=match):
            met.check_conservation()

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            Metrics(k=1, bandwidth=8)
        with pytest.raises(ValueError):
            Metrics(k=2, bandwidth=0)


class TestUnitLoadMatrix:
    @staticmethod
    def masked_add_at(src, dst, k):
        """The idiom the helper replaced: remote mask + scatter-add."""
        msgs = np.zeros((k, k), dtype=np.int64)
        remote = src != dst
        np.add.at(msgs, (src[remote], dst[remote]), 1)
        return msgs, int((~remote).sum())

    @pytest.mark.parametrize("k,count,seed", [(2, 0, 0), (3, 1, 1), (4, 50, 2), (16, 5000, 3)])
    def test_matches_masked_scatter_add(self, k, count, seed):
        rng = np.random.default_rng(seed)
        src, dst = rng.integers(0, k, count), rng.integers(0, k, count)
        msgs, local = unit_load_matrix(src, dst, k)
        expected, expected_local = self.masked_add_at(src, dst, k)
        assert msgs.dtype == np.int64 and msgs.shape == (k, k)
        assert np.array_equal(msgs, expected)
        assert local == expected_local

    def test_result_is_accepted_by_record_phase(self):
        src, dst = np.array([0, 1, 1, 2, 2]), np.array([1, 1, 0, 2, 0])
        msgs, local = unit_load_matrix(src, dst, 3)
        m = Metrics(k=3, bandwidth=8)
        stats = m.record_phase(msgs * 5, msgs, local_messages=local)
        assert (stats.messages, stats.bits, m.local_messages) == (3, 15, 2)
