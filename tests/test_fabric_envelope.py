"""Verified (envelope) fabric: sealing, detection, and idempotent healing.

These tests drive the fabric directly from one thread -- ``post_send``
never blocks, so post-then-receive sequences exercise the full verified
path without launcher machinery.
"""

import numpy as np
import pytest

from repro.exchange.envelope import Envelope, checksum, seal, verify
from repro.faults import FaultInjector, FaultPlan
from repro.simmpi.fabric import (
    ExchangeIntegrityError,
    ExchangeTimeoutError,
    SimFabric,
)


def _payload(n=16, seed=0):
    return np.random.default_rng(seed).random(n)


class TestEnvelopeHelpers:
    def test_checksum_is_content_hash(self):
        a = _payload(seed=1)
        assert checksum(a) == checksum(a.copy())
        b = a.copy()
        b[3] += 1.0
        assert checksum(a) != checksum(b)

    def test_checksum_noncontiguous(self):
        a = np.arange(20.0)
        assert checksum(a[::2]) == checksum(np.ascontiguousarray(a[::2]))

    def test_seal_verify_round_trip(self):
        buf = _payload()
        env = seal(buf, seq=3)
        assert env == Envelope(seq=3, crc=checksum(buf), nbytes=buf.nbytes)
        verify(env, buf, expected_seq=3, edge=(0, 1, 42))  # no raise

    def test_verify_detects_corruption(self):
        buf = _payload()
        env = seal(buf, seq=1)
        buf.reshape(-1).view(np.uint8)[5] ^= 0x10
        with pytest.raises(ExchangeIntegrityError, match="checksum"):
            verify(env, buf, expected_seq=1, edge=(0, 1, 42))

    def test_verify_detects_sequence_gap(self):
        buf = _payload()
        env = seal(buf, seq=5)
        with pytest.raises(ExchangeIntegrityError, match="sequence"):
            verify(env, buf, expected_seq=4, edge=(0, 1, 42))


class TestVerifiedDelivery:
    def test_clean_delivery_matches_plain(self):
        data = _payload(seed=7)
        out_plain = np.zeros_like(data)
        out_verified = np.zeros_like(data)

        plain = SimFabric(2)
        plain.post_send(0, 1, 42, data)
        plain.complete_recv(0, 1, 42, out_plain)

        fab = SimFabric(2)
        fab.enable_envelope()
        fab.post_send(0, 1, 42, data)
        fab.complete_recv(0, 1, 42, out_verified)

        np.testing.assert_array_equal(out_plain, data)
        np.testing.assert_array_equal(out_verified, data)
        assert plain.stats[0].bytes_sent == fab.stats[0].bytes_sent
        assert plain.stats[1].recvs == fab.stats[1].recvs == 1

    def test_payload_frozen_at_post_time(self):
        fab = SimFabric(2)
        fab.enable_envelope()
        data = _payload(seed=2)
        expect = data.copy()
        fab.post_send(0, 1, 1, data)
        data[:] = -1.0  # mutate after post, before delivery
        out = np.zeros_like(expect)
        fab.complete_recv(0, 1, 1, out)
        np.testing.assert_array_equal(out, expect)

    def test_sequence_numbers_advance_per_edge(self):
        fab = SimFabric(2)
        fab.enable_envelope()
        out = np.zeros(4)
        for _ in range(3):
            fab.post_send(0, 1, 9, _payload(4))
            fab.complete_recv(0, 1, 9, out)  # seq 1, 2, 3 all accepted
        assert fab._guard.delivered[(0, 1, 9)] == 3

    def test_injected_corruption_detected_and_healed(self):
        plan = FaultPlan(seed=1, corrupt=1.0)
        injector = FaultInjector(plan)
        fab = SimFabric(2)
        fab.enable_envelope(injector)
        fab.set_epoch(0, 0)
        fab.set_epoch(1, 0)

        data = _payload(seed=3)
        fab.post_send(0, 1, 5, data)
        out = np.zeros_like(data)
        with pytest.raises(ExchangeIntegrityError, match="checksum"):
            fab.complete_recv(0, 1, 5, out)
        # The pristine retransmit is already queued: one retry heals.
        fab.complete_recv(0, 1, 5, out)
        np.testing.assert_array_equal(out, data)
        counts = injector.event_counts()
        assert counts["injected_corrupt"] == 1
        assert counts["retransmit"] == 1

    def test_injected_drop_raises_timeout_then_heals(self):
        plan = FaultPlan(seed=1, drop=1.0)
        injector = FaultInjector(plan)
        fab = SimFabric(2)
        fab.enable_envelope(injector)
        fab.set_epoch(0, 0)
        fab.set_epoch(1, 0)

        data = _payload(seed=4)
        fab.post_send(0, 1, 5, data)
        out = np.zeros_like(data)
        with pytest.raises(ExchangeTimeoutError, match="lost"):
            fab.complete_recv(0, 1, 5, out)
        fab.complete_recv(0, 1, 5, out)
        np.testing.assert_array_equal(out, data)
        assert injector.event_counts()["retransmit"] == 1

    def test_injected_duplicate_discarded(self):
        plan = FaultPlan(seed=1, duplicate=1.0)
        injector = FaultInjector(plan)
        fab = SimFabric(2)
        fab.enable_envelope(injector)
        fab.set_epoch(0, 0)
        fab.set_epoch(1, 0)

        data = _payload(seed=5)
        fab.post_send(0, 1, 5, data)
        out = np.zeros_like(data)
        fab.complete_recv(0, 1, 5, out)  # delivers seq 1, dup still queued
        np.testing.assert_array_equal(out, data)

        # Next epoch: the stale duplicate (seq 1 <= delivered) must be
        # skipped in favor of the fresh seq-2 message.
        fab.set_epoch(0, 1)
        fab.set_epoch(1, 1)
        fresh = _payload(seed=6)
        fab.post_send(0, 1, 5, fresh)
        out2 = np.zeros_like(fresh)
        fab.complete_recv(0, 1, 5, out2)
        np.testing.assert_array_equal(out2, fresh)
        assert injector.event_counts()["duplicate_discarded"] >= 1

    def test_repost_within_epoch_suppressed(self):
        injector = FaultInjector(FaultPlan())
        fab = SimFabric(2)
        fab.enable_envelope(injector)
        fab.set_epoch(0, 7)
        data = _payload(seed=8)
        fab.post_send(0, 1, 3, data)
        entry = fab.post_send(0, 1, 3, data)  # retry re-post, same epoch
        assert entry.done  # absorbed, completes immediately
        assert fab.pending_messages == 1  # only the original on the wire
        assert injector.event_counts()["resend_suppressed"] == 1

        fab.set_epoch(0, 8)  # new epoch: posts flow again
        fab.post_send(0, 1, 3, data)
        assert fab.pending_messages == 2

    def test_replay_serves_redelivered_recv(self):
        injector = FaultInjector(FaultPlan())
        fab = SimFabric(2)
        fab.enable_envelope(injector)
        fab.set_epoch(0, 0)
        fab.set_epoch(1, 0)
        data = _payload(seed=9)
        fab.post_send(0, 1, 3, data)
        out = np.zeros_like(data)
        fab.complete_recv(0, 1, 3, out)

        # Retry of the same exchange re-receives: served from the cache
        # even though the queue is empty.
        out2 = np.zeros_like(data)
        fab.complete_recv(0, 1, 3, out2)
        np.testing.assert_array_equal(out2, data)
        assert injector.event_counts()["replayed"] == 1

    def test_replay_does_not_steal_next_epoch_message(self):
        fab = SimFabric(2)
        fab.enable_envelope()
        data0, data1 = _payload(seed=10), _payload(seed=11)
        fab.set_epoch(0, 0)
        fab.set_epoch(1, 0)
        out = np.zeros_like(data0)
        fab.post_send(0, 1, 3, data0)
        fab.complete_recv(0, 1, 3, out)

        # Sender races ahead to epoch 1 while the receiver retries epoch 0.
        fab.set_epoch(0, 1)
        fab.post_send(0, 1, 3, data1)

        retry = np.zeros_like(data0)
        fab.complete_recv(0, 1, 3, retry)  # receiver still in epoch 0
        np.testing.assert_array_equal(retry, data0)  # replay, not data1

        fab.set_epoch(1, 1)
        nxt = np.zeros_like(data1)
        fab.complete_recv(0, 1, 3, nxt)
        np.testing.assert_array_equal(nxt, data1)

    def test_stats_counted_once_despite_retry(self):
        plan = FaultPlan(seed=1, corrupt=1.0)
        fab = SimFabric(2)
        fab.enable_envelope(FaultInjector(plan))
        fab.set_epoch(0, 0)
        fab.set_epoch(1, 0)
        data = _payload()
        fab.post_send(0, 1, 5, data)
        out = np.zeros_like(data)
        with pytest.raises(ExchangeIntegrityError):
            fab.complete_recv(0, 1, 5, out)
        fab.complete_recv(0, 1, 5, out)
        # One logical message: modelled counters see exactly one send and
        # one receive regardless of the wire-level retry.
        assert fab.stats[0].sends == 1
        assert fab.stats[1].recvs == 1
        assert fab.stats[0].bytes_sent == data.nbytes
        assert fab.stats[1].bytes_received == data.nbytes

    def test_collective_traffic_not_faulted(self):
        # Epoch None (collectives/control): injection must not touch it
        # even under a certain-fault plan.
        plan = FaultPlan(seed=1, corrupt=1.0)
        fab = SimFabric(2)
        fab.enable_envelope(FaultInjector(plan))
        data = _payload(seed=12)
        fab.post_send(0, 1, 5, data)
        out = np.zeros_like(data)
        fab.complete_recv(0, 1, 5, out)  # no raise
        np.testing.assert_array_equal(out, data)
