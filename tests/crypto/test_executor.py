"""The pluggable crypto execution plane: serial vs pooled.

Covers the :class:`WorkerClock` schedule model, serial/pool primitive
equivalence (same values, same verdicts), pool warmup and late
registration, coordinator session pipelining (prefetch, backpressure),
and the OptTE subset-assembly property: every share multiset of size
at most ``2t+1`` containing ``t+1`` distinct honest shares yields the
unique valid signature — under both executors.
"""

import itertools

import pytest

from repro.crypto.executor import (
    CryptoWorkerPool,
    PoolExecutor,
    SerialExecutor,
    WorkerClock,
)
from repro.crypto.protocols import PROTOCOL_BASIC, SigningCoordinator
from repro.crypto.rsa import generate_rsa_keypair
from repro.crypto.shoup import SignatureShare
from repro.errors import ConfigError

MESSAGE = b"sig-target: pooled.example.com. A 192.0.2.77"


def _invert(share, modulus):
    """A plausibly-shaped but invalid share (same corruption as the
    signing-protocol tests)."""
    width = modulus.bit_length()
    return SignatureShare(
        index=share.index,
        value=(share.value ^ ((1 << width) - 1)) % modulus,
        proof=share.proof,
    )


@pytest.fixture(scope="module")
def auth_pair():
    return generate_rsa_keypair(512)


@pytest.fixture(scope="module")
def plane(threshold_4_1, auth_pair):
    """A two-worker pool plane with every owner registered before warmup."""
    public, shares = threshold_4_1
    with CryptoWorkerPool(2) as pool:
        executors = [
            PoolExecutor(
                pool,
                f"replica{i}",
                key_share=shares[i],
                auth_key=auth_pair.private,
            )
            for i in range(4)
        ]
        client = PoolExecutor(pool, "client")
        yield pool, executors, client


class TestWorkerClock:
    def test_needs_at_least_one_worker(self):
        with pytest.raises(ConfigError):
            WorkerClock(0)

    def test_greedy_schedule_and_makespan(self):
        clock = WorkerClock(2)
        assert clock.background(1.0) == 1.0
        assert clock.background(2.0) == 2.0  # second (idle) worker
        assert clock.background(3.0) == 4.0  # stacks on the 1.0 worker
        assert clock.makespan == 4.0
        assert clock.main == 0.0  # background work never blocks the main thread
        assert clock.busy == 6.0
        assert clock.jobs == 3

    def test_run_blocks_main_thread(self):
        clock = WorkerClock(2)
        clock.background(2.0)
        clock.run(1.0)  # lands on the idle worker, main waits for it
        assert clock.main == 1.0
        clock.run(1.0)  # that worker is free again at 1.0, runs 1.0-2.0
        assert clock.main == 2.0
        assert clock.makespan == 2.0

    def test_wait_until_synchronizes(self):
        clock = WorkerClock(2)
        done = clock.background(5.0)
        clock.wait_until(done)
        assert clock.main == 5.0
        clock.wait_until(1.0)  # waiting for the past is a no-op
        assert clock.main == 5.0

    def test_single_worker_serializes(self):
        clock = WorkerClock(1)
        clock.run(1.0)
        clock.run(2.0)
        assert clock.main == 3.0
        assert clock.makespan == 3.0


class TestPrimitiveEquivalence:
    """Pool and serial executors compute identical values and verdicts."""

    def test_share_values_match(self, threshold_4_1, plane):
        public, shares = threshold_4_1
        _, executors, _ = plane
        serial = SerialExecutor(shares[0])
        assert serial.generate_share(MESSAGE) == executors[0].generate_share(MESSAGE)

    def test_share_with_proof_verifies_under_both(self, threshold_4_1, plane):
        public, shares = threshold_4_1
        _, executors, _ = plane
        serial = SerialExecutor(shares[1])
        pooled_share = executors[1].generate_share(MESSAGE, with_proof=True)
        serial_share = serial.generate_share(MESSAGE, with_proof=True)
        # Fiat-Shamir nonces differ, the share values cannot.
        assert pooled_share.value == serial_share.value
        assert pooled_share.proof is not None
        assert serial.verify_shares(MESSAGE, [pooled_share]) == [True]
        assert executors[0].verify_shares(MESSAGE, [serial_share]) == [True]

    def test_verify_shares_verdicts_match(self, threshold_4_1, plane):
        public, shares = threshold_4_1
        _, executors, _ = plane
        serial = SerialExecutor(shares[0])
        good = [s.generate_share_with_proof(MESSAGE) for s in shares[:2]]
        bad = _invert(shares[2].generate_share_with_proof(MESSAGE), public.modulus)
        batch = [good[0], bad, good[1]]
        expected = [True, False, True]
        assert serial.verify_shares(MESSAGE, batch) == expected
        assert executors[0].verify_shares(MESSAGE, batch) == expected

    def test_assembled_signatures_identical(self, threshold_4_1, plane):
        public, shares = threshold_4_1
        _, executors, _ = plane
        serial = SerialExecutor(shares[0])
        batch = [s.generate_share(MESSAGE) for s in shares[:2]]
        sig_serial = serial.assemble(MESSAGE, batch)
        sig_pooled = executors[0].assemble(MESSAGE, batch)
        assert sig_serial is not None
        assert sig_serial == sig_pooled
        assert serial.verify_signature(MESSAGE, sig_serial)
        assert executors[0].verify_signature(MESSAGE, sig_serial)

    def test_assemble_candidates_same_winner(self, threshold_4_1, plane):
        public, shares = threshold_4_1
        _, executors, _ = plane
        serial = SerialExecutor(shares[0])
        good = [s.generate_share(MESSAGE) for s in shares[:3]]
        bad = _invert(shares[3].generate_share(MESSAGE), public.modulus)
        subsets = [
            [good[0], bad],       # assembles but fails the signature check
            [bad, good[1]],       # same
            [good[0], good[1]],   # first valid candidate: the winner
            [good[1], good[2]],   # also valid, but later in order
        ]
        res_serial = serial.assemble_candidates(MESSAGE, subsets)
        res_pooled = executors[0].assemble_candidates(MESSAGE, subsets)
        assert res_serial.winner == res_pooled.winner == 2
        assert res_serial.signature == res_pooled.signature
        assert serial.verify_signature(MESSAGE, res_pooled.signature)
        # A pooled lane evaluates its whole chunk; it may assemble *more*
        # candidates than the serial early exit, never fewer.
        assert res_pooled.assembled >= res_serial.assembled

    def test_wave_cancellation_counts_speculative_lanes(
        self, threshold_4_1, plane
    ):
        public, shares = threshold_4_1
        _, executors, _ = plane
        executor = executors[0]
        before = executor.stats["cancelled_trials"]
        good = [s.generate_share(MESSAGE) for s in shares[:3]]
        subsets = [
            [good[0], good[1]],
            [good[0], good[2]],
            [good[1], good[2]],
        ]
        result = executor.assemble_candidates(MESSAGE, subsets)
        # All candidates are valid, so the earliest subset wins...
        assert result.winner == 0
        # ...and on the width-2 pool the speculative second wave (one
        # lane holding the third candidate) is cancelled and counted.
        assert executor.stats["cancelled_trials"] - before == 1

    def test_serial_plane_never_cancels(self, threshold_4_1):
        public, shares = threshold_4_1
        serial = SerialExecutor(shares[0])
        good = [s.generate_share(MESSAGE) for s in shares[:3]]
        serial.assemble_candidates(
            MESSAGE, [[good[0], good[1]], [good[1], good[2]]]
        )
        assert serial.stats["cancelled_trials"] == 0

    def test_assemble_candidates_empty_and_single(self, threshold_4_1, plane):
        public, shares = threshold_4_1
        _, executors, _ = plane
        empty = executors[0].assemble_candidates(MESSAGE, [])
        assert empty.winner is None and empty.assembled == 0
        single = executors[0].assemble_candidates(
            MESSAGE, [[s.generate_share(MESSAGE) for s in shares[:2]]]
        )
        assert single.winner == 0
        assert single.signature is not None

    def test_rsa_sign_and_verify_match(self, threshold_4_1, auth_pair, plane):
        public, shares = threshold_4_1
        _, executors, client = plane
        serial = SerialExecutor(shares[0], auth_key=auth_pair.private)
        sig_serial = serial.rsa_sign(MESSAGE)
        sig_pooled = executors[0].rsa_sign(MESSAGE)
        assert sig_serial == sig_pooled
        items = [
            (auth_pair.public, MESSAGE, sig_pooled),
            # flip, not overwrite: 1 random signature in 256 already ends in 0x00
            (auth_pair.public, MESSAGE, sig_pooled[:-1] + bytes([sig_pooled[-1] ^ 0xFF])),
        ]
        assert serial.rsa_verify_many(items) == [True, False]
        assert executors[0].rsa_verify_many(items) == [True, False]
        assert executors[0].rsa_verify_many([]) == []
        # The client executor carries no key material: verification-only.
        assert client.rsa_verify(auth_pair.public, MESSAGE, sig_pooled)

    def test_missing_material_raises(self, plane):
        _, _, client = plane
        with pytest.raises(ConfigError):
            client.generate_share(MESSAGE)
        with pytest.raises(ConfigError):
            client.rsa_sign(MESSAGE)

    def test_batching_preference(self, threshold_4_1, plane):
        public, shares = threshold_4_1
        _, executors, _ = plane
        assert not SerialExecutor(shares[0]).prefers_batching
        assert executors[0].prefers_batching


class TestPoolLifecycle:
    def test_warmup_then_late_registration(self, threshold_4_1, auth_pair):
        public, shares = threshold_4_1
        with CryptoWorkerPool(2) as pool:
            early = PoolExecutor(pool, "early", key_share=shares[0])
            assert not pool.started
            share = early.generate_share(MESSAGE)  # first job starts the pool
            assert pool.started
            # Warm owners ship no per-job blob: material went with warmup.
            assert pool.material_blob("early") is None
            # Late registration works, paying an inline blob per job.
            late = PoolExecutor(pool, "late", key_share=shares[1])
            assert pool.material_blob("late") is not None
            late_share = late.generate_share(MESSAGE)
            sig = early.assemble(MESSAGE, [share, late_share])
            assert sig is not None
            assert early.verify_signature(MESSAGE, sig)

    def test_amortized_batch_stats(self, threshold_4_1):
        public, shares = threshold_4_1
        with CryptoWorkerPool(2) as pool:
            executor = PoolExecutor(pool, "solo", key_share=shares[0])
            batch = [s.generate_share_with_proof(MESSAGE) for s in shares[:3]]
            executor.verify_shares(MESSAGE, batch)
            # One pool task checked the whole batch.
            assert executor.stats["batch_jobs"] == 1
            assert executor.stats["batched_items"] == 3

    def test_pool_requires_a_worker(self):
        with pytest.raises(ConfigError):
            CryptoWorkerPool(0)


class TestCoordinatorPipelining:
    def test_prefetch_backpressure_and_consumption(self, threshold_4_1):
        public, shares = threshold_4_1
        coord = SigningCoordinator(PROTOCOL_BASIC, shares[0], lookahead=2)
        assert coord.max_inflight_prefetch == 2  # serial executor: one worker
        assert coord.prefetch("s1", MESSAGE)
        assert coord.prefetch("s2", MESSAGE)
        assert not coord.prefetch("s3", MESSAGE)  # queue full: backpressure
        assert coord.pipeline_stats["prefetched"] == 2
        assert coord.pipeline_stats["dropped"] == 1
        assert not coord.prefetch("s1", MESSAGE)  # duplicate: refused, not counted
        assert coord.pipeline_stats["dropped"] == 1

        coord.sign("s1", MESSAGE)
        assert coord.pipeline_stats["used"] == 1
        # The running session refuses further prefetches.
        assert not coord.prefetch("s1", MESSAGE)

        # A prefetch for a message that changed before the session started
        # is discarded, and the session regenerates on demand.
        coord.sign("s2", b"something else entirely")
        assert coord.pipeline_stats["discarded"] == 1
        assert coord.pipeline_stats["used"] == 1

    def test_prefetched_share_matches_on_demand(self, threshold_4_1):
        public, shares = threshold_4_1
        plain = SigningCoordinator(PROTOCOL_BASIC, shares[0])
        piped = SigningCoordinator(PROTOCOL_BASIC, shares[0], lookahead=2)
        piped.prefetch("s", MESSAGE)
        out_plain = plain.sign("s", MESSAGE)
        out_piped = piped.sign("s", MESSAGE)
        # BASIC broadcasts the proof-carrying share; values must agree
        # (proof nonces are random, so compare the share value itself).
        (dest_a, msg_a), = [o for o in out_plain if o[1].is_share]
        (dest_b, msg_b), = [o for o in out_piped if o[1].is_share]
        assert msg_a.share.value == msg_b.share.value
        assert msg_a.share.index == msg_b.share.index


class TestOptTESubsetProperty:
    """Trial-and-error assembly succeeds for every qualifying multiset."""

    def _qualifying_multisets(self, honest, bad, t):
        # All multisets of size <= 2t+1 drawn from honest + corrupted
        # shares that contain at least t+1 honest shares with distinct
        # signer indices.
        pool = honest + bad
        for size in range(1, 2 * t + 2):
            for combo in itertools.combinations_with_replacement(pool, size):
                distinct_honest = {s.index for s in combo if s in honest}
                if len(distinct_honest) >= t + 1:
                    yield list(combo)

    def test_every_qualifying_multiset_assembles(self, threshold_4_1, plane):
        public, shares = threshold_4_1
        _, executors, _ = plane
        serial = SerialExecutor(shares[0])
        t = public.t
        honest = [s.generate_share(MESSAGE) for s in shares[:3]]
        bad = [
            _invert(shares[3].generate_share(MESSAGE), public.modulus),
            _invert(honest[1], public.modulus),
        ]
        reference = public.assemble(MESSAGE, honest[: t + 1])
        cases = list(self._qualifying_multisets(honest, bad, t))
        assert len(cases) > 10  # the enumeration is not degenerate
        for multiset in cases:
            subsets = [
                list(combo)
                for combo in itertools.combinations(multiset, t + 1)
            ]
            res_serial = serial.assemble_candidates(MESSAGE, subsets)
            res_pooled = executors[0].assemble_candidates(MESSAGE, subsets)
            assert res_serial.winner is not None, multiset
            assert res_pooled.winner == res_serial.winner
            # The e-th root is unique: every winning subset produces THE
            # signature, identical across executors.
            assert res_serial.signature == res_pooled.signature == reference

    def test_insufficient_honest_shares_never_assemble(
        self, threshold_4_1, plane
    ):
        public, shares = threshold_4_1
        _, executors, _ = plane
        serial = SerialExecutor(shares[0])
        t = public.t
        honest = shares[0].generate_share(MESSAGE)
        bad = [
            _invert(s.generate_share(MESSAGE), public.modulus)
            for s in shares[1:3]
        ]
        multiset = [honest] + bad  # only one honest share: below t+1
        subsets = [list(c) for c in itertools.combinations(multiset, t + 1)]
        assert serial.assemble_candidates(MESSAGE, subsets).winner is None
        assert executors[0].assemble_candidates(MESSAGE, subsets).winner is None
