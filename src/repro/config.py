"""Service-level configuration.

Mirrors the Wrapper's configuration file (§4.1): the values of ``n`` and
``t``, the identities of all servers, and which threshold-signature
protocol to use — plus the knobs this reproduction adds for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.broadcast.abc import DISSEMINATION_MODES
from repro.crypto.executor import ALL_EXECUTORS, EXECUTOR_SERIAL
from repro.crypto.protocols import ALL_PROTOCOLS, PROTOCOL_OPTTE
from repro.errors import ConfigError


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration shared by every replica of one replicated zone."""

    n: int
    t: int
    signing_protocol: str = PROTOCOL_OPTTE
    signed_zone: bool = True
    require_tsig: bool = False
    # §3.4 last paragraph: in rarely-updated zones, reads can skip atomic
    # broadcast entirely.  Ablation A1 flips this.
    reads_via_abc: bool = True
    # Ablation A3 (the rejected Reiter–Birman design): threshold-sign every
    # response so unmodified clients get full G1.
    sign_every_response: bool = False
    # Leader-suspicion timeout of the optimistic atomic broadcast (seconds).
    abc_timeout: float = 30.0
    # Client request timeout before retrying the next server (§3.4).
    client_timeout: float = 60.0
    # Request batching (SINTRA-style payload amortization): a gateway
    # buffers up to ``batch_size`` client payloads (flushing early after
    # ``batch_delay`` seconds) and atomic broadcast orders the whole batch
    # in one sequence slot.  ``batch_size=1`` disables batching and keeps
    # the paper's one-payload-per-instance behaviour.
    batch_size: int = 1
    batch_delay: float = 0.02
    # Signed-answer cache: replicas memoize complete response wires (and,
    # with sign_every_response, assembled threshold signatures) keyed by
    # (qname, qtype, zone serial); entries are invalidated when an update
    # executes and bumps the serial.
    answer_cache: bool = True
    # Crypto execution plane: "serial" keeps every bigint operation inline
    # and deterministic (the simulator's default); "pool" fans share
    # generation, proof checks, subset trials, and RSA authenticator work
    # out to ``crypto_workers`` processes that deserialize key material
    # once at warmup.  Both planes are behaviour-preserving: a run yields
    # identical ABC transcripts and signatures under either.
    crypto_executor: str = EXECUTOR_SERIAL
    crypto_workers: int = 4
    # Write-path fan-out: start every signing session of an update at
    # once (the coordinator multiplexes them; the pool plane overlaps
    # their share generation).  Off by default: the serialized
    # session-at-a-time schedule is what reproduces Table 2's add:delete
    # latency shape, so only the write-throughput experiments flip this.
    parallel_update_signing: bool = False
    # Baseline ablation for the write-path benchmark: derive an update's
    # re-sign work from the whole zone (every RRset) instead of the
    # incremental touched-set.  Measures what incremental re-signing buys.
    resign_whole_zone: bool = False
    # Broadcast-plane dissemination mode (DESIGN.md §5i): "full" ships
    # whole payloads in INITIATE and ORDER frames; "digest" strips ORDER
    # frames down to the payload-derived request id (with a pull fallback
    # for withheld payloads); "erasure" additionally replaces the INITIATE
    # fan-out with per-replica Reed-Solomon fragments so no link out of
    # the gateway carries the whole batch.
    broadcast_mode: str = "digest"
    # Payloads below this many bytes skip erasure framing (fragment +
    # Merkle-proof overhead exceeds the payload) and travel full.
    erasure_min_bytes: int = 256
    # Validating resolver tier (DESIGN.md §5g): bounds on the positive
    # (qname, qtype, serial) answer cache and the NXT denial-proof cache
    # fronting the replicated service.
    resolver_positive_cache: int = 4096
    resolver_negative_cache: int = 2048
    # KeyTrap validation budgets: per-response caps on RSA signature
    # checks and (signature, candidate key) trials during validation.
    # Exhaustion yields SERVFAIL instead of unbounded verify work.
    resolver_max_sig_checks: int = 16
    resolver_max_key_trials: int = 8

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError("need at least one server")
        if self.t < 0:
            raise ConfigError("t cannot be negative")
        if self.n > 1 and self.n <= 3 * self.t:
            raise ConfigError(
                f"Byzantine fault tolerance requires n > 3t (got n={self.n}, "
                f"t={self.t})"
            )
        if self.signing_protocol not in ALL_PROTOCOLS:
            raise ConfigError(
                f"unknown signing protocol {self.signing_protocol!r}; "
                f"choose from {ALL_PROTOCOLS}"
            )
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.batch_size > 1 and self.batch_delay <= 0:
            raise ConfigError("batching requires a positive batch_delay")
        if self.crypto_executor not in ALL_EXECUTORS:
            raise ConfigError(
                f"unknown crypto executor {self.crypto_executor!r}; "
                f"choose from {ALL_EXECUTORS}"
            )
        if self.crypto_workers < 1:
            raise ConfigError("crypto_workers must be at least 1")
        if self.broadcast_mode not in DISSEMINATION_MODES:
            raise ConfigError(
                f"unknown broadcast_mode {self.broadcast_mode!r}; "
                f"choose from {DISSEMINATION_MODES}"
            )
        if self.erasure_min_bytes < 0:
            raise ConfigError("erasure_min_bytes cannot be negative")
        if self.resolver_positive_cache < 1:
            raise ConfigError("resolver_positive_cache must be at least 1")
        if self.resolver_negative_cache < 1:
            raise ConfigError("resolver_negative_cache must be at least 1")
        if self.resolver_max_sig_checks < 1:
            raise ConfigError("resolver_max_sig_checks must be at least 1")
        if self.resolver_max_key_trials < 1:
            raise ConfigError("resolver_max_key_trials must be at least 1")

    @property
    def quorum(self) -> int:
        """Responses a full-model client needs before majority voting."""
        return self.n - self.t

    @property
    def replicated(self) -> bool:
        return self.n > 1
