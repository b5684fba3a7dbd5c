"""Chaos harness: seed replay, invariants, and scenario expectations.

Each scenario run is a complete Byzantine experiment, so this file keeps
the matrix small — one seed per scenario/cluster where possible.  The CI
smoke and nightly jobs sweep many seeds; here we pin the *contract*:

* the same seed produces byte-identical transcripts (replayability),
* different seeds produce different adversarial schedules,
* G1/G2/G3 hold under every scenario on both paper clusters,
* scenario-specific expectations (slow path entered, partition healed,
  epoch changed, ...) actually fire, so the scenarios keep attacking
  what they claim to attack.
"""

import os
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.chaos.scenarios import SCENARIOS, run_scenario
from repro.core.faults import CorruptionMode
from repro.errors import ConfigError

from tests.conftest import REPO_ROOT


class TestSeedReplay:
    def test_same_seed_same_transcript(self):
        first = run_scenario("mixed", cluster=(4, 1), seed=42)
        second = run_scenario("mixed", cluster=(4, 1), seed=42)
        assert first.transcript == second.transcript
        assert first.transcript_hash == second.transcript_hash

    def test_same_seed_same_transcript_across_processes(self):
        """Key material, share polynomials and proof nonces included: two
        fresh processes replaying one seed print the same hash."""
        command = [
            sys.executable, "-m", "repro.cli", "chaos",
            "--seed", "42", "--scenario", "slowpath", "--cluster", "4,1",
        ]
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(
                os.environ,
                PYTHONPATH=str(REPO_ROOT / "src"),
                PYTHONHASHSEED=hash_seed,
            )
            done = subprocess.run(
                command, cwd=REPO_ROOT, env=env, capture_output=True,
                text=True, timeout=120, check=True,
            )
            outputs.append(done.stdout)
        assert "transcript=" in outputs[0]
        assert outputs[0] == outputs[1]

    def test_different_seeds_differ(self):
        a = run_scenario("mixed", cluster=(4, 1), seed=1)
        b = run_scenario("mixed", cluster=(4, 1), seed=2)
        assert a.transcript_hash != b.transcript_hash

    def test_transcript_names_failing_seed(self):
        result = run_scenario("mixed", cluster=(4, 1), seed=7)
        assert "seed=7" in result.transcript
        assert "scenario=mixed" in result.transcript


class TestInvariantsHold:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_small_cluster(self, name):
        result = run_scenario(name, cluster=(4, 1), seed=3)
        assert result.ok, result.transcript

    @pytest.mark.parametrize("name", ["mixed", "equivocate"])
    def test_paper_cluster(self, name):
        result = run_scenario(name, cluster=(7, 2), seed=3)
        assert result.ok, result.transcript

    @pytest.mark.parametrize("name", ["mixed"])
    def test_big_cluster(self, name):
        """(10, 3): the broadcast plane's target scale."""
        result = run_scenario(name, cluster=(10, 3), seed=3)
        assert result.ok, result.transcript

    def test_xl_cluster(self):
        """(16, 5): one run at the sweep's new ceiling.

        The full scenario set at this size belongs to the nightly
        matrix; tier-1 pins the cheapest representative so a scaling
        regression (quorum arithmetic, fan-out, key material) fails fast
        without doubling suite time.
        """
        result = run_scenario("poison", cluster=(16, 5), seed=3)
        assert result.ok, result.transcript


class TestScenarioExpectations:
    @staticmethod
    def _stat(transcript, key):
        for line in transcript.splitlines():
            if line.startswith("stats "):
                for token in line.split()[1:]:
                    name, _, value = token.partition("=")
                    if name == key:
                        return int(value)
        raise AssertionError(f"no {key} in transcript stats line")

    def test_slowpath_forces_optproof_fallback(self):
        result = run_scenario("slowpath", cluster=(4, 1), seed=0)
        assert result.ok, result.transcript
        assert self._stat(result.transcript, "fallbacks") > 0

    def test_silent_signer_takes_the_timer_path(self):
        result = run_scenario("signer-silent", cluster=(4, 1), seed=0)
        assert result.ok, result.transcript
        assert self._stat(result.transcript, "share_timeouts") > 0

    def test_partition_heals_and_buffers(self):
        result = run_scenario("partition", cluster=(4, 1), seed=0)
        assert result.ok, result.transcript
        # The adversary actually held cross-partition traffic.
        assert any(line.startswith("adv hold ") for line in
                   result.transcript.splitlines())

    def test_equivocation_forces_epoch_change(self):
        result = run_scenario("equivocate", cluster=(4, 1), seed=3)
        assert result.ok, result.transcript
        assert self._stat(result.transcript, "epochs") > 0

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            run_scenario("no-such-scenario", cluster=(4, 1), seed=0)


class TestDesignatedSignerFaults:
    """G1/G2/G3 with faulty replicas among each session's t+1 first signers.

    Sessions rotate their designated set over all replicas, so the
    corrupted replicas (1, and 4 at (7,2)) are first signers in a share
    of every run's sessions.
    """

    @pytest.mark.parametrize(
        "mode",
        [CorruptionMode.WITHHOLD_SHARES, CorruptionMode.BAD_SHARES, CorruptionMode.CRASH],
        ids=lambda mode: mode.value,
    )
    @pytest.mark.parametrize("protocol", ["basic", "optte", "optproof"])
    @pytest.mark.parametrize("cluster", [(4, 1), (7, 2)], ids=["4-1", "7-2"])
    def test_goals_hold(self, cluster, protocol, mode):
        scenario = replace(
            SCENARIOS["signer-silent"],
            name=f"signer-{mode.value}",
            protocol=protocol,
            corruptions=(mode, mode),
            expects=(),
        )
        result = run_scenario(scenario, cluster=cluster, seed=3)
        assert result.ok, result.transcript
        if mode is not CorruptionMode.BAD_SHARES:
            # Silence is caught only by the session timer.
            assert TestScenarioExpectations._stat(result.transcript, "share_timeouts") > 0
