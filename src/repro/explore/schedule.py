"""Replayable schedule files and counterexample minimization.

A violating exploration run is summarized as a JSON *schedule file*: the
model configuration plus the sequence of channel picks that reproduces
the violation.  ``repro explore --replay <file>`` rebuilds the identical
model (same cluster, same Byzantine strategy, all other nondeterminism
stubbed out deterministically) and re-executes the picks, so a
counterexample found in CI replays bit-for-bit on a laptop: same
violation messages, same state-fingerprint transcript hash.

Minimization keeps replay short: the shortest prefix of the violating
schedule that still produces a violation under deterministic
(oldest-sender-first) completion, found by binary search over prefix
length.  Prefix-of-violating-schedule is the natural shrink dimension
here — every prefix is itself a valid schedule, no re-search needed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.explore.dpor import Choice, Violation, replay_schedule

SCHEDULE_VERSION = 1


def _encode_choice(choice: Choice) -> List[Any]:
    if isinstance(choice, tuple):
        return list(choice)
    return [choice]


def _decode_choice(raw: List[Any]) -> Choice:
    if len(raw) == 1:
        return raw[0]
    return tuple(raw)


@dataclass
class ScheduleFile:
    """One replayable counterexample (or witness) schedule."""

    protocol: str  # aba | abc | e2e
    cluster: Tuple[int, int]  # (n, t)
    strategy: str  # Byzantine strategy name ("" = no corruption)
    schedule: List[Choice]
    kind: str = ""  # violation kind; "" for a clean witness
    messages: List[str] = field(default_factory=list)
    fingerprint: str = ""  # model state fingerprint at the violation
    transcript_hash: str = ""  # hash over replayed step labels
    config: Dict[str, Any] = field(default_factory=dict)  # extra model args
    version: int = SCHEDULE_VERSION

    def to_json(self) -> str:
        data = asdict(self)
        data["cluster"] = list(self.cluster)
        data["schedule"] = [_encode_choice(c) for c in self.schedule]
        return json.dumps(data, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScheduleFile":
        data = json.loads(text)
        if data.get("version") != SCHEDULE_VERSION:
            raise ValueError(
                f"unsupported schedule file version {data.get('version')!r}"
            )
        data.pop("mode", None)  # files written while ABC had two modes
        data["cluster"] = tuple(data["cluster"])
        data["schedule"] = [_decode_choice(c) for c in data["schedule"]]
        return cls(**data)


def save_schedule(schedule: ScheduleFile, path: "Path | str") -> None:
    Path(path).write_text(schedule.to_json() + "\n")


def load_schedule(path: "Path | str") -> ScheduleFile:
    return ScheduleFile.from_json(Path(path).read_text())


def transcript_hash(labels: List[str]) -> str:
    h = hashlib.sha256()
    for label in labels:
        h.update(label.encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


def _violates(model: Any, prefix: List[Choice]) -> Optional[Tuple[List[str], str, str]]:
    problems, fingerprint, labels = replay_schedule(model, prefix, complete=True)
    if problems:
        return problems, fingerprint, transcript_hash(labels)
    return None


def minimize_violation(
    model: Any, violation: Violation
) -> Tuple[List[Choice], List[str], str, str]:
    """Shortest violating prefix of ``violation.schedule``.

    Binary search over prefix length: replay each candidate prefix with
    deterministic completion and keep the shortest that still violates.
    (Violation-under-completion is not monotone in prefix length in
    general, so this is a heuristic shrink — but the full schedule always
    violates, giving a sound upper bound.)  Returns ``(schedule,
    messages, fingerprint, transcript_hash)`` of the minimized replay.
    """
    schedule = list(violation.schedule)
    best = _violates(model, schedule)
    if best is None:
        # The final default completion differs from the explorer's own
        # continuation; fall back to the unminimized schedule verbatim.
        return schedule, violation.messages, violation.fingerprint, ""
    lo, hi = 0, len(schedule)  # invariant: prefix of length `hi` violates
    while lo < hi:
        mid = (lo + hi) // 2
        hit = _violates(model, schedule[:mid])
        if hit is None:
            lo = mid + 1
        else:
            hi = mid
            best = hit
    messages, fingerprint, digest = best
    return schedule[:hi], messages, fingerprint, digest
