"""Structured simulation traces with reproducible digests.

Every interesting moment of a machine simulation -- a transfer placed on the
interconnect, a gate starting or completing, an ancilla factory producing a
block -- is appended to a :class:`SimulationTrace`, which hands it back as one
immutable :class:`TraceRecord`.  The trace serializes to canonical JSON lines
(``sort_keys``, no whitespace) and hashes to a SHA-256 digest, which is the
object the determinism contract is stated against: the same spec (seed
included) must yield a **bit-identical digest** on any machine.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["TraceRecord", "SimulationTrace"]

#: The canonical line encoder, built once: ``json.dumps`` with these
#: arguments would construct a new encoder for every record.
_ENCODE_LINE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@dataclass(frozen=True)
class TraceRecord:
    """One trace line.

    Attributes
    ----------
    cycle:
        Cycle the recorded event happened at.
    kind:
        Event kind (``"op_start"``, ``"op_complete"``, ``"epr_transfer"``,
        ``"epr_unserved"``, ``"ancilla_start"``, ``"ancilla_ready"``, plus
        -- under a stochastic link configuration -- ``"link_generation"``,
        ``"link_purification"``, ``"link_delivery"``, ``"link_fault"``).
    subject:
        What the record is about (an operation index, a demand id, a factory).
    data:
        Extra key/value payload, stored as a sorted tuple of pairs so records
        hash and compare deterministically.
    """

    cycle: int
    kind: str
    subject: str
    data: tuple[tuple[str, object], ...] = ()

    def to_dict(self) -> dict:
        """The record as a JSON-ready dictionary."""
        out: dict[str, object] = {"cycle": self.cycle, "kind": self.kind, "subject": self.subject}
        out.update(self.data)
        return out


@dataclass
class SimulationTrace:
    """An append-only sequence of :class:`TraceRecord` with a canonical digest.

    Records are stored as ``(cycle, kind, subject, data)`` with ``data`` the
    payload dictionary, and become :class:`TraceRecord` objects only when
    read back.
    """

    _records: list[tuple[int, str, str, dict[str, object]]] = field(default_factory=list)

    def emit(self, cycle: int, kind: str, subject: str, **data: object) -> None:
        """Append one record."""
        self._records.append((int(cycle), kind, subject, data))

    @staticmethod
    def _record(entry: tuple[int, str, str, dict[str, object]]) -> TraceRecord:
        cycle, kind, subject, data = entry
        return TraceRecord(cycle, kind, subject, tuple(sorted(data.items())))

    @property
    def records(self) -> tuple[TraceRecord, ...]:
        """All records, in emission order."""
        return tuple(map(self._record, self._records))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(self._record, self._records)

    def filter(self, kind: str) -> tuple[TraceRecord, ...]:
        """All records of one kind, in emission order."""
        return tuple(self._record(entry) for entry in self._records if entry[1] == kind)

    def counts(self) -> dict[str, int]:
        """Record count per kind."""
        out: dict[str, int] = {}
        for _, kind, _, _ in self._records:
            out[kind] = out.get(kind, 0) + 1
        return out

    def to_jsonl(self) -> str:
        """Canonical JSON-lines serialization (sorted keys, no whitespace)."""
        return "\n".join(
            [
                _ENCODE_LINE({"cycle": cycle, "kind": kind, "subject": subject, **data})
                for cycle, kind, subject, data in self._records
            ]
        )

    def digest(self) -> str:
        """SHA-256 of the canonical serialization -- the determinism fingerprint."""
        return hashlib.sha256(self.to_jsonl().encode("utf-8")).hexdigest()
