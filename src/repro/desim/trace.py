"""Structured simulation traces with reproducible digests.

Every interesting moment of a machine simulation -- a transfer placed on the
interconnect, a gate starting or completing, an ancilla factory producing a
block -- is appended to a :class:`SimulationTrace`, which hands it back as one
immutable :class:`TraceRecord`.  The trace serializes to canonical JSON lines
(``sort_keys``, no whitespace) and hashes to a SHA-256 digest, which is the
object the determinism contract is stated against: the same spec (seed
included) must yield a **bit-identical digest** on any machine.

The records the simulator emits have a fixed schema per kind
(:data:`_SCHEMAS`), so their lines are written a kind at a time through one
``%`` template, column by column; a record outside its kind's schema is
written by the JSON encoder, and both give the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Iterator

__all__ = ["TraceRecord", "SimulationTrace"]

#: The canonical line encoder, built once: ``json.dumps`` with these
#: arguments would construct a new encoder for every record.
_ENCODE_LINE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: The payload of every record kind the simulator emits: each key with the
#: exact type of its values (``list`` is a list of ints).
_SCHEMAS: dict[str, dict[str, type]] = {
    "epr_transfer": dict(destination=list, hops=int, requested=int, source=list, window=int),
    "epr_unserved": dict(requested=int),
    "op_start": dict(opcode=str, qubits=list, window=int),
    "op_complete": {},
    "ancilla_start": dict(production=int),
    "ancilla_ready": {},
    "link_generation": dict(attempts=int, occupancy_cycles=int, segments=int),
    "link_purification": dict(failures=int, occupancy_cycles=int, rounds=int),
    "link_fault": {},
    "link_delivery": dict(
        fidelity=float, generation_stall=int, purification_stall=int, swap_levels=int
    ),
}

#: How a template writes each value type as JSON does: ints by
#: ``int.__repr__``, floats by ``float.__repr__``, strings that need no
#: escaping as they are, int lists as their ``str`` less its spaces.
_FORMATS = {int: "%d", float: "%r", str: '"%s"', list: "%s"}


def _fits(column: list, value_type: type) -> bool:
    """True when every value is exactly ``value_type`` and its template writes it as JSON."""
    if set(map(type, column)) != {value_type}:
        return False
    if value_type is str:  # printable ASCII without a quote or backslash
        text = "".join(column)
        return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text
    if value_type is float:
        return all(map(math.isfinite, column))
    return value_type is int or set(map(type, chain.from_iterable(column))) <= {int}


def _kind_lines(kind: str, records: list[tuple]) -> list[str]:
    """The canonical lines of records of one kind, a column per key through one template.

    A record outside the kind's schema is written by the JSON encoder.
    """
    schema = _SCHEMAS.get(kind)
    if schema is not None:
        cycles, _, subjects, payloads = zip(*records)
        types = dict(schema, cycle=int, subject=str)
        columns = {"cycle": cycles, "subject": subjects}
        try:
            columns.update((key, list(map(itemgetter(key), payloads))) for key in schema)
        except KeyError:
            columns = {}
        if set(map(len, payloads)) == {len(schema)} and columns and all(
            _fits(column, types[key]) for key, column in columns.items()
        ):
            for key in [key for key in schema if schema[key] is list]:
                columns[key] = "\0".join(map(str, columns[key])).replace(" ", "").split("\0")
            names = sorted([*columns, "kind"])
            fields = [f'"{kind}"' if name == "kind" else _FORMATS[types[name]] for name in names]
            template = "{" + ",".join(f'"{n}":{f}' for n, f in zip(names, fields)) + "}"
            return list(map(template.__mod__, zip(*[columns[n] for n in names if n != "kind"])))
        if len(records) > 1:  # only the records outside the schema go to the encoder
            return [line for record in records for line in _kind_lines(kind, [record])]
    return [_ENCODE_LINE({"cycle": c, "kind": k, "subject": s, **d}) for c, k, s, d in records]


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
        """Canonical JSON-lines serialization (sorted keys, no whitespace).

        Records are written a kind at a time (:func:`_kind_lines`), then
        put back in emission order.
        """
        kinds: dict[str, list[int]] = {}
        for position, entry in enumerate(self._records):
            kinds.setdefault(entry[1], []).append(position)
        lines = [""] * len(self._records)
        for kind, positions in kinds.items():
            records = [self._records[position] for position in positions]
            for position, line in zip(positions, _kind_lines(kind, records)):
                lines[position] = line
        return "\n".join(lines)

    def digest(self) -> str:
        """SHA-256 of the canonical serialization -- the determinism fingerprint."""
        return hashlib.sha256(self.to_jsonl().encode("utf-8")).hexdigest()
