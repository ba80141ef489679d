"""Property-based tests for the explorer's determinism invariants.

The distributed claim protocol (``docs/sweeps.md``) leans on three
contracts that must hold for *every* sweep, not just the ones the example
suite happens to build:

* **Cache-key canonicalization** -- a point's cache key is a pure function
  of its fully-bound spec (plus library version and resolved engine), and
  survives any serialization round trip or JSON key reordering.
* **Coordinate-derived seeds** -- per-point entropy depends on the sweep
  seed and the point's *coordinates*, never on grid position, so growing
  or reordering axes preserves every existing point's spec, seed and
  cache key bit for bit (this is what makes claims idempotent and
  refinement free of re-execution).
* **Claim-file round trip** -- :class:`~repro.explore.distributed.ClaimRecord`
  serialization is injective: distinct records can never collide on disk,
  and a record read back is exactly the record written.

Runs under ``hypothesis`` when it is installed; otherwise the same
properties are exercised over a fixed fan of seeded ``random.Random``
draws, so the suite degrades gracefully instead of skipping.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.api.specs import (
    ExecutionSpec,
    ExperimentSpec,
    MachineSpec,
    NoiseSpec,
    SamplingSpec,
)
from repro.explore.cache import cache_key
from repro.explore.distributed import ClaimRecord
from repro.explore.runner import resolved_engine
from repro.explore.sweep import SweepAxis, SweepSpec, point_seed

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False


def seeded(test):
    """Drive ``test(seed)`` by hypothesis, or by a fixed seeded fan without it.

    Each property consumes its randomness through ``random.Random(seed)``,
    so the two drivers exercise identical generators -- hypothesis just
    explores (and shrinks) the seed space instead of walking a fixed list.
    """
    if HAVE_HYPOTHESIS:
        return settings(max_examples=25, deadline=None)(
            given(st.integers(min_value=0, max_value=2**32 - 1))(test)
        )
    return pytest.mark.parametrize("seed", [37 * n + 5 for n in range(25)])(test)


def machine_base() -> ExperimentSpec:
    return ExperimentSpec(
        experiment="machine_sim",
        noise=NoiseSpec(kind="technology"),
        sampling=SamplingSpec(shots=0),
        execution=ExecutionSpec(backend="desim"),
        machine=MachineSpec(rows=6, columns=6, workload="adder", workload_bits=4),
    )


def random_axes(rng: random.Random) -> list[SweepAxis]:
    """A small random axis set over integer machine fields (2-12 points)."""
    bandwidths = rng.sample([1, 2, 3, 4, 6, 8], k=rng.randint(2, 4))
    axes = [SweepAxis(path="machine.bandwidth", values=tuple(bandwidths))]
    if rng.random() < 0.5:
        levels = rng.sample([1, 2], k=rng.randint(1, 2))
        axes.append(SweepAxis(path="machine.level", values=tuple(levels)))
    if rng.random() < 0.5:
        factories = rng.sample([2, 4, 8, 16], k=rng.randint(1, 2))
        axes.append(SweepAxis(path="machine.num_ancilla_factories", values=tuple(factories)))
    return axes


def random_sweep(rng: random.Random) -> SweepSpec:
    seed = rng.randint(0, 2**31 - 1)
    if rng.random() < 0.3:
        seed = (seed, rng.randint(0, 2**31 - 1))
    return SweepSpec(base=machine_base(), axes=tuple(random_axes(rng)), seed=seed)


def keys_by_coordinates(sweep: SweepSpec) -> dict:
    return {
        tuple(sorted(point.coordinates.items())): cache_key(
            point.spec, engine=resolved_engine(point.spec)
        )
        for point in sweep.points()
    }


class TestCacheKeyCanonicalization:
    @seeded
    def test_key_survives_serialization_round_trips(self, seed):
        rng = random.Random(seed)
        sweep = random_sweep(rng)
        point = rng.choice(sweep.points())
        key = cache_key(point.spec, engine=resolved_engine(point.spec))
        rebuilt = ExperimentSpec.from_json(point.spec.to_json())
        assert cache_key(rebuilt, engine=resolved_engine(rebuilt)) == key

    @seeded
    def test_key_ignores_json_field_order(self, seed):
        rng = random.Random(seed)
        sweep = random_sweep(rng)
        point = rng.choice(sweep.points())
        data = point.spec.to_dict()
        # Shuffle top-level and nested mapping orders: insertion order is
        # the only thing that changes, and the key must not see it.
        shuffled = {k: data[k] for k in rng.sample(list(data), k=len(data))}
        for section, body in list(shuffled.items()):
            if isinstance(body, dict):
                shuffled[section] = {
                    k: body[k] for k in rng.sample(list(body), k=len(body))
                }
        rebuilt = ExperimentSpec.from_dict(shuffled)
        assert cache_key(rebuilt, engine=resolved_engine(rebuilt)) == cache_key(
            point.spec, engine=resolved_engine(point.spec)
        )

    @seeded
    def test_distinct_points_get_distinct_keys(self, seed):
        rng = random.Random(seed)
        sweep = random_sweep(rng)
        keys = keys_by_coordinates(sweep)
        assert len(set(keys.values())) == len(keys)


class TestSeedDerivationInvariants:
    @seeded
    def test_seed_depends_on_coordinates_not_grid_position(self, seed):
        rng = random.Random(seed)
        sweep = random_sweep(rng)
        for point in sweep.points():
            assert point.spec.sampling.seed == point_seed(sweep.seed, point.coordinates)

    @seeded
    def test_growing_an_axis_preserves_existing_points(self, seed):
        rng = random.Random(seed)
        sweep = random_sweep(rng)
        before = keys_by_coordinates(sweep)
        specs_before = {
            tuple(sorted(p.coordinates.items())): p.spec for p in sweep.points()
        }
        # Grow one axis with values it does not have yet.
        axis = rng.choice(sweep.axes)
        pool = [v for v in (1, 2, 3, 4, 5, 6, 7, 8, 12, 16) if v not in axis.values]
        grown_values = axis.values + tuple(rng.sample(pool, k=rng.randint(1, 2)))
        grown = sweep.with_axis_values(axis.path, grown_values)
        after = keys_by_coordinates(grown)
        for marker, key in before.items():
            assert after[marker] == key, "growing an axis changed an existing key"
        for point in grown.points():
            marker = tuple(sorted(point.coordinates.items()))
            if marker in specs_before:
                assert point.spec == specs_before[marker]
        assert len(after) > len(before)

    @seeded
    def test_reordering_axes_preserves_every_point(self, seed):
        rng = random.Random(seed)
        sweep = random_sweep(rng)
        if len(sweep.axes) < 2:
            return
        shuffled_axes = list(sweep.axes)
        rng.shuffle(shuffled_axes)
        reordered = SweepSpec(
            base=sweep.base, axes=tuple(shuffled_axes), seed=sweep.seed
        )
        assert keys_by_coordinates(reordered) == keys_by_coordinates(sweep)


def random_claim(rng: random.Random) -> ClaimRecord:
    return ClaimRecord(
        key="".join(rng.choice("0123456789abcdef") for _ in range(64)),
        worker=f"host{rng.randint(0, 9)}:{rng.randint(1, 99999)}:{rng.getrandbits(32):08x}",
        generation=rng.randint(0, 5),
        claimed_at=rng.uniform(0, 2e9),
        heartbeat_at=rng.uniform(0, 2e9),
        lease_seconds=rng.uniform(0.01, 600),
    )


class TestClaimRecordRoundTrip:
    @seeded
    def test_round_trip_is_exact(self, seed):
        rng = random.Random(seed)
        record = random_claim(rng)
        assert ClaimRecord.from_json(record.to_json()) == record

    @seeded
    def test_serialization_is_injective(self, seed):
        rng = random.Random(seed)
        records = {random_claim(rng) for _ in range(32)}
        documents = {record.to_json() for record in records}
        assert len(documents) == len(records)

    @seeded
    def test_canonical_json_is_stable(self, seed):
        rng = random.Random(seed)
        record = random_claim(rng)
        # Sorted keys + compact separators: the document is a function of
        # the record's values alone, so two workers writing the same record
        # produce byte-identical files.
        data = json.loads(record.to_json())
        assert record.to_json() == json.dumps(
            data, sort_keys=True, separators=(",", ":")
        )
