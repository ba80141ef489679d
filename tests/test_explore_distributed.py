"""Distributed sweep coordination: claims, leases, reaping, chaos.

The contract under test (``docs/sweeps.md``): N workers sharing one cache
directory coordinate purely through atomic claim files, execute every
grid point **exactly once** between them, survive workers SIGKILLed
mid-claim and mid-write via stale-lease reaping, and produce a merged
``SweepResult`` whose :meth:`~repro.explore.runner.SweepResult.value_digest`
is bit-for-bit equal to a serial run's.

Exactly-once is proved with an execution *ledger*: the supervisor's
``run`` is wrapped to append one line per engine execution to an
``O_APPEND`` file.  Fork-started worker processes inherit the wrapper, so
the ledger counts executions across the whole party -- if any point ran
twice anywhere, the ledger has more lines than the grid has points.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time

import pytest

from repro import faults
from repro.api.runner import run as api_run
from repro.api.specs import (
    ExecutionSpec,
    ExperimentSpec,
    MachineSpec,
    NoiseSpec,
    SamplingSpec,
)
from repro.exceptions import ParameterError
from repro.explore.cache import ResultCache, cache_key
from repro.explore.distributed import (
    ClaimRecord,
    ClaimStore,
    run_sweep_distributed,
)
from repro.explore.runner import resolved_engine, run_sweep
from repro.explore.sweep import SweepAxis, SweepSpec


def machine_base() -> ExperimentSpec:
    return ExperimentSpec(
        experiment="machine_sim",
        noise=NoiseSpec(kind="technology"),
        sampling=SamplingSpec(shots=0),
        execution=ExecutionSpec(backend="desim"),
        machine=MachineSpec(rows=6, columns=6, workload="adder", workload_bits=4),
    )


def small_sweep(seed: int = 7) -> SweepSpec:
    return SweepSpec(
        base=machine_base(),
        axes=(
            SweepAxis(path="machine.bandwidth", values=(1, 2)),
            SweepAxis(path="machine.level", values=(1, 2)),
        ),
        seed=seed,
    )


def sweep_keys(sweep: SweepSpec) -> list[str]:
    return [
        cache_key(point.spec, engine=resolved_engine(point.spec, None))
        for point in sweep.points()
    ]


@pytest.fixture
def cache(tmp_path) -> ResultCache:
    return ResultCache(tmp_path / "cache")


@pytest.fixture
def ledger(tmp_path, monkeypatch):
    """Count engine executions across this process *and* forked workers.

    Wraps the supervisor's ``run`` with an ``O_APPEND`` file logger; the
    append is atomic per line, fork children inherit the wrapper, and the
    line count is the party-wide execution total.
    """
    import repro.explore.supervisor as supervisor

    path = tmp_path / "executions.ledger"
    real_run = supervisor.run

    def logged_run(spec, *, registry=None):
        line = faults.fault_key(spec.to_json()) + "\n"
        handle = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(handle, line.encode("ascii"))
        finally:
            os.close(handle)
        return real_run(spec, registry=registry)

    monkeypatch.setattr(supervisor, "run", logged_run)

    def read() -> list[str]:
        if not path.exists():
            return []
        return path.read_text().splitlines()

    return read


class TestClaimStore:
    def test_acquire_is_exclusive(self, tmp_path):
        a = ClaimStore(tmp_path, worker="a")
        b = ClaimStore(tmp_path, worker="b")
        record = a.acquire("ab" * 32)
        assert record is not None and record.generation == 0
        assert b.acquire("ab" * 32) is None

    def test_release_then_reacquire(self, tmp_path):
        a = ClaimStore(tmp_path, worker="a")
        b = ClaimStore(tmp_path, worker="b")
        record = a.acquire("cd" * 32)
        assert a.release(record) is True
        again = b.acquire("cd" * 32)
        assert again is not None and again.worker == "b" and again.generation == 0

    def test_heartbeat_refreshes_lease(self, tmp_path):
        store = ClaimStore(tmp_path, worker="a", lease_seconds=5.0)
        record = store.acquire("ef" * 32)
        refreshed = store.heartbeat(record)
        assert refreshed is not None
        assert refreshed.heartbeat_at >= record.heartbeat_at
        assert store.read("ef" * 32) == refreshed

    def test_stale_claim_is_reaped_with_bumped_generation(self, tmp_path):
        dead = ClaimStore(tmp_path, worker="dead", lease_seconds=0.05)
        live = ClaimStore(tmp_path, worker="live", lease_seconds=5.0)
        key = "01" * 32
        assert dead.acquire(key) is not None
        assert live.acquire(key) is None  # still fresh
        time.sleep(0.08)
        stolen = live.acquire(key)
        assert stolen is not None
        assert stolen.worker == "live"
        assert stolen.generation == 1

    def test_reaped_owner_loses_heartbeat_and_release(self, tmp_path):
        dead = ClaimStore(tmp_path, worker="dead", lease_seconds=0.05)
        live = ClaimStore(tmp_path, worker="live", lease_seconds=5.0)
        key = "23" * 32
        original = dead.acquire(key)
        time.sleep(0.08)
        stolen = live.acquire(key)
        assert stolen is not None
        # The presumed-dead owner must not be able to touch the claim now.
        assert dead.heartbeat(original) is None
        assert dead.release(original) is False
        assert live.read(key) == stolen

    def test_unreadable_claim_file_is_reaped(self, tmp_path):
        store = ClaimStore(tmp_path, worker="a")
        key = "45" * 32
        store.directory.mkdir(parents=True, exist_ok=True)
        store.path_for(key).write_text("{torn")
        record = store.acquire(key)
        assert record is not None and record.generation == 1

    def test_cleanup_stale_spares_fresh_claims(self, tmp_path):
        store = ClaimStore(tmp_path, worker="a", lease_seconds=5.0)
        key = "67" * 32
        store.acquire(key)
        assert store.cleanup_stale(key) is False
        assert store.read(key) is not None

    def test_cleanup_stale_removes_lapsed_claims(self, tmp_path):
        store = ClaimStore(tmp_path, worker="a", lease_seconds=0.05)
        key = "89" * 32
        store.acquire(key)
        time.sleep(0.08)
        assert store.cleanup_stale(key) is True
        assert store.read(key) is None

    def test_reaps_are_logged(self, tmp_path, caplog):
        dead = ClaimStore(tmp_path, worker="dead", lease_seconds=0.05)
        live = ClaimStore(tmp_path, worker="live", lease_seconds=5.0)
        stale, torn, cached = "cd" * 32, "ef" * 32, "01" * 32
        with caplog.at_level(logging.WARNING, logger="repro"):
            dead.acquire(stale)
            dead.acquire(cached)
            live.path_for(torn).write_text("{torn")
            assert live.acquire(stale) is None  # fresh: nothing reaped
            assert caplog.records == []
            time.sleep(0.08)
            assert live.acquire(stale).generation == 1
            assert live.acquire(torn).generation == 1
            assert live.cleanup_stale(cached) is True
            assert live.cleanup_stale(cached) is False  # already gone: no log
        messages = [r.getMessage() for r in caplog.records if r.name == "repro"]
        assert messages == [
            "reaped stale 'dead' claim on cdcdcdcdcdcd...; re-claiming it as generation 1",
            "reaped unreadable claim on efefefefefef...; re-claiming it as generation 1",
            "removed stale 'dead' claim on 010101010101... after its result was cached",
        ]
        assert {r.levelno for r in caplog.records} == {logging.WARNING}

    def test_reap_verifies_it_renamed_the_stale_claim(self, tmp_path, monkeypatch):
        # Regression: two reapers race on one stale claim.  B reaps it and
        # re-creates a live gen-1 claim between C's read and C's rename;
        # C's rename then grabs B's *live* claim.  C must detect the theft
        # (the tombstone holds a fresh record, not the stale one it
        # judged), restore B's claim, and back off -- otherwise both
        # execute the point.
        dead = ClaimStore(tmp_path, worker="dead", lease_seconds=0.05)
        b = ClaimStore(tmp_path, worker="b", lease_seconds=5.0)
        c = ClaimStore(tmp_path, worker="c", lease_seconds=5.0)
        key = "ab" * 32
        assert dead.acquire(key) is not None
        time.sleep(0.08)

        real_read = ClaimStore.read
        b_claim: list[ClaimRecord] = []

        def racing_read(self, k):
            record = real_read(self, k)
            if self is c and record is not None and record.worker == "dead":
                # B sneaks a full reap + re-acquire in between C's read of
                # the stale record and C's rename.
                won = b.acquire(k)
                assert won is not None and won.generation == 1
                b_claim.append(won)
            return record

        monkeypatch.setattr(ClaimStore, "read", racing_read)
        assert c.acquire(key) is None, "C stole B's live claim"
        monkeypatch.setattr(ClaimStore, "read", real_read)
        assert b.read(key) == b_claim[0], "B's claim was not restored intact"
        assert b.release(b_claim[0]) is True

    def test_claim_record_rejects_malformed_documents(self):
        good = ClaimRecord(
            key="ab" * 32, worker="w", generation=0,
            claimed_at=1.0, heartbeat_at=1.0, lease_seconds=30.0,
        )
        data = json.loads(good.to_json())
        for mutation in (
            lambda d: d.pop("worker"),
            lambda d: d.update(extra=1),
            lambda d: d.update(generation=-1),
            lambda d: d.update(lease_seconds=-2.0),
            lambda d: d.update(key=""),
        ):
            broken = dict(data)
            mutation(broken)
            with pytest.raises(ParameterError):
                ClaimRecord.from_json(json.dumps(broken))
        with pytest.raises(ParameterError):
            ClaimRecord.from_json("{nope")

    def test_lease_must_be_positive(self, tmp_path):
        with pytest.raises(ParameterError):
            ClaimStore(tmp_path, lease_seconds=0)


@pytest.mark.no_chaos
class TestCoordinatedRunSweep:
    def test_coordinate_requires_the_cache(self):
        with pytest.raises(ParameterError, match="use_cache"):
            run_sweep(small_sweep(), use_cache=False, coordinate=True)

    def test_single_coordinated_run_matches_serial(self, tmp_path, ledger):
        sweep = small_sweep()
        serial = run_sweep(sweep, cache=ResultCache(tmp_path / "serial"))
        coordinated = run_sweep(
            sweep, cache=ResultCache(tmp_path / "coord"), coordinate=True
        )
        assert coordinated.value_digest() == serial.value_digest()
        assert coordinated.cache_misses == len(sweep.points())
        # Claims were all released.
        claims_dir = tmp_path / "coord" / "claims"
        assert not list(claims_dir.glob("*.claim"))

    def test_dead_workers_stale_claim_is_reclaimed_not_double_executed(
        self, cache, ledger
    ):
        # Regression for the lease-less protocol: a claim file whose owner
        # died used to block its point forever.  With lease timestamps the
        # claim goes stale, is reaped exactly once, and the point executes
        # exactly once.
        sweep = small_sweep()
        keys = sweep_keys(sweep)
        dead = ClaimStore.for_cache(cache, worker="dead-worker", lease_seconds=0.2)
        assert dead.acquire(keys[1]) is not None
        time.sleep(0.25)

        result = run_sweep(
            sweep, cache=cache, coordinate=True, claim_lease_seconds=0.2,
            claim_poll_interval=0.02,
        )
        assert result.completed == len(keys)
        assert sorted(ledger()) == sorted(
            faults.fault_key(point.spec.to_json()) for point in sweep.points()
        ), "every point must execute exactly once, including the reaped one"
        assert not list(dead.directory.glob("*.claim"))

    def test_live_peers_claim_is_honoured_and_its_result_reused(
        self, cache, ledger
    ):
        # A *fresh* claim by a live peer is never stolen: the coordinating
        # sweep waits, the peer's result lands in the cache, and the point
        # resolves as a cache hit without executing here.
        sweep = small_sweep()
        points = sweep.points()
        keys = sweep_keys(sweep)
        peer = ClaimStore.for_cache(cache, worker="peer", lease_seconds=30.0)
        held = peer.acquire(keys[2])
        assert held is not None

        def finish_like_a_peer() -> None:
            time.sleep(0.3)
            # repro.api.run directly: a real peer's execution would go
            # through its own supervisor, not this process's ledger.
            cache.put(keys[2], api_run(points[2].spec))
            peer.release(held)

        thread = threading.Thread(target=finish_like_a_peer)
        thread.start()
        try:
            result = run_sweep(
                sweep, cache=cache, coordinate=True, claim_lease_seconds=30.0,
                claim_poll_interval=0.02,
            )
        finally:
            thread.join()
        assert result.completed == len(points)
        assert result.points[2].cached is True
        executed_here = set(ledger())
        assert faults.fault_key(points[2].spec.to_json()) not in executed_here
        assert len(executed_here) == len(points) - 1


@pytest.mark.no_chaos
class TestDistributedRun:
    def test_four_workers_split_the_grid_exactly_once(self, cache, ledger):
        sweep = small_sweep(seed=21)
        # The serial reference runs first (through the same ledger wrapper),
        # so only the lines after this snapshot belong to the workers.
        serial = run_sweep(sweep, cache=ResultCache(cache.directory.parent / "s"))
        before = len(ledger())
        with faults.no_faults():
            dist = run_sweep_distributed(
                sweep, num_workers=4, cache=cache, lease_seconds=30.0,
                poll_interval=0.01,
            )
        assert dist.result.value_digest() == serial.value_digest()
        assert dist.surviving_workers == 4
        # Exactly-once across the whole party, by the ledger...
        assert sorted(ledger()[before:]) == sorted(
            faults.fault_key(point.spec.to_json()) for point in sweep.points()
        )
        # ... and by the workers' own accounting; the merge replays only.
        assert dist.executed_by_workers == len(sweep.points())
        assert dist.result.cache_misses == 0
        assert not list((cache.directory / "claims").glob("*.claim"))

    def test_warm_replay_is_all_cache_hits(self, cache):
        sweep = small_sweep(seed=22)
        with faults.no_faults():
            run_sweep_distributed(sweep, num_workers=2, cache=cache)
            again = run_sweep_distributed(sweep, num_workers=2, cache=cache)
        assert again.result.cache_misses == 0
        assert again.executed_by_workers == 0

    def test_rejects_bad_arguments(self, cache):
        with pytest.raises(ParameterError, match="SweepSpec"):
            run_sweep_distributed(machine_base(), cache=cache)
        with pytest.raises(ParameterError, match="num_workers"):
            run_sweep_distributed(small_sweep(), num_workers=0, cache=cache)
        with pytest.raises(ParameterError, match="registry"):
            run_sweep_distributed(small_sweep(), registry=object(), cache=cache)


def chaos_claim_profile(sweep: SweepSpec) -> faults.FaultProfile:
    """A claim-killing profile that SIGKILLs one worker mid-claim and one
    mid-write for this sweep's keys.

    Injection decisions are pure functions of ``(seed, site, key)``, so the
    scenario can be *searched for* deterministically: scan profile seeds
    until exactly one grid key kills its first claimant right after the
    claim (``key``) and a different key kills its first owner right after
    the cache write (``key + "/release"``).
    """
    keys = sweep_keys(sweep)
    for seed in range(1000):
        profile = faults.FaultProfile(seed=seed, claim=0.3, fail_attempts=1)
        mid_claim = [
            k for k in keys
            if faults.should_fire(faults.EXPLORE_CLAIM, k, 0, profile=profile)
        ]
        mid_write = [
            k for k in keys
            if k not in mid_claim
            and faults.should_fire(
                faults.EXPLORE_CLAIM, f"{k}/release", 0, profile=profile
            )
        ]
        if len(mid_claim) == 1 and len(mid_write) == 1:
            return profile
    raise AssertionError("no profile seed below 1000 produces the chaos scenario")


class TestChaosRecovery:
    @pytest.mark.no_chaos
    def test_sigkilled_workers_are_reaped_and_the_merge_matches_serial(
        self, tmp_path, ledger
    ):
        # The headline chaos scenario: 4 workers share one cache dir, one
        # is SIGKILLed right after claiming a point (its claim must go
        # stale and be reaped) and another right after writing a result
        # (waiters must resolve from the cache and GC the orphan claim).
        # The merged result must be bit-for-bit equal to the serial run,
        # and no point may execute twice.
        sweep = small_sweep(seed=23)
        profile = chaos_claim_profile(sweep)
        serial = run_sweep(sweep, cache=ResultCache(tmp_path / "serial"))
        before = len(ledger())

        cache = ResultCache(tmp_path / "shared")
        with faults.fault_profile(profile):
            dist = run_sweep_distributed(
                sweep, num_workers=4, cache=cache,
                lease_seconds=0.5, poll_interval=0.02,
            )

        assert dist.result.value_digest() == serial.value_digest()
        # Two workers died by SIGKILL (mid-claim and mid-write): they leave
        # no report.  The party still covers the grid.
        assert dist.surviving_workers <= 2
        dead = [w for w in dist.workers if not w.survived]
        assert len(dead) >= 2
        assert all(report.exit_code != 0 for report in dead)
        # Exactly-once, party-wide: the mid-claim victim died *before*
        # executing (its point ran once, in its reaper); the mid-write
        # victim died *after* executing (its point ran once, in it).
        assert sorted(ledger()[before:]) == sorted(
            faults.fault_key(point.spec.to_json()) for point in sweep.points()
        )
        # No claim debris survives the merge.
        assert not list((cache.directory / "claims").glob("*.claim"))

    @pytest.mark.no_chaos
    def test_chaos_merge_replays_warm_with_zero_misses(self, tmp_path):
        sweep = small_sweep(seed=24)
        profile = chaos_claim_profile(sweep)
        cache = ResultCache(tmp_path / "shared")
        with faults.fault_profile(profile):
            run_sweep_distributed(
                sweep, num_workers=4, cache=cache,
                lease_seconds=0.5, poll_interval=0.02,
            )
        replay = run_sweep(sweep, cache=cache)
        assert replay.cache_misses == 0


@pytest.mark.no_chaos
class TestServiceCoordination:
    def test_overlapping_sweep_jobs_share_executions(self, tmp_path, ledger):
        # Two *different* sweep jobs whose grids overlap, drained
        # concurrently by two coordinating service workers over one cache:
        # the overlap must execute once, not twice.
        from repro.service.http import ExperimentService

        base = machine_base()
        narrow = SweepSpec(
            base=base, axes=(SweepAxis("machine.bandwidth", (1, 2)),), seed=31
        )
        wide = SweepSpec(
            base=base, axes=(SweepAxis("machine.bandwidth", (1, 2, 4)),), seed=31
        )
        union_specs = {point.spec.to_json() for point in narrow.points()} | {
            point.spec.to_json() for point in wide.points()
        }

        service = ExperimentService(
            db_path=tmp_path / "jobs.sqlite3",
            cache=ResultCache(tmp_path / "cache"),
            workers=2,
            coordinate=True,
            claim_lease_seconds=30.0,
        )
        with service:
            first, _ = service.submit_document(narrow.to_dict())
            second, _ = service.submit_document(wide.to_dict())
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                states = {
                    service.store.get(first.id).state,
                    service.store.get(second.id).state,
                }
                if states == {"done"}:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("sweep jobs did not finish in time")

        assert sorted(ledger()) == sorted(
            faults.fault_key(spec_json) for spec_json in union_specs
        ), "overlapping grid points must execute exactly once across both jobs"
