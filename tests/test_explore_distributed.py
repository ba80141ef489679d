"""Coordinated sweeps: claims, leases, reaping, chaos.

The contract under test (``docs/sweeps.md``): N independent
``repro-run --coordinate`` processes sharing one cache directory
coordinate purely through atomic claim files, execute every grid point
**exactly once** between them, survive members SIGKILLed mid-claim and
mid-write via stale-lease reaping, and each return a ``SweepResult``
whose :meth:`~repro.explore.runner.SweepResult.value_digest` is
bit-for-bit equal to a serial run's.

Exactly-once is proved with an execution *ledger*: the supervisor's
``run`` is wrapped to append one line per engine execution to an
``O_APPEND`` file.  Every party member installs the same wrapper before
it joins, so the ledger counts executions across the whole party -- if
any point ran twice anywhere, the ledger has more lines than the grid
has points.
"""

from __future__ import annotations

import inspect
import json
import logging
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro import faults
from repro.api.cli import main as repro_run
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
    _HeartbeatKeeper,
)
from repro.explore.runner import SweepResult, resolved_engine, run_sweep, stream_sweep
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


def fast_slow_sweep() -> SweepSpec:
    """A 2-bit and a 128-bit adder on a 20x20 level-2 array at bandwidth 1.

    The 2-bit point finishes in about a fifth of the 128-bit point's time,
    so with two point workers it lands while the other is still running.
    """
    base = ExperimentSpec(
        experiment="machine_sim",
        noise=NoiseSpec(kind="technology"),
        sampling=SamplingSpec(shots=0),
        execution=ExecutionSpec(backend="desim"),
        machine=MachineSpec(
            rows=20, columns=20, level=2, bandwidth=1, workload="adder", workload_bits=2
        ),
    )
    return SweepSpec(
        base=base,
        axes=(SweepAxis(path="machine.workload_bits", values=(2, 128)),),
        seed=3,
        point_workers=2,
    )


def point_keys(sweep: SweepSpec) -> list[str]:
    return [cache_key(pt.spec, engine=resolved_engine(pt.spec)) for pt in sweep.points()]


#: Leases every entry point must reject: NaN never goes stale, an
#: infinite lease overflows the heartbeat wait, and a negative one is
#: stale before it is written.
BAD_LEASES = (math.nan, math.inf, -1.0)
#: Finite, but past ``threading.TIMEOUT_MAX``: the heartbeat's wait overflows.
TOO_LONG_LEASE = 3e10


def sweep_keys(sweep: SweepSpec) -> list[str]:
    return [
        cache_key(point.spec, engine=resolved_engine(point.spec))
        for point in sweep.points()
    ]


@pytest.fixture
def cache(tmp_path) -> ResultCache:
    return ResultCache(tmp_path / "cache")


def ledgered(real_run, path):
    """Wrap the supervisor's ``run`` to append one line per execution.

    The append is ``O_APPEND``, so it is atomic per line even when many
    processes share the file.
    """
    import os

    from repro import faults

    def logged_run(spec):
        line = faults.fault_key(spec.to_json()) + "\n"
        handle = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(handle, line.encode("ascii"))
        finally:
            os.close(handle)
        return real_run(spec)

    return logged_run


#: Names the ledger file of a party member (test-local, read only by
#: :data:`MEMBER_SCRIPT`).
LEDGER_ENV = "_REPRO_TEST_LEDGER"

#: ``src/``: party members import the package from this checkout.
SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

#: One party member: ``python -c MEMBER_SCRIPT sweep.json --coordinate ...``
#: installs the ledger, flags itself expendable to the ``explore.claim``
#: kill site, and runs ``repro-run`` with the remaining arguments.
MEMBER_SCRIPT = inspect.getsource(ledgered) + """
import os
import sys

import repro.explore.supervisor as supervisor
from repro.api.cli import main
from repro.explore.distributed import WORKER_FLAG_ENV

supervisor.run = ledgered(supervisor.run, os.environ[%r])
os.environ[WORKER_FLAG_ENV] = "1"
sys.exit(main(sys.argv[1:]))
""" % LEDGER_ENV


@pytest.fixture
def ledger(tmp_path, monkeypatch):
    """Count engine executions in this process (see :func:`ledgered`)."""
    import repro.explore.supervisor as supervisor

    path = tmp_path / "executions.ledger"
    monkeypatch.setattr(supervisor, "run", ledgered(supervisor.run, path))

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
        # json writes nan/inf as NaN/Infinity, which json.loads reads back.
        for name in ("claimed_at", "heartbeat_at", "lease_seconds"):
            for value in BAD_LEASES:
                with pytest.raises(ParameterError, match="finite"):
                    ClaimRecord.from_json(json.dumps({**data, name: value}))
        with pytest.raises(ParameterError):
            ClaimRecord.from_json("{nope")

    def test_lease_must_be_positive(self, tmp_path):
        for lease in (0, *BAD_LEASES):
            with pytest.raises(ParameterError, match="finite positive"):
                ClaimStore(tmp_path, lease_seconds=lease)

    def test_non_finite_claim_is_reaped_not_honoured_forever(self, tmp_path):
        # Regression: a NaN lease is never stale (every comparison with NaN
        # is False), so a peer's acquire returned None forever and the
        # party wedged.  Such a file now reads as unreadable and is reaped.
        live = ClaimStore(tmp_path, worker="live")
        live.directory.mkdir(parents=True, exist_ok=True)
        for index, lease in enumerate(BAD_LEASES):
            key = f"{index:02d}" * 32
            record = ClaimRecord(
                key=key, worker="wedged", generation=0,
                claimed_at=time.time(), heartbeat_at=time.time(), lease_seconds=lease,
            )
            live.path_for(key).write_text(record.to_json())
            assert live.read(key) is None
            stolen = live.acquire(key)
            assert stolen is not None and stolen.generation == 1


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


def run_party(
    sweep: SweepSpec,
    directory,
    *,
    members: int,
    profile: faults.FaultProfile | None = None,
    lease_seconds: float = 30.0,
) -> list[tuple[int, SweepResult | None]]:
    """Run ``members`` independent ``repro-run --coordinate`` processes.

    The members share ``directory/cache`` and append their engine
    executions to ``directory/executions.ledger``.  ``REPRO_FAULTS`` is set
    explicitly for them: the ``no_chaos`` marker is an in-process override
    that does not reach a subprocess, so an inherited ``REPRO_FAULTS=chaos``
    would otherwise kill members at random.  Returns every member's
    ``(exit code, SweepResult)``; a member killed before writing its output
    has None.
    """
    directory.mkdir(parents=True, exist_ok=True)
    spec_path = directory / "sweep.json"
    spec_path.write_text(sweep.to_json())
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    env["REPRO_CACHE_DIR"] = str(directory / "cache")
    env[LEDGER_ENV] = str(directory / "executions.ledger")
    if profile is None:
        env.pop(faults.FAULTS_ENV, None)
    else:
        env[faults.FAULTS_ENV] = profile.to_spec()
    launched = []
    for index in range(members):
        output = directory / f"member-{index}.json"
        with open(directory / f"member-{index}.err", "w") as errors:
            process = subprocess.Popen(
                [
                    sys.executable, "-c", MEMBER_SCRIPT, str(spec_path),
                    "--coordinate", "--lease-seconds", str(lease_seconds),
                    "-o", str(output), "--quiet",
                ],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=errors,
            )
        launched.append((process, output))
    outcomes = []
    for process, output in launched:
        code = process.wait(timeout=120)
        result = SweepResult.from_json(output.read_text()) if output.exists() else None
        outcomes.append((code, result))
    return outcomes


def party_ledger(directory) -> list[str]:
    path = directory / "executions.ledger"
    return path.read_text().splitlines() if path.exists() else []


def member_errors(directory) -> str:
    """Every member's stderr, for assertion messages."""
    return "\n".join(
        f"{path.name}: {path.read_text()}" for path in sorted(directory.glob("member-*.err"))
    )


def grid_fault_keys(sweep: SweepSpec) -> list[str]:
    return sorted(faults.fault_key(point.spec.to_json()) for point in sweep.points())


@pytest.mark.no_chaos
class TestCoordinatedParty:
    def test_four_members_split_the_grid_exactly_once(self, tmp_path):
        sweep = small_sweep(seed=21)
        serial = run_sweep(sweep, cache=ResultCache(tmp_path / "serial"))
        party = tmp_path / "party"
        outcomes = run_party(sweep, party, members=4)

        assert [code for code, _ in outcomes] == [0, 0, 0, 0], member_errors(party)
        # Every member returns the complete result, bit for bit the serial one.
        for _, result in outcomes:
            assert result.value_digest() == serial.value_digest()
        # Exactly-once across the whole party, by the ledger ...
        assert sorted(party_ledger(party)) == grid_fault_keys(sweep)
        # ... and by the members' own accounting.
        assert sum(result.cache_misses for _, result in outcomes) == len(sweep.points())
        assert not list((party / "cache" / "claims").glob("*.claim"))

    def test_warm_replay_is_all_cache_hits(self, tmp_path):
        sweep = small_sweep(seed=22)
        party = tmp_path / "party"
        cold = run_party(sweep, party, members=2)
        assert [code for code, _ in cold] == [0, 0], member_errors(party)
        assert sum(result.cache_misses for _, result in cold) == len(sweep.points())
        warm = run_party(sweep, party, members=2)
        assert [code for code, _ in warm] == [0, 0], member_errors(party)
        assert [result.cache_misses for _, result in warm] == [0, 0]
        assert len(party_ledger(party)) == len(sweep.points())


def chaos_claim_profile(sweep: SweepSpec) -> tuple[faults.FaultProfile, str, str]:
    """A claim-killing profile that SIGKILLs one member mid-claim and one
    mid-write for this sweep's keys.

    Injection decisions are pure functions of ``(seed, site, key)``, so the
    scenario can be *searched for* deterministically: scan profile seeds
    until exactly one grid key kills its first claimant right after the
    claim (``key``) and a different key kills its first owner right after
    the cache write (``key + "/release"``).  Returns the profile, the
    mid-claim key and the mid-write key.
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
            return profile, mid_claim[0], mid_write[0]
    raise AssertionError("no profile seed below 1000 produces the chaos scenario")


#: Claim lease of the chaos party: the mid-claim victim's point is reaped
#: one lease after its last heartbeat.
CHAOS_LEASE_SECONDS = 1.0


@pytest.mark.no_chaos
class TestChaosRecovery:
    """4 members share one cache.  The chaos profile SIGKILLs one right
    after it claims a point (its claim must go stale and be reaped) and
    another right after it caches a result, before it releases the claim
    (its peers resolve the point from the cache)."""

    @pytest.fixture(scope="class")
    def chaos_party(self, tmp_path_factory):
        sweep = small_sweep(seed=23)
        profile, mid_claim, mid_write = chaos_claim_profile(sweep)
        directory = tmp_path_factory.mktemp("chaos")
        with faults.no_faults():
            serial = run_sweep(sweep, cache=ResultCache(directory / "serial"))
        outcomes = run_party(
            sweep, directory / "party", members=4, profile=profile,
            lease_seconds=CHAOS_LEASE_SECONDS,
        )
        return sweep, serial, directory / "party", outcomes, (mid_claim, mid_write)

    def test_sigkilled_workers_are_reaped_and_the_merge_matches_serial(self, chaos_party):
        sweep, serial, party, outcomes, (mid_claim, mid_write) = chaos_party
        codes = [code for code, _ in outcomes]
        killed = codes.count(-signal.SIGKILL)
        # The mid-claim and the mid-write victim die by SIGKILL.  A third
        # member can die too: a fresh claimant may slip a generation-0
        # claim into the instant between a reaper's rename and its
        # re-claim (docs/sweeps.md), and the kill site fires for it again
        # on the mid-claim point.
        assert killed >= 2, member_errors(party)
        assert codes.count(0) == len(codes) - killed >= 1, member_errors(party)
        for code, result in outcomes:
            if code == 0:
                assert result.value_digest() == serial.value_digest()
        # Exactly-once, party-wide: the mid-claim victim died *before*
        # executing (its point ran once, in its reaper); the mid-write
        # victim died *after* executing (its point ran once, in it).
        assert sorted(party_ledger(party)) == grid_fault_keys(sweep)
        # The mid-write victim's claim guards a cached point.  Its peers
        # resolved that point while the claim was still fresh, so it is
        # left behind -- harmless, and garbage once its lease lapses.  A
        # third victim can leave its claim on the mid-claim point as well.
        time.sleep(CHAOS_LEASE_SECONDS)
        claims = ClaimStore.for_cache(ResultCache(party / "cache"))
        cleaned = {key for key in sweep_keys(sweep) if claims.cleanup_stale(key)}
        if killed == 2:
            assert cleaned == {mid_write}
        else:
            assert {mid_write} <= cleaned <= {mid_write, mid_claim}
        assert not list(claims.directory.glob("*.claim"))

    def test_chaos_merge_replays_warm_with_zero_misses(self, chaos_party):
        sweep, serial, party, _, _ = chaos_party
        replay = run_sweep(sweep, cache=ResultCache(party / "cache"))
        assert replay.cache_misses == 0
        assert replay.value_digest() == serial.value_digest()


@pytest.mark.no_chaos
class TestLeaseValidation:
    """A non-finite, non-positive or overlong lease is refused at every entry
    point, warm cache or cold -- not only when a claim is first written."""

    @pytest.fixture
    def warm_sweep_file(self, tmp_path, monkeypatch):
        sweep = small_sweep(seed=25)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        run_sweep(sweep, cache=ResultCache(tmp_path / "cache"))
        path = tmp_path / "sweep.json"
        path.write_text(sweep.to_json())
        return path

    def test_claim_store_caps_the_lease_at_the_heartbeat_wait(self, tmp_path):
        with pytest.raises(ParameterError, match="finite positive"):
            ClaimStore(tmp_path, lease_seconds=TOO_LONG_LEASE)
        # The longest accepted lease still starts and stops the heartbeat.
        claims = ClaimStore(tmp_path, lease_seconds=threading.TIMEOUT_MAX)
        with _HeartbeatKeeper(claims) as keeper:
            pass
        assert not keeper._thread.is_alive()

    def test_run_sweep_rejects_bad_leases_on_a_warm_cache(self, warm_sweep_file, tmp_path):
        sweep = SweepSpec.from_json(warm_sweep_file.read_text())
        for lease in (*BAD_LEASES, TOO_LONG_LEASE):
            with pytest.raises(ParameterError, match="finite positive"):
                run_sweep(
                    sweep, cache=ResultCache(tmp_path / "cache"), coordinate=True,
                    claim_lease_seconds=lease,
                )

    def test_repro_run_exits_2(self, warm_sweep_file, capsys):
        for lease in ("nan", "inf", "-1", str(TOO_LONG_LEASE)):
            for extra in (["--coordinate"], []):
                code = repro_run(
                    [str(warm_sweep_file), *extra, "--lease-seconds", lease, "--quiet"]
                )
                assert code == 2, (lease, extra)
                assert "--lease-seconds" in capsys.readouterr().err

    def test_repro_serve_exits_2(self, tmp_path, monkeypatch, capsys):
        from repro.service.cli import main as repro_serve

        # A lease that slipped through would start the service: make its
        # serve loop return at once instead of blocking the test.
        monkeypatch.setattr(
            "repro.service.http.ExperimentService.serve_forever",
            lambda self: (_ for _ in ()).throw(KeyboardInterrupt()),
        )
        for lease in ("nan", "inf", "-1", str(TOO_LONG_LEASE)):
            code = repro_serve([
                "--port", "0", "--db", str(tmp_path / "jobs.sqlite3"),
                "--cache-dir", str(tmp_path / "cache"), "--coordinate",
                "--lease-seconds", lease, "--quiet",
            ])
            assert code == 2, lease
            assert "--lease-seconds" in capsys.readouterr().err

    def test_service_rejects_bad_leases(self, tmp_path):
        from repro.service.http import ExperimentService

        for lease in (*BAD_LEASES, TOO_LONG_LEASE):
            with pytest.raises(ParameterError, match="finite positive"):
                ExperimentService(
                    db_path=tmp_path / "jobs.sqlite3",
                    cache=ResultCache(tmp_path / "cache"),
                    coordinate=True,
                    claim_lease_seconds=lease,
                )


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


@pytest.mark.no_chaos
class TestIncrementalHarvest:
    """Points of a claimed batch are stored, released and streamed one by one."""

    def test_fast_point_lands_while_the_slow_one_runs(self, cache):
        sweep = fast_slow_sweep()
        fast_key, slow_key = point_keys(sweep)
        claims = ClaimStore.for_cache(cache)
        with stream_sweep(sweep, cache=cache, coordinate=True) as events:
            first = next(events)
            assert first.index == 0 and not first.point.cached
            assert fast_key in cache and claims.read(fast_key) is None
            # The slow point is still claimed and running: unresolved.
            assert slow_key not in cache and claims.read(slow_key) is not None
            rest = list(events)
        assert [event.index for event in rest] == [1]
        assert slow_key in cache and claims.read(slow_key) is None


@pytest.mark.no_chaos
class TestEarlyExit:
    """A consumer that stops early leaves no worker behind and keeps its prefix."""

    @pytest.mark.parametrize("coordinate", [False, True])
    def test_raising_consumer_kills_the_pool(self, cache, coordinate):
        sweep = fast_slow_sweep()
        consumed = []
        with pytest.raises(RuntimeError, match="consumer gave up"):
            with stream_sweep(
                sweep, cache=cache, coordinate=coordinate, claim_lease_seconds=0.5
            ) as events:
                for event in events:
                    consumed.append(event)
                    raise RuntimeError("consumer gave up")
        assert multiprocessing.active_children() == []
        [event] = consumed
        fast_key, slow_key = point_keys(sweep)
        assert event.point.cache_key == fast_key and fast_key in cache
        assert slow_key not in cache
        # The abandoned tail resumes from the cache like a crashed sweep.
        resumed = run_sweep(sweep, cache=cache, coordinate=coordinate)
        assert resumed.cache_hits == 1 and resumed.executed == 1

    def test_closing_a_coordinated_stream_releases_its_claims(self, cache):
        # The slow point is claimed and running when the stream is closed
        # after the fast one: its claim goes with the pool instead of
        # outliving it for a whole lease.
        lease = 30.0
        sweep = fast_slow_sweep()
        fast_key, slow_key = point_keys(sweep)
        claims = ClaimStore.for_cache(cache)
        with stream_sweep(
            sweep, cache=cache, coordinate=True, claim_lease_seconds=lease
        ) as events:
            first = next(events)
            assert first.point.cache_key == fast_key
            assert claims.read(slow_key) is not None
        assert multiprocessing.active_children() == []
        assert not list(claims.directory.glob("*.claim"))
        # A re-run takes the slow point up at once.
        started = time.monotonic()
        resumed = run_sweep(
            sweep, cache=cache, coordinate=True, claim_lease_seconds=lease,
            claim_poll_interval=0.02,
        )
        assert time.monotonic() - started < lease / 3
        assert resumed.cache_hits == 1 and resumed.executed == 1
        assert not list(claims.directory.glob("*.claim"))
