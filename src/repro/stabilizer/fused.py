"""Fused native kernel tier for the bit-packed Monte-Carlo engine.

:class:`~repro.stabilizer.packed.PackedBatchTableau` made every tableau
operation a handful of word-wise numpy kernels, but the batched executor still
returns to the Python interpreter between every operation of the compiled IR:
per gate it pays a dozen numpy dispatches, and measurements walk Python loops
over tableau rows.  This module removes that per-operation interpreter traffic
by executing the *entire compiled circuit* in one native loop per batch:
gates, Pauli noise injection from pre-sampled packed masks, resets and Z/X
measurements with mod-4 phase accumulation.

The design rests on a structural invariant of the packed engine
("lane uniformity"): every public ``PackedBatchTableau`` operation keeps the X
and Z bit-planes *identical across lanes* -- noise injection and measurement
randomness only ever touch the sign words ``r``.  Gates condition their sign
flips on X/Z bits alone, measurement collapse picks the same pivot row in
every lane, and ghost lanes are initialised exactly like real ones.  The
fused kernel therefore represents the batch as

* ``xb``, ``zb`` -- ``(2n+1, n)`` uint8 booleans (one value per tableau bit,
  shared by all lanes), and
* ``r`` -- the ``(2n+1, W)`` uint64 per-lane sign words of the packed state,

so a gate is a column update plus (at most) a whole-row sign complement, and a
measurement is a single pivot/rowsum walk with integer mod-4 phases -- orders
of magnitude less work than the per-lane word arithmetic it replaces.
Because the X/Z evolution is noise-independent, the random-vs-deterministic
measurement schedule of a circuit is a pure function of the program and the
initial X/Z planes; it is recorded once by a cheap ``W=1`` kernel pass and
cached, so all randomness can be sampled before the kernel launches.  The
built-in noise models draw one sparse **noise block** per run
(:func:`noise_block`): per event a binomial failure count, then the failing
lanes and their Pauli letters, in O(failures) work and a constant number of
generator calls.  The measurement words follow, in schedule order, from the
state's generator.  The ``"packed"`` engine consumes the same block (custom
models take the same per-operation hooks on both engines), so seeded runs are
bit-for-bit identical across the two backends.

Two interchangeable kernels implement the loop, with the same signature:

* a small C kernel (``fused_kernel.c``) compiled on demand with the system C
  compiler and loaded through ctypes;
* :func:`fused_kernel_numpy` -- a pure-numpy vectorized fallback, so the
  module imports and runs (slower) with no compiler at all.

Both are pinned bit for bit against the per-operation ``"packed"`` engine,
which is their semantic reference.  ``REPRO_FUSED_KERNEL`` selects the tier
explicitly (``auto`` / ``cext`` / ``numpy``); ``auto`` takes the C kernel
when it compiles and logs a warning once when it falls back to numpy.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import weakref
from pathlib import Path

import numpy as np

from repro import faults
from repro.circuits.compiled import (
    CompiledCircuit,
    Opcode,
    require_simulable,
)
from repro.exceptions import SimulationError
from repro.pauli import PauliString
from repro.stabilizer.noise import (
    DepolarizingNoise,
    NoiseModel,
    OperationNoise,
    _ONE_QUBIT_X,
    _ONE_QUBIT_Z,
    _TWO_QUBIT_ERRORS,
    _TWO_QUBIT_X,
    _TWO_QUBIT_Z,
)
from repro.stabilizer.packed import (
    _UINT64_MAX,
    PackedBatchTableau,
    num_words,
    unpack_bits,
)

__all__ = [
    "SUPPORTED_OPCODES",
    "KERNEL_TIERS",
    "FusedPackedBatchTableau",
    "fused_kernel_numpy",
    "kernel_tier",
    "NoiseBlock",
    "noise_block",
    "execute_fused",
]

_LOG = logging.getLogger("repro")

#: Opcodes the fused kernel executes.  Exactly the simulable IR: the Clifford
#: gates plus preparation and the two measurement bases.  Timing-only opcodes
#: (TOFFOLI/CCZ/T/TDG) are rejected up front by ``require_simulable``.
SUPPORTED_OPCODES: frozenset[int] = frozenset(
    {
        int(Opcode.I),
        int(Opcode.H),
        int(Opcode.S),
        int(Opcode.SDG),
        int(Opcode.X),
        int(Opcode.Y),
        int(Opcode.Z),
        int(Opcode.CNOT),
        int(Opcode.CZ),
        int(Opcode.SWAP),
        int(Opcode.PREPARE),
        int(Opcode.MEASURE),
        int(Opcode.MEASURE_X),
    }
)

#: Kernel tiers, in ``auto`` preference order.
KERNEL_TIERS = ("cext", "numpy")

#: CHP ``g`` phase function as a 4x4 table over symplectic codes
#: ``(x << 1) | z`` (I=0, Z=1, X=2, Y=3); entries are the phase contribution
#: mod 4 (+1 -> 1, -1 -> 3).  Matches ``repro.stabilizer.packed._g_masks``.
_G4 = np.array(
    [
        [0, 0, 0, 0],  # P1 = I
        [0, 0, 1, 3],  # P1 = Z: +1 against X, -1 against Y
        [0, 3, 0, 1],  # P1 = X: -1 against Z, +1 against Y
        [0, 1, 3, 0],  # P1 = Y: +1 against Z, -1 against X
    ],
    dtype=np.int64,
)

# Kernel status codes (shared by both tiers and the C source).
_STATUS_OK = 0
_STATUS_UNKNOWN_OPCODE = 1
_STATUS_SCHEDULE_MISMATCH = 2
_STATUS_ODD_PHASE = 3

_STATUS_MESSAGES = {
    _STATUS_UNKNOWN_OPCODE: "unknown opcode reached the fused kernel",
    _STATUS_SCHEDULE_MISMATCH: (
        "measurement randomness schedule diverged from the recorded pass"
    ),
    _STATUS_ODD_PHASE: "non-real phase in a stabilizer rowsum",
}


# ----------------------------------------------------------------------
# Numpy fallback tier (identical signature, vectorized over rows)
# ----------------------------------------------------------------------


def _np_h(xb, zb, r, a):
    cond = (xb[:, a] & zb[:, a]) != 0
    if cond.any():
        r[cond] ^= _UINT64_MAX
    tmp = xb[:, a].copy()
    xb[:, a] = zb[:, a]
    zb[:, a] = tmp


def _np_cnot(xb, zb, r, a, b):
    cond = (xb[:, a] & zb[:, b] & (1 ^ (xb[:, b] ^ zb[:, a]))) != 0
    if cond.any():
        r[cond] ^= _UINT64_MAX
    xb[:, b] ^= xb[:, a]
    zb[:, a] ^= zb[:, b]


def _np_inject(xb, zb, r, e, inj_start, inj_qubit, inj_x, inj_z):
    for idx in range(int(inj_start[e]), int(inj_start[e + 1])):
        q = int(inj_qubit[idx])
        z_rows = zb[:, q] != 0
        if z_rows.any():
            r[z_rows] ^= inj_x[idx]
        x_rows = xb[:, q] != 0
        if x_rows.any():
            r[x_rows] ^= inj_z[idx]


def _np_measure(n, W, a, k, mode, sched, draw_index, drawn, xb, zb, r, mout):
    random = bool(xb[n : 2 * n, a].any())
    if mode == 1:
        sched[k] = 1 if random else 0
    elif random != (draw_index[k] >= 0):
        return _STATUS_SCHEDULE_MISMATCH
    if random:
        p = int(np.flatnonzero(xb[n : 2 * n, a])[0])
        piv = n + p
        selected = np.flatnonzero(xb[:, a])
        selected = selected[(selected != p) & (selected != piv)]
        if selected.size:
            codes = (xb[selected] << 1) | zb[selected]
            piv_codes = (xb[piv] << 1) | zb[piv]
            g = _G4[codes, piv_codes[None, :]].sum(axis=1)
            if (g & 1).any():
                return _STATUS_ODD_PHASE
            flips = selected[(g & 2) != 0]
            if flips.size:
                r[flips] ^= _UINT64_MAX
            r[selected] ^= r[piv]
            xb[selected] ^= xb[piv]
            zb[selected] ^= zb[piv]
        xb[p] = xb[piv]
        zb[p] = zb[piv]
        r[p] = r[piv]
        xb[piv] = 0
        zb[piv] = 0
        zb[piv, a] = 1
        if mode == 0:
            mout[:] = drawn[int(draw_index[k])]
        else:
            mout[:] = 0
        r[piv] = mout
    else:
        selected = np.flatnonzero(xb[:n, a])
        acc_x = np.zeros(n, dtype=np.uint8)
        acc_z = np.zeros(n, dtype=np.uint8)
        mout[:] = 0
        phase = 0
        for i in selected:
            row = n + int(i)
            phase += int(
                _G4[(acc_x << 1) | acc_z, (xb[row] << 1) | zb[row]].sum()
            )
            acc_x ^= xb[row]
            acc_z ^= zb[row]
            mout ^= r[row]
        if phase & 1:
            return _STATUS_ODD_PHASE
        if phase & 2:
            np.bitwise_not(mout, out=mout)
    return _STATUS_OK


def fused_kernel_numpy(
    n,
    W,
    opcodes,
    qubit0,
    qubit1,
    slots,
    draw_index,
    pre_inj,
    post_inj,
    inj_start,
    inj_qubit,
    inj_x,
    inj_z,
    drawn,
    out,
    xb,
    zb,
    r,
    mode,
    sched,
    scratch_x,
    scratch_z,
    racc,
    mout,
):
    """Pure-numpy kernel with the same signature as the C kernel.

    Parameters (all arrays C-contiguous):

    ``n``/``W``
        Register size and packed word count; the tableau has ``2n+1`` rows.
    ``opcodes``/``qubit0``/``qubit1``/``slots``
        ``(ops,)`` int32 program arrays (see ``CompiledCircuit.kernel_arrays``).
    ``draw_index``
        ``(ops,)`` int32: row into ``drawn`` holding the pre-sampled random
        measurement words of this operation, ``-1`` when the measurement is
        deterministic (or the op measures nothing).
    ``pre_inj``/``post_inj``
        ``(ops,)`` int32 indices of the noise-injection record applied before
        (movement) / after (gate, preparation) the operation, ``-1`` for none.
    ``inj_start``/``inj_qubit``/``inj_x``/``inj_z``
        Flattened injection records: record ``e`` covers support entries
        ``inj_start[e]:inj_start[e+1]`` of ``inj_qubit`` with packed
        ``(K, W)`` uint64 X/Z masks.
    ``drawn``/``out``
        ``(D, W)`` pre-sampled measurement words / ``(M, W)`` outcome words.
    ``xb``/``zb``/``r``
        The fused state (updated in place).
    ``mode``/``sched``
        ``mode=0`` runs the program; ``mode=1`` records the measurement
        randomness schedule into ``sched`` (int8: 1 random, 0 deterministic,
        ``-1`` untouched for non-measuring ops) without consuming draws or
        injections.  In run mode the recomputed schedule is verified against
        ``draw_index`` and any divergence aborts with a nonzero status.
    ``scratch_x``/``scratch_z``/``racc``/``mout``
        ``(n,)`` uint8 / ``(W,)`` uint64 scratch buffers (the C kernel's
        working storage; this kernel only writes ``mout``).

    Each operation is a handful of vectorized updates over the ``2n+1``
    tableau rows.  Returns a status code: 0 on success (see ``_STATUS_*``).
    """
    for k in range(opcodes.shape[0]):
        op = int(opcodes[k])
        if mode == 0:
            e = int(pre_inj[k])
            if e >= 0:
                _np_inject(xb, zb, r, e, inj_start, inj_qubit, inj_x, inj_z)
        if op <= 9:
            a = int(qubit0[k])
            if op == 0:
                pass
            elif op == 1:
                _np_h(xb, zb, r, a)
            elif op == 2:
                cond = (xb[:, a] & zb[:, a]) != 0
                if cond.any():
                    r[cond] ^= _UINT64_MAX
                zb[:, a] ^= xb[:, a]
            elif op == 3:
                cond = (xb[:, a] & (xb[:, a] ^ zb[:, a])) != 0
                if cond.any():
                    r[cond] ^= _UINT64_MAX
                zb[:, a] ^= xb[:, a]
            elif op == 4:
                cond = zb[:, a] != 0
                if cond.any():
                    r[cond] ^= _UINT64_MAX
            elif op == 5:
                cond = (xb[:, a] ^ zb[:, a]) != 0
                if cond.any():
                    r[cond] ^= _UINT64_MAX
            elif op == 6:
                cond = xb[:, a] != 0
                if cond.any():
                    r[cond] ^= _UINT64_MAX
            elif op == 7:
                _np_cnot(xb, zb, r, a, int(qubit1[k]))
            elif op == 8:
                b = int(qubit1[k])
                _np_h(xb, zb, r, b)
                _np_cnot(xb, zb, r, a, b)
                _np_h(xb, zb, r, b)
            else:
                b = int(qubit1[k])
                for plane in (xb, zb):
                    tmp = plane[:, a].copy()
                    plane[:, a] = plane[:, b]
                    plane[:, b] = tmp
        elif op <= 12:
            a = int(qubit0[k])
            if op == 12:
                _np_h(xb, zb, r, a)
            status = _np_measure(
                n, W, a, k, mode, sched, draw_index, drawn, xb, zb, r, mout
            )
            if status != 0:
                return status
            if op == 12:
                _np_h(xb, zb, r, a)
            if op == 10:
                z_rows = zb[:, a] != 0
                if z_rows.any():
                    r[z_rows] ^= mout
            else:
                out[int(slots[k])] = mout
        else:
            return _STATUS_UNKNOWN_OPCODE
        if mode == 0:
            e = int(post_inj[k])
            if e >= 0:
                _np_inject(xb, zb, r, e, inj_start, inj_qubit, inj_x, inj_z)
    return _STATUS_OK


# ----------------------------------------------------------------------
# C extension tier (compiled on demand, loaded through ctypes)
# ----------------------------------------------------------------------

_CEXT_SOURCE = Path(__file__).with_name("fused_kernel.c")
_CEXT_FN = None
_CEXT_ERROR: str | None = None


def _cext_cache_dir() -> Path:
    override = os.environ.get("REPRO_FUSED_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-fused"


def _cext_kernel():
    """The ctypes entry point of the compiled C kernel, or None with a reason."""
    global _CEXT_FN, _CEXT_ERROR
    if _CEXT_FN is not None or _CEXT_ERROR is not None:
        return _CEXT_FN
    try:
        source = _CEXT_SOURCE.read_text()
    except OSError as exc:
        _CEXT_ERROR = f"cannot read {_CEXT_SOURCE.name}: {exc}"
        return None
    digest = hashlib.sha256(source.encode()).hexdigest()[:16]
    cache_dir = _cext_cache_dir()
    shared = cache_dir / f"fused_kernel_{digest}.so"
    if not shared.exists():
        compiler = (
            os.environ.get("CC")
            or shutil.which("cc")
            or shutil.which("gcc")
            or shutil.which("clang")
        )
        if compiler is None:
            _CEXT_ERROR = "no C compiler found (set CC or install cc/gcc/clang)"
            return None
        try:
            cache_dir.mkdir(parents=True, exist_ok=True)
            staging = shared.with_name(f"{shared.stem}.{os.getpid()}.tmp.so")
            proc = subprocess.run(
                [compiler, "-O3", "-shared", "-fPIC", "-o", str(staging), str(_CEXT_SOURCE)],
                capture_output=True,
                text=True,
                timeout=120,
            )
            if proc.returncode != 0:
                _CEXT_ERROR = f"C kernel compilation failed: {proc.stderr.strip()}"
                return None
            os.replace(staging, shared)
        except OSError as exc:
            _CEXT_ERROR = f"C kernel build failed: {exc}"
            return None
    try:
        library = ctypes.CDLL(str(shared))
        fn = library.repro_fused_run
    except OSError as exc:
        _CEXT_ERROR = f"cannot load compiled kernel {shared.name}: {exc}"
        return None
    fn.restype = ctypes.c_int64
    fn.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 16 + [
        ctypes.c_int64,
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_void_p,
    ]
    _CEXT_FN = fn
    return fn


def _call_cext(
    fn,
    n,
    W,
    opcodes,
    qubit0,
    qubit1,
    slots,
    draw_index,
    pre_inj,
    post_inj,
    inj_start,
    inj_qubit,
    inj_x,
    inj_z,
    drawn,
    out,
    xb,
    zb,
    r,
    mode,
    sched,
    scratch_x,
    scratch_z,
    racc,
    mout,
):
    return int(
        fn(
            n,
            W,
            opcodes.shape[0],
            opcodes.ctypes.data,
            qubit0.ctypes.data,
            qubit1.ctypes.data,
            slots.ctypes.data,
            draw_index.ctypes.data,
            pre_inj.ctypes.data,
            post_inj.ctypes.data,
            inj_start.ctypes.data,
            inj_qubit.ctypes.data,
            inj_x.ctypes.data,
            inj_z.ctypes.data,
            drawn.ctypes.data,
            out.ctypes.data,
            xb.ctypes.data,
            zb.ctypes.data,
            r.ctypes.data,
            mode,
            sched.ctypes.data,
            scratch_x.ctypes.data,
            scratch_z.ctypes.data,
            racc.ctypes.data,
            mout.ctypes.data,
        )
    )


# ----------------------------------------------------------------------
# Tier selection
# ----------------------------------------------------------------------

_TIER_CACHE: dict[str, str] = {}


def kernel_tier() -> str:
    """The kernel tier in effect: ``"cext"`` or ``"numpy"``.

    Controlled by the ``REPRO_FUSED_KERNEL`` environment variable (``auto``,
    the default, takes the C kernel when it compiles and otherwise falls back
    to numpy, logging the recorded compile error once on the ``repro``
    logger).  Forcing an unavailable tier raises :class:`SimulationError`
    with the recorded reason.
    """
    requested = os.environ.get("REPRO_FUSED_KERNEL", "auto").strip().lower() or "auto"
    # Fault injection (repro.faults, KERNEL_NATIVE site): while a profile
    # with a nonzero kernel rate is active, the tier cache is bypassed so
    # fault decisions are re-evaluated per call and never pollute the
    # steady-state cache.
    profile = faults.active_profile()
    fault_gated = profile is not None and profile.kernel > 0.0
    if not fault_gated:
        cached = _TIER_CACHE.get(requested)
        if cached is not None:
            return cached
    if requested not in ("auto",) + KERNEL_TIERS:
        raise SimulationError(
            f"REPRO_FUSED_KERNEL={requested!r} is not a kernel tier; "
            f"expected 'auto' or one of {KERNEL_TIERS}"
        )
    if fault_gated and faults.should_fire(
        faults.KERNEL_NATIVE,
        faults.fault_key(f"kernel_tier:{requested}"),
        profile=profile,
    ):
        # Behave exactly as if the C kernel had not compiled: an explicit
        # cext request fails loudly, "auto"/"numpy" degrade to the
        # pure-numpy kernel (which is bit-identical, just slower).
        if requested == "cext":
            raise SimulationError(
                "REPRO_FUSED_KERNEL=cext: injected native-kernel "
                "failure (repro.faults kernel.native site)"
            )
        return "numpy"
    if requested == "cext" and _cext_kernel() is None:
        raise SimulationError(f"REPRO_FUSED_KERNEL=cext: {_CEXT_ERROR}")
    if requested == "auto":
        tier = "cext" if _cext_kernel() is not None else "numpy"
        if tier == "numpy" and not fault_gated:
            _LOG.warning(
                "fused kernel: no C kernel (%s); running the numpy kernel, "
                "which gives the same bits more slowly",
                _CEXT_ERROR,
            )
    else:
        tier = requested
    if not fault_gated:
        _TIER_CACHE[requested] = tier
    return tier


def _run_kernel(tier: str, *args) -> int:
    if tier == "cext":
        return _call_cext(_cext_kernel(), *args)
    return int(fused_kernel_numpy(*args))


# ----------------------------------------------------------------------
# Kernel plans: compiled programs lowered to kernel-ready arrays
# ----------------------------------------------------------------------


class _WeakIdCache:
    """An identity-keyed cache whose entries die with their keys.

    ``CompiledCircuit`` is a frozen dataclass holding numpy arrays, so it is
    neither hashable nor cheap to compare; identity is the right key and a
    weak reference keeps a freed program's reused address from resurrecting a
    stale plan.
    """

    def __init__(self) -> None:
        self._entries: dict[int, tuple[weakref.ref, object]] = {}

    def get(self, key):
        entry = self._entries.get(id(key))
        if entry is None:
            return None
        ref, value = entry
        return value if ref() is key else None

    def set(self, key, value) -> None:
        ident = id(key)
        entries = self._entries
        ref = weakref.ref(key, lambda _unused, ident=ident: entries.pop(ident, None))
        entries[ident] = (ref, value)


_PLAN_CACHE = _WeakIdCache()

#: Bound on the per-plan schedule / noise-template caches; programs are
#: normally run against a handful of initial states, but randomized tests
#: stream fresh states through shared executors.
_PLAN_CACHE_LIMIT = 64


class _KernelPlan:
    """A compiled program lowered to contiguous kernel arrays plus caches."""

    __slots__ = (
        "opcodes",
        "qubit0",
        "qubit1",
        "exposure",
        "moved",
        "slots",
        "num_measurements",
        "schedule_cache",
        "template_cache",
    )

    def __init__(self, program: CompiledCircuit) -> None:
        (
            self.opcodes,
            self.qubit0,
            self.qubit1,
            self.exposure,
            self.moved,
            self.slots,
        ) = program.kernel_arrays()
        unsupported = set(np.unique(self.opcodes).tolist()) - SUPPORTED_OPCODES
        if unsupported:
            names = sorted(Opcode(op).name for op in unsupported)
            raise SimulationError(
                f"circuit {program.name!r} contains opcodes {names} that the "
                "fused kernel does not support"
            )
        self.num_measurements = program.num_measurements
        self.schedule_cache: dict = {}
        self.template_cache: dict = {}


def _plan_for(program: CompiledCircuit) -> _KernelPlan:
    plan = _PLAN_CACHE.get(program)
    if plan is None:
        plan = _KernelPlan(program)
        _PLAN_CACHE.set(program, plan)
    return plan


# ----------------------------------------------------------------------
# Measurement randomness schedule (recorded once per program + X/Z state)
# ----------------------------------------------------------------------

_EMPTY_I32 = np.zeros(0, dtype=np.int32)
_ONE_I32 = np.zeros(1, dtype=np.int32)


def _schedule_for(
    plan: _KernelPlan, n: int, xb: np.ndarray, zb: np.ndarray, tier: str
) -> tuple[np.ndarray, np.ndarray, int]:
    """The random/deterministic measurement schedule for one initial state.

    Because the X/Z planes evolve independently of noise and measurement
    outcomes (lane uniformity), whether each measurement-like operation draws
    randomness is a pure function of the program and the initial planes; one
    ``W=1`` record pass computes it and the result is cached by state digest.
    Returns ``(sched, draw_index, draw_count)``.
    """
    key = (n, xb.tobytes(), zb.tobytes())
    cached = plan.schedule_cache.get(key)
    if cached is not None:
        return cached
    ops = plan.opcodes.shape[0]
    rows = 2 * n + 1
    sched = np.full(ops, -1, dtype=np.int8)
    draw_index = np.full(ops, -1, dtype=np.int32)
    dummy_words = np.zeros((1, 1), dtype=np.uint64)
    status = _run_kernel(
        tier,
        n,
        1,
        plan.opcodes,
        plan.qubit0,
        plan.qubit1,
        plan.slots,
        draw_index,
        np.full(ops, -1, dtype=np.int32),
        np.full(ops, -1, dtype=np.int32),
        _ONE_I32,
        _EMPTY_I32,
        dummy_words,
        dummy_words,
        dummy_words,
        np.zeros((max(plan.num_measurements, 1), 1), dtype=np.uint64),
        xb.copy(),
        zb.copy(),
        np.zeros((rows, 1), dtype=np.uint64),
        1,
        sched,
        np.zeros(n, dtype=np.uint8),
        np.zeros(n, dtype=np.uint8),
        np.zeros(1, dtype=np.uint64),
        np.zeros(1, dtype=np.uint64),
    )
    if status != 0:
        raise SimulationError(
            f"fused schedule pass failed: {_STATUS_MESSAGES.get(status, status)}"
        )
    random_ops = np.flatnonzero(sched == 1)
    draw_index[random_ops] = np.arange(random_ops.size, dtype=np.int32)
    if len(plan.schedule_cache) >= _PLAN_CACHE_LIMIT:
        plan.schedule_cache.clear()
    result = (sched, draw_index, int(random_ops.size))
    plan.schedule_cache[key] = result
    return result


# ----------------------------------------------------------------------
# Noise block: a whole run's noise sampled in O(failures)
# ----------------------------------------------------------------------

# Letter codes of a failure: 0 is the preparation X flip, 1..3 the one-qubit
# depolarizing letters, 4..18 the two-qubit pairs and 19 a classical
# measurement flip.  ``_CODE_HITS[code]`` marks the rows of its record the
# failure sets its lane bit in: [X side 0, Z side 0, X side 1, Z side 1, flip].
_PREP_CODE = 0
_ONE_QUBIT_CODE = 1
_TWO_QUBIT_CODE = 4
_FLIP_CODE = 19
_CODE_HITS = np.zeros((20, 5), dtype=np.bool_)
_CODE_HITS[_PREP_CODE, 0] = True
_CODE_HITS[1:4, 0] = _ONE_QUBIT_X != 0
_CODE_HITS[1:4, 1] = _ONE_QUBIT_Z != 0
_CODE_HITS[4:19, 0] = _TWO_QUBIT_X[:, 0] != 0
_CODE_HITS[4:19, 1] = _TWO_QUBIT_Z[:, 0] != 0
_CODE_HITS[4:19, 2] = _TWO_QUBIT_X[:, 1] != 0
_CODE_HITS[4:19, 3] = _TWO_QUBIT_Z[:, 1] != 0
_CODE_HITS[_FLIP_CODE, 4] = True

_BIT64 = np.uint64(1) << np.arange(64, dtype=np.uint64)


def _noise_signature(noise: NoiseModel):
    """The noise-template cache key of a built-in model, None for custom ones.

    Only the exact built-in classes qualify: their hooks are independent
    depolarizing events, which the noise block samples directly.  A subclass
    may override any hook, so it keeps the per-operation hook path on both
    engines.
    """
    if noise.is_noiseless:
        return ("noiseless",)
    if type(noise) in (OperationNoise, DepolarizingNoise):
        return (
            "operation",
            noise.p_single,
            noise.p_double,
            noise.p_measure,
            noise.p_prepare,
            noise.p_move_per_cell,
        )
    return None


class _NoiseTemplate:
    """The failable events of one program under one built-in noise model.

    Event ``e`` fails in each lane independently with probability ``p[e]``
    (events of probability zero are dropped).  A failing lane draws a letter
    uniformly from ``letters[e]`` choices (one choice draws nothing); the code
    ``code[e] + letter`` picks, through ``_CODE_HITS``, the rows
    ``row[e] + offset[hit]`` of the block's word buffer -- the X, Z and flip
    planes stacked -- that get the lane's bit.
    """

    __slots__ = (
        "p",
        "letters",
        "code",
        "row",
        "offset",
        "support",
        "num_rows",
        "pre_inj",
        "post_inj",
        "inj_start",
        "inj_qubit",
        "flip_slots",
    )

    def __init__(self, plan: _KernelPlan, noise: NoiseModel) -> None:
        ops = plan.opcodes.shape[0]
        self.pre_inj = np.full(ops, -1, dtype=np.int32)
        self.post_inj = np.full(ops, -1, dtype=np.int32)
        inj_qubit: list[int] = []
        inj_start = [0]
        events: list[tuple[float, int, int, int]] = []  # (p, letters, code, row)
        flips: list[float] = []
        flip_slots: list[int] = []

        def record(p: float, qubits: tuple[int, ...], letters: int, code: int) -> int:
            if p <= 0.0:
                return -1
            events.append((p, letters, code, len(inj_qubit)))
            inj_qubit.extend(qubits)
            inj_start.append(len(inj_qubit))
            return len(inj_start) - 2

        if not noise.is_noiseless:
            for k in range(ops):
                op = int(plan.opcodes[k])
                q0 = int(plan.qubit0[k])
                q1 = int(plan.qubit1[k])
                exposure = int(plan.exposure[k])
                if exposure > 0:
                    self.pre_inj[k] = record(
                        1.0 - (1.0 - noise.p_move_per_cell) ** exposure,
                        (int(plan.moved[k]),),
                        3,
                        _ONE_QUBIT_CODE,
                    )
                if op == Opcode.PREPARE:
                    self.post_inj[k] = record(noise.p_prepare, (q0,), 1, _PREP_CODE)
                elif op in (Opcode.MEASURE, Opcode.MEASURE_X):
                    if noise.p_measure > 0.0:
                        flips.append(noise.p_measure)
                        flip_slots.append(int(plan.slots[k]))
                elif q1 >= 0:
                    self.post_inj[k] = record(
                        noise.p_double, (q0, q1), len(_TWO_QUBIT_ERRORS), _TWO_QUBIT_CODE
                    )
                else:
                    self.post_inj[k] = record(noise.p_single, (q0,), 3, _ONE_QUBIT_CODE)
        support = len(inj_qubit)
        events += [(p, 1, _FLIP_CODE, 2 * support + f) for f, p in enumerate(flips)]
        self.p = np.array([event[0] for event in events], dtype=np.float64)
        self.letters = np.array([event[1] for event in events], dtype=np.int64)
        self.code = np.array([event[2] for event in events], dtype=np.int64)
        self.row = np.array([event[3] for event in events], dtype=np.int64)
        self.offset = np.array([0, support, 1, support + 1, 0], dtype=np.int64)
        self.support = support
        self.num_rows = 2 * support + len(flips)
        self.inj_start = np.asarray(inj_start, dtype=np.int32)
        self.inj_qubit = np.asarray(inj_qubit, dtype=np.int32)
        self.flip_slots = np.asarray(flip_slots, dtype=np.int64)


class NoiseBlock:
    """One run's sampled noise, laid out as the kernel's injection records.

    Record ``e`` applies Pauli words ``inj_x``/``inj_z`` rows
    ``inj_start[e]:inj_start[e+1]`` to qubits ``inj_qubit`` of the same
    rows; ``pre_inj[k]``/``post_inj[k]`` name the record applied before /
    after operation ``k`` (``-1`` for none).  ``flip_words`` are XORed onto
    the measurement outcome rows ``flip_slots``, and ``error_count`` counts
    the failed events of each lane.
    """

    __slots__ = (
        "pre_inj",
        "post_inj",
        "inj_start",
        "inj_qubit",
        "inj_x",
        "inj_z",
        "flip_slots",
        "flip_words",
        "error_count",
    )

    def inject(self, state: PackedBatchTableau, record: int) -> None:
        """Apply injection record ``record`` to a packed state (none if < 0)."""
        if record < 0:
            return
        start, stop = int(self.inj_start[record]), int(self.inj_start[record + 1])
        state.inject_pauli_words(
            tuple(self.inj_qubit[start:stop].tolist()),
            self.inj_x[start:stop],
            self.inj_z[start:stop],
        )


def _failing_lanes(counts: np.ndarray, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted keys ``event * batch_size + lane`` of every failure.

    Event ``e`` gets a uniformly random ``counts[e]``-subset of the lanes.
    All lanes come from one ``integers`` call; a lane repeated within an
    event is redrawn, uniformly over every lane, until the event's lanes are
    distinct.  The procedure treats every lane alike, so the law of each
    event's lane set is invariant under relabelling lanes -- which on
    fixed-size subsets means exactly uniform.  Events failing in more than
    half the lanes draw their passing lanes instead, so each redraw round at
    least halves the repeats in expectation.
    """
    dense = 2 * counts > batch_size
    drawn = np.where(dense, batch_size - counts, counts)
    events = np.repeat(np.arange(counts.size, dtype=np.int64), drawn)
    keys = events * batch_size + rng.integers(0, batch_size, size=events.size)
    keys.sort()
    while True:
        repeats = np.flatnonzero(keys[1:] == keys[:-1]) + 1
        if not repeats.size:
            break
        lanes = rng.integers(0, batch_size, size=repeats.size)
        keys[repeats] += lanes - keys[repeats] % batch_size
        keys.sort()
    if dense.any():
        dense_events = np.flatnonzero(dense)
        failing = np.ones((dense_events.size, batch_size), dtype=np.bool_)
        is_passing = dense[keys // batch_size]
        passing = keys[is_passing]
        failing[np.searchsorted(dense_events, passing // batch_size), passing % batch_size] = False
        row, lane = np.nonzero(failing)
        keys = np.concatenate((keys[~is_passing], dense_events[row] * batch_size + lane))
        keys.sort()
    return keys


def _sample_block(
    template: _NoiseTemplate, batch_size: int, rng: np.random.Generator
) -> NoiseBlock:
    """Sample a template's events for ``batch_size`` lanes in O(1) RNG calls.

    ``binomial`` gives every event's failure count, :func:`_failing_lanes`
    the failing lanes and one ``integers`` call the depolarizing letters of
    the failing lanes only; the joint law is that of independent
    Bernoulli(``p``) lanes with uniform letters.  A template without events
    leaves ``rng`` untouched.
    """
    words = np.zeros((template.num_rows, num_words(batch_size)), dtype=np.uint64)
    error_count = np.zeros(batch_size, dtype=np.int64)
    counts = rng.binomial(batch_size, template.p) if template.p.size else None
    if counts is not None and counts.any():
        keys = _failing_lanes(counts, batch_size, rng)
        event, lane = np.divmod(keys, batch_size)
        letters = template.letters[event]
        code = template.code[event]
        depolarizing = letters > 1
        code[depolarizing] += rng.integers(0, letters[depolarizing])
        failure, hit = np.nonzero(_CODE_HITS[code])
        target_lane = lane[failure]
        np.bitwise_or.at(
            words,
            (template.row[event[failure]] + template.offset[hit], target_lane >> 6),
            _BIT64[target_lane & 63],
        )
        error_count += np.bincount(lane, minlength=batch_size)
    support = template.support
    block = NoiseBlock()
    block.pre_inj = template.pre_inj
    block.post_inj = template.post_inj
    block.inj_start = template.inj_start
    block.inj_qubit = template.inj_qubit
    block.inj_x = words[:support]
    block.inj_z = words[support : 2 * support]
    block.flip_slots = template.flip_slots
    block.flip_words = words[2 * support :]
    block.error_count = error_count
    return block


def _plan_block(
    plan: _KernelPlan, noise: NoiseModel, batch_size: int, rng: np.random.Generator
) -> NoiseBlock | None:
    signature = _noise_signature(noise)
    if signature is None:
        return None
    template = plan.template_cache.get(signature)
    if template is None:
        if len(plan.template_cache) >= _PLAN_CACHE_LIMIT:
            plan.template_cache.clear()
        template = plan.template_cache[signature] = _NoiseTemplate(plan, noise)
    return _sample_block(template, batch_size, rng)


def noise_block(
    program: CompiledCircuit,
    noise: NoiseModel,
    batch_size: int,
    rng: np.random.Generator,
) -> NoiseBlock | None:
    """Sample one run's noise for a built-in model; None for a custom one.

    Both batched engines consume this block for ``OperationNoise`` and
    ``DepolarizingNoise`` (and any noiseless model), drawing it from ``rng``
    before the run's measurement words, so they agree bit for bit.  Custom
    models return None and keep their per-operation hooks.
    """
    return _plan_block(_plan_for(program), noise, batch_size, rng)


def _measurement_words(draw_count: int, W: int, rng: np.random.Generator) -> np.ndarray:
    """The random measurement words of one run, in schedule order."""
    if not draw_count:
        return np.zeros((1, W), dtype=np.uint64)
    return rng.integers(0, _UINT64_MAX, size=(draw_count, W), dtype=np.uint64, endpoint=True)


def _sample_hooks(
    plan: _KernelPlan,
    noise: NoiseModel,
    sched: np.ndarray,
    draw_index: np.ndarray,
    draw_count: int,
    batch_size: int,
    W: int,
    n: int,
    noise_rng: np.random.Generator,
    draw_rng: np.random.Generator,
) -> tuple[NoiseBlock, np.ndarray]:
    """Sample a custom model through its packed hooks: ``(block, drawn)``.

    Calls exactly the hooks ``_run_packed`` calls for a custom model, in the
    same order and interleaved with the measurement-word draws, so any
    :class:`NoiseModel` subclass -- including ones that only implement the
    scalar hooks -- keeps its RNG stream and its error semantics.  Supports
    may extend beyond the operands (crosstalk), so injection records are
    built dynamically.
    """
    ops = plan.opcodes.shape[0]
    drawn = np.zeros((max(draw_count, 1), W), dtype=np.uint64)
    block = NoiseBlock()
    block.pre_inj = np.full(ops, -1, dtype=np.int32)
    block.post_inj = np.full(ops, -1, dtype=np.int32)
    inj_qubit: list[int] = []
    inj_start = [0]
    inj_x_parts: list[np.ndarray] = [np.zeros((0, W), dtype=np.uint64)]
    inj_z_parts: list[np.ndarray] = [np.zeros((0, W), dtype=np.uint64)]
    flips: list[np.ndarray] = [np.zeros((0, W), dtype=np.uint64)]
    flip_slots: list[int] = []
    error_count = np.zeros(batch_size, dtype=np.int64)

    def add_record(sampled) -> int:
        support, x_words, z_words, event_words = sampled
        if not event_words.any():
            return -1
        for qubit in support:
            if not 0 <= qubit < n:
                raise SimulationError(
                    f"noise model emitted qubit {qubit} outside register of size {n}"
                )
        inj_qubit.extend(int(q) for q in support)
        inj_start.append(len(inj_qubit))
        inj_x_parts.append(np.asarray(x_words, dtype=np.uint64))
        inj_z_parts.append(np.asarray(z_words, dtype=np.uint64))
        error_count[:] += unpack_bits(event_words, batch_size)
        return len(inj_start) - 2

    def draw_word(k: int) -> None:
        if sched[k] == 1:
            drawn[int(draw_index[k])] = draw_rng.integers(
                0, _UINT64_MAX, size=W, dtype=np.uint64, endpoint=True
            )

    for k in range(ops):
        op = int(plan.opcodes[k])
        q0 = int(plan.qubit0[k])
        q1 = int(plan.qubit1[k])
        if plan.exposure[k] > 0:
            block.pre_inj[k] = add_record(
                noise.sample_movement_error_packed(
                    int(plan.moved[k]), int(plan.exposure[k]), batch_size, noise_rng
                )
            )
        if op == Opcode.PREPARE:
            draw_word(k)
            block.post_inj[k] = add_record(
                noise.sample_preparation_error_packed(q0, batch_size, noise_rng)
            )
        elif op in (Opcode.MEASURE, Opcode.MEASURE_X):
            draw_word(k)
            flip_words = noise.measurement_flip_packed(batch_size, noise_rng)
            if flip_words.any():
                flips.append(flip_words[None, :])
                flip_slots.append(int(plan.slots[k]))
                error_count += unpack_bits(flip_words, batch_size)
        else:
            operands = (q0,) if q1 < 0 else (q0, q1)
            block.post_inj[k] = add_record(
                noise.sample_gate_error_packed(Opcode(op).name, operands, batch_size, noise_rng)
            )

    block.inj_start = np.asarray(inj_start, dtype=np.int32)
    block.inj_qubit = np.asarray(inj_qubit, dtype=np.int32)
    block.inj_x = np.ascontiguousarray(np.vstack(inj_x_parts))
    block.inj_z = np.ascontiguousarray(np.vstack(inj_z_parts))
    block.flip_slots = np.asarray(flip_slots, dtype=np.int64)
    block.flip_words = np.ascontiguousarray(np.vstack(flips))
    block.error_count = error_count
    return block, drawn


# ----------------------------------------------------------------------
# The fused batch tableau
# ----------------------------------------------------------------------


class FusedPackedBatchTableau(PackedBatchTableau):
    """A :class:`PackedBatchTableau` executed by the fused kernel tier.

    The state layout -- uint64 word planes over the batch axis -- is
    identical to the parent's, so every inherited operation (gates by name,
    Pauli injection, per-lane extraction, measurement) works unchanged; the
    batched executor routes compiled programs through
    :func:`execute_fused` instead of the per-operation word kernels.

    The only override is :meth:`expectation`, which exploits lane uniformity
    of the X/Z planes: the anticommutation test and the mod-4 phase of the
    stabilizer-product reconstruction are computed once (scalars, not word
    masks), leaving a single XOR chain over sign rows as the per-lane work.
    """

    def expectation(self, pauli: PauliString) -> np.ndarray:
        """Per-lane expectation of a Hermitian Pauli: +1, -1 or 0 (random)."""
        if pauli.num_qubits != self._n:
            raise SimulationError(
                f"Pauli acts on {pauli.num_qubits} qubits but register has {self._n}"
            )
        if pauli.phase % 2 != 0:
            raise SimulationError("expectation requires a Hermitian (real-phase) Pauli")
        n = self._n
        one = np.uint64(1)
        xb = (self._x[:, :, 0] & one).astype(np.uint8)
        zb = (self._z[:, :, 0] & one).astype(np.uint8)
        pauli_x = (pauli.x != 0).astype(np.uint8)
        pauli_z = (pauli.z != 0).astype(np.uint8)
        anti = (zb @ pauli_x + xb @ pauli_z) & 1
        if anti[n : 2 * n].any():
            return np.zeros(self._batch, dtype=np.int8)
        acc_x = np.zeros(n, dtype=np.uint8)
        acc_z = np.zeros(n, dtype=np.uint8)
        sign_words = np.zeros(self._words, dtype=np.uint64)
        phase = 0
        for i in np.flatnonzero(anti[:n]):
            row = n + int(i)
            phase += int(_G4[(acc_x << 1) | acc_z, (xb[row] << 1) | zb[row]].sum())
            acc_x ^= xb[row]
            acc_z ^= zb[row]
            sign_words ^= self._r[row]
        if not (np.array_equal(acc_x, pauli_x) and np.array_equal(acc_z, pauli_z)):
            raise SimulationError(
                "internal error: accumulated stabilizer product does not match observable"
            )
        if pauli.phase % 4 == 2:
            phase += 2
        if phase & 1:
            raise SimulationError("internal error: non-real relative phase in expectation")
        if phase & 2:
            sign_words = ~sign_words
        negative = unpack_bits(sign_words, self._batch)
        return (1 - 2 * negative.astype(np.int8)).astype(np.int8)


# ----------------------------------------------------------------------
# Executor entry point
# ----------------------------------------------------------------------


def _extract_bool_planes(state: PackedBatchTableau) -> tuple[np.ndarray, np.ndarray]:
    """The lane-uniform X/Z planes as contiguous ``(2n+1, n)`` uint8 booleans."""
    one = np.uint64(1)
    xb = np.ascontiguousarray((state._x[:, :, 0] & one).astype(np.uint8))
    zb = np.ascontiguousarray((state._z[:, :, 0] & one).astype(np.uint8))
    return xb, zb


def _write_back_planes(state: PackedBatchTableau, xb: np.ndarray, zb: np.ndarray) -> None:
    """Broadcast the kernel's boolean planes back into the packed words."""
    zero = np.uint64(0)
    state._x[:] = np.where(xb[:, :, None] != 0, _UINT64_MAX, zero)
    state._z[:] = np.where(zb[:, :, None] != 0, _UINT64_MAX, zero)


def execute_fused(
    program: CompiledCircuit,
    batch_size: int,
    rng: np.random.Generator,
    state: PackedBatchTableau,
    noise: NoiseModel,
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Run a compiled program on a packed state through the fused kernel.

    Bit-for-bit equivalent to ``BatchedNoisyCircuitExecutor._run_packed`` on
    the same seeds: noise comes from ``rng`` -- the :func:`noise_block` of a
    built-in model, or a custom model's hooks in operation order -- and the
    measurement words from the state's generator (the same object in normal
    use), exactly as the packed executor draws them.  Returns
    ``(measurements, error_count)``; the state is updated in place.
    """
    require_simulable(program)
    plan = _plan_for(program)
    n = state.num_qubits
    W = state.num_lane_words
    if W != num_words(batch_size):
        raise SimulationError(
            f"state holds {W} lane words but batch size {batch_size} needs "
            f"{num_words(batch_size)}"
        )
    tier = kernel_tier()
    xb, zb = _extract_bool_planes(state)
    sched, draw_index, draw_count = _schedule_for(plan, n, xb, zb, tier)
    block = _plan_block(plan, noise, batch_size, rng)
    if block is None:
        block, drawn = _sample_hooks(
            plan, noise, sched, draw_index, draw_count, batch_size, W, n, rng, state._rng
        )
    else:
        drawn = _measurement_words(draw_count, W, state._rng)
    out = np.zeros((max(plan.num_measurements, 1), W), dtype=np.uint64)
    status = _run_kernel(
        tier,
        n,
        W,
        plan.opcodes,
        plan.qubit0,
        plan.qubit1,
        plan.slots,
        draw_index,
        block.pre_inj,
        block.post_inj,
        block.inj_start,
        block.inj_qubit,
        block.inj_x,
        block.inj_z,
        drawn,
        out,
        xb,
        zb,
        state._r,
        0,
        sched,
        np.zeros(n, dtype=np.uint8),
        np.zeros(n, dtype=np.uint8),
        np.zeros(W, dtype=np.uint64),
        np.zeros(W, dtype=np.uint64),
    )
    if status != 0:
        raise SimulationError(
            f"fused kernel failed: {_STATUS_MESSAGES.get(status, status)}"
        )
    _write_back_planes(state, xb, zb)
    out[block.flip_slots] ^= block.flip_words
    measurements = {
        label: unpack_bits(out[slot], batch_size)
        for slot, label in enumerate(program.measurement_labels)
    }
    return measurements, block.error_count
