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
cached, which lets all measurement randomness and noise be pre-sampled in the
packed engine's exact RNG order before the kernel launches.  Seeded runs are
bit-for-bit identical to the ``"packed"`` backend.

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
    pack_bits,
    unpack_bits,
)

__all__ = [
    "SUPPORTED_OPCODES",
    "KERNEL_TIERS",
    "FusedPackedBatchTableau",
    "fused_kernel_numpy",
    "kernel_tier",
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
        plan.template_cache.clear()
    result = (sched, draw_index, int(random_ops.size))
    plan.schedule_cache[key] = result
    return result


# ----------------------------------------------------------------------
# Noise pre-sampling in the packed engine's exact RNG order
# ----------------------------------------------------------------------

# Event kinds of the fast-path pre-sampler template.
_EV_D1 = 0  # one-qubit depolarizing pair of draws (gates, movement)
_EV_D2 = 1  # two-qubit depolarizing pair of draws
_EV_PREP = 2  # preparation-failure draw (always consumed, even at p=0)
_EV_FLIP = 3  # classical measurement-flip draw
_EV_DRAW = 4  # random measurement outcome words

# Sparse-injection lookup tables: single-bit lane masks and, per drawn error
# letter / two-qubit pair index, whether each side carries an X / Z component.
_BIT64 = np.uint64(1) << np.arange(64, dtype=np.uint64)
_X1_BOOL = _ONE_QUBIT_X != 0
_Z1_BOOL = _ONE_QUBIT_Z != 0
_X2_BOOL = _TWO_QUBIT_X != 0
_Z2_BOOL = _TWO_QUBIT_Z != 0


class _FastTemplate:
    """Pre-compiled event order and injection layout for a built-in model.

    The raw event list (in exact packed-engine draw order) is re-grouped once
    at build time so the per-run pre-sampler can stay almost allocation-free:
    every probabilistic event is assigned a row in one shared ``(n_fail, B)``
    boolean fail plane, sectioned as ``[d1 | d2 | prep-inject | prep-plain |
    flip]``, and the per-group injection rows / measurement slots become
    plain int64 arrays indexed by the event's position within its section.
    """

    __slots__ = (
        "steps",
        "pre_inj",
        "post_inj",
        "inj_start",
        "inj_qubit",
        "n_fail",
        "n_d1",
        "n_d2",
        "n_prep_inj",
        "n_flip",
        "d1_off",
        "d2_off",
        "prep_inj_off",
        "flip_off",
        "d1_rows",
        "d2_rows",
        "prep_rows",
        "flip_slots",
    )

    def __init__(self, events, pre_inj, post_inj, inj_start, inj_qubit) -> None:
        self.pre_inj = pre_inj
        self.post_inj = post_inj
        self.inj_start = inj_start
        self.inj_qubit = inj_qubit
        n_d1 = sum(1 for e in events if e[0] == _EV_D1)
        n_d2 = sum(1 for e in events if e[0] == _EV_D2)
        n_prep_inj = sum(1 for e in events if e[0] == _EV_PREP and e[2] >= 0)
        n_prep_plain = sum(1 for e in events if e[0] == _EV_PREP and e[2] < 0)
        n_flip = sum(1 for e in events if e[0] == _EV_FLIP)
        self.n_d1 = n_d1
        self.n_d2 = n_d2
        self.n_prep_inj = n_prep_inj
        self.n_flip = n_flip
        self.n_fail = n_d1 + n_d2 + n_prep_inj + n_prep_plain + n_flip
        self.d1_off = 0
        self.d2_off = n_d1
        self.prep_inj_off = n_d1 + n_d2
        prep_plain_off = self.prep_inj_off + n_prep_inj
        self.flip_off = prep_plain_off + n_prep_plain
        d1_rows: list[int] = []
        d2_rows: list[int] = []
        prep_rows: list[int] = []
        flip_slots: list[int] = []
        steps: list[tuple] = []
        plain = 0
        for event in events:
            kind = event[0]
            if kind == _EV_D1:
                steps.append((kind, event[1], self.d1_off + len(d1_rows), len(d1_rows)))
                d1_rows.append(event[2])
            elif kind == _EV_D2:
                steps.append((kind, event[1], self.d2_off + len(d2_rows), len(d2_rows)))
                d2_rows.append(event[2])
            elif kind == _EV_PREP:
                if event[2] >= 0:
                    steps.append((kind, event[1], self.prep_inj_off + len(prep_rows)))
                    prep_rows.append(event[2])
                else:
                    steps.append((kind, event[1], prep_plain_off + plain))
                    plain += 1
            elif kind == _EV_FLIP:
                steps.append((kind, event[1], self.flip_off + len(flip_slots)))
                flip_slots.append(event[2])
            else:
                steps.append(event)
        self.steps = tuple(steps)
        self.d1_rows = np.asarray(d1_rows, dtype=np.int64)
        self.d2_rows = np.asarray(d2_rows, dtype=np.int64)
        self.prep_rows = np.asarray(prep_rows, dtype=np.int64)
        self.flip_slots = np.asarray(flip_slots, dtype=np.int64)


def _noise_signature(noise: NoiseModel):
    """A cache key for built-in models, None for custom subclasses.

    Only the exact built-in classes qualify: a subclass may override hooks,
    which must then be called for real to keep the RNG stream identical.
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


def _fast_template(
    plan: _KernelPlan, noise: NoiseModel, sched: np.ndarray, draw_index: np.ndarray
) -> _FastTemplate:
    """Build the ordered draw/injection template for a built-in noise model.

    The event order replicates ``_run_packed`` exactly: movement noise before
    the operation, the measurement word draw (when the schedule says the
    outcome is random), then the gate / preparation / flip hook draws.  Hooks
    whose probability is zero make no RNG calls in the packed engine and are
    simply omitted (except preparation, which always draws one uniform batch).
    """
    noiseless = noise.is_noiseless
    ops = plan.opcodes.shape[0]
    events: list[tuple] = []
    pre_inj = np.full(ops, -1, dtype=np.int32)
    post_inj = np.full(ops, -1, dtype=np.int32)
    inj_qubit: list[int] = []
    inj_start = [0]

    def new_record(qubits) -> int:
        record = len(inj_start) - 1
        inj_qubit.extend(qubits)
        inj_start.append(len(inj_qubit))
        return record

    for k in range(ops):
        op = int(plan.opcodes[k])
        q0 = int(plan.qubit0[k])
        q1 = int(plan.qubit1[k])
        if not noiseless and plan.exposure[k] > 0 and noise.p_move_per_cell > 0.0:
            p_total = 1.0 - (1.0 - noise.p_move_per_cell) ** int(plan.exposure[k])
            record = new_record((int(plan.moved[k]),))
            pre_inj[k] = record
            events.append((_EV_D1, p_total, inj_start[record]))
        if op == Opcode.PREPARE:
            if sched[k] == 1:
                events.append((_EV_DRAW, int(draw_index[k])))
            if not noiseless:
                if noise.p_prepare > 0.0:
                    record = new_record((q0,))
                    post_inj[k] = record
                    events.append((_EV_PREP, noise.p_prepare, inj_start[record]))
                else:
                    events.append((_EV_PREP, 0.0, -1))
        elif op in (Opcode.MEASURE, Opcode.MEASURE_X):
            if sched[k] == 1:
                events.append((_EV_DRAW, int(draw_index[k])))
            if not noiseless and noise.p_measure > 0.0:
                events.append((_EV_FLIP, noise.p_measure, int(plan.slots[k])))
        else:
            if not noiseless:
                if q1 >= 0:
                    if noise.p_double > 0.0:
                        record = new_record((q0, q1))
                        post_inj[k] = record
                        events.append((_EV_D2, noise.p_double, inj_start[record]))
                elif noise.p_single > 0.0:
                    record = new_record((q0,))
                    post_inj[k] = record
                    events.append((_EV_D1, noise.p_single, inj_start[record]))
    return _FastTemplate(
        tuple(events),
        pre_inj,
        post_inj,
        np.asarray(inj_start, dtype=np.int32),
        np.asarray(inj_qubit, dtype=np.int32),
    )


class _Presampled:
    """Everything the kernel launch needs besides the state itself."""

    __slots__ = (
        "pre_inj",
        "post_inj",
        "inj_start",
        "inj_qubit",
        "inj_x",
        "inj_z",
        "drawn",
        "flip_words",
        "flip_slots",
        "error_count",
    )


def _presample_fast(
    template: _FastTemplate,
    batch_size: int,
    W: int,
    draw_count: int,
    noise_rng: np.random.Generator,
    draw_rng: np.random.Generator,
) -> _Presampled:
    """Consume the template's RNG draws; scatter injections sparsely afterwards.

    The draw loop makes exactly the RNG calls ``_run_packed`` would make, in
    the same order and against the same generators -- ``random(out=...)``
    consumes the identical stream while writing straight into one shared fail
    plane, so the loop itself is allocation-free apart from the ``integers``
    draws.  Error injection then works from the *failing* lanes only: at the
    per-operation rates this engine targets, failures are a sparse subset of
    ``events x lanes``, so gathering ``nonzero`` coordinates and OR-ing single
    bits into the packed masks beats building dense boolean planes per event.
    """
    drawn = np.zeros((max(draw_count, 1), W), dtype=np.uint64)
    fails = np.empty((template.n_fail, batch_size), dtype=np.bool_)
    letters = np.empty((template.n_d1, batch_size), dtype=np.int64)
    pairs = np.empty((template.n_d2, batch_size), dtype=np.int64)
    uniform = np.empty(batch_size, dtype=np.float64)
    two_qubit_errors = len(_TWO_QUBIT_ERRORS)
    for step in template.steps:
        kind = step[0]
        if kind == _EV_D1:
            noise_rng.random(out=uniform)
            np.less(uniform, step[1], out=fails[step[2]])
            letters[step[3]] = noise_rng.integers(0, 3, size=batch_size)
        elif kind == _EV_D2:
            noise_rng.random(out=uniform)
            np.less(uniform, step[1], out=fails[step[2]])
            pairs[step[3]] = noise_rng.integers(0, two_qubit_errors, size=batch_size)
        elif kind == _EV_DRAW:
            drawn[step[1]] = draw_rng.integers(
                0, _UINT64_MAX, size=W, dtype=np.uint64, endpoint=True
            )
        else:  # _EV_PREP / _EV_FLIP: a single uniform draw against one rate
            noise_rng.random(out=uniform)
            np.less(uniform, step[1], out=fails[step[2]])
    result = _Presampled()
    result.pre_inj = template.pre_inj
    result.post_inj = template.post_inj
    result.inj_start = template.inj_start
    result.inj_qubit = template.inj_qubit
    support = template.inj_qubit.size
    inj_x = np.zeros((max(support, 1), W), dtype=np.uint64)
    inj_z = np.zeros((max(support, 1), W), dtype=np.uint64)
    if template.n_d1:
        section = fails[template.d1_off : template.d1_off + template.n_d1]
        event, lane = np.nonzero(section)
        if event.size:
            letter = letters[event, lane]
            row = template.d1_rows[event]
            word = lane >> 6
            bit = _BIT64[lane & 63]
            for table, plane in ((_X1_BOOL, inj_x), (_Z1_BOOL, inj_z)):
                hit = table[letter]
                np.bitwise_or.at(plane, (row[hit], word[hit]), bit[hit])
    if template.n_d2:
        section = fails[template.d2_off : template.d2_off + template.n_d2]
        event, lane = np.nonzero(section)
        if event.size:
            pair = pairs[event, lane]
            row = template.d2_rows[event]
            word = lane >> 6
            bit = _BIT64[lane & 63]
            for side in (0, 1):
                for table, plane in ((_X2_BOOL, inj_x), (_Z2_BOOL, inj_z)):
                    hit = table[pair, side]
                    np.bitwise_or.at(plane, (row[hit] + side, word[hit]), bit[hit])
    if template.n_prep_inj:
        section = fails[template.prep_inj_off : template.prep_inj_off + template.n_prep_inj]
        event, lane = np.nonzero(section)
        if event.size:
            np.bitwise_or.at(
                inj_x, (template.prep_rows[event], lane >> 6), _BIT64[lane & 63]
            )
    result.inj_x = inj_x
    result.inj_z = inj_z
    result.drawn = drawn
    if template.n_flip:
        result.flip_words = pack_bits(fails[template.flip_off :])
        result.flip_slots = template.flip_slots
    else:
        result.flip_words = None
        result.flip_slots = None
    if template.n_fail:
        result.error_count = np.sum(fails, axis=0, dtype=np.int64)
    else:
        result.error_count = np.zeros(batch_size, dtype=np.int64)
    return result


def _presample_generic(
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
) -> _Presampled:
    """Pre-sample through the real packed noise hooks (custom models).

    Calls exactly the hooks ``_run_packed`` calls, in the same order, so any
    :class:`NoiseModel` subclass -- including ones that only implement the
    scalar hooks -- keeps its RNG stream and its error semantics unchanged.
    Supports may extend beyond the operands (crosstalk), so injection records
    are built dynamically.
    """
    noiseless = noise.is_noiseless
    ops = plan.opcodes.shape[0]
    drawn = np.zeros((max(draw_count, 1), W), dtype=np.uint64)
    pre_inj = np.full(ops, -1, dtype=np.int32)
    post_inj = np.full(ops, -1, dtype=np.int32)
    inj_qubit: list[int] = []
    inj_start = [0]
    inj_x_parts: list[np.ndarray] = []
    inj_z_parts: list[np.ndarray] = []
    flips: list[np.ndarray] = []
    flip_slots: list[int] = []
    error_count = np.zeros(batch_size, dtype=np.int64)

    def add_record(support, x_words, z_words) -> int:
        for qubit in support:
            if not 0 <= qubit < n:
                raise SimulationError(
                    f"noise model emitted qubit {qubit} outside register of size {n}"
                )
        record = len(inj_start) - 1
        inj_qubit.extend(int(q) for q in support)
        inj_start.append(len(inj_qubit))
        inj_x_parts.append(np.ascontiguousarray(x_words, dtype=np.uint64))
        inj_z_parts.append(np.ascontiguousarray(z_words, dtype=np.uint64))
        return record

    for k in range(ops):
        op = int(plan.opcodes[k])
        q0 = int(plan.qubit0[k])
        q1 = int(plan.qubit1[k])
        if not noiseless and plan.exposure[k] > 0:
            support, x_words, z_words, event_words = noise.sample_movement_error_packed(
                int(plan.moved[k]), int(plan.exposure[k]), batch_size, noise_rng
            )
            if event_words.any():
                pre_inj[k] = add_record(support, x_words, z_words)
                error_count += unpack_bits(event_words, batch_size)
        if op == Opcode.PREPARE:
            if sched[k] == 1:
                drawn[int(draw_index[k])] = draw_rng.integers(
                    0, _UINT64_MAX, size=W, dtype=np.uint64, endpoint=True
                )
            if not noiseless:
                support, x_words, z_words, event_words = (
                    noise.sample_preparation_error_packed(q0, batch_size, noise_rng)
                )
                if event_words.any():
                    post_inj[k] = add_record(support, x_words, z_words)
                    error_count += unpack_bits(event_words, batch_size)
        elif op in (Opcode.MEASURE, Opcode.MEASURE_X):
            if sched[k] == 1:
                drawn[int(draw_index[k])] = draw_rng.integers(
                    0, _UINT64_MAX, size=W, dtype=np.uint64, endpoint=True
                )
            if not noiseless:
                flip_words = noise.measurement_flip_packed(batch_size, noise_rng)
                if flip_words.any():
                    flips.append(flip_words)
                    flip_slots.append(int(plan.slots[k]))
                    error_count += unpack_bits(flip_words, batch_size)
        else:
            if not noiseless:
                operands = (q0,) if q1 < 0 else (q0, q1)
                support, x_words, z_words, event_words = noise.sample_gate_error_packed(
                    Opcode(op).name, operands, batch_size, noise_rng
                )
                if event_words.any():
                    post_inj[k] = add_record(support, x_words, z_words)
                    error_count += unpack_bits(event_words, batch_size)

    result = _Presampled()
    result.pre_inj = pre_inj
    result.post_inj = post_inj
    result.inj_start = np.asarray(inj_start, dtype=np.int32)
    result.inj_qubit = np.asarray(inj_qubit, dtype=np.int32)
    if inj_x_parts:
        result.inj_x = np.ascontiguousarray(np.vstack(inj_x_parts))
        result.inj_z = np.ascontiguousarray(np.vstack(inj_z_parts))
    else:
        result.inj_x = np.zeros((1, W), dtype=np.uint64)
        result.inj_z = np.zeros((1, W), dtype=np.uint64)
    result.drawn = drawn
    if flips:
        result.flip_words = np.ascontiguousarray(np.vstack(flips))
        result.flip_slots = np.asarray(flip_slots, dtype=np.int64)
    else:
        result.flip_words = None
        result.flip_slots = None
    result.error_count = error_count
    return result


def _presample(
    plan: _KernelPlan,
    noise: NoiseModel,
    sched: np.ndarray,
    draw_index: np.ndarray,
    draw_count: int,
    schedule_key,
    batch_size: int,
    W: int,
    n: int,
    noise_rng: np.random.Generator,
    draw_rng: np.random.Generator,
) -> _Presampled:
    signature = _noise_signature(noise)
    if signature is None:
        return _presample_generic(
            plan, noise, sched, draw_index, draw_count,
            batch_size, W, n, noise_rng, draw_rng,
        )
    template_key = (signature, schedule_key)
    template = plan.template_cache.get(template_key)
    if template is None:
        template = _fast_template(plan, noise, sched, draw_index)
        plan.template_cache[template_key] = template
    return _presample_fast(template, batch_size, W, draw_count, noise_rng, draw_rng)


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
    the same seeds: measurement words are drawn from the state's generator
    and noise from ``rng`` (the same object in normal use), in the packed
    executor's exact per-operation order.  Returns ``(measurements,
    error_count)``; the state is updated in place.
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
    schedule_key = (n, xb.tobytes(), zb.tobytes())
    sched, draw_index, draw_count = _schedule_for(plan, n, xb, zb, tier)
    pre = _presample(
        plan, noise, sched, draw_index, draw_count, schedule_key,
        batch_size, W, n, rng, state._rng,
    )
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
        pre.pre_inj,
        pre.post_inj,
        pre.inj_start,
        pre.inj_qubit,
        pre.inj_x,
        pre.inj_z,
        pre.drawn,
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
    if pre.flip_words is not None:
        out[pre.flip_slots] ^= pre.flip_words
    measurements = {
        label: unpack_bits(out[slot], batch_size)
        for slot, label in enumerate(program.measurement_labels)
    }
    return measurements, pre.error_count
