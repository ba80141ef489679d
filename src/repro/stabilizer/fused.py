"""The Pauli-frame Monte-Carlo engine: one kernel call per run.

Pauli noise never changes which Pauli operators stabilize a state, only their
signs.  So ``B`` noisy shots of a Clifford circuit are one noiseless
*reference* state plus, per lane, a *Pauli frame*: the Pauli by which the
lane's state differs from the reference (Gidney, *Stim*, Quantum 5, 497,
2021).  :class:`PauliFrameBatch` stores the frame as ``(n, W)`` uint64 X/Z
words, bit ``b`` of word ``w`` belonging to lane ``64*w + b``, and
:func:`execute_fused` pushes those words through a whole compiled program in
one native loop at O(W) work per gate, noise record or measurement.

Each program is first run once, without noise, on a scalar
:class:`~repro.stabilizer.tableau.StabilizerTableau` holding the reference,
with every random measurement outcome forced to 0.  The pass records, per
measurement, whether the outcome is random, the reference outcome of a
deterministic one and the pivot stabilizer of a random one.  It is cached by
program content and input reference, so rebuilt experiments do not repeat it.
The frame then follows these rules:

* a gate conjugates the frame; noise multiplies it by the sampled Pauli;
* a deterministic measurement reads the reference bit XOR the frame's X bit;
* a random measurement reads a drawn word, and every lane whose drawn bit
  differs from its frame's X bit multiplies its frame by the reference's
  pivot stabilizer (which turns the frame bit into the drawn bit);
* a preparation measures, then clears the qubit's frame X bit;
* X-basis measurements follow the same rules, conjugated by H.

These rules reproduce the sign words of the CHP tableau engines this module
replaces, so seeded outcomes are bit for bit those of v1.9's ``"packed"``
and ``"packed-fused"`` engines.  The randomness is drawn in the same order:
every noise model -- built-in or custom -- declares its errors as Pauli
channels (:class:`~repro.stabilizer.noise.PauliChannel`), and a program's
channels are drawn as one sparse **noise block** (:func:`noise_block`): per
channel a binomial failure count, then the failing lanes and their Pauli
letters, in O(failures) work and a constant number of generator calls.  The
random measurement words follow, in program order, from the state's
generator.

A run is an ordered sequence of **segments**, ``(program, noise model)``
pairs; a single program is a run of one segment.  The segments' programs
are concatenated into one kernel program with one cached reference pass,
and the run makes one kernel call.  Its noise is still sampled segment by
segment -- segment ``k``'s noise block, then segment ``k``'s measurement
words, then segment ``k + 1``'s -- and the blocks are merged, so a run draws
every bit its segments would draw as separate calls.  A Level-1 attempt
(ideal preparation, noisy gate, noisy ECC cycle) is one such run.

The kernel receives the noise as **failure records** (:class:`NoiseBlock`):
per noise record, the lanes that failed and a letter code for each, which a
small table decodes into the Pauli on each qubit of the record's support.
The built-in alphabets share one table; a model that declares another
alphabet (a crosstalk channel, say) adds rows of its own.  The kernel XORs
one lane bit per failure and support qubit into the frame, at the record's
program position, so the noise costs O(failures) rather than O(W) per
record.  Measurement flips are XORed onto
the outcome words once the program has run.

Two interchangeable kernels implement the loop, with the same signature:

* a small C kernel (``fused_kernel.c``) compiled on demand with the system C
  compiler and loaded through ctypes;
* :func:`frame_kernel_numpy` -- a pure-numpy fallback, so the module imports
  and runs (slower) with no compiler at all.

``REPRO_FUSED_KERNEL`` selects the tier explicitly (``auto`` / ``cext`` /
``numpy``); ``auto`` takes the C kernel when it compiles and logs a warning
once when it falls back to numpy.
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
from typing import Sequence

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
    NoiseModel,
    PauliChannel,
    _ONE_QUBIT_ERRORS,
    _TWO_QUBIT_ERRORS,
    check_channel,
    flip_probability,
)
from repro.stabilizer.packed import (
    _UINT64_MAX,
    WORD_BITS,
    num_words,
    unpack_bits,
)
from repro.stabilizer.tableau import StabilizerTableau

__all__ = [
    "SUPPORTED_OPCODES",
    "KERNEL_TIERS",
    "PauliFrameBatch",
    "frame_kernel_numpy",
    "kernel_tier",
    "NoiseBlock",
    "noise_block",
    "execute_fused",
]

_LOG = logging.getLogger("repro")

#: Opcodes the frame kernel executes.  Exactly the simulable IR: the Clifford
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


# ----------------------------------------------------------------------
# Numpy fallback tier (identical signature and semantics)
# ----------------------------------------------------------------------


def _np_measure(k, a, ref_bits, draw_index, piv_start, piv_qubit, piv_xz, drawn, fx, fz, mout):
    d = int(draw_index[k])
    if d < 0:
        np.bitwise_xor(fx[a], _UINT64_MAX if ref_bits[k] else np.uint64(0), out=mout)
        return
    np.bitwise_xor(drawn[d], fx[a], out=mout)
    for idx in range(int(piv_start[d]), int(piv_start[d + 1])):
        q = int(piv_qubit[idx])
        if piv_xz[idx] & 1:
            fx[q] ^= mout
        if piv_xz[idx] & 2:
            fz[q] ^= mout
    mout[:] = drawn[d]


def _np_record_words(W, inj_start, code_xz, fail_start, fail_lane, fail_code):
    """Decode the failure records into ``(2, K, W)`` X/Z words per support entry."""
    records = inj_start.size - 1
    words = np.zeros((2, int(inj_start[-1]), W), dtype=np.uint64)
    count = int(fail_start[records])
    record = np.repeat(np.arange(records), np.diff(fail_start[: records + 1]))
    lane = fail_lane[:count]
    xz = code_xz[fail_code[:count]]
    for plane, part in enumerate((1, 2)):
        failure, entry = np.nonzero(xz & part)
        owner = record[failure]
        inside = entry < inj_start[owner + 1] - inj_start[owner]
        failure, entry, owner = failure[inside], entry[inside], owner[inside]
        np.bitwise_xor.at(
            words[plane],
            (inj_start[owner] + entry, lane[failure] >> 6),
            _BIT64[lane[failure] & 63],
        )
    return words


def _np_inject(e, inj_start, inj_qubit, inj_x, inj_z, fx, fz):
    for idx in range(int(inj_start[e]), int(inj_start[e + 1])):
        q = int(inj_qubit[idx])
        fx[q] ^= inj_x[idx]
        fz[q] ^= inj_z[idx]


def frame_kernel_numpy(
    W,
    ops,
    code_width,
    flips,
    opcodes,
    qubit0,
    qubit1,
    slots,
    ref_bits,
    draw_index,
    piv_start,
    piv_qubit,
    piv_xz,
    pre_inj,
    post_inj,
    inj_start,
    inj_qubit,
    code_xz,
    flip_slots,
    fail_start,
    flip_start,
    fail_lane,
    fail_code,
    drawn,
    out,
    fx,
    fz,
    mout,
):
    """Pure-numpy kernel with the same signature as the C kernel.

    Parameters (all arrays C-contiguous):

    ``W``/``ops``/``code_width``/``flips``
        Packed word count, number of operations, columns of ``code_xz`` and
        number of measurement flips.
    ``opcodes``/``qubit0``/``qubit1``/``slots``
        ``(ops,)`` int32 program arrays (see ``CompiledCircuit.kernel_arrays``).
    ``ref_bits``/``draw_index``
        ``(ops,)`` facts of the reference pass: ``draw_index[k]`` is the row
        of ``drawn`` (and of the pivot records) of a random measurement, -1
        otherwise; ``ref_bits[k]`` (uint8) is the reference outcome of a
        deterministic one.
    ``piv_start``/``piv_qubit``/``piv_xz``
        Pivot stabilizers of the random measurements: record ``d`` covers
        entries ``piv_start[d]:piv_start[d+1]`` of ``piv_qubit`` (int32) and
        ``piv_xz`` (uint8: bit 0 the X part, bit 1 the Z part).
    ``pre_inj``/``post_inj``
        ``(ops,)`` int32 indices of the noise record applied before
        (movement) / after (gate, preparation) the operation, -1 for none.
    ``inj_start``/``inj_qubit``
        Supports of the noise records: record ``e`` acts on the qubits
        ``inj_qubit[inj_start[e]:inj_start[e+1]]`` (int32).
    ``code_xz``
        ``(C, code_width)`` uint8 letter-code table: a failure of code ``c``
        applies the Pauli ``code_xz[c, j]`` (bit 0 X, bit 1 Z) to support
        entry ``j`` of its record.
    ``fail_start``/``fail_lane``/``fail_code``
        int64 failure records: record ``e`` failed in lanes
        ``fail_lane[fail_start[e]:fail_start[e+1]]`` with letter codes
        ``fail_code`` of the same entries.  Each failure XORs one lane bit
        into the frame words of its record's support.
    ``flip_slots``/``flip_start``
        The measurement flips: flip ``f`` failed in lanes
        ``fail_lane[flip_start[f]:flip_start[f+1]]``, whose bits are XORed
        onto outcome row ``flip_slots[f]`` (int64) after the program.
    ``drawn``/``out``
        ``(D, W)`` random measurement words / ``(M, W)`` outcome words.
    ``fx``/``fz``
        ``(n, W)`` uint64 frame words (updated in place).
    ``mout``
        ``(W,)`` uint64 working buffer for one measurement's outcome words.

    Returns a status code: 0 on success, 1 on an unknown opcode.
    """
    measure_args = (ref_bits, draw_index, piv_start, piv_qubit, piv_xz, drawn, fx, fz, mout)
    # XORing whole rows beats a scatter per record, so decode the records once.
    inj_x, inj_z = _np_record_words(W, inj_start, code_xz, fail_start, fail_lane, fail_code)
    inject_args = (inj_start, inj_qubit, inj_x, inj_z, fx, fz)
    for k in range(ops):
        if pre_inj[k] >= 0:
            _np_inject(int(pre_inj[k]), *inject_args)
        op = int(opcodes[k])
        a = int(qubit0[k])
        b = int(qubit1[k])
        if op in (0, 4, 5, 6):
            pass
        elif op == 1:
            fx[a], fz[a] = fz[a].copy(), fx[a].copy()
        elif op in (2, 3):
            fz[a] ^= fx[a]
        elif op == 7:
            fx[b] ^= fx[a]
            fz[a] ^= fz[b]
        elif op == 8:
            fz[b] ^= fx[a]
            fz[a] ^= fx[b]
        elif op == 9:
            fx[[a, b]] = fx[[b, a]]
            fz[[a, b]] = fz[[b, a]]
        elif op == 10:
            _np_measure(k, a, *measure_args)
            fx[a] = 0
        elif op in (11, 12):
            if op == 12:
                fx[a], fz[a] = fz[a].copy(), fx[a].copy()
            _np_measure(k, a, *measure_args)
            if op == 12:
                fx[a], fz[a] = fz[a].copy(), fx[a].copy()
            out[int(slots[k])] = mout
        else:
            return 1
        if post_inj[k] >= 0:
            _np_inject(int(post_inj[k]), *inject_args)
    lane = fail_lane[flip_start[0] : flip_start[flips]]
    rows = np.repeat(flip_slots, np.diff(flip_start[: flips + 1]))
    np.bitwise_xor.at(out, (rows, lane >> 6), _BIT64[lane & 63])
    return 0


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
        fn = library.repro_frame_run
    except OSError as exc:
        _CEXT_ERROR = f"cannot load compiled kernel {shared.name}: {exc}"
        return None
    fn.restype = ctypes.c_int64
    fn.argtypes = [ctypes.c_int64] * 4 + [ctypes.c_void_p] * 24
    _CEXT_FN = fn
    return fn


def build_kernel() -> bool:
    """Compile (or load) the C kernel now; True when it is available.

    The kernel is built into ``REPRO_FUSED_CACHE`` (default
    ``~/.cache/repro-fused``) once per kernel source.  Which tier runs is
    still decided by :func:`kernel_tier`.
    """
    return _cext_kernel() is not None


def _addresses(*arrays: np.ndarray) -> tuple[int, ...]:
    """Data addresses of C-contiguous arrays, as the C kernel takes them.

    Taking an address costs about as much as the kernel's work on a small
    batch, so the arrays that outlive a run have theirs taken once.
    """
    return tuple(array.ctypes.data for array in arrays)


def _address(array: np.ndarray) -> int:
    """The data address of a writable C-contiguous array, for one kernel call.

    Reading it through the buffer protocol costs a third of building the
    array's ``.ctypes`` object (and refuses a read-only or strided array).
    An empty array, which the kernel never reads, gets address 0.
    """
    return ctypes.addressof(ctypes.c_char.from_buffer(array)) if array.size else 0


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


# ----------------------------------------------------------------------
# Kernel plans: compiled programs lowered to kernel-ready arrays
# ----------------------------------------------------------------------


class _WeakIdCache:
    """An identity-keyed cache whose entries die with any of their keys.

    ``CompiledCircuit`` is a frozen dataclass holding numpy arrays, so it is
    neither hashable nor cheap to compare; identity is the right key and weak
    references keep a freed program's reused address from resurrecting a
    stale plan.  A key is a tuple of programs (a run's segments).
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[int, ...], tuple[tuple[weakref.ref, ...], object]] = {}

    def get(self, keys: tuple):
        entry = self._entries.get(tuple(map(id, keys)))
        if entry is None:
            return None
        refs, value = entry
        for ref, key in zip(refs, keys):
            if ref() is not key:
                return None
        return value

    def set(self, keys: tuple, value) -> None:
        ident = tuple(map(id, keys))
        entries = self._entries

        def drop(_unused, ident=ident):
            entries.pop(ident, None)

        entries[ident] = (tuple(weakref.ref(key, drop) for key in keys), value)


_PLAN_CACHE = _WeakIdCache()

#: Bound on the per-plan noise-template caches and the reference-pass cache.
_PLAN_CACHE_LIMIT = 64


class _KernelPlan:
    """A run's segments lowered to contiguous kernel arrays plus caches.

    The segments' programs are concatenated: ``op_bounds[s]`` is the first
    operation of segment ``s`` (the last entry the total), and each
    segment's measurement slots follow the earlier segments'.  ``parts``
    holds the single-program plans of the segments, which own their noise
    templates; a single program is its own only part.  ``content_key``
    digests the operations the reference pass depends on and the segment
    bounds, so equal runs compiled separately share their reference passes,
    and ``addresses`` holds the data addresses of the arrays the C kernel
    reads.
    """

    __slots__ = (
        "opcodes",
        "qubit0",
        "qubit1",
        "exposure",
        "moved",
        "slots",
        "num_qubits",
        "num_measurements",
        "op_bounds",
        "parts",
        "content_key",
        "addresses",
        "template_cache",
    )

    def __init__(self, programs: tuple[CompiledCircuit, ...]) -> None:
        if len(programs) == 1:
            (program,) = programs
            arrays = program.kernel_arrays()
            unsupported = set(np.unique(arrays[0]).tolist()) - SUPPORTED_OPCODES
            if unsupported:
                names = sorted(Opcode(op).name for op in unsupported)
                raise SimulationError(
                    f"circuit {program.name!r} contains opcodes {names} that the "
                    "fused kernel does not support"
                )
            self.parts = (self,)
        else:
            self.parts = tuple(_plan_for(program) for program in programs)
            measured = np.cumsum([0] + [part.num_measurements for part in self.parts])
            arrays = [
                np.concatenate([getattr(part, name) for part in self.parts])
                for name in ("opcodes", "qubit0", "qubit1", "exposure", "moved")
            ]
            arrays.append(
                np.concatenate(
                    [
                        np.where(part.slots >= 0, part.slots + offset, -1).astype(np.int32)
                        for part, offset in zip(self.parts, measured.tolist())
                    ]
                )
            )
        (
            self.opcodes,
            self.qubit0,
            self.qubit1,
            self.exposure,
            self.moved,
            self.slots,
        ) = arrays
        self.num_qubits = max(program.num_qubits for program in programs)
        self.num_measurements = sum(program.num_measurements for program in programs)
        self.op_bounds = np.cumsum([0] + [len(program.opcodes) for program in programs]).tolist()
        self.content_key = hashlib.sha256(
            self.opcodes.tobytes()
            + self.qubit0.tobytes()
            + self.qubit1.tobytes()
            + np.asarray(self.op_bounds, dtype=np.int64).tobytes()
        ).digest()
        self.addresses = _addresses(self.opcodes, self.qubit0, self.qubit1, self.slots)
        self.template_cache: dict = {}


def _plan_for(*programs: CompiledCircuit) -> _KernelPlan:
    plan = _PLAN_CACHE.get(programs)
    if plan is None:
        plan = _KernelPlan(programs)
        _PLAN_CACHE.set(programs, plan)
    return plan


# ----------------------------------------------------------------------
# Reference pass (once per program content and input reference state)
# ----------------------------------------------------------------------


def _tableau_key(tableau: StabilizerTableau) -> bytes:
    """Content digest of a reference tableau (its size is implied by the length)."""
    return hashlib.sha256(
        tableau._x.tobytes() + tableau._z.tobytes() + tableau._r.tobytes()
    ).digest()


_ZERO_REFERENCES: dict[int, tuple[StabilizerTableau, bytes]] = {}


def _zero_reference(num_qubits: int) -> tuple[StabilizerTableau, bytes]:
    """The shared all-|0> reference of a register and its key."""
    entry = _ZERO_REFERENCES.get(num_qubits)
    if entry is None:
        tableau = StabilizerTableau(num_qubits)
        entry = _ZERO_REFERENCES[num_qubits] = (tableau, _tableau_key(tableau))
    return entry


class _Reference:
    """One noiseless pass of a program: per-operation facts and the final state.

    ``draw_index[k]`` numbers the random measurements (-1 elsewhere) and
    ``ref_bits[k]`` holds a deterministic measurement's reference outcome;
    random measurement ``d`` has pivot stabilizer entries
    ``piv_start[d]:piv_start[d+1]`` of ``piv_qubit``/``piv_xz``.  The
    random measurements of segment ``s`` are ``draw_bounds[s]`` up to
    ``draw_bounds[s+1]``.  ``addresses`` holds the data addresses of those
    five arrays.
    """

    __slots__ = (
        "final",
        "final_key",
        "ref_bits",
        "draw_index",
        "draw_count",
        "draw_bounds",
        "piv_start",
        "piv_qubit",
        "piv_xz",
        "addresses",
    )


def _reference_pass(plan: _KernelPlan, start: StabilizerTableau) -> _Reference:
    """Run a program once on a copy of ``start``, random outcomes forced to 0."""
    tableau = start.copy()
    n = tableau.num_qubits
    ops = plan.opcodes.shape[0]
    ref_bits = np.zeros(ops, dtype=np.uint8)
    draw_index = np.full(ops, -1, dtype=np.int32)
    piv_start = [0]
    piv_qubit: list[int] = []
    piv_xz: list[int] = []
    for k in range(ops):
        op = int(plan.opcodes[k])
        a = int(plan.qubit0[k])
        b = int(plan.qubit1[k])
        if op < Opcode.PREPARE:
            tableau.apply_gate(Opcode(op).name, (a,) if b < 0 else (a, b))
            continue
        if op == Opcode.MEASURE_X:
            tableau.h(a)
        stabilizers = np.flatnonzero(tableau._x[n : 2 * n, a])
        if stabilizers.size:
            pivot = n + int(stabilizers[0])
            xz = tableau._x[pivot] | (tableau._z[pivot] << 1)
            support = np.flatnonzero(xz)
            piv_qubit += support.tolist()
            piv_xz += xz[support].tolist()
            piv_start.append(len(piv_qubit))
            draw_index[k] = len(piv_start) - 2
            tableau._random_measure_update(a, pivot, 0)
        else:
            ref_bits[k] = tableau._deterministic_outcome(a)
        if op == Opcode.MEASURE_X:
            tableau.h(a)
        elif op == Opcode.PREPARE and ref_bits[k]:
            tableau.x(a)
    reference = _Reference()
    reference.final = tableau
    reference.final_key = _tableau_key(tableau)
    reference.ref_bits = ref_bits
    reference.draw_index = draw_index
    reference.draw_count = len(piv_start) - 1
    random = np.concatenate(([0], np.cumsum(draw_index >= 0)))
    reference.draw_bounds = random[plan.op_bounds].tolist()
    reference.piv_start = np.asarray(piv_start, dtype=np.int32)
    reference.piv_qubit = np.asarray(piv_qubit, dtype=np.int32)
    reference.piv_xz = np.asarray(piv_xz, dtype=np.uint8)
    reference.addresses = _addresses(
        ref_bits, draw_index, reference.piv_start, reference.piv_qubit, reference.piv_xz
    )
    return reference


_REFERENCE_CACHE: dict[tuple[bytes, bytes], _Reference] = {}


def _reference_for(plan: _KernelPlan, state: "PauliFrameBatch") -> _Reference:
    key = (plan.content_key, state._reference_key)
    reference = _REFERENCE_CACHE.get(key)
    if reference is None:
        if len(_REFERENCE_CACHE) >= _PLAN_CACHE_LIMIT:
            _REFERENCE_CACHE.clear()
        reference = _REFERENCE_CACHE[key] = _reference_pass(plan, state._reference)
    return reference


# ----------------------------------------------------------------------
# Noise block: a whole run's noise sampled in O(failures)
# ----------------------------------------------------------------------

# Letter codes of a failure index the rows of a code table: ``code_xz[c, j]`` is
# the Pauli a failure of code ``c`` applies to support entry ``j`` of its
# record (bit 0 X, bit 1 Z).  The built-in alphabets share one table: code 0
# is the preparation X flip, 1..3 the one-qubit depolarizing letters, 4..18
# the two-qubit pairs and 19 a classical measurement flip, which touches no
# frame.  A template that declares any other alphabet appends rows of its own.
_PAULI_XZ = {"I": 0, "X": 1, "Z": 2, "Y": 3}
_SHARED_CODES = {("X",): 0, _ONE_QUBIT_ERRORS: 1, _TWO_QUBIT_ERRORS: 4}
_FLIP_CODE = 19
_SHARED_LETTERS = ("X",) + _ONE_QUBIT_ERRORS + _TWO_QUBIT_ERRORS + ("II",)


def _code_rows(letters: Sequence[str], width: int) -> np.ndarray:
    """Code-table rows of Pauli strings, padded with identity to ``width``."""
    return np.array(
        [[_PAULI_XZ[c] for c in letter.ljust(width, "I")] for letter in letters], dtype=np.uint8
    )


_CODE_XZ = _code_rows(_SHARED_LETTERS, 2)

_BIT64 = np.uint64(1) << np.arange(64, dtype=np.uint64)

_OPCODE_NAMES = {int(op): op.name for op in Opcode}
_PREPARE = int(Opcode.PREPARE)
_MEASUREMENTS = (int(Opcode.MEASURE), int(Opcode.MEASURE_X))


class _NoiseTemplate:
    """The failable events of one program under one noise model's declarations.

    Every channel the model declares for the program's operations is an event
    (channels of probability zero are dropped).  Event ``e`` fails in each
    lane independently with probability ``p[e]``; a failing lane draws a
    letter uniformly from ``letters[e]`` choices (one choice draws nothing)
    and fails with letter code ``code[e] + letter``, a row of ``code_xz``.
    The injection events come first, event ``e`` being injection record
    ``e``; the measurement flips follow, flip ``f`` XORing onto outcome row
    ``flip_slots[f]``.  ``uniform_p`` is the probability every event shares,
    if they do, and ``uniform_letters`` the number of letters (more than
    one), likewise.  ``max_qubit`` is the highest support qubit declared (-1
    for none), which each run checks against its register.
    """

    __slots__ = (
        "p",
        "letters",
        "code",
        "code_xz",
        "pre_inj",
        "post_inj",
        "inj_start",
        "inj_qubit",
        "record_addresses",
        "flip_slots",
        "uniform_p",
        "uniform_letters",
        "max_qubit",
    )

    def __init__(self, plan: _KernelPlan, noise: NoiseModel) -> None:
        ops = plan.opcodes.shape[0]
        pre_inj = [-1] * ops
        post_inj = [-1] * ops
        inj_qubit: list[int] = []
        inj_start = [0]
        events: list[tuple[float, int, int]] = []  # (p, letters, code)
        flips: list[float] = []
        flip_slots: list[int] = []
        local_codes: dict[tuple[str, ...], int] = {}
        local_rows: list[str] = []
        top = -1

        def record(channel: PauliChannel | None) -> int:
            nonlocal top
            if channel is None:
                return -1
            check_channel(channel)
            p, qubits, letters = channel[0], channel[1], tuple(channel[2])
            top = max(top, *qubits)
            if p == 0.0:
                return -1
            code = _SHARED_CODES.get(letters)
            if code is None:
                code = local_codes.get(letters)
                if code is None:
                    code = local_codes[letters] = _CODE_XZ.shape[0] + len(local_rows)
                    local_rows.extend(letters)
            events.append((p, len(letters), code))
            inj_qubit.extend(qubits)
            inj_start.append(len(inj_qubit))
            return len(inj_start) - 2

        flip = flip_probability(noise)
        columns = (plan.opcodes, plan.qubit0, plan.qubit1, plan.exposure, plan.moved, plan.slots)
        for k, (op, q0, q1, exposure, moved, slot) in enumerate(
            zip(*(column.tolist() for column in columns))
        ):
            if exposure > 0:
                pre_inj[k] = record(noise.movement_channel(moved, exposure))
            if op == _PREPARE:
                post_inj[k] = record(noise.preparation_channel(q0))
            elif op in _MEASUREMENTS:
                if flip:
                    flips.append(flip)
                    flip_slots.append(slot)
            else:
                operands = (q0,) if q1 < 0 else (q0, q1)
                post_inj[k] = record(noise.gate_channel(_OPCODE_NAMES[op], operands))
        self.pre_inj = np.asarray(pre_inj, dtype=np.int32)
        self.post_inj = np.asarray(post_inj, dtype=np.int32)
        self.max_qubit = top
        events += [(p, 1, _FLIP_CODE) for p in flips]
        self.p = np.array([event[0] for event in events], dtype=np.float64)
        self.letters = np.array([event[1] for event in events], dtype=np.int64)
        self.code = np.array([event[2] for event in events], dtype=np.int64)
        self.code_xz = _CODE_XZ
        if local_rows:
            width = max(2, *map(len, local_rows))
            self.code_xz = _code_rows(_SHARED_LETTERS + tuple(local_rows), width)
        uniform = self.p.size and (self.p == self.p[0]).all()
        self.uniform_p = float(self.p[0]) if uniform else None
        uniform = self.letters.size and (self.letters == self.letters[0]).all()
        self.uniform_letters = int(self.letters[0]) if uniform and self.letters[0] > 1 else None
        self.inj_start = np.asarray(inj_start, dtype=np.int32)
        self.inj_qubit = np.asarray(inj_qubit, dtype=np.int32)
        self.flip_slots = np.asarray(flip_slots, dtype=np.int64)
        self.record_addresses = _addresses(
            self.pre_inj,
            self.post_inj,
            self.inj_start,
            self.inj_qubit,
            self.code_xz,
            self.flip_slots,
        )


class NoiseBlock:
    """One run's sampled noise as failure records.

    Injection record ``e`` acts on qubits ``inj_qubit[inj_start[e]:inj_start[e+1]]``
    and failed in the lanes ``fail_lane[fail_start[e]:fail_start[e+1]]``; a
    failure with letter code ``c`` applies the Pauli ``code_xz[c, j]`` (bit 0
    X, bit 1 Z) to support entry ``j``.  ``pre_inj[k]``/``post_inj[k]`` name
    the record applied before / after operation ``k`` (``-1`` for none), and
    ``record_addresses`` holds the data addresses of those four index arrays
    and of ``code_xz`` for the C kernel.  The measurement flips follow the
    ``R`` records: flip ``f`` failed in the lanes of entry ``R + f`` of
    ``fail_start``, which are XORed onto outcome row ``flip_slots[f]``.
    ``error_count`` counts the failed events of each lane.  ``template`` is
    the :class:`_NoiseTemplate` the block was sampled from, which fixes every
    field but the failures (None for a run's merged block).
    """

    __slots__ = (
        "template",
        "pre_inj",
        "post_inj",
        "inj_start",
        "inj_qubit",
        "code_xz",
        "record_addresses",
        "fail_start",
        "fail_lane",
        "fail_code",
        "flip_slots",
        "error_count",
    )


#: The fields of a :class:`NoiseBlock` that do not hold failures.
_LAYOUT_FIELDS = (
    "template",
    "pre_inj",
    "post_inj",
    "inj_start",
    "inj_qubit",
    "code_xz",
    "record_addresses",
    "flip_slots",
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
    any_dense = np.count_nonzero(dense)
    drawn = np.where(dense, batch_size - counts, counts) if any_dense else counts
    events = np.arange(counts.size, dtype=np.int64).repeat(drawn)
    keys = events * batch_size + rng.integers(0, batch_size, size=events.size)
    keys.sort()
    while True:
        repeats = (keys[1:] == keys[:-1]).nonzero()[0] + 1
        if not repeats.size:
            break
        lanes = rng.integers(0, batch_size, size=repeats.size)
        keys[repeats] += lanes - keys[repeats] % batch_size
        keys.sort()
    if any_dense:
        dense_events = np.flatnonzero(dense)
        failing = np.ones((dense_events.size, batch_size), dtype=np.bool_)
        is_passing = dense[keys // batch_size]
        passing = keys[is_passing]
        failing[np.searchsorted(dense_events, passing // batch_size), passing % batch_size] = False
        row, lane = np.nonzero(failing)
        keys = np.concatenate((keys[~is_passing], dense_events[row] * batch_size + lane))
        keys.sort()
    return keys


_NO_FAILURES = np.zeros(0, dtype=np.int64)


def _sample_block(
    template: _NoiseTemplate, batch_size: int, rng: np.random.Generator
) -> NoiseBlock:
    """Sample a template's events for ``batch_size`` lanes in O(1) RNG calls.

    ``binomial`` gives every event's failure count, :func:`_failing_lanes`
    the failing lanes and one ``integers`` call the depolarizing letters of
    the failing lanes only; the joint law is that of independent
    Bernoulli(``p``) lanes with uniform letters.  The keys come sorted by
    event, so the failure records are the keys themselves, in O(failures)
    work.  A template without events leaves ``rng`` untouched.
    """
    block = NoiseBlock()
    block.fail_start = np.zeros(template.p.size + 1, dtype=np.int64)
    block.fail_lane = block.fail_code = _NO_FAILURES
    block.error_count = np.zeros(batch_size, dtype=np.int64)
    counts = None
    if template.uniform_p is not None:
        # One probability for every event: a scalar argument makes the same
        # draws as an array of it, without the array's per-call checks (so
        # does a scalar number of letters below).
        counts = rng.binomial(batch_size, template.uniform_p, size=template.p.size)
    elif template.p.size:
        counts = rng.binomial(batch_size, template.p)
    if counts is not None and np.count_nonzero(counts):
        keys = _failing_lanes(counts, batch_size, rng)
        event, lane = np.divmod(keys, batch_size)
        code = template.code[event]
        if template.uniform_letters is not None:
            code += rng.integers(0, template.uniform_letters, size=code.size)
        else:
            letters = template.letters[event]
            depolarizing = letters > 1
            code[depolarizing] += rng.integers(0, letters[depolarizing])
        counts.cumsum(out=block.fail_start[1:])
        block.fail_lane = lane
        block.fail_code = code
        block.error_count = np.bincount(lane, minlength=batch_size)
    block.template = template
    block.pre_inj = template.pre_inj
    block.post_inj = template.post_inj
    block.inj_start = template.inj_start
    block.inj_qubit = template.inj_qubit
    block.code_xz = template.code_xz
    block.record_addresses = template.record_addresses
    block.flip_slots = template.flip_slots
    return block


def _plan_block(
    plan: _KernelPlan, noise: NoiseModel, batch_size: int, rng: np.random.Generator
) -> NoiseBlock:
    """Sample a model's noise on one program from its cached template.

    Templates are cached per model class and attribute values, which fix a
    model's declarations; a model with unhashable attribute values is
    declared afresh every run.
    """
    try:
        key = (type(noise), tuple(vars(noise).items()))
        template = plan.template_cache.get(key)
    except TypeError:
        return _sample_block(_NoiseTemplate(plan, noise), batch_size, rng)
    if template is None:
        if len(plan.template_cache) >= _PLAN_CACHE_LIMIT:
            plan.template_cache.clear()
        template = plan.template_cache[key] = _NoiseTemplate(plan, noise)
    return _sample_block(template, batch_size, rng)


def noise_block(
    program: CompiledCircuit,
    noise: NoiseModel,
    batch_size: int,
    rng: np.random.Generator,
) -> NoiseBlock:
    """Sample one run's noise: the channels ``noise`` declares for ``program``.

    :func:`execute_fused` draws this block from ``rng`` before the run's
    measurement words, for every model.  A model that declares no channel
    of nonzero probability leaves ``rng`` untouched.
    """
    return _plan_block(_plan_for(program), noise, batch_size, rng)


def _measurement_words(draw_count: int, W: int, rng: np.random.Generator) -> np.ndarray:
    """The random measurement words of one segment, in program order."""
    return rng.integers(0, _UINT64_MAX, size=(draw_count, W), dtype=np.uint64, endpoint=True)


def _merged_layout(plan: _KernelPlan, blocks: list[NoiseBlock]):
    """The fixed half of the segments' merged block: ``(layout, pieces)``.

    ``layout`` carries the merged record, letter-code and flip fields.
    ``pieces`` lists the runs of events the merged block takes from the
    segments, in order, as ``(segment, first event, end event, code
    offset)``: every segment's records, then every segment's flips, with
    adjacent runs joined.  A layout depends on the segments' templates only,
    so it is cached on the plan.
    """
    key = tuple(block.template for block in blocks)
    cached = plan.template_cache.get(key)
    if cached is not None:
        return cached
    records = [block.inj_start.size - 1 for block in blocks]
    record_offsets = np.cumsum([0] + records).tolist()
    qubit_offsets = np.cumsum([0] + [int(block.inj_start[-1]) for block in blocks]).tolist()
    slot_offsets = np.cumsum([0] + [part.num_measurements for part in plan.parts]).tolist()
    tables = [block.code_xz for block in blocks]
    layout = NoiseBlock()
    layout.template = None
    for name in ("pre_inj", "post_inj"):
        # Record indices move past the earlier segments' records; -1 stays.
        shifted = [
            np.where(getattr(block, name) >= 0, getattr(block, name) + offset, -1)
            for block, offset in zip(blocks, record_offsets)
        ]
        setattr(layout, name, np.concatenate(shifted).astype(np.int32))
    layout.inj_start = np.concatenate(
        [block.inj_start[:-1] + offset for block, offset in zip(blocks, qubit_offsets)]
        + [qubit_offsets[-1:]]
    ).astype(np.int32)
    layout.inj_qubit = np.concatenate([block.inj_qubit for block in blocks]).astype(np.int32)
    if all(table is _CODE_XZ for table in tables):
        layout.code_xz = _CODE_XZ
        code_offsets = [0] * len(blocks)
    else:
        width = max(table.shape[1] for table in tables)
        layout.code_xz = np.ascontiguousarray(
            np.concatenate([np.pad(t, ((0, 0), (0, width - t.shape[1]))) for t in tables])
        )
        code_offsets = np.cumsum([0] + [table.shape[0] for table in tables[:-1]]).tolist()
    layout.flip_slots = np.concatenate(
        [block.flip_slots + offset for block, offset in zip(blocks, slot_offsets)]
    ).astype(np.int64)
    layout.record_addresses = _addresses(
        layout.pre_inj,
        layout.post_inj,
        layout.inj_start,
        layout.inj_qubit,
        layout.code_xz,
        layout.flip_slots,
    )
    pieces: list[list[int]] = []
    runs = [(s, 0, r) for s, r in enumerate(records)]
    runs += [(s, r, b.fail_start.size - 1) for s, (b, r) in enumerate(zip(blocks, records))]
    for s, first, end in runs:
        if first == end:
            continue
        if pieces and pieces[-1][0] == s and pieces[-1][2] == first:
            pieces[-1][2] = end
        else:
            pieces.append([s, first, end, code_offsets[s]])
    merged = (layout, pieces)
    if len(plan.template_cache) >= _PLAN_CACHE_LIMIT:
        plan.template_cache.clear()
    plan.template_cache[key] = merged
    return merged


_START = np.zeros(1, dtype=np.int64)


def _merge_blocks(plan: _KernelPlan, blocks: list[NoiseBlock]) -> NoiseBlock:
    """One block for a run from its segments' blocks, sampled separately.

    The merged block lists every segment's injection records, in segment
    order, then every segment's measurement flips, so the kernel reads it
    as one program's block.  Failures are moved, never redrawn: the lanes
    and letters are the segments' own.
    """
    if len(blocks) == 1:
        return blocks[0]
    layout, pieces = _merged_layout(plan, blocks)
    merged = NoiseBlock()
    for name in _LAYOUT_FIELDS:
        setattr(merged, name, getattr(layout, name))
    starts = [_START]
    lanes, codes = [], []
    total = 0
    for s, first, end, code_offset in pieces:
        block = blocks[s]
        bounds = block.fail_start[first : end + 1]
        low, high = int(bounds[0]), int(bounds[-1])
        starts.append(bounds[1:] + (total - low))
        if high > low:
            lanes.append(block.fail_lane[low:high])
            code = block.fail_code[low:high]
            codes.append(code + code_offset if code_offset else code)
            total += high - low
    merged.fail_start = np.concatenate(starts)
    merged.fail_lane = np.concatenate(lanes) if lanes else _NO_FAILURES
    merged.fail_code = np.concatenate(codes) if codes else _NO_FAILURES
    merged.error_count = sum(block.error_count for block in blocks)
    return merged


# ----------------------------------------------------------------------
# The frame state
# ----------------------------------------------------------------------


class PauliFrameBatch:
    """``batch_size`` stabilizer states: one reference state plus per-lane frames.

    Lane ``i`` holds the :attr:`reference` state acted on by the Pauli whose
    X/Z bits are bit ``i`` of :attr:`frame_x`/:attr:`frame_z` (``(n, W)``
    uint64 words, 64 lanes per word).  Lanes past ``batch_size`` in the last
    word simulate along and are never reported.  :func:`execute_fused` runs
    compiled programs on the state, replacing the reference with the
    program's cached noiseless result and updating the frames in place; the
    reference is shared with that cache, so treat it as read-only.

    Parameters
    ----------
    num_qubits:
        Register size ``n`` of each lane.
    batch_size:
        Number of logical lanes ``B`` (need not be a multiple of 64).
    rng:
        Random generator for measurement outcomes (fresh default if omitted).
    """

    def __init__(
        self,
        num_qubits: int,
        batch_size: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        if num_qubits <= 0:
            raise SimulationError("a stabilizer tableau needs at least one qubit")
        if batch_size <= 0:
            raise SimulationError("a batch tableau needs at least one lane")
        self._n = num_qubits
        self._batch = batch_size
        self._words = num_words(batch_size)
        self._rng = rng if rng is not None else np.random.default_rng()
        self._reference, self._reference_key = _zero_reference(num_qubits)
        self._fx = np.zeros((num_qubits, self._words), dtype=np.uint64)
        self._fz = np.zeros((num_qubits, self._words), dtype=np.uint64)
        self._frame_addresses: tuple[int, int] | None = None

    @classmethod
    def from_tableau(
        cls,
        tableau: StabilizerTableau,
        batch_size: int,
        rng: np.random.Generator | None = None,
    ) -> "PauliFrameBatch":
        """Broadcast one scalar tableau into every lane of a fresh batch."""
        batch = cls(tableau.num_qubits, batch_size, rng=rng)
        batch._reference = tableau.copy()
        batch._reference_key = _tableau_key(batch._reference)
        return batch

    @property
    def num_qubits(self) -> int:
        """Register size of each lane."""
        return self._n

    @property
    def batch_size(self) -> int:
        """Number of logical lanes."""
        return self._batch

    @property
    def num_lane_words(self) -> int:
        """Number of uint64 words along the packed batch axis."""
        return self._words

    @property
    def reference(self) -> StabilizerTableau:
        """The shared noiseless reference state (read-only)."""
        return self._reference

    @property
    def frame_x(self) -> np.ndarray:
        """``(n, W)`` uint64 X bits of the per-lane frames."""
        return self._fx

    @property
    def frame_z(self) -> np.ndarray:
        """``(n, W)`` uint64 Z bits of the per-lane frames."""
        return self._fz

    def copy(self) -> "PauliFrameBatch":
        """An independent copy sharing the reference and the random generator."""
        clone = object.__new__(PauliFrameBatch)
        clone.__dict__.update(self.__dict__)
        clone._fx = self._fx.copy()
        clone._fz = self._fz.copy()
        clone._frame_addresses = None
        return clone

    def lane(self, index: int) -> StabilizerTableau:
        """Extract one lane as an independent scalar :class:`StabilizerTableau`."""
        if not 0 <= index < self._batch:
            raise SimulationError(f"lane {index} outside batch of size {self._batch}")
        word, bit = divmod(index, WORD_BITS)
        shift = np.uint64(bit)
        one = np.uint64(1)
        single = self._reference.copy()
        single._rng = self._rng
        single.apply_pauli(
            PauliString(
                ((self._fx[:, word] >> shift) & one).astype(np.uint8),
                ((self._fz[:, word] >> shift) & one).astype(np.uint8),
            )
        )
        return single

    def inject_pauli_words(
        self, qubits: tuple[int, ...], x_words: np.ndarray, z_words: np.ndarray
    ) -> None:
        """Multiply the frames by per-lane Paulis given as ``(len(qubits), W)`` words."""
        for j, qubit in enumerate(qubits):
            if not 0 <= qubit < self._n:
                raise SimulationError(
                    f"qubit index {qubit} outside register of size {self._n}"
                )
            self._fx[qubit] ^= x_words[j]
            self._fz[qubit] ^= z_words[j]

    def frame_parity(self, pauli: PauliString) -> np.ndarray:
        """``(W,)`` words: the lanes whose frame anticommutes with ``pauli``."""
        if pauli.num_qubits != self._n:
            raise SimulationError(
                f"Pauli acts on {pauli.num_qubits} qubits but register has {self._n}"
            )
        rows = np.concatenate((self._fz[pauli.x != 0], self._fx[pauli.z != 0]))
        return np.bitwise_xor.reduce(rows, axis=0)

    def expectation(self, pauli: PauliString) -> np.ndarray:
        """Per-lane expectation of a Hermitian Pauli: +1, -1 or 0 (random).

        The reference decides whether the value is random (the same in every
        lane) and its sign; a lane's frame flips the sign when it
        anticommutes with the observable.
        """
        value = self._reference.expectation(pauli)
        if value == 0:
            return np.zeros(self._batch, dtype=np.int8)
        flips = unpack_bits(self.frame_parity(pauli), self._batch)
        return (value * (1 - 2 * flips.astype(np.int8))).astype(np.int8)


# ----------------------------------------------------------------------
# Executor entry point
# ----------------------------------------------------------------------


def _run_kernel(tier, W, plan, reference, block, drawn, out, state) -> int:
    """Run the kernel once; ``out``'s last row is its measurement buffer."""
    ops = plan.opcodes.shape[0]
    code_width = block.code_xz.shape[1]
    flips = block.flip_slots.size
    records = block.inj_start.size - 1
    if tier == "cext":
        if state._frame_addresses is None:
            state._frame_addresses = (_address(state._fx), _address(state._fz))
        start_address = _address(block.fail_start)
        out_address = _address(out)
        return int(
            _cext_kernel()(
                W,
                ops,
                code_width,
                flips,
                *plan.addresses,
                *reference.addresses,
                *block.record_addresses,
                start_address,
                start_address + 8 * records,
                _address(block.fail_lane),
                _address(block.fail_code),
                _address(drawn),
                out_address,
                *state._frame_addresses,
                out_address + out[:-1].nbytes,
            )
        )
    return frame_kernel_numpy(
        W,
        ops,
        code_width,
        flips,
        plan.opcodes,
        plan.qubit0,
        plan.qubit1,
        plan.slots,
        reference.ref_bits,
        reference.draw_index,
        reference.piv_start,
        reference.piv_qubit,
        reference.piv_xz,
        block.pre_inj,
        block.post_inj,
        block.inj_start,
        block.inj_qubit,
        block.code_xz,
        block.flip_slots,
        block.fail_start,
        block.fail_start[records:],
        block.fail_lane,
        block.fail_code,
        drawn,
        out,
        state._fx,
        state._fz,
        out[-1],
    )


def execute_fused(
    program: CompiledCircuit | Sequence[tuple[CompiledCircuit, NoiseModel]],
    batch_size: int,
    rng: np.random.Generator,
    state: PauliFrameBatch,
    noise: NoiseModel | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run a compiled program, or a sequence of segments, in one kernel call.

    ``program`` is one compiled program run under ``noise``, or a run given
    as ordered ``(program, noise)`` segments (``noise`` is then None): the
    segments' programs are concatenated into one kernel program with one
    cached reference pass.  Each segment's noise is sampled from ``rng`` as
    the :func:`noise_block` of its model's declarations, and then its random
    measurement words from the state's generator (the same object in normal
    use), segment by segment; so a run draws exactly what its segments would
    draw as separate calls.
    Returns ``(outcome_words, error_count)``: ``(M, W)`` uint64 measurement
    outcomes in slot order, the segments' slots one after the other, and
    ``(B,)`` per-lane error counts.  The state's reference and frames are
    updated in place.
    """
    if isinstance(program, CompiledCircuit):
        segments = ((program, noise),)
    elif noise is not None:
        raise SimulationError("a run of segments carries its noise in each segment")
    else:
        segments = tuple(program)
        if not segments:
            raise SimulationError("a run needs at least one segment")
    programs = tuple(segment[0] for segment in segments)
    for each in programs:
        require_simulable(each)
    plan = _plan_for(*programs)
    W = state.num_lane_words
    if W != num_words(batch_size):
        raise SimulationError(
            f"state holds {W} lane words but batch size {batch_size} needs "
            f"{num_words(batch_size)}"
        )
    if state.num_qubits < plan.num_qubits:
        raise SimulationError(
            f"state has {state.num_qubits} qubits but the circuit needs {plan.num_qubits}"
        )
    reference = _reference_for(plan, state)
    bounds = reference.draw_bounds
    blocks = []
    words = []
    for s, (part, (_, model)) in enumerate(zip(plan.parts, segments)):
        block = _plan_block(part, model, batch_size, rng)
        if block.template.max_qubit >= state.num_qubits:
            raise SimulationError(
                f"noise model emitted qubit {block.template.max_qubit} outside register "
                f"of size {state.num_qubits}"
            )
        draws = bounds[s + 1] - bounds[s]
        if draws:
            words.append(_measurement_words(draws, W, state._rng))
        blocks.append(block)
    block = _merge_blocks(plan, blocks)
    if len(words) == 1:
        drawn = words[0]
    else:
        drawn = np.concatenate(words or [np.empty((0, W), dtype=np.uint64)])
    M = plan.num_measurements
    out = np.empty((M + 1, W), dtype=np.uint64)
    status = _run_kernel(kernel_tier(), W, plan, reference, block, drawn, out, state)
    if status != 0:
        raise SimulationError("unknown opcode reached the frame kernel")
    state._reference, state._reference_key = reference.final, reference.final_key
    return out[:M], block.error_count
