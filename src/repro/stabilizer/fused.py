"""The Pauli-frame Monte-Carlo engine: one kernel call per run, noise included.

Pauli noise never changes which Pauli operators stabilize a state, only their
signs.  So ``B`` noisy shots of a Clifford circuit are one noiseless
*reference* state plus, per lane, a *Pauli frame*: the Pauli by which the
lane's state differs from the reference (Gidney, *Stim*, Quantum 5, 497,
2021).  :class:`PauliFrameBatch` stores the frame as ``(n, W)`` uint64 X/Z
words, bit ``b`` of word ``w`` belonging to lane ``64*w + b``, and
:func:`execute_fused` pushes those words through a whole compiled program in
one native loop at O(W) work per gate or measurement.

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

A run is an ordered sequence of **segments**, ``(program, noise model)``
pairs; a single program is a run of one segment.  The segments' programs are
concatenated into one kernel program with one cached reference pass, and the
run makes one kernel call.  A Level-1 attempt (ideal preparation, noisy
gate, noisy ECC cycle) is one such run.

**Randomness.**  A run takes one 64-bit seed from its generator
(``rng.bit_generator.random_raw()``) and the kernel derives every random
number from it with a counter-based hash: value ``i`` of stream ``s`` is
splitmix64's output ``i`` from the stream's key (:func:`_stream_key`).
Stream 0 gives the random measurement words (word ``w`` of random
measurement ``d`` at counter ``d*W + w``), stream 1 the letters of failures
and stream ``2 + c`` the failure gaps of probability class ``c``.

**Noise.**  Every noise model declares its errors as Pauli channels
(:class:`~repro.stabilizer.noise.PauliChannel`); a run's channels make one
noise template (:class:`_NoiseTemplate`), cached per program content and
model attribute values.  Each channel of nonzero probability is an *event*
that fails in each lane independently, and a failing lane applies one of
the channel's Pauli letters, drawn uniformly; a measurement flip is an event
that XORs the lane's outcome bit.  The events of one probability ``p`` form
a *class*; event ``e`` of rank ``r`` in its class owns the keys ``r*B`` to
``r*B + B - 1``, one per lane, and the sampler jumps from failing key to
failing key with geometric gaps, the way Stim samples rare errors.  A
uniform ``v`` of 63 bits gives the gap ``g`` = the number of thresholds
``t_g = floor(2**63 * (1 - (1-p)**(g+1)))``, ``g < T``, at or below ``v``;
a draw at or past ``t_{T-1}`` passes ``T`` keys and draws again, which is
exact by memorylessness.  The thresholds are computed once per template, so
only integer compares decide a failure and both kernel tiers agree bit for
bit without trusting libm.  A run costs about one draw per failure plus one
per ``T`` keys, and ghost lanes past ``B`` never receive noise.

Two interchangeable kernels implement the loop, on the same arrays:

* a small C kernel (``fused_kernel.c``) compiled on demand with the system C
  compiler and loaded through ctypes; it reads the arrays through one int64
  block of sizes and addresses per plan, reference and noise template, and
  samples each event's failures as it reaches the event's program
  position, one cursor per class;
* :func:`frame_kernel_numpy` -- a pure-numpy fallback, so the module imports
  and runs (slower) with no compiler at all; it draws the same counters in
  vectorised chunks before the loop.

The same C source holds the **lookup decode** of a run
(:func:`lookup_decode`): per 64-lane word it XORs syndrome rows from their
outcome slots, looks the syndrome up in a correction table given as
per-qubit masks, applies an ideal recovery to the corrected frame X words
and writes three flag bytes per lane (failure, nontrivial syndrome,
verification passed).  Its tables (:class:`LookupDecodeTables`) come from
the caller, and :func:`lookup_decode_numpy` is its pure-numpy twin.  It
also holds a whole Level-1 trial batch (:func:`_level1_batch`: every
attempt's run and decode and the pooled-retry hand-out in one call, whose
twin is the Python retry loop of
:meth:`repro.arq.experiments.Level1EccExperiment.run_trial_batch_detailed`)
and the machine simulator's greedy EPR schedule (``repro_schedule``, called
by :meth:`repro.network.GreedyEprScheduler.schedule`, whose Python
placement loop is its twin).

``REPRO_FUSED_KERNEL`` selects the tier of all four explicitly (``auto`` /
``cext`` / ``numpy``); ``auto`` takes the C code when it compiles and logs
a warning once when it falls back to numpy.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
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
    "LookupDecodeTables",
    "PauliFrameBatch",
    "frame_kernel_numpy",
    "kernel_tier",
    "execute_fused",
    "lookup_decode",
    "lookup_decode_numpy",
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
# Counter-based draws (the C kernel computes the same values)
# ----------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_STREAM_GAMMA = 0xD1B54A32D192ED03
_MEASURE_STREAM, _LETTER_STREAM, _GAP_STREAM = 0, 1, 2

#: Thresholds per probability class: a draw past the last passes this many keys.
_GAP_TABLE = 1024

#: The C kernel starts each gap search at a guide entry, one per bucket of
#: draws sharing their top ``_GUIDE_BITS`` bits (the kernel's GUIDE_BITS).
_GUIDE_BITS = 10


def _mix64(z: int) -> int:
    """splitmix64's finalizer on a Python int."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _stream_key(seed: int, stream: int) -> int:
    """The key of one stream of a run's draws."""
    return _mix64((seed + (stream + 1) * _STREAM_GAMMA) & _MASK64)


def _np_draws(key: int, counters: np.ndarray) -> np.ndarray:
    """Values ``counters`` (uint64) of the stream with key ``key``."""
    z = (counters + np.uint64(1)) * np.uint64(_GAMMA) + np.uint64(key)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _gap_thresholds(p: float, table: int) -> np.ndarray:
    """``t_g = floor(2**63 * (1 - (1-p)**(g+1)))`` for ``g < table`` (uint64)."""
    if p >= 1.0:
        cdf = np.ones(table)
    else:
        cdf = -np.expm1(np.arange(1, table + 1) * np.log1p(-p))
    # Scaling by a power of two and flooring are exact; the running maximum
    # keeps the table sorted whatever the last ulp of expm1.
    return np.maximum.accumulate(np.floor(np.ldexp(cdf, 63)).astype(np.uint64))


# ----------------------------------------------------------------------
# Numpy fallback tier (the same arrays and semantics)
# ----------------------------------------------------------------------


def _np_gap_keys(key: int, thresholds: np.ndarray, end: int) -> np.ndarray:
    """The failing keys below ``end`` of one class, in order.

    The draws are taken in chunks sized from the last chunk's mean step;
    the counter is stateless, so drawing past ``end`` changes nothing.
    """
    table = thresholds.size
    hits = []
    position, counter, chunk = -1, 0, 256
    while position < end:
        values = _np_draws(key, np.arange(counter, counter + chunk, dtype=np.uint64))
        gaps = np.searchsorted(thresholds, values >> np.uint64(1), side="right")
        passed = gaps == table
        positions = position + np.cumsum(np.where(passed, table, gaps + 1))
        failing = positions[~passed]
        hits.append(failing[failing < end])
        step = (int(positions[-1]) - position) / chunk
        position, counter = int(positions[-1]), counter + chunk
        chunk = int((end - position) / step * 1.1) + 64
    return np.concatenate(hits)


def _np_letters(key: int, counters: np.ndarray, letters: np.ndarray, wrap: int) -> np.ndarray:
    """Uniform letters below ``letters`` (uint64), one per counter.

    A letter is the high half of the draw's top 32 bits times ``letters``
    (Lemire's method); a draw whose low half falls below ``2**32 %
    letters`` is redrawn at counter + ``wrap``, so every letter is exactly
    equally likely.
    """
    low = np.uint64(0xFFFFFFFF)
    reject = (low % letters + np.uint64(1)) % letters
    products = (_np_draws(key, counters) >> np.uint64(32)) * letters
    redraw = np.flatnonzero(products & low < reject)
    while redraw.size:
        counters[redraw] += np.uint64(wrap)
        products[redraw] = (_np_draws(key, counters[redraw]) >> np.uint64(32)) * letters[redraw]
        redraw = redraw[products[redraw] & low < reject[redraw]]
    return (products >> np.uint64(32)).astype(np.int64)


def _np_failures(B, seed, event_class, event_letters, event_code, class_events, thresholds):
    """Every failure of a run: ``(event, lane, code)`` int64 arrays, by event then lane."""
    keys = [np.zeros(0, dtype=np.int64)]
    for c in range(class_events.size):
        hits = _np_gap_keys(
            _stream_key(seed, _GAP_STREAM + c), thresholds[c], int(class_events[c]) * B
        )
        members = np.flatnonzero(event_class == c)
        keys.append(members[hits // B] * B + hits % B)
    key = np.sort(np.concatenate(keys))
    event, lane = np.divmod(key, B)
    code = event_code[event].astype(np.int64)
    letters = event_letters[event].astype(np.uint64)
    drawn = np.flatnonzero(letters > 1)
    if drawn.size:
        code[drawn] += _np_letters(
            _stream_key(seed, _LETTER_STREAM),
            key[drawn].astype(np.uint64),
            letters[drawn],
            event_class.size * B,
        )
    return event, lane, code


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


def _np_support_words(W, inj_start, code_xz, event, lane, code):
    """The failures as ``(2, K, W)`` X/Z words per support entry of the events."""
    words = np.zeros((2, int(inj_start[-1]), W), dtype=np.uint64)
    first = inj_start[event]
    support = inj_start[event + 1] - first
    xz = code_xz[code]
    for plane, part in enumerate((1, 2)):
        failure, entry = np.nonzero(xz & part)
        inside = entry < support[failure]
        failure, entry = failure[inside], entry[inside]
        np.bitwise_xor.at(
            words[plane],
            (first[failure] + entry, lane[failure] >> 6),
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
    B,
    ops,
    code_width,
    classes,
    events,
    table,
    seed,
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
    event_class,
    event_rank,
    event_letters,
    event_code,
    class_events,
    thresholds,
    guides,
    out,
    fx,
    fz,
    mout,
    dw,
    error_count,
):
    """Pure-numpy kernel on the arrays the C kernel reads through its blocks.

    Parameters (all arrays C-contiguous):

    ``W``/``B``/``ops``/``code_width``
        Packed word count, batch size, number of operations and columns of
        ``code_xz``.
    ``classes``/``events``/``table``/``seed``
        Numbers of probability classes, of events and of thresholds per
        class, and the run's 64-bit seed.
    ``opcodes``/``qubit0``/``qubit1``/``slots``
        ``(ops,)`` int32 program arrays (see ``CompiledCircuit.kernel_arrays``).
    ``ref_bits``/``draw_index``
        ``(ops,)`` facts of the reference pass: ``draw_index[k]`` numbers
        the random measurements (-1 otherwise); ``ref_bits[k]`` (uint8) is
        the reference outcome of a deterministic one.
    ``piv_start``/``piv_qubit``/``piv_xz``
        Pivot stabilizers of the random measurements: measurement ``d``
        covers entries ``piv_start[d]:piv_start[d+1]`` of ``piv_qubit``
        (int32) and ``piv_xz`` (uint8: bit 0 the X part, bit 1 the Z part).
    ``pre_inj``/``post_inj``
        ``(ops,)`` int32 indices of the event applied before (movement) /
        after (gate, preparation, measurement flip) the operation, -1 for
        none.
    ``inj_start``/``inj_qubit``
        Supports of the events: event ``e`` acts on the qubits
        ``inj_qubit[inj_start[e]:inj_start[e+1]]`` (int32); a flip has none.
    ``code_xz``
        ``(C, code_width)`` uint8 letter-code table: a failure of code ``c``
        applies the Pauli ``code_xz[c, j]`` (bit 0 X, bit 1 Z) to support
        entry ``j`` of its event.
    ``event_class``/``event_rank``/``event_letters``/``event_code``
        Per event (int32, ``event_rank`` int64): its probability class, its
        rank in the class, its number of letters and its first letter code.
    ``class_events``/``thresholds``/``guides``
        ``(classes,)`` int64 events per class, ``(classes, table)`` uint64
        gap thresholds and ``(classes, 2**_GUIDE_BITS)`` int32 search starts
        (which only speed the C kernel's search up).
    ``out``
        ``(M, W)`` outcome words.
    ``fx``/``fz``
        ``(n, W)`` uint64 frame words (updated in place).
    ``mout``/``dw``
        ``(W,)`` uint64 working buffers: one measurement's outcome words and
        its drawn words.
    ``error_count``
        ``(B,)`` int64 failed events per lane (added to in place).

    Returns a status code: 0 on success, 1 on an unknown opcode.
    """
    event, lane, code = _np_failures(
        B, seed, event_class, event_letters, event_code, class_events, thresholds
    )
    error_count += np.bincount(lane, minlength=B)
    draws = (piv_start.size - 1) * W
    drawn = _np_draws(
        _stream_key(seed, _MEASURE_STREAM), np.arange(draws, dtype=np.uint64)
    ).reshape(-1, W)
    measure_args = (ref_bits, draw_index, piv_start, piv_qubit, piv_xz, drawn, fx, fz, mout)
    # XORing whole rows beats a scatter per event, so decode the failures once.
    inj_x, inj_z = _np_support_words(W, inj_start, code_xz, event, lane, code)
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
    # A measurement's event (which has no support) flips its outcome row;
    # no operation reads an outcome row, so the flips can wait for the end.
    measured = np.isin(opcodes, _MEASUREMENTS) & (post_inj >= 0)
    flip_slot = np.full(events, -1, dtype=np.int64)
    flip_slot[post_inj[measured]] = slots[measured]
    flipped = flip_slot[event] >= 0
    row, lane = flip_slot[event[flipped]], lane[flipped]
    np.bitwise_xor.at(out, (row, lane >> 6), _BIT64[lane & 63])
    return 0


# ----------------------------------------------------------------------
# C extension tier (compiled on demand, loaded through ctypes)
# ----------------------------------------------------------------------

_CEXT_SOURCE = Path(__file__).with_name("fused_kernel.c")
_CEXT_LIBRARY = None
_CEXT_ERROR: str | None = None


def _cext_cache_dir() -> Path:
    override = os.environ.get("REPRO_FUSED_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-fused"


def _cext_kernel():
    """The compiled C library, or None with a reason.

    Its entry points are ``repro_frame_run`` (the frame kernel),
    ``repro_lookup_decode`` (the lookup decode), ``repro_level1_batch`` (a
    Level-1 trial batch, :func:`_level1_batch`) with ``repro_hand_out`` (its
    retry hand-out alone), ``repro_schedule`` (the greedy EPR schedule of
    :mod:`repro.network.scheduler`) and ``repro_route_search`` (that
    schedule's congestion search alone).
    """
    global _CEXT_LIBRARY, _CEXT_ERROR
    if _CEXT_LIBRARY is not None or _CEXT_ERROR is not None:
        return _CEXT_LIBRARY
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
        frame, decode = library.repro_frame_run, library.repro_lookup_decode
        batch, hand_out = library.repro_level1_batch, library.repro_hand_out
        schedule, search = library.repro_schedule, library.repro_route_search
    except (OSError, AttributeError) as exc:
        _CEXT_ERROR = f"cannot load compiled kernel {shared.name}: {exc}"
        return None
    for function in (frame, decode, batch, hand_out, schedule, search):
        function.restype = ctypes.c_int64
    frame.argtypes = [ctypes.c_int64] * 2 + [ctypes.c_uint64] + [ctypes.c_void_p] * 7
    decode.argtypes = (
        [ctypes.c_int64] * 2 + [ctypes.c_void_p, ctypes.c_int64] + [ctypes.c_void_p] * 3
    )
    batch.argtypes = [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 4 + [ctypes.c_int64]
    hand_out.argtypes = [ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64] + [ctypes.c_void_p] * 3
    schedule.argtypes = (
        [ctypes.c_int64] * 5 + [ctypes.c_void_p, ctypes.c_int64] + [ctypes.c_void_p] * 6
    )
    search.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] + [ctypes.c_int64] * 2 + [
        ctypes.c_void_p
    ]
    _CEXT_LIBRARY = library
    return library


def build_kernel() -> bool:
    """Compile (or load) the C kernel now; True when it is available.

    The kernel is built into ``REPRO_FUSED_CACHE`` (default
    ``~/.cache/repro-fused``) once per kernel source.  Which tier runs is
    still decided by :func:`kernel_tier`.
    """
    return _cext_kernel() is not None


def _block(*entries: int | np.ndarray) -> np.ndarray:
    """An int64 block of sizes and array data addresses, as the C code takes them.

    Taking an address costs about as much as the kernel's work on a small
    batch, and ctypes charges for every argument, so each object that
    outlives a run gathers its sizes and addresses into one block once and
    passes the block's address.  The object must keep the arrays alive.
    """
    return np.array(
        [entry.ctypes.data if isinstance(entry, np.ndarray) else entry for entry in entries],
        dtype=np.int64,
    )


def _address(array: np.ndarray) -> int:
    """The data address of a writable C-contiguous array, for one kernel call.

    Reading it through the buffer protocol costs a third of building the
    array's ``.ctypes`` object (and refuses a read-only or strided array).
    """
    return ctypes.addressof(ctypes.c_char.from_buffer(array))


# ----------------------------------------------------------------------
# Tier selection
# ----------------------------------------------------------------------

_KERNEL_ENV = "REPRO_FUSED_KERNEL"

# The environment as ``os.environ`` stores it, encoded: reading it skips the
# KeyError that ``os.environ.get`` raises and catches for an unset variable
# (about 1 us per read).
_ENVIRON = os.environ._data
_TIER_VARIABLES = tuple(map(os.environ.encodekey, (_KERNEL_ENV, faults.FAULTS_ENV)))

#: Resolved tiers keyed by the raw ``REPRO_FUSED_KERNEL`` and
#: ``REPRO_FAULTS`` values and the programmatic fault-profile override, so
#: changing any of them resolves afresh.
_TIER_CACHE: dict[tuple, str] = {}


def kernel_tier() -> str:
    """The kernel tier in effect: ``"cext"`` or ``"numpy"``.

    Controlled by the ``REPRO_FUSED_KERNEL`` environment variable (``auto``,
    the default, takes the C kernel when it compiles and otherwise falls back
    to numpy, logging the recorded compile error once on the ``repro``
    logger).  Forcing an unavailable tier raises :class:`SimulationError`
    with the recorded reason.
    """
    kernel, fault_spec = map(_ENVIRON.get, _TIER_VARIABLES)
    key = (kernel, fault_spec, faults.profile_override())
    cached = _TIER_CACHE.get(key)
    if cached is not None:
        return cached
    requested = (os.environ.decodevalue(kernel) if kernel else "").strip().lower() or "auto"
    if requested not in ("auto",) + KERNEL_TIERS:
        raise SimulationError(
            f"REPRO_FUSED_KERNEL={requested!r} is not a kernel tier; "
            f"expected 'auto' or one of {KERNEL_TIERS}"
        )
    # Fault injection (repro.faults, KERNEL_NATIVE site): while a profile
    # with a nonzero kernel rate is active, fault decisions are re-evaluated
    # per call and never pollute the steady-state cache.
    profile = faults.active_profile()
    fault_gated = profile is not None and profile.kernel > 0.0
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
        _TIER_CACHE[key] = tier
    return tier


# ----------------------------------------------------------------------
# Kernel plans: compiled programs lowered to kernel-ready arrays
# ----------------------------------------------------------------------

#: Plans keyed by their programs' content digests, so equal programs
#: compiled separately (a rebuilt experiment's, say) share one plan and its
#: noise templates.
_PLAN_CACHE: dict[tuple[bytes, ...], "_KernelPlan"] = {}

#: Bound on the plan cache, the per-plan template caches and the
#: reference-pass cache.
_PLAN_CACHE_LIMIT = 64


class _KernelPlan:
    """A run's segments lowered to contiguous kernel arrays plus caches.

    The segments' programs are concatenated: ``op_bounds[s]`` is the first
    operation of segment ``s`` (the last entry the total), and each
    segment's measurement slots follow the earlier segments'.
    ``content_key`` digests the operations the reference pass depends on,
    so runs with equal operations share their reference passes;
    ``block`` holds the sizes and array addresses the C kernel reads
    (``address`` is its own), and ``template_cache`` the run's noise
    templates.
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
        "content_key",
        "block",
        "address",
        "template_cache",
    )

    def __init__(self, programs: tuple[CompiledCircuit, ...]) -> None:
        for program in programs:
            unsupported = set(np.unique(program.opcodes).tolist()) - SUPPORTED_OPCODES
            if unsupported:
                names = sorted(Opcode(op).name for op in unsupported)
                raise SimulationError(
                    f"circuit {program.name!r} contains opcodes {names} that the "
                    "fused kernel does not support"
                )
        columns = list(zip(*(program.kernel_arrays() for program in programs)))
        measured = np.cumsum([0] + [program.num_measurements for program in programs])
        columns[5] = [
            np.where(slots >= 0, slots + offset, -1)
            for slots, offset in zip(columns[5], measured.tolist())
        ]
        (
            self.opcodes,
            self.qubit0,
            self.qubit1,
            self.exposure,
            self.moved,
            self.slots,
        ) = (np.concatenate(column).astype(np.int32) for column in columns)
        self.num_qubits = max(program.num_qubits for program in programs)
        self.num_measurements = int(measured[-1])
        self.op_bounds = np.cumsum([0] + [len(program.opcodes) for program in programs]).tolist()
        self.content_key = hashlib.sha256(
            self.opcodes.tobytes() + self.qubit0.tobytes() + self.qubit1.tobytes()
        ).digest()
        self.block = _block(
            self.opcodes.shape[0],
            self.num_measurements,
            self.opcodes,
            self.qubit0,
            self.qubit1,
            self.slots,
        )
        self.address = self.block.ctypes.data
        self.template_cache: dict = {}


def _plan_for(*programs: CompiledCircuit) -> _KernelPlan:
    key = tuple(program.content_digest for program in programs)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = _KernelPlan(programs)
        if len(_PLAN_CACHE) >= _PLAN_CACHE_LIMIT:
            _PLAN_CACHE.clear()
        _PLAN_CACHE[key] = plan
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
    ``piv_start[d]:piv_start[d+1]`` of ``piv_qubit``/``piv_xz``.
    ``block`` holds the data addresses of those five arrays and
    ``address`` the block's.
    """

    __slots__ = (
        "final",
        "final_key",
        "ref_bits",
        "draw_index",
        "piv_start",
        "piv_qubit",
        "piv_xz",
        "block",
        "address",
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
    reference.piv_start = np.asarray(piv_start, dtype=np.int32)
    reference.piv_qubit = np.asarray(piv_qubit, dtype=np.int32)
    reference.piv_xz = np.asarray(piv_xz, dtype=np.uint8)
    reference.block = _block(
        ref_bits, draw_index, reference.piv_start, reference.piv_qubit, reference.piv_xz
    )
    reference.address = reference.block.ctypes.data
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
# Noise templates: a run's declared channels as classed events
# ----------------------------------------------------------------------

# Letter codes of a failure index the rows of a code table: ``code_xz[c, j]`` is
# the Pauli a failure of code ``c`` applies to support entry ``j`` of its
# event (bit 0 X, bit 1 Z).  The built-in alphabets share one table: code 0
# is the preparation X flip, 1..3 the one-qubit depolarizing letters and 4..18
# the two-qubit pairs.  A template that declares any other alphabet appends
# rows of its own.  A measurement flip has no support and takes code 0.
_PAULI_XZ = {"I": 0, "X": 1, "Z": 2, "Y": 3}
_SHARED_CODES = {("X",): 0, _ONE_QUBIT_ERRORS: 1, _TWO_QUBIT_ERRORS: 4}
_SHARED_LETTERS = ("X",) + _ONE_QUBIT_ERRORS + _TWO_QUBIT_ERRORS


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
    """The failable events of a run under its segments' noise declarations.

    Operation ``k`` of segment ``s`` takes its channels from ``models[s]``;
    every channel of nonzero probability is an event, numbered in program
    order (channels of probability zero are dropped).  ``pre_inj[k]`` /
    ``post_inj[k]`` name the event before (movement) / after (gate,
    preparation, measurement flip) operation ``k``, -1 for none.  Event ``e``
    acts on ``inj_qubit[inj_start[e]:inj_start[e+1]]`` and fails in each
    lane independently with probability ``p[e]``; a failing lane draws a
    letter uniformly from ``event_letters[e]`` choices and applies the row
    ``event_code[e] + letter`` of ``code_xz``.  The events of one
    probability form a class: ``event_class[e]`` and ``event_rank[e]``
    place the event, ``class_events[c]`` counts class ``c``'s events,
    ``thresholds[c]`` holds its gap thresholds and ``guides[c]`` the C
    kernel's search starts per bucket of draws.  ``max_qubit`` is the
    highest support qubit declared (-1 for none), which each run checks
    against its register; ``block`` holds the sizes and array addresses
    the C kernel reads and ``address`` the block's.
    """

    __slots__ = (
        "p",
        "pre_inj",
        "post_inj",
        "inj_start",
        "inj_qubit",
        "code_xz",
        "event_class",
        "event_rank",
        "event_letters",
        "event_code",
        "class_events",
        "thresholds",
        "guides",
        "max_qubit",
        "block",
        "address",
    )

    def __init__(self, plan: _KernelPlan, models: tuple[NoiseModel, ...]) -> None:
        ops = plan.opcodes.shape[0]
        pre_inj = [-1] * ops
        post_inj = [-1] * ops
        inj_qubit: list[int] = []
        inj_start = [0]
        events: list[tuple[float, int, int]] = []  # (p, letters, code)
        local_codes: dict[tuple[str, ...], int] = {}
        local_rows: list[str] = []
        top = -1

        def event(p: float, qubits: tuple[int, ...], letters: int, code: int) -> int:
            events.append((p, letters, code))
            inj_qubit.extend(qubits)
            inj_start.append(len(inj_qubit))
            return len(events) - 1

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
            return event(p, qubits, len(letters), code)

        columns = (plan.opcodes, plan.qubit0, plan.qubit1, plan.exposure, plan.moved)
        rows = zip(*(column.tolist() for column in columns))
        for model, first, end in zip(models, plan.op_bounds, plan.op_bounds[1:]):
            flip = flip_probability(model)
            for k, (op, q0, q1, exposure, moved) in zip(range(first, end), rows):
                if exposure > 0:
                    pre_inj[k] = record(model.movement_channel(moved, exposure))
                if op == _PREPARE:
                    post_inj[k] = record(model.preparation_channel(q0))
                elif op in _MEASUREMENTS:
                    if flip:
                        post_inj[k] = event(flip, (), 1, 0)
                else:
                    operands = (q0,) if q1 < 0 else (q0, q1)
                    post_inj[k] = record(model.gate_channel(_OPCODE_NAMES[op], operands))
        self.pre_inj = np.asarray(pre_inj, dtype=np.int32)
        self.post_inj = np.asarray(post_inj, dtype=np.int32)
        self.inj_start = np.asarray(inj_start, dtype=np.int32)
        self.inj_qubit = np.asarray(inj_qubit, dtype=np.int32)
        self.max_qubit = top
        self.code_xz = _CODE_XZ
        if local_rows:
            width = max(2, *map(len, local_rows))
            self.code_xz = _code_rows(_SHARED_LETTERS + tuple(local_rows), width)
        self.p = np.array([p for p, _, _ in events], dtype=np.float64)
        self.event_letters = np.array([n for _, n, _ in events], dtype=np.int32)
        self.event_code = np.array([code for _, _, code in events], dtype=np.int32)
        probabilities, event_class = np.unique(self.p, return_inverse=True)
        self.event_class = event_class.astype(np.int32)
        self.class_events = np.bincount(event_class, minlength=probabilities.size)
        order = np.argsort(event_class, kind="stable")
        firsts = np.cumsum(self.class_events) - self.class_events
        self.event_rank = np.empty(self.p.size, dtype=np.int64)
        self.event_rank[order] = np.arange(self.p.size) - np.repeat(firsts, self.class_events)
        self.thresholds = np.zeros((probabilities.size, _GAP_TABLE), dtype=np.uint64)
        self.guides = np.zeros((probabilities.size, 1 << _GUIDE_BITS), dtype=np.int32)
        buckets = np.arange(1 << _GUIDE_BITS, dtype=np.uint64) << np.uint64(63 - _GUIDE_BITS)
        for c, p in enumerate(probabilities.tolist()):
            self.thresholds[c] = _gap_thresholds(p, _GAP_TABLE)
            self.guides[c] = np.searchsorted(self.thresholds[c], buckets, side="right")
        self.block = _block(
            self.code_xz.shape[1],
            self.class_events.size,
            self.p.size,
            self.thresholds.shape[1],
            self.pre_inj,
            self.post_inj,
            self.inj_start,
            self.inj_qubit,
            self.code_xz,
            self.event_class,
            self.event_rank,
            self.event_letters,
            self.event_code,
            self.class_events,
            self.thresholds,
            self.guides,
        )
        self.address = self.block.ctypes.data

    def sample(self, batch_size: int, seed: int):
        """The failures a run with this seed draws: ``(event, lane, code)``.

        The numpy tier's sampler, ordered by event and then lane; the C
        kernel draws the same failures as it reaches each event.
        """
        arrays = (self.event_class, self.event_letters, self.event_code, self.class_events)
        return _np_failures(batch_size, seed, *arrays, self.thresholds)


def _template_for(plan: _KernelPlan, models: tuple[NoiseModel, ...]) -> _NoiseTemplate:
    """A run's noise template, cached on its plan.

    Templates are cached per model classes and attribute values, which fix
    the models' declarations; a model with unhashable attribute values is
    declared afresh every run.
    """
    try:
        key = tuple((type(model), tuple(vars(model).items())) for model in models)
        template = plan.template_cache.get(key)
    except TypeError:
        return _NoiseTemplate(plan, models)
    if template is None:
        if len(plan.template_cache) >= _PLAN_CACHE_LIMIT:
            plan.template_cache.clear()
        template = plan.template_cache[key] = _NoiseTemplate(plan, models)
    return template


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
        Random generator of the lanes extracted by :meth:`lane` (fresh
        default if omitted); :func:`execute_fused` draws from its own.
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
        # Addresses the C tier takes once: the frames' per state (see
        # _frames_at), and per run the outcome words execute_fused returned
        # last with their address, which a decode of those words reuses.
        self._frame_addresses: tuple[int, int] | None = None
        self._outcome: tuple[np.ndarray, int] | None = None

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
        clone._frame_addresses = clone._outcome = None
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


def _frames_at(state: PauliFrameBatch) -> tuple[int, int]:
    """The addresses of the state's frame X and Z words, taken once per state."""
    if state._frame_addresses is None:
        state._frame_addresses = (_address(state._fx), _address(state._fz))
    return state._frame_addresses


def _run_kernel(tier, W, B, seed, plan, reference, template, out, error_count, state) -> int:
    """Run the kernel once; ``out``'s last two rows are its working buffers.

    On the C tier ``state._outcome`` holds ``out``'s address.
    """
    if tier == "cext":
        return _cext_kernel().repro_frame_run(
            W,
            B,
            seed,
            plan.address,
            reference.address,
            template.address,
            state._outcome[1],
            *_frames_at(state),
            _address(error_count),
        )
    return frame_kernel_numpy(
        W,
        B,
        plan.opcodes.shape[0],
        template.code_xz.shape[1],
        template.class_events.size,
        template.p.size,
        template.thresholds.shape[1],
        seed,
        plan.opcodes,
        plan.qubit0,
        plan.qubit1,
        plan.slots,
        reference.ref_bits,
        reference.draw_index,
        reference.piv_start,
        reference.piv_qubit,
        reference.piv_xz,
        template.pre_inj,
        template.post_inj,
        template.inj_start,
        template.inj_qubit,
        template.code_xz,
        template.event_class,
        template.event_rank,
        template.event_letters,
        template.event_code,
        template.class_events,
        template.thresholds,
        template.guides,
        out,
        state._fx,
        state._fz,
        out[-2],
        out[-1],
        error_count,
    )


def _resolve_run(
    program, noise, batch_size: int, state: PauliFrameBatch
) -> tuple[_KernelPlan, _Reference, _NoiseTemplate]:
    """The checked plan, reference pass and noise template of a run on ``state``.

    ``program`` and ``noise`` are as :func:`execute_fused` takes them.
    """
    if isinstance(program, CompiledCircuit):
        programs, models = (program,), (noise,)
    elif noise is not None:
        raise SimulationError("a run of segments carries its noise in each segment")
    else:
        segments = tuple(program)
        if not segments:
            raise SimulationError("a run needs at least one segment")
        programs = tuple(segment[0] for segment in segments)
        models = tuple(segment[1] for segment in segments)
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
    template = _template_for(plan, models)
    if template.max_qubit >= state.num_qubits:
        raise SimulationError(
            f"noise model emitted qubit {template.max_qubit} outside register "
            f"of size {state.num_qubits}"
        )
    return plan, reference, template


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
    cached reference pass and one noise template, each operation declaring
    its channels from its own segment's model.  The run takes exactly one 64-bit value from ``rng``, whatever
    its segments, and the kernel derives its noise and random measurement
    words from it.
    Returns ``(outcome_words, error_count)``: ``(M, W)`` uint64 measurement
    outcomes in slot order, the segments' slots one after the other, and
    ``(B,)`` per-lane error counts.  The state's reference and frames are
    updated in place.
    """
    plan, reference, template = _resolve_run(program, noise, batch_size, state)
    W = state.num_lane_words
    seed = rng.bit_generator.random_raw()
    M = plan.num_measurements
    out = np.empty((M + 2, W), dtype=np.uint64)
    words = out[:M]
    error_count = np.zeros(batch_size, dtype=np.int64)
    tier = kernel_tier()
    # The returned words start at ``out``'s address, which the C tier takes
    # once for the kernel and once more for a decode of these words.
    state._outcome = (words, _address(out)) if tier == "cext" else None
    status = _run_kernel(
        tier, W, batch_size, seed, plan, reference, template, out, error_count, state
    )
    if status == 1:
        raise SimulationError("unknown opcode reached the frame kernel")
    if status != 0:
        raise SimulationError("the frame kernel could not allocate its sampler")
    state._reference, state._reference_key = reference.final, reference.final_key
    return words, error_count


# ----------------------------------------------------------------------
# Lookup decode: a run's per-lane flags from its outcome and frame words
# ----------------------------------------------------------------------


class _WordParity:
    """Per output row, the XOR of a list of word rows: one gather, one ``reduceat``."""

    def __init__(self, rows: list[list[int]]) -> None:
        # An empty row reads a zero row appended past the input's last row.
        self._pad = any(not row for row in rows)
        self._index = np.array([i for row in rows for i in (row or [-1])], dtype=np.intp)
        self._starts = np.cumsum([0] + [max(len(row), 1) for row in rows[:-1]])

    def __call__(self, words: np.ndarray) -> np.ndarray:
        if self._pad:
            words = np.concatenate((words, np.zeros_like(words[:1])))
        return np.bitwise_xor.reduceat(words[self._index], self._starts, axis=0)


def _csr(rows: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """``(start, entries)`` int32 arrays: row ``r`` is ``entries[start[r]:start[r+1]]``."""
    start = np.cumsum([0] + [len(row) for row in rows]).astype(np.int32)
    return start, np.array([i for row in rows for i in row], dtype=np.int32)


class LookupDecodeTables:
    """The tables of a lookup decode (:func:`lookup_decode`), built once.

    A decode reads a run's outcome words and the frame X words of a data
    block, and gives each lane three flags: failure, nontrivial syndrome
    and verification passed.

    Parameters
    ----------
    syndrome_rows:
        Per syndrome row, the outcome slots whose XOR is the row.  The
        first ``m`` rows are the syndrome that is looked up and corrected;
        rows ``[0, reported)`` mark a nontrivial syndrome, the rest are
        verification checks, any of which rejects the lane.
    reported:
        Number of leading rows that report a syndrome.
    correction_table:
        ``(2**m, n)`` 0/1 X-correction table over the ``n`` data qubits:
        the correction of syndrome value ``v`` (most significant check
        first) flips qubit ``q`` when ``correction_table[v, q]`` is set;
        ``m`` is at most 6.
    checks:
        ``m`` data-qubit supports: the Z-type checks whose ideal parities,
        XOR their reference signs, are the recovery syndrome.
    logical:
        Data-qubit support of the Z-type logical readout.

    Once the first ``m`` rows' X correction is applied, the ideal recovery
    looks the checks' parities up, corrects again and reads the logical
    parity; a lane fails when it does not read 1.
    """

    def __init__(
        self,
        syndrome_rows: Sequence[Sequence[int]],
        reported: int,
        correction_table: np.ndarray,
        checks: Sequence[Sequence[int]],
        logical: Sequence[int],
    ) -> None:
        table = np.asarray(correction_table) != 0
        values, n = table.shape
        m = values.bit_length() - 1
        if values != 1 << m or not 0 < m <= 6 or len(checks) != m or len(syndrome_rows) < m:
            raise SimulationError(
                f"a lookup decode needs 2**m correction rows (0 < m <= 6), m checks "
                f"and at least m syndrome rows; got {values} rows, {len(checks)} "
                f"checks and {len(syndrome_rows)} syndrome rows"
            )
        if not 0 <= reported <= len(syndrome_rows):
            raise SimulationError(f"reported rows {reported} outside [0, {len(syndrome_rows)}]")
        self.checks = m
        self.reported = reported
        self.num_data = n
        self.syndrome_parity = _WordParity([list(row) for row in syndrome_rows])
        # Rows of [s; ~s] whose AND marks the lanes with syndrome value v.
        self.pattern_rows = np.array(
            [
                [i if (value >> (m - 1 - i)) & 1 else m + i for i in range(m)]
                for value in range(values)
            ]
        )
        # Per qubit, the syndrome values whose correction flips it.
        columns = [np.flatnonzero(column).tolist() for column in table.T]
        self.x_corrections = _WordParity(columns)
        self.check_parity = _WordParity([list(check) for check in checks])
        self.logical_parity = _WordParity([list(logical)])
        # The C routine's tables: the same rows in CSR form, and per qubit
        # a mask with bit v set when value v's correction flips it.
        row_start, row_slot = _csr(syndrome_rows)
        support_start, support_qubit = _csr([*checks, logical])
        if (row_slot < 0).any() or ((support_qubit < 0) | (support_qubit >= n)).any():
            raise SimulationError(
                f"decode tables name a negative outcome slot or a qubit outside "
                f"the {n} data qubits"
            )
        self.max_slot = int(row_slot.max(initial=-1))
        masks = np.array([sum(1 << v for v in column) for column in columns], dtype=np.uint64)
        self._arrays = (row_start, row_slot, masks, support_start, support_qubit)
        self.block = _block(m, len(syndrome_rows), reported, n, *self._arrays)
        self.address = self.block.ctypes.data

    def value_hits(self, syndromes: np.ndarray) -> np.ndarray:
        """``(2**m, W)`` words: the lanes whose ``(m, W)`` syndrome reads each value.

        Values are read most-significant check first, like the rows of the
        dense correction table; the value sets are disjoint, so a qubit's
        correction is the XOR of the sets of the values that flip it.
        """
        choices = np.concatenate((syndromes, ~syndromes))
        return np.bitwise_and.reduce(choices[self.pattern_rows], axis=1)

    def ideal_recovery_says_one(self, signs: int, frame_x: np.ndarray) -> np.ndarray:
        """Ideal decode on words; set where the logical value reads 1.

        ``frame_x`` holds the data block's frame X words and ``signs`` the
        reference signs (bit ``c`` of check ``c``, bit ``m`` of the
        logical).  Negative ``signs`` mark a reference outside the code
        space, where no lane reads 1.
        """
        if signs < 0:
            return np.zeros(frame_x.shape[1], dtype=np.uint64)
        bits = (signs >> np.arange(self.checks + 1)) & 1
        words = np.where(bits == 1, ~np.uint64(0), np.uint64(0))[:, None]
        syndromes = words[:-1] ^ self.check_parity(frame_x)
        corrected = frame_x ^ self.x_corrections(self.value_hits(syndromes))
        return (words[-1] ^ self.logical_parity(corrected))[0]


def lookup_decode_numpy(
    tables: LookupDecodeTables,
    signs: int,
    out: np.ndarray,
    frame_x: np.ndarray,
    flags: np.ndarray,
) -> None:
    """Pure-numpy twin of the C ``repro_lookup_decode``: fills ``flags``.

    ``out`` holds the ``(M, W)`` outcome words, ``frame_x`` the frame X
    words (the data block's qubits first) and ``flags`` is the ``(3, B)``
    bool buffer of the failure, nontrivial-syndrome and
    verification-passed rows.
    """
    syndromes = tables.syndrome_parity(out)
    m, n = tables.checks, tables.num_data
    frame_x = frame_x[:n] ^ tables.x_corrections(tables.value_hits(syndromes[:m]))
    says_one = tables.ideal_recovery_says_one(signs, frame_x)
    nontrivial = np.bitwise_or.reduce(syndromes[: tables.reported], axis=0)
    rejected = np.bitwise_or.reduce(syndromes[tables.reported :], axis=0)
    bits = unpack_bits(np.stack((says_one, nontrivial, rejected)), flags.shape[1]) != 0
    flags[0] = ~bits[0]
    flags[1] = bits[1]
    flags[2] = ~bits[2]


def lookup_decode(
    tables: LookupDecodeTables,
    signs: int,
    out: np.ndarray,
    state: PauliFrameBatch,
) -> np.ndarray:
    """Decode a run: ``(3, B)`` bool failure, nontrivial-syndrome and passed flags.

    ``out`` is the run's ``(M, W)`` outcome words (uint64, C-contiguous and
    writable) and ``state`` the frame batch it ran on, whose frame X words
    (the data block's qubits first) the decode reads; ``signs`` holds the
    reference signs of ``tables``' checks and logical, negative when the
    reference leaves any of them random.  The kernel tier in effect
    (:func:`kernel_tier`) picks the C routine or :func:`lookup_decode_numpy`;
    both give the same flags.  The C routine reuses the addresses the
    state's last :func:`execute_fused` took when ``out`` is the words that
    run returned.
    """
    batch_size, W = state.batch_size, state.num_lane_words
    if out.shape[1] != W or out.dtype != np.uint64:
        raise SimulationError(
            f"a decode of {batch_size} lanes reads {W} uint64 words per row; got "
            f"outcome words {out.shape} {out.dtype}"
        )
    if out.shape[0] <= tables.max_slot or state.num_qubits < tables.num_data:
        raise SimulationError(
            f"the decode reads outcome slot {tables.max_slot} and {tables.num_data} "
            f"frame rows; got {out.shape[0]} outcomes and {state.num_qubits} rows"
        )
    flags = np.empty((3, batch_size), dtype=bool)
    if kernel_tier() == "cext":
        outcome = state._outcome
        status = _cext_kernel().repro_lookup_decode(
            W,
            batch_size,
            tables.address,
            signs,
            outcome[1] if outcome is not None and outcome[0] is out else _address(out),
            _frames_at(state)[0],
            _address(flags),
        )
        if status != 0:
            raise SimulationError("the lookup decode could not allocate its scratch")
    else:
        lookup_decode_numpy(tables, signs, out, state.frame_x, flags)
    return flags


# ----------------------------------------------------------------------
# Level-1 trial batch: every attempt of a batch in one native call
# ----------------------------------------------------------------------

# ``PyCapsule_GetPointer`` typed for a bit generator's capsule, as a private
# function object (setting types on ``ctypes.pythonapi``'s would change them
# for every other user).  Reading the address through the capsule skips the
# ``ctypes`` interface numpy builds on a generator's first ``.ctypes`` access.
_CAPSULE_POINTER = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


class _ResolvedAttempt:
    """One Level-1 attempt's run and decode, resolved once for :func:`_level1_batch`.

    An attempt runs ``segments`` on fresh all-|0> frames of ``num_qubits``
    qubits and decodes its outcome words with ``tables`` against the signs
    ``signs_of`` gives for the run's final reference.  The plan, reference
    pass and noise template are resolved and checked as :func:`execute_fused`
    resolves them; ``block`` holds their C blocks' addresses, the tables',
    the signs and ``num_qubits``, and ``address`` the block's.
    """

    __slots__ = ("plan", "reference", "template", "tables", "signs", "block", "address")

    def __init__(
        self,
        segments: Sequence[tuple[CompiledCircuit, NoiseModel]],
        num_qubits: int,
        tables: LookupDecodeTables,
        signs_of,
    ) -> None:
        state = PauliFrameBatch(num_qubits, 1)
        plan, reference, template = _resolve_run(segments, None, 1, state)
        if plan.num_measurements <= tables.max_slot or num_qubits < tables.num_data:
            raise SimulationError(
                f"the decode reads outcome slot {tables.max_slot} and {tables.num_data} "
                f"frame rows; the run has {plan.num_measurements} outcomes and "
                f"{num_qubits} rows"
            )
        self.plan, self.reference, self.template, self.tables = plan, reference, template, tables
        self.signs = signs_of(reference.final)
        addresses = (plan.address, reference.address, template.address, tables.address)
        self.block = _block(*addresses, self.signs, num_qubits)
        self.address = self.block.ctypes.data


def _level1_batch(
    attempt: _ResolvedAttempt, batch_size: int, limit: int, rng: np.random.Generator
) -> tuple[np.ndarray, tuple[int, ...]]:
    """A Level-1 trial batch in one call to the C routine: ``(flags, widths)``.

    The twin of the Python retry loop of
    :meth:`repro.arq.experiments.Level1EccExperiment.run_trial_batch_detailed`:
    the first attempt on all ``batch_size`` lanes, then pooled retries of
    the rejected lanes, at most ``limit`` attempts each, every attempt
    drawing its seed from ``rng``'s bit generator (under its lock) as
    :func:`execute_fused` would.  ``flags`` is the ``(3, B)`` bool failure,
    nontrivial-syndrome and verification-passed rows each lane keeps, and
    ``widths`` the lanes of each attempt.  Needs the C tier.
    """
    batch_size = int(batch_size)
    flags = np.empty((3, batch_size), dtype=bool)
    # Each pool but the last uses all its lanes, at least one per pending
    # lane, so the pending lanes' remaining attempts shrink by a factor
    # 1 - 1/(limit - 1) per pool: this many attempts always suffice.
    room = 2 + (limit - 1) * (batch_size * (limit - 1)).bit_length()
    widths = np.empty(room, dtype=np.int64)
    generator = rng.bit_generator
    with generator.lock:
        made = _cext_kernel().repro_level1_batch(
            batch_size,
            limit,
            attempt.address,
            _CAPSULE_POINTER(generator.capsule, b"BitGenerator"),
            _address(flags),
            _address(widths),
            room,
        )
    if made == -1:
        raise SimulationError("unknown opcode reached the frame kernel")
    if made < 0:
        raise SimulationError(f"the Level-1 trial batch failed with status {-made}")
    return flags, tuple(widths[:made].tolist())
