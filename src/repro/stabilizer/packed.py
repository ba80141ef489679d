"""Bit-packed multi-shot CHP stabilizer simulation (64 lanes per machine word).

A vectorized batch of tableaux that spends one ``uint8`` byte per tableau bit
is bounded by memory bandwidth an order of magnitude short of what the
hardware can do.  :class:`PackedBatchTableau` packs the **batch axis** into
``uint64`` words --
X bits, Z bits and signs stored as ``(2n+1, n, ceil(B/64))`` /
``(2n+1, ceil(B/64))`` arrays, bit ``b`` of word ``w`` belonging to lane
``64*w + b`` -- and implements every operation as word-wise XOR/AND/OR
kernels:

* Clifford gates are the usual CHP column updates, but one ``uint64`` word
  carries 64 lanes, an 8x memory saving over a byte per bit and up to 64x
  fewer bit operations per gate.
* The CHP ``g`` phase function is evaluated without integer upcasts: the
  per-qubit contributions (``+1``/``-1``/``0``) become two boolean masks and
  the sum over qubits is carried mod 4 in two bit-planes, the carry tracked
  with the boolean full-adder identities (:func:`_mod4_accumulate`).
* Popcounts go through :func:`popcount`, which uses ``np.bitwise_count``
  when the installed numpy provides it (numpy >= 2.0) and an 8-bit
  lookup-table fallback otherwise.

Lanes past the logical batch size (the "ghost" bits padding the last word)
are initialised as valid all-|0> tableaux and simply simulate along
noiselessly; every user-facing result is trimmed to the logical batch size,
so ragged batch sizes not divisible by 64 behave identically to aligned ones.

The update rules are operation-for-operation the standard Aaronson-Gottesman
procedure; ``tests/test_stabilizer_packed.py`` pins this engine against the
scalar :class:`StabilizerTableau`, and the fused kernel tier
(:mod:`repro.stabilizer.fused`) against this engine bit for bit.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.exceptions import SimulationError
from repro.pauli import PauliString
from repro.stabilizer.tableau import StabilizerTableau

#: Lanes per packed word.
WORD_BITS = 64

_UINT64_MAX = np.uint64(np.iinfo(np.uint64).max)

#: Whether the installed numpy has a native popcount ufunc (numpy >= 2.0).
HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: 8-bit popcount lookup table for the pre-``bitwise_count`` fallback.
_POPCOUNT_TABLE = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

_LITTLE_ENDIAN = sys.byteorder == "little"


def num_words(batch_size: int) -> int:
    """Number of uint64 words needed to hold ``batch_size`` lane bits."""
    return (batch_size + WORD_BITS - 1) // WORD_BITS


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-word set-bit count of a uint64 array.

    Uses the native ``np.bitwise_count`` ufunc when available and an 8-bit
    lookup table otherwise, so the packed engine runs on numpy versions
    predating the ufunc (added in numpy 2.0).
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if HAVE_BITWISE_COUNT:
        return np.bitwise_count(words).astype(np.int64)
    as_bytes = words.view(np.uint8)
    counts = _POPCOUNT_TABLE[as_bytes]
    return counts.reshape(words.shape + (8,)).sum(axis=-1, dtype=np.int64)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack 0/1 values along the last axis into little-bit-order uint64 words.

    ``(..., B)`` binary input becomes ``(..., ceil(B/64))`` uint64 output with
    bit ``b`` of word ``w`` holding element ``64*w + b``.
    """
    bits = np.ascontiguousarray(bits)
    batch = bits.shape[-1]
    words = num_words(batch)
    packed8 = np.packbits(bits.astype(np.uint8), axis=-1, bitorder="little")
    padded = np.zeros(bits.shape[:-1] + (words * 8,), dtype=np.uint8)
    padded[..., : packed8.shape[-1]] = packed8
    if _LITTLE_ENDIAN:
        return padded.view(np.uint64)
    return padded.view("<u8").astype(np.uint64)


def unpack_bits(words: np.ndarray, count: int) -> np.ndarray:
    """Unpack uint64 words (little bit order) back into ``count`` 0/1 bytes."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if not _LITTLE_ENDIAN:
        words = words.astype("<u8")
    as_bytes = words.view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1, count=count, bitorder="little")


def lane_mask_words(batch_size: int) -> np.ndarray:
    """``(W,)`` uint64 mask with exactly the first ``batch_size`` lane bits set."""
    words = num_words(batch_size)
    mask = np.full(words, _UINT64_MAX, dtype=np.uint64)
    tail = batch_size % WORD_BITS
    if tail:
        mask[-1] = np.uint64((1 << tail) - 1)
    return mask


def _g_masks(
    x1: np.ndarray, z1: np.ndarray, x2: np.ndarray, z2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Word-parallel CHP ``g``: masks of lanes contributing +1 and -1.

    Per qubit the phase contribution of multiplying the Pauli ``(x1, z1)`` by
    ``(x2, z2)`` is +1 when the second operator is the cyclic successor of the
    first (X->Y->Z->X), -1 for the cyclic predecessor, and 0 otherwise; the
    six product terms below enumerate exactly those cases.
    """
    y1 = x1 & z1
    only_x1 = x1 & ~z1
    only_z1 = ~x1 & z1
    not_x2 = ~x2
    not_z2 = ~z2
    plus = (y1 & z2 & not_x2) | (only_x1 & x2 & z2) | (only_z1 & x2 & not_z2)
    minus = (y1 & x2 & not_z2) | (only_x1 & not_x2 & z2) | (only_z1 & x2 & z2)
    return plus, minus


def _sum_g_mod4(
    plus: np.ndarray, minus: np.ndarray, axis: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sum per-qubit ``g`` contributions (+1/-1 masks) mod 4 along ``axis``.

    A +1 contribution is the 2-bit value 1 (low=1, high=0); a -1 contribution
    is 3 mod 4 (low=1, high=1), hence ``low = plus | minus, high = minus`` --
    the masks are disjoint by construction.
    """
    return _mod4_reduce(plus | minus, minus, axis)


def _mod4_reduce(
    low: np.ndarray, high: np.ndarray, axis: int
) -> tuple[np.ndarray, np.ndarray]:
    """Reduce 2-bit lane counters along ``axis`` with mod-4 bit-plane adds.

    ``(low, high)`` hold the low/high bits of per-element values mod 4; the
    reduction folds halves pairwise (a balanced tree, so the number of numpy
    calls is logarithmic in the axis length) using the boolean identity
    ``(l1, h1) + (l2, h2) = (l1 ^ l2, h1 ^ h2 ^ (l1 & l2))  (mod 4)``.
    """
    low = np.moveaxis(low, axis, 0)
    high = np.moveaxis(high, axis, 0)
    length = low.shape[0]
    if length == 0:
        zeros = np.zeros(low.shape[1:], dtype=np.uint64)
        return zeros, zeros.copy()
    while length > 1:
        half = length // 2
        odd = length - 2 * half
        carry = low[:half] & low[half : 2 * half]
        new_low = low[:half] ^ low[half : 2 * half]
        new_high = high[:half] ^ high[half : 2 * half] ^ carry
        if odd:
            low = np.concatenate([new_low, low[2 * half :]], axis=0)
            high = np.concatenate([new_high, high[2 * half :]], axis=0)
        else:
            low, high = new_low, new_high
        length = half + odd
    return low[0], high[0]


def _mod4_accumulate(
    acc_low: np.ndarray, acc_high: np.ndarray, add_low: np.ndarray, add_high: np.ndarray
) -> None:
    """In-place mod-4 add of ``(add_low, add_high)`` into the accumulator planes.

    The carry out of the low plane is tracked with the boolean half-adder
    identity ``carry = acc_low & add_low`` before the XOR updates.
    """
    carry = acc_low & add_low
    acc_low ^= add_low
    acc_high ^= add_high
    acc_high ^= carry


class PackedBatchTableau:
    """``batch_size`` CHP stabilizer states, 64 lanes per ``uint64`` word.

    Covers everything the batched executor and the experiments touch: gates
    by name, Pauli injection from unpacked per-lane bit arrays, reset, Z/X
    measurement (with packed-native ``measure_packed`` variants returning
    ``(W,)`` word arrays) and per-lane Pauli expectation values.

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
        rows = 2 * num_qubits + 1
        self._x = np.zeros((rows, num_qubits, self._words), dtype=np.uint64)
        self._z = np.zeros((rows, num_qubits, self._words), dtype=np.uint64)
        self._r = np.zeros((rows, self._words), dtype=np.uint64)
        # Every lane (ghost bits included) starts as a valid all-|0> tableau:
        # destabilizers X_i, stabilizers Z_i.
        for i in range(num_qubits):
            self._x[i, i, :] = _UINT64_MAX
            self._z[num_qubits + i, i, :] = _UINT64_MAX
        self._lane_mask = lane_mask_words(batch_size)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

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

    def copy(self) -> "PackedBatchTableau":
        """An independent deep copy sharing the same random generator."""
        clone = type(self).__new__(type(self))
        clone._n = self._n
        clone._batch = self._batch
        clone._words = self._words
        clone._rng = self._rng
        clone._x = self._x.copy()
        clone._z = self._z.copy()
        clone._r = self._r.copy()
        clone._lane_mask = self._lane_mask
        return clone

    def lane(self, index: int) -> StabilizerTableau:
        """Extract one lane as an independent scalar :class:`StabilizerTableau`."""
        if not 0 <= index < self._batch:
            raise SimulationError(f"lane {index} outside batch of size {self._batch}")
        word, bit = divmod(index, WORD_BITS)
        shift = np.uint64(bit)
        one = np.uint64(1)
        single = StabilizerTableau.__new__(StabilizerTableau)
        single._n = self._n
        single._rng = self._rng
        single._x = ((self._x[:, :, word] >> shift) & one).astype(np.uint8)
        single._z = ((self._z[:, :, word] >> shift) & one).astype(np.uint8)
        single._r = ((self._r[:, word] >> shift) & one).astype(np.uint8)
        return single

    @classmethod
    def from_tableau(
        cls,
        tableau: StabilizerTableau,
        batch_size: int,
        rng: np.random.Generator | None = None,
    ) -> "PackedBatchTableau":
        """Broadcast one scalar tableau into every lane of a fresh packed batch."""
        batch = cls(tableau.num_qubits, batch_size, rng=rng)
        batch._x[:] = np.where(tableau._x[:, :, None] != 0, _UINT64_MAX, np.uint64(0))
        batch._z[:] = np.where(tableau._z[:, :, None] != 0, _UINT64_MAX, np.uint64(0))
        batch._r[:] = np.where(tableau._r[:, None] != 0, _UINT64_MAX, np.uint64(0))
        return batch

    # ------------------------------------------------------------------
    # Clifford gates (word-parallel column updates)
    # ------------------------------------------------------------------

    def h(self, qubit: int) -> None:
        """Apply a Hadamard gate to every lane."""
        a = self._index(qubit)
        xa = self._x[:, a, :]
        za = self._z[:, a, :]
        self._r ^= xa & za
        tmp = xa.copy()
        self._x[:, a, :] = za
        self._z[:, a, :] = tmp

    def s(self, qubit: int) -> None:
        """Apply the phase gate S to every lane."""
        a = self._index(qubit)
        xa = self._x[:, a, :]
        self._r ^= xa & self._z[:, a, :]
        self._z[:, a, :] ^= xa

    def s_dag(self, qubit: int) -> None:
        """Apply the inverse phase gate to every lane (closed form of S^3)."""
        a = self._index(qubit)
        xa = self._x[:, a, :]
        self._r ^= xa & (xa ^ self._z[:, a, :])
        self._z[:, a, :] ^= xa

    def x(self, qubit: int) -> None:
        """Apply a Pauli X gate to every lane."""
        a = self._index(qubit)
        self._r ^= self._z[:, a, :]

    def z(self, qubit: int) -> None:
        """Apply a Pauli Z gate to every lane."""
        a = self._index(qubit)
        self._r ^= self._x[:, a, :]

    def y(self, qubit: int) -> None:
        """Apply a Pauli Y gate to every lane."""
        a = self._index(qubit)
        self._r ^= self._x[:, a, :] ^ self._z[:, a, :]

    def cnot(self, control: int, target: int) -> None:
        """Apply a controlled-NOT gate to every lane."""
        a = self._index(control)
        b = self._index(target)
        if a == b:
            raise SimulationError("CNOT control and target must differ")
        xa = self._x[:, a, :]
        zb = self._z[:, b, :]
        self._r ^= xa & zb & ~(self._x[:, b, :] ^ self._z[:, a, :])
        self._x[:, b, :] ^= xa
        self._z[:, a, :] ^= zb

    cx = cnot

    def cz(self, qubit_a: int, qubit_b: int) -> None:
        """Apply a controlled-Z gate to every lane."""
        self.h(qubit_b)
        self.cnot(qubit_a, qubit_b)
        self.h(qubit_b)

    def swap(self, qubit_a: int, qubit_b: int) -> None:
        """Swap two qubits in every lane (direct column exchange)."""
        a = self._index(qubit_a)
        b = self._index(qubit_b)
        if a == b:
            raise SimulationError("SWAP operands must differ")
        for array in (self._x, self._z):
            tmp = array[:, a, :].copy()
            array[:, a, :] = array[:, b, :]
            array[:, b, :] = tmp

    def apply_gate(self, name: str, qubits: tuple[int, ...]) -> None:
        """Apply a gate by name to every lane (same names as the scalar tableau)."""
        name = name.upper()
        if name == "I":
            return
        if name == "H":
            self.h(*qubits)
        elif name == "S":
            self.s(*qubits)
        elif name in ("SDG", "S_DAG"):
            self.s_dag(*qubits)
        elif name == "X":
            self.x(*qubits)
        elif name == "Y":
            self.y(*qubits)
        elif name == "Z":
            self.z(*qubits)
        elif name in ("CNOT", "CX"):
            self.cnot(*qubits)
        elif name == "CZ":
            self.cz(*qubits)
        elif name == "SWAP":
            self.swap(*qubits)
        else:
            raise SimulationError(f"gate {name!r} is not a supported Clifford operation")

    # ------------------------------------------------------------------
    # Pauli injection
    # ------------------------------------------------------------------

    def apply_pauli(self, pauli: PauliString) -> None:
        """Apply the same n-qubit Pauli error to every lane."""
        if pauli.num_qubits != self._n:
            raise SimulationError(
                f"Pauli acts on {pauli.num_qubits} qubits but register has {self._n}"
            )
        support = tuple(int(q) for q in np.flatnonzero(pauli.x | pauli.z))
        if not support:
            return
        full = np.full(self._words, _UINT64_MAX, dtype=np.uint64)
        zero = np.zeros(self._words, dtype=np.uint64)
        x_words = np.stack([full if pauli.x[q] else zero for q in support])
        z_words = np.stack([full if pauli.z[q] else zero for q in support])
        self.inject_pauli_words(support, x_words, z_words)

    def apply_pauli_bits(self, x_bits: np.ndarray, z_bits: np.ndarray) -> None:
        """Apply a per-lane Pauli error given as unpacked ``(B, n)`` bit arrays."""
        if x_bits.shape != (self._batch, self._n) or z_bits.shape != (self._batch, self._n):
            raise SimulationError(
                f"Pauli bit arrays must have shape {(self._batch, self._n)}"
            )
        self.inject_pauli_terms(tuple(range(self._n)), x_bits, z_bits)

    def inject_pauli_terms(
        self, qubits: tuple[int, ...], x_bits: np.ndarray, z_bits: np.ndarray
    ) -> None:
        """Apply per-lane Pauli errors given as unpacked ``(B, len(qubits))`` bits.

        Packs the lane axis into words and delegates to
        :meth:`inject_pauli_words`; the experiments apply their decoded
        corrections through it.
        """
        x_words = pack_bits(np.asarray(x_bits, dtype=np.uint8).T)
        z_words = pack_bits(np.asarray(z_bits, dtype=np.uint8).T)
        self.inject_pauli_words(qubits, x_words, z_words)

    def inject_pauli_words(
        self, qubits: tuple[int, ...], x_words: np.ndarray, z_words: np.ndarray
    ) -> None:
        """Apply per-lane Pauli errors given as packed ``(len(qubits), W)`` words.

        Only signs change: an X factor on qubit j flips the sign of every row
        with a Z bit at j, a Z factor flips rows with an X bit (Y = both).
        """
        delta = np.zeros((self._r.shape[0], self._words), dtype=np.uint64)
        for j, qubit in enumerate(qubits):
            a = self._index(qubit)
            delta ^= (self._z[:, a, :] & x_words[j]) ^ (self._x[:, a, :] & z_words[j])
        self._r ^= delta

    # ------------------------------------------------------------------
    # Measurement and reset
    # ------------------------------------------------------------------

    def measure_packed(self, qubit: int) -> np.ndarray:
        """Measure a qubit in the Z basis in every lane; packed ``(W,)`` outcomes.

        Lanes in which some stabilizer anticommutes with ``Z_a`` get a fresh
        uniformly random outcome (one word-sized generator draw for the whole
        batch); the rest are computed deterministically with the CHP
        scratch-row procedure, all in word-parallel form.
        """
        a = self._index(qubit)
        n = self._n
        stab_x = self._x[n : 2 * n, a, :]
        random_lanes = np.bitwise_or.reduce(stab_x, axis=0)
        outcomes = np.zeros(self._words, dtype=np.uint64)
        if random_lanes.any():
            drawn = self._rng.integers(
                0, _UINT64_MAX, size=self._words, dtype=np.uint64, endpoint=True
            )
            drawn &= random_lanes
            self._random_measure_update(a, random_lanes, drawn)
            outcomes |= drawn
        deterministic = ~random_lanes
        if deterministic.any():
            outcomes |= self._deterministic_outcome(a, deterministic)
        return outcomes

    def measure(self, qubit: int) -> np.ndarray:
        """Measure a qubit in the Z basis; unpacked ``(B,)`` uint8 outcomes."""
        return unpack_bits(self.measure_packed(qubit), self._batch)

    def measure_x_packed(self, qubit: int) -> np.ndarray:
        """Measure a qubit in the X basis; packed ``(W,)`` outcomes (H, measure, H)."""
        self.h(qubit)
        outcomes = self.measure_packed(qubit)
        self.h(qubit)
        return outcomes

    def measure_x(self, qubit: int) -> np.ndarray:
        """Measure a qubit in the X basis; unpacked ``(B,)`` uint8 outcomes."""
        return unpack_bits(self.measure_x_packed(qubit), self._batch)

    def reset(self, qubit: int) -> None:
        """Reset a qubit to |0> in every lane (measure, flip lanes that read 1)."""
        a = self._index(qubit)
        outcomes = self.measure_packed(a)
        if outcomes.any():
            self._r ^= self._z[:, a, :] & outcomes

    # ------------------------------------------------------------------
    # Observables
    # ------------------------------------------------------------------

    def expectation(self, pauli: PauliString) -> np.ndarray:
        """Per-lane expectation of a Hermitian Pauli: +1, -1 or 0 (random).

        Returns an ``(B,)`` int8 array with the semantics of
        :meth:`StabilizerTableau.expectation` in every lane: lanes where the
        observable anticommutes with some stabilizer report 0; in the rest the
        observable is reconstructed as a product of stabilizer rows and the
        accumulated mod-4 phase (carried in two bit-planes) decides the sign.
        """
        if pauli.num_qubits != self._n:
            raise SimulationError(
                f"Pauli acts on {pauli.num_qubits} qubits but register has {self._n}"
            )
        if pauli.phase % 2 != 0:
            raise SimulationError("expectation requires a Hermitian (real-phase) Pauli")
        n = self._n
        support_x = np.flatnonzero(pauli.x)
        support_z = np.flatnonzero(pauli.z)

        anti_stab = self._anticommutation(slice(n, 2 * n), support_x, support_z)
        deterministic = ~np.bitwise_or.reduce(anti_stab, axis=0)
        deterministic &= self._lane_mask
        values = np.zeros(self._batch, dtype=np.int8)
        if not deterministic.any():
            return values

        anti_destab = self._anticommutation(slice(0, n), support_x, support_z)
        acc_x = np.zeros((n, self._words), dtype=np.uint64)
        acc_z = np.zeros((n, self._words), dtype=np.uint64)
        phase_low = np.zeros(self._words, dtype=np.uint64)
        phase_high = np.zeros(self._words, dtype=np.uint64)
        for i in range(n):
            mask = anti_destab[i] & deterministic
            if not mask.any():
                continue
            row = n + i
            row_x = self._x[row]
            row_z = self._z[row]
            plus, minus = _g_masks(acc_x, acc_z, row_x, row_z)
            plus &= mask
            minus &= mask
            g_low, g_high = _sum_g_mod4(plus, minus, axis=0)
            _mod4_accumulate(phase_low, phase_high, g_low, g_high)
            phase_high ^= self._r[row] & mask
            acc_x ^= row_x & mask
            acc_z ^= row_z & mask

        mismatch = np.zeros(self._words, dtype=np.uint64)
        for j in range(n):
            expected_x = deterministic if pauli.x[j] else np.uint64(0)
            expected_z = deterministic if pauli.z[j] else np.uint64(0)
            mismatch |= (acc_x[j] & deterministic) ^ expected_x
            mismatch |= (acc_z[j] & deterministic) ^ expected_z
        if mismatch.any():
            raise SimulationError(
                "internal error: accumulated stabilizer product does not match observable"
            )
        if pauli.phase % 4 == 2:
            phase_high ^= deterministic
        if (phase_low & deterministic).any():
            raise SimulationError("internal error: non-real relative phase in expectation")

        det_bits = unpack_bits(deterministic, self._batch)
        neg_bits = unpack_bits(phase_high & deterministic, self._batch)
        values += det_bits.astype(np.int8)
        values -= np.left_shift(neg_bits, 1).astype(np.int8)
        return values

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _index(self, qubit: int) -> int:
        if not 0 <= qubit < self._n:
            raise SimulationError(f"qubit index {qubit} outside register of size {self._n}")
        return qubit

    def _anticommutation(
        self, rows: slice, support_x: np.ndarray, support_z: np.ndarray
    ) -> np.ndarray:
        """Packed anticommutation parity of tableau ``rows`` with a fixed Pauli.

        A row anticommutes with the observable iff the parity of its Z bits on
        the observable's X support plus its X bits on the Z support is odd;
        the parity is an XOR-reduce over the (small) support columns.
        """
        row_count = self._r[rows].shape[0]
        anti = np.zeros((row_count, self._words), dtype=np.uint64)
        if support_x.size:
            anti ^= np.bitwise_xor.reduce(self._z[rows][:, support_x, :], axis=1)
        if support_z.size:
            anti ^= np.bitwise_xor.reduce(self._x[rows][:, support_z, :], axis=1)
        return anti

    def _random_measure_update(
        self, a: int, random_lanes: np.ndarray, drawn: np.ndarray
    ) -> None:
        """Word-parallel CHP update for lanes with a random measurement outcome.

        Per lane the pivot is the first stabilizer row anticommuting with
        ``Z_a``; lanes are grouped by pivot row with disjoint word masks, the
        per-lane pivot content is scattered into broadcast arrays, and the
        rowsum of every other anticommuting row against its lane's pivot runs
        as one whole-tableau masked XOR with the phase carried mod 4 in two
        bit-planes.
        """
        n = self._n
        stab_x = self._x[n : 2 * n, a, :]
        pivot_masks = np.zeros((n, self._words), dtype=np.uint64)
        remaining = random_lanes.copy()
        for i in range(n):
            hit = stab_x[i] & remaining
            if hit.any():
                pivot_masks[i] = hit
                remaining &= ~stab_x[i]
                if not remaining.any():
                    break
        pivot_rows = [i for i in range(n) if pivot_masks[i].any()]

        pivot_x = np.zeros((n, self._words), dtype=np.uint64)
        pivot_z = np.zeros((n, self._words), dtype=np.uint64)
        pivot_r = np.zeros(self._words, dtype=np.uint64)
        for i in pivot_rows:
            mask = pivot_masks[i]
            pivot_x |= self._x[n + i] & mask
            pivot_z |= self._z[n + i] & mask
            pivot_r |= self._r[n + i] & mask

        # Rows to rowsum: every row with an X bit at ``a`` in a random lane,
        # except the lane's pivot row and the destabilizer it will replace.
        rowsum_mask = self._x[:, a, :] & random_lanes
        for i in pivot_rows:
            mask = pivot_masks[i]
            rowsum_mask[n + i] &= ~mask
            rowsum_mask[i] &= ~mask

        if rowsum_mask.any():
            plus, minus = _g_masks(
                self._x, self._z, pivot_x[None, :, :], pivot_z[None, :, :]
            )
            g_low, g_high = _sum_g_mod4(plus, minus, axis=1)
            # Valid rowsums always land on a real sign (phase 0 or 2 mod 4),
            # so the low plane vanishes on masked lanes and the new sign bit
            # is high ^ r_h ^ r_pivot.
            self._r ^= (g_high ^ pivot_r[None, :]) & rowsum_mask
            self._x ^= pivot_x[None, :, :] & rowsum_mask[:, None, :]
            self._z ^= pivot_z[None, :, :] & rowsum_mask[:, None, :]

        # Recycle each pivot row into its destabilizer and install +/- Z_a.
        for i in pivot_rows:
            mask = pivot_masks[i]
            keep = ~mask
            self._x[i] = (self._x[i] & keep) | (pivot_x & mask)
            self._z[i] = (self._z[i] & keep) | (pivot_z & mask)
            self._r[i] = (self._r[i] & keep) | (pivot_r & mask)
            self._x[n + i] &= keep
            self._z[n + i] &= keep
            self._z[n + i, a] |= mask
            self._r[n + i] = (self._r[n + i] & keep) | (drawn & mask)

    def _deterministic_outcome(self, a: int, lanes: np.ndarray) -> np.ndarray:
        """Word-parallel CHP scratch-row outcome for deterministic ``lanes``."""
        n = self._n
        select = self._x[:n, a, :] & lanes
        acc_x = np.zeros((n, self._words), dtype=np.uint64)
        acc_z = np.zeros((n, self._words), dtype=np.uint64)
        phase_low = np.zeros(self._words, dtype=np.uint64)
        phase_high = np.zeros(self._words, dtype=np.uint64)
        for i in range(n):
            mask = select[i]
            if not mask.any():
                continue
            row = n + i
            row_x = self._x[row]
            row_z = self._z[row]
            plus, minus = _g_masks(acc_x, acc_z, row_x, row_z)
            plus &= mask
            minus &= mask
            g_low, g_high = _sum_g_mod4(plus, minus, axis=0)
            _mod4_accumulate(phase_low, phase_high, g_low, g_high)
            phase_high ^= self._r[row] & mask
            acc_x ^= row_x & mask
            acc_z ^= row_z & mask
        return phase_high & lanes
