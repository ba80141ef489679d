/* Pauli-frame kernel of the Monte-Carlo engine.
 *
 * The native twin of `frame_kernel_numpy` in fused.py, whose docstring
 * documents the flat argument list and the frame update rules: per-lane X/Z
 * frame words `fx`/`fz` of shape (n, W), pushed through the compiled program
 * against the per-operation facts of one noiseless reference pass.  Noise
 * arrives as failure records: record e failed in the lanes
 * fail_lane[fail_start[e] .. fail_start[e+1]), and a failure of letter code c
 * XORs its lane bit into the X (bit 0) / Z (bit 1) frame words that
 * code_xz[c * code_width + j] names for support entry j of the record.
 * The measurement flips follow the records: flip f failed in the lanes
 * fail_lane[flip_start[f] .. flip_start[f+1]), whose bits are XORed onto
 * outcome row flip_slots[f] once the program has run.
 * Compiled on demand with the system C compiler and loaded through ctypes;
 * see `_cext_kernel` in fused.py for the build/caching protocol.  The build
 * cache is keyed by a hash of this source.
 */

#include <stdint.h>

static void xor_into(uint64_t *dst, const uint64_t *src, int64_t W)
{
    for (int64_t w = 0; w < W; ++w)
        dst[w] ^= src[w];
}

static void swap_rows(uint64_t *a, uint64_t *b, int64_t W)
{
    for (int64_t w = 0; w < W; ++w) {
        uint64_t t = a[w];
        a[w] = b[w];
        b[w] = t;
    }
}

static void inject(int64_t W, int64_t e, int64_t code_width,
                   const int32_t *inj_start, const int32_t *inj_qubit,
                   const uint8_t *code_xz, const int64_t *fail_start,
                   const int64_t *fail_lane, const int64_t *fail_code,
                   uint64_t *fx, uint64_t *fz)
{
    const int32_t *qubits = inj_qubit + inj_start[e];
    int64_t support = inj_start[e + 1] - inj_start[e];
    for (int64_t f = fail_start[e]; f < fail_start[e + 1]; ++f) {
        int64_t w = fail_lane[f] >> 6;
        uint64_t bit = (uint64_t)1 << (fail_lane[f] & 63);
        const uint8_t *xz = code_xz + fail_code[f] * code_width;
        for (int64_t j = 0; j < support; ++j) {
            int64_t at = (int64_t)qubits[j] * W + w;
            fx[at] ^= bit & -(uint64_t)(xz[j] & 1);
            fz[at] ^= bit & -(uint64_t)(xz[j] >> 1);
        }
    }
}

/* Measure Z_a; the outcome words land in mout. */
static void measure_z(int64_t W, int64_t a, int64_t k, const uint8_t *ref_bits,
                      const int32_t *draw_index, const int32_t *piv_start,
                      const int32_t *piv_qubit, const uint8_t *piv_xz,
                      const uint64_t *drawn, uint64_t *fx, uint64_t *fz,
                      uint64_t *mout)
{
    const uint64_t *xa = fx + a * W;
    int64_t d = draw_index[k];
    if (d < 0) {
        /* Deterministic: the reference bit XOR the frame's X bit. */
        uint64_t flip = ref_bits[k] ? ~(uint64_t)0 : 0;
        for (int64_t w = 0; w < W; ++w)
            mout[w] = xa[w] ^ flip;
        return;
    }
    /* Random: the lanes whose drawn word differs from their frame bit take
     * the reference's pivot stabilizer into their frame. */
    const uint64_t *dw = drawn + d * W;
    for (int64_t w = 0; w < W; ++w)
        mout[w] = dw[w] ^ xa[w];
    for (int64_t idx = piv_start[d]; idx < piv_start[d + 1]; ++idx) {
        int64_t q = piv_qubit[idx];
        if (piv_xz[idx] & 1)
            xor_into(fx + q * W, mout, W);
        if (piv_xz[idx] & 2)
            xor_into(fz + q * W, mout, W);
    }
    for (int64_t w = 0; w < W; ++w)
        mout[w] = dw[w];
}

int64_t repro_frame_run(
    int64_t W, int64_t ops, int64_t code_width, int64_t flips,
    const int32_t *opcodes, const int32_t *qubit0, const int32_t *qubit1,
    const int32_t *slots, const uint8_t *ref_bits, const int32_t *draw_index,
    const int32_t *piv_start, const int32_t *piv_qubit, const uint8_t *piv_xz,
    const int32_t *pre_inj, const int32_t *post_inj,
    const int32_t *inj_start, const int32_t *inj_qubit, const uint8_t *code_xz,
    const int64_t *flip_slots, const int64_t *fail_start,
    const int64_t *flip_start, const int64_t *fail_lane,
    const int64_t *fail_code, const uint64_t *drawn, uint64_t *out,
    uint64_t *fx, uint64_t *fz, uint64_t *mout)
{
    for (int64_t k = 0; k < ops; ++k) {
        if (pre_inj[k] >= 0)
            inject(W, pre_inj[k], code_width, inj_start, inj_qubit, code_xz,
                   fail_start, fail_lane, fail_code, fx, fz);
        int64_t a = qubit0[k];
        int64_t b = qubit1[k];
        uint64_t *xa = fx + a * W;
        uint64_t *za = fz + a * W;
        switch (opcodes[k]) {
        case 0: /* I */
        case 4: /* X, Y and Z commute with every frame up to a sign */
        case 5:
        case 6:
            break;
        case 1: /* H */
            swap_rows(xa, za, W);
            break;
        case 2: /* S */
        case 3: /* SDG */
            xor_into(za, xa, W);
            break;
        case 7: /* CNOT */
            xor_into(fx + b * W, xa, W);
            xor_into(za, fz + b * W, W);
            break;
        case 8: /* CZ */
            xor_into(fz + b * W, xa, W);
            xor_into(za, fx + b * W, W);
            break;
        case 9: /* SWAP */
            swap_rows(xa, fx + b * W, W);
            swap_rows(za, fz + b * W, W);
            break;
        case 10: /* PREPARE: measure, then the reset leaves no X in the frame */
            measure_z(W, a, k, ref_bits, draw_index, piv_start, piv_qubit,
                      piv_xz, drawn, fx, fz, mout);
            for (int64_t w = 0; w < W; ++w)
                xa[w] = 0;
            break;
        case 11: /* MEASURE */
        case 12: /* MEASURE_X = H; MEASURE; H */
            if (opcodes[k] == 12)
                swap_rows(xa, za, W);
            measure_z(W, a, k, ref_bits, draw_index, piv_start, piv_qubit,
                      piv_xz, drawn, fx, fz, mout);
            if (opcodes[k] == 12)
                swap_rows(xa, za, W);
            for (int64_t w = 0; w < W; ++w)
                out[(int64_t)slots[k] * W + w] = mout[w];
            break;
        default:
            return 1;
        }
        if (post_inj[k] >= 0)
            inject(W, post_inj[k], code_width, inj_start, inj_qubit, code_xz,
                   fail_start, fail_lane, fail_code, fx, fz);
    }
    for (int64_t f = 0; f < flips; ++f) {
        uint64_t *row = out + flip_slots[f] * W;
        for (int64_t i = flip_start[f]; i < flip_start[f + 1]; ++i)
            row[fail_lane[i] >> 6] ^= (uint64_t)1 << (fail_lane[i] & 63);
    }
    return 0;
}
