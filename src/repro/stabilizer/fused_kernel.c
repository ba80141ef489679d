/* Fused gate-loop kernel for the bit-packed batch stabilizer engine.
 *
 * The native twin of `fused_kernel_numpy` in fused.py, whose docstring
 * documents the flat argument list: the same lane-uniform state layout
 * (per-bit uint8 X/Z planes shared by all lanes, per-lane uint64 sign words)
 * and the same status codes.  Compiled on demand with the system C compiler
 * and loaded through ctypes; see `_cext_kernel` in fused.py for the
 * build/caching protocol.
 *
 * Its semantic reference is the per-operation packed engine
 * (`BatchedNoisyCircuitExecutor._run_packed` over `PackedBatchTableau`): the
 * test suite checks this kernel and the numpy kernel against that engine bit
 * for bit.  The build cache is keyed by a hash of this source.
 */

#include <stdint.h>

/* CHP g phase function over symplectic codes (x << 1) | z; entries are the
 * phase contribution mod 4 (+1 -> 1, -1 -> 3).  Rows index the accumulated
 * operator P1, columns the incoming operator P2. */
static const int64_t G4[4][4] = {
    {0, 0, 0, 0}, /* P1 = I */
    {0, 0, 1, 3}, /* P1 = Z */
    {0, 3, 0, 1}, /* P1 = X */
    {0, 1, 3, 0}, /* P1 = Y */
};

typedef struct {
    int64_t n;
    int64_t W;
    int64_t rows;
    uint8_t *xb;
    uint8_t *zb;
    uint64_t *r;
} fused_state;

static void flip_row(fused_state *s, int64_t row)
{
    uint64_t *rr = s->r + row * s->W;
    for (int64_t w = 0; w < s->W; ++w)
        rr[w] = ~rr[w];
}

static void h_gate(fused_state *s, int64_t a)
{
    for (int64_t row = 0; row < s->rows; ++row) {
        uint8_t *x = s->xb + row * s->n + a;
        uint8_t *z = s->zb + row * s->n + a;
        uint8_t xv = *x;
        uint8_t zv = *z;
        if (xv && zv)
            flip_row(s, row);
        *x = zv;
        *z = xv;
    }
}

static void cnot_gate(fused_state *s, int64_t a, int64_t b)
{
    for (int64_t row = 0; row < s->rows; ++row) {
        uint8_t *xr = s->xb + row * s->n;
        uint8_t *zr = s->zb + row * s->n;
        uint8_t xa = xr[a];
        uint8_t zv = zr[b];
        if (xa && zv && ((xr[b] ^ zr[a]) == 0))
            flip_row(s, row);
        xr[b] ^= xa;
        zr[a] ^= zv;
    }
}

static void inject(fused_state *s, int64_t e, const int32_t *inj_start,
                   const int32_t *inj_qubit, const uint64_t *inj_x,
                   const uint64_t *inj_z)
{
    for (int64_t idx = inj_start[e]; idx < inj_start[e + 1]; ++idx) {
        int64_t q = inj_qubit[idx];
        const uint64_t *xw = inj_x + idx * s->W;
        const uint64_t *zw = inj_z + idx * s->W;
        for (int64_t row = 0; row < s->rows; ++row) {
            uint64_t *rr = s->r + row * s->W;
            if (s->zb[row * s->n + q])
                for (int64_t w = 0; w < s->W; ++w)
                    rr[w] ^= xw[w];
            if (s->xb[row * s->n + q])
                for (int64_t w = 0; w < s->W; ++w)
                    rr[w] ^= zw[w];
        }
    }
}

/* Measure Z_a; outcome words land in mout.  Returns a status code. */
static int64_t measure_z(fused_state *s, int64_t a, int64_t k, int64_t mode,
                         int8_t *sched, const int32_t *draw_index,
                         const uint64_t *drawn, uint64_t *mout,
                         uint8_t *scratch_x, uint8_t *scratch_z, uint64_t *racc)
{
    int64_t n = s->n;
    int64_t W = s->W;
    int64_t p = -1;
    for (int64_t i = 0; i < n; ++i) {
        if (s->xb[(n + i) * n + a]) {
            p = i;
            break;
        }
    }
    if (mode == 1)
        sched[k] = p >= 0 ? 1 : 0;
    else if ((p >= 0) != (draw_index[k] >= 0))
        return 2;
    if (p >= 0) {
        int64_t piv = n + p;
        uint8_t *xp = s->xb + piv * n;
        uint8_t *zp = s->zb + piv * n;
        uint64_t *rp = s->r + piv * W;
        for (int64_t row = 0; row < s->rows; ++row) {
            if (row == p || row == piv)
                continue;
            uint8_t *xr = s->xb + row * n;
            uint8_t *zr = s->zb + row * n;
            if (!xr[a])
                continue;
            int64_t g = 0;
            for (int64_t j = 0; j < n; ++j)
                g += G4[(xr[j] << 1) | zr[j]][(xp[j] << 1) | zp[j]];
            if (g & 1)
                return 3;
            if (g & 2)
                flip_row(s, row);
            uint64_t *rr = s->r + row * W;
            for (int64_t w = 0; w < W; ++w)
                rr[w] ^= rp[w];
            for (int64_t j = 0; j < n; ++j) {
                xr[j] ^= xp[j];
                zr[j] ^= zp[j];
            }
        }
        /* Recycle the pivot into its destabilizer; install +/- Z_a with the
         * pre-sampled random sign. */
        uint8_t *xd = s->xb + p * n;
        uint8_t *zd = s->zb + p * n;
        for (int64_t j = 0; j < n; ++j) {
            xd[j] = xp[j];
            zd[j] = zp[j];
            xp[j] = 0;
            zp[j] = 0;
        }
        zp[a] = 1;
        uint64_t *rd = s->r + p * W;
        if (mode == 0) {
            const uint64_t *dw = drawn + (int64_t)draw_index[k] * W;
            for (int64_t w = 0; w < W; ++w) {
                rd[w] = rp[w];
                rp[w] = dw[w];
                mout[w] = dw[w];
            }
        } else {
            for (int64_t w = 0; w < W; ++w) {
                rd[w] = rp[w];
                rp[w] = 0;
                mout[w] = 0;
            }
        }
    } else {
        /* Deterministic outcome: accumulate the destabilizer-selected
         * stabilizer product with an integer mod-4 phase. */
        for (int64_t j = 0; j < n; ++j) {
            scratch_x[j] = 0;
            scratch_z[j] = 0;
        }
        for (int64_t w = 0; w < W; ++w)
            racc[w] = 0;
        int64_t phase = 0;
        for (int64_t i = 0; i < n; ++i) {
            if (!s->xb[i * n + a])
                continue;
            int64_t row = n + i;
            uint8_t *xr = s->xb + row * n;
            uint8_t *zr = s->zb + row * n;
            for (int64_t j = 0; j < n; ++j) {
                phase += G4[(scratch_x[j] << 1) | scratch_z[j]]
                           [(xr[j] << 1) | zr[j]];
                scratch_x[j] ^= xr[j];
                scratch_z[j] ^= zr[j];
            }
            uint64_t *rr = s->r + row * W;
            for (int64_t w = 0; w < W; ++w)
                racc[w] ^= rr[w];
        }
        if (phase & 1)
            return 3;
        if (phase & 2)
            for (int64_t w = 0; w < W; ++w)
                mout[w] = ~racc[w];
        else
            for (int64_t w = 0; w < W; ++w)
                mout[w] = racc[w];
    }
    return 0;
}

int64_t repro_fused_run(
    int64_t n, int64_t W, int64_t ops,
    const int32_t *opcodes, const int32_t *qubit0, const int32_t *qubit1,
    const int32_t *slots, const int32_t *draw_index,
    const int32_t *pre_inj, const int32_t *post_inj,
    const int32_t *inj_start, const int32_t *inj_qubit,
    const uint64_t *inj_x, const uint64_t *inj_z,
    const uint64_t *drawn, uint64_t *out,
    uint8_t *xb, uint8_t *zb, uint64_t *r,
    int64_t mode, int8_t *sched,
    uint8_t *scratch_x, uint8_t *scratch_z,
    uint64_t *racc, uint64_t *mout)
{
    fused_state s = {n, W, 2 * n + 1, xb, zb, r};
    for (int64_t k = 0; k < ops; ++k) {
        int64_t op = opcodes[k];
        if (mode == 0 && pre_inj[k] >= 0)
            inject(&s, pre_inj[k], inj_start, inj_qubit, inj_x, inj_z);
        if (op <= 9) {
            int64_t a = qubit0[k];
            switch (op) {
            case 0: /* I */
                break;
            case 1: /* H */
                h_gate(&s, a);
                break;
            case 2: /* S: flip where Y, then z ^= x */
                for (int64_t row = 0; row < s.rows; ++row) {
                    if (xb[row * n + a]) {
                        if (zb[row * n + a])
                            flip_row(&s, row);
                        zb[row * n + a] ^= 1;
                    }
                }
                break;
            case 3: /* SDG: flip where X-only, then z ^= x */
                for (int64_t row = 0; row < s.rows; ++row) {
                    if (xb[row * n + a]) {
                        if (!zb[row * n + a])
                            flip_row(&s, row);
                        zb[row * n + a] ^= 1;
                    }
                }
                break;
            case 4: /* X: flip where z */
                for (int64_t row = 0; row < s.rows; ++row)
                    if (zb[row * n + a])
                        flip_row(&s, row);
                break;
            case 5: /* Y: flip where x ^ z */
                for (int64_t row = 0; row < s.rows; ++row)
                    if (xb[row * n + a] ^ zb[row * n + a])
                        flip_row(&s, row);
                break;
            case 6: /* Z: flip where x */
                for (int64_t row = 0; row < s.rows; ++row)
                    if (xb[row * n + a])
                        flip_row(&s, row);
                break;
            case 7: /* CNOT */
                cnot_gate(&s, a, qubit1[k]);
                break;
            case 8: /* CZ = H(b); CNOT(a, b); H(b), as in the packed engine */
                h_gate(&s, qubit1[k]);
                cnot_gate(&s, a, qubit1[k]);
                h_gate(&s, qubit1[k]);
                break;
            default: /* 9: SWAP, a column exchange */
                for (int64_t row = 0; row < s.rows; ++row) {
                    int64_t b = qubit1[k];
                    uint8_t xv = xb[row * n + a];
                    xb[row * n + a] = xb[row * n + b];
                    xb[row * n + b] = xv;
                    uint8_t zv = zb[row * n + a];
                    zb[row * n + a] = zb[row * n + b];
                    zb[row * n + b] = zv;
                }
                break;
            }
        } else if (op <= 12) {
            int64_t a = qubit0[k];
            if (op == 12) /* MEASURE_X = H; MEASURE; H */
                h_gate(&s, a);
            int64_t status = measure_z(&s, a, k, mode, sched, draw_index,
                                       drawn, mout, scratch_x, scratch_z, racc);
            if (status)
                return status;
            if (op == 12)
                h_gate(&s, a);
            if (op == 10) {
                /* PREPARE: flip signs of rows with a Z bit at `a` in lanes
                 * that measured 1 (the packed engine's reset fix-up). */
                for (int64_t row = 0; row < s.rows; ++row) {
                    if (zb[row * n + a]) {
                        uint64_t *rr = r + row * W;
                        for (int64_t w = 0; w < W; ++w)
                            rr[w] ^= mout[w];
                    }
                }
            } else {
                uint64_t *slot = out + (int64_t)slots[k] * W;
                for (int64_t w = 0; w < W; ++w)
                    slot[w] = mout[w];
            }
        } else {
            return 1;
        }
        if (mode == 0 && post_inj[k] >= 0)
            inject(&s, post_inj[k], inj_start, inj_qubit, inj_x, inj_z);
    }
    return 0;
}
