/* Pauli-frame kernel of the Monte-Carlo engine, with its noise sampler.
 *
 * The native twin of `frame_kernel_numpy` in fused.py, whose docstrings
 * document the flat argument list, the frame update rules and the sampler.
 * Every random number of a run is draw(stream_key(seed, s), i), splitmix64's
 * output i of stream s: stream 0 gives the random measurement words, stream
 * 1 the failures' letters, stream 2 + c the failure gaps of class c.  Event
 * e of rank r in its probability class owns the keys r*B .. r*B + B - 1; a
 * cursor per class jumps from failing key to failing key: a draw v (63 bits)
 * puts the next failure g + 1 keys on, g being the number of thresholds
 * t[g'] <= v (g' < T), or passes T keys and draws again when v >= t[T-1].
 * Only integer compares decide, so the two tiers agree bit for bit.  Each
 * failure is injected at its event's program position and adds one to its
 * lane's error_count.
 *
 * Compiled on demand with the system C compiler and loaded through ctypes;
 * see `_cext_kernel` in fused.py for the build/caching protocol.  The build
 * cache is keyed by a hash of this source.
 */

#include <stdint.h>
#include <stdlib.h>

#define GAMMA 0x9E3779B97F4A7C15ULL
#define STREAM_GAMMA 0xD1B54A32D192ED03ULL
#define MEASURE_STREAM 0
#define LETTER_STREAM 1
#define GAP_STREAM 2

static inline uint64_t mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

static inline uint64_t stream_key(uint64_t seed, uint64_t stream)
{
    return mix64(seed + (stream + 1) * STREAM_GAMMA);
}

static inline uint64_t draw(uint64_t key, uint64_t counter)
{
    return mix64(key + (counter + 1) * GAMMA);
}

/* Draws v (63 bits) fall in 2^GUIDE_BITS buckets of their top bits. */
#define GUIDE_BITS 10

/* One probability class: `pos` is the key of its pending failure, at or
 * past `end` (events in the class times B) when none is left.  `guide[b]`
 * counts the thresholds at or below the first draw of bucket b, where the
 * search for a draw's gap starts. */
typedef struct {
    uint64_t key;
    uint64_t counter;
    int64_t pos;
    int64_t end;
    const uint64_t *t;
    const int32_t *guide;
} gap_cursor;

static void next_failure(gap_cursor *c, int64_t T)
{
    const uint64_t *t = c->t;
    int64_t pos = c->pos;
    while (pos < c->end) {
        uint64_t v = draw(c->key, c->counter++) >> 1;
        if (v >= t[T - 1]) {
            pos += T;
            continue;
        }
        /* The gap: the number of thresholds at or below v (below T). */
        int64_t gap = c->guide[v >> (63 - GUIDE_BITS)];
        while (t[gap] <= v)
            ++gap;
        pos += gap + 1;
        break;
    }
    c->pos = pos;
}

typedef struct {
    int64_t W, B, code_width;
    uint64_t letter_key, letter_wrap;
    const int32_t *inj_start, *inj_qubit, *event_class, *event_letters, *event_code;
    const int64_t *event_rank;
    const uint8_t *code_xz;
    gap_cursor *cursors;
    int64_t T;
    int64_t *error_count;
} sampler;

/* Inject event e's failures into the frames, or onto `row` (a flip). */
static void inject(sampler *s, int64_t e, uint64_t *fx, uint64_t *fz, uint64_t *row)
{
    gap_cursor *c = s->cursors + s->event_class[e];
    int64_t base = s->event_rank[e] * s->B;
    int64_t stop = base + s->B;
    const int32_t *qubits = s->inj_qubit + s->inj_start[e];
    int64_t support = s->inj_start[e + 1] - s->inj_start[e];
    uint64_t letters = (uint64_t)s->event_letters[e];
    /* A letter is the high half of (top 32 bits of a draw) * letters; low
     * halves below `reject` are redrawn, so every letter is equally likely. */
    uint64_t reject = ((uint64_t)1 << 32) % letters;
    while (c->pos < stop) {
        int64_t lane = c->pos - base;
        int64_t w = lane >> 6;
        uint64_t bit = (uint64_t)1 << (lane & 63);
        s->error_count[lane] += 1;
        if (row) {
            row[w] ^= bit;
        } else {
            int64_t code = s->event_code[e];
            if (letters > 1) {
                uint64_t counter = (uint64_t)(e * s->B + lane);
                uint64_t m = (draw(s->letter_key, counter) >> 32) * letters;
                while ((m & 0xFFFFFFFFULL) < reject) {
                    counter += s->letter_wrap;
                    m = (draw(s->letter_key, counter) >> 32) * letters;
                }
                code += (int64_t)(m >> 32);
            }
            const uint8_t *xz = s->code_xz + code * s->code_width;
            for (int64_t j = 0; j < support; ++j) {
                int64_t at = (int64_t)qubits[j] * s->W + w;
                fx[at] ^= bit & -(uint64_t)(xz[j] & 1);
                fz[at] ^= bit & -(uint64_t)(xz[j] >> 1);
            }
        }
        next_failure(c, s->T);
    }
}

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

/* Measure Z_a; the outcome words land in mout (dw is scratch). */
static void measure_z(int64_t W, int64_t a, int64_t k, uint64_t measure_key,
                      const uint8_t *ref_bits, const int32_t *draw_index,
                      const int32_t *piv_start, const int32_t *piv_qubit,
                      const uint8_t *piv_xz, uint64_t *fx, uint64_t *fz,
                      uint64_t *mout, uint64_t *dw)
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
    for (int64_t w = 0; w < W; ++w) {
        dw[w] = draw(measure_key, (uint64_t)(d * W + w));
        mout[w] = dw[w] ^ xa[w];
    }
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
    int64_t W, int64_t B, int64_t ops, int64_t code_width, int64_t classes,
    int64_t events, int64_t T, uint64_t seed,
    const int32_t *opcodes, const int32_t *qubit0, const int32_t *qubit1,
    const int32_t *slots, const uint8_t *ref_bits, const int32_t *draw_index,
    const int32_t *piv_start, const int32_t *piv_qubit, const uint8_t *piv_xz,
    const int32_t *pre_inj, const int32_t *post_inj,
    const int32_t *inj_start, const int32_t *inj_qubit, const uint8_t *code_xz,
    const int32_t *event_class, const int64_t *event_rank,
    const int32_t *event_letters, const int32_t *event_code,
    const int64_t *class_events, const uint64_t *thresholds,
    const int32_t *guides,
    uint64_t *out, uint64_t *fx, uint64_t *fz, uint64_t *mout, uint64_t *dw,
    int64_t *error_count)
{
    gap_cursor *cursors = malloc((classes ? classes : 1) * sizeof(gap_cursor));
    if (!cursors)
        return 2;
    for (int64_t c = 0; c < classes; ++c) {
        cursors[c].key = stream_key(seed, GAP_STREAM + (uint64_t)c);
        cursors[c].counter = 0;
        cursors[c].pos = -1;
        cursors[c].end = class_events[c] * B;
        cursors[c].t = thresholds + c * T;
        cursors[c].guide = guides + (c << GUIDE_BITS);
        next_failure(cursors + c, T);
    }
    sampler s = {W, B, code_width, stream_key(seed, LETTER_STREAM),
                 (uint64_t)(events * B), inj_start, inj_qubit, event_class,
                 event_letters, event_code, event_rank, code_xz, cursors, T,
                 error_count};
    uint64_t measure_key = stream_key(seed, MEASURE_STREAM);
    int64_t status = 0;
    for (int64_t k = 0; k < ops && status == 0; ++k) {
        if (pre_inj[k] >= 0)
            inject(&s, pre_inj[k], fx, fz, 0);
        int64_t a = qubit0[k];
        int64_t b = qubit1[k];
        uint64_t *xa = fx + a * W;
        uint64_t *za = fz + a * W;
        uint64_t *row = 0;
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
            measure_z(W, a, k, measure_key, ref_bits, draw_index, piv_start,
                      piv_qubit, piv_xz, fx, fz, mout, dw);
            for (int64_t w = 0; w < W; ++w)
                xa[w] = 0;
            break;
        case 11: /* MEASURE */
        case 12: /* MEASURE_X = H; MEASURE; H */
            if (opcodes[k] == 12)
                swap_rows(xa, za, W);
            measure_z(W, a, k, measure_key, ref_bits, draw_index, piv_start,
                      piv_qubit, piv_xz, fx, fz, mout, dw);
            if (opcodes[k] == 12)
                swap_rows(xa, za, W);
            row = out + (int64_t)slots[k] * W;
            for (int64_t w = 0; w < W; ++w)
                row[w] = mout[w];
            break;
        default:
            status = 1;
            continue;
        }
        /* A measurement's event flips its outcome; any other acts on frames. */
        if (post_inj[k] >= 0)
            inject(&s, post_inj[k], fx, fz, row);
    }
    free(cursors);
    return status;
}
