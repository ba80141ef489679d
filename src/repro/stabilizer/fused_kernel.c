/* Pauli-frame kernel of the Monte-Carlo engine, with its noise sampler, and
 * the lookup decode of a run's outcomes.
 *
 * repro_frame_run is the native twin of `frame_kernel_numpy` in fused.py,
 * whose docstrings document the arrays, the frame update rules and the
 * sampler; repro_lookup_decode is the twin of `lookup_decode_numpy`.
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

/* The arrays a block holds are addressed by int64 entries. */
#define AT(type, block, i) ((type)(intptr_t)(block)[i])

/* Run a program on the frames.  The caller's int64 blocks hold, in order:
 *   plan:      ops, M (measurement slots), opcodes, qubit0, qubit1, slots;
 *   reference: ref_bits, draw_index, piv_start, piv_qubit, piv_xz;
 *   noise:     code_width, classes, events, T, pre_inj, post_inj,
 *              inj_start, inj_qubit, code_xz, event_class, event_rank,
 *              event_letters, event_code, class_events, thresholds, guides.
 * `out` holds M outcome rows of W words and then two working rows. */
int64_t repro_frame_run(
    int64_t W, int64_t B, uint64_t seed, const int64_t *plan,
    const int64_t *reference, const int64_t *noise,
    uint64_t *out, uint64_t *fx, uint64_t *fz, int64_t *error_count)
{
    int64_t ops = plan[0];
    const int32_t *opcodes = AT(const int32_t *, plan, 2);
    const int32_t *qubit0 = AT(const int32_t *, plan, 3);
    const int32_t *qubit1 = AT(const int32_t *, plan, 4);
    const int32_t *slots = AT(const int32_t *, plan, 5);
    uint64_t *mout = out + plan[1] * W;
    uint64_t *dw = mout + W;
    const uint8_t *ref_bits = AT(const uint8_t *, reference, 0);
    const int32_t *draw_index = AT(const int32_t *, reference, 1);
    const int32_t *piv_start = AT(const int32_t *, reference, 2);
    const int32_t *piv_qubit = AT(const int32_t *, reference, 3);
    const uint8_t *piv_xz = AT(const uint8_t *, reference, 4);
    int64_t code_width = noise[0];
    int64_t classes = noise[1];
    int64_t events = noise[2];
    int64_t T = noise[3];
    const int32_t *pre_inj = AT(const int32_t *, noise, 4);
    const int32_t *post_inj = AT(const int32_t *, noise, 5);
    const int32_t *inj_start = AT(const int32_t *, noise, 6);
    const int32_t *inj_qubit = AT(const int32_t *, noise, 7);
    const uint8_t *code_xz = AT(const uint8_t *, noise, 8);
    const int32_t *event_class = AT(const int32_t *, noise, 9);
    const int64_t *event_rank = AT(const int64_t *, noise, 10);
    const int32_t *event_letters = AT(const int32_t *, noise, 11);
    const int32_t *event_code = AT(const int32_t *, noise, 12);
    const int64_t *class_events = AT(const int64_t *, noise, 13);
    const uint64_t *thresholds = AT(const uint64_t *, noise, 14);
    const int32_t *guides = AT(const int32_t *, noise, 15);
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

/* hits[v] = the lanes whose m syndrome words read the value v, most
 * significant check first. */
static void value_hits(int64_t m, const uint64_t *syndrome, uint64_t *hits)
{
    for (int64_t v = 0; v < ((int64_t)1 << m); ++v) {
        uint64_t h = ~(uint64_t)0;
        for (int64_t i = 0; i < m; ++i)
            h &= (v >> (m - 1 - i)) & 1 ? syndrome[i] : ~syndrome[i];
        hits[v] = h;
    }
}

/* The lanes whose value is one of the set bits of `mask`. */
static uint64_t lookup(uint64_t mask, const uint64_t *hits, int64_t values)
{
    uint64_t lanes = 0;
    for (int64_t v = 0; v < values; ++v)
        if ((mask >> v) & 1)
            lanes |= hits[v];
    return lanes;
}

/* Decode a run's outcome words into three (B,) flag rows of `flags`:
 * failure, nontrivial syndrome, verification passed.  The int64 `tables`
 * block holds m (checks per lookup), R (syndrome rows), the number of
 * leading rows that report a syndrome (the rest are verification checks)
 * and n (data qubits), then the arrays row_start (R + 1) and row_slot (a
 * row is the XOR of its outcome slots), correction (per data qubit, bit v
 * set when the correction of value v flips it), support_start (m + 2) and
 * support_qubit (the m recovery checks' and the logical's data qubits).
 * The first m rows are looked up and their X corrections applied to the
 * frame X words `fx` of the data qubits; the ideal recovery then reads
 * the checks' parities XOR their reference signs (bit c of `signs`),
 * looks them up, corrects, and reads the logical parity XOR bit m of
 * `signs`.  Negative `signs` (a reference outside the code space) make
 * every lane fail.  Returns 2 when its scratch cannot be allocated. */
int64_t repro_lookup_decode(
    int64_t W, int64_t B, const int64_t *tables, int64_t signs,
    const uint64_t *out, const uint64_t *fx, uint8_t *flags)
{
    int64_t m = tables[0];
    int64_t rows = tables[1];
    int64_t reported = tables[2];
    int64_t n = tables[3];
    const int32_t *row_start = AT(const int32_t *, tables, 4);
    const int32_t *row_slot = AT(const int32_t *, tables, 5);
    const uint64_t *correction = AT(const uint64_t *, tables, 6);
    const int32_t *support_start = AT(const int32_t *, tables, 7);
    const int32_t *support_qubit = AT(const int32_t *, tables, 8);
    int64_t values = (int64_t)1 << m;
    uint64_t *syndrome = malloc((rows + m + values + n + 1) * sizeof(uint64_t));
    if (!syndrome)
        return 2;
    uint64_t *recovery = syndrome + rows;
    uint64_t *hits = recovery + m + 1;
    uint64_t *data = hits + values;
    for (int64_t w = 0; w < W; ++w) {
        for (int64_t r = 0; r < rows; ++r) {
            uint64_t word = 0;
            for (int64_t idx = row_start[r]; idx < row_start[r + 1]; ++idx)
                word ^= out[(int64_t)row_slot[idx] * W + w];
            syndrome[r] = word;
        }
        value_hits(m, syndrome, hits);
        for (int64_t q = 0; q < n; ++q)
            data[q] = fx[q * W + w] ^ lookup(correction[q], hits, values);
        uint64_t says_one = 0;
        if (signs >= 0) {
            for (int64_t c = 0; c <= m; ++c) {
                uint64_t word = (signs >> c) & 1 ? ~(uint64_t)0 : 0;
                for (int64_t idx = support_start[c]; idx < support_start[c + 1]; ++idx)
                    word ^= data[support_qubit[idx]];
                recovery[c] = word;
            }
            value_hits(m, recovery, hits);
            says_one = recovery[m];
            for (int64_t idx = support_start[m]; idx < support_start[m + 1]; ++idx)
                says_one ^= lookup(correction[support_qubit[idx]], hits, values);
        }
        uint64_t nontrivial = 0, rejected = 0;
        for (int64_t r = 0; r < reported; ++r)
            nontrivial |= syndrome[r];
        for (int64_t r = reported; r < rows; ++r)
            rejected |= syndrome[r];
        int64_t lanes = B - 64 * w < 64 ? B - 64 * w : 64;
        uint8_t *lane = flags + 64 * w;
        for (int64_t b = 0; b < lanes; ++b) {
            lane[b] = !((says_one >> b) & 1);
            lane[B + b] = (nontrivial >> b) & 1;
            lane[2 * B + b] = !((rejected >> b) & 1);
        }
    }
    free(syndrome);
    return 0;
}
