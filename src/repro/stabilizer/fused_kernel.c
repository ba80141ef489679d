/* Pauli-frame kernel of the Monte-Carlo engine, with its noise sampler, the
 * lookup decode of a run's outcomes, the pooled-retry loop of a Level-1
 * trial batch, and the machine simulator's greedy EPR schedule.
 *
 * repro_frame_run is the native twin of `frame_kernel_numpy` in fused.py,
 * whose docstrings document the arrays, the frame update rules and the
 * sampler; repro_lookup_decode is the twin of `lookup_decode_numpy`,
 * repro_level1_batch the twin of the Python retry loop of
 * `Level1EccExperiment.run_trial_batch_detailed` in repro/arq/experiments.py
 * (repro_hand_out that of its `_hand_out`), and repro_schedule the twin of
 * the Python placement loop of `GreedyEprScheduler` in
 * repro/network/scheduler.py.
 * Every random number of a run is draw(stream_key(seed, s), i), splitmix64's
 * output i of stream s: stream 0 gives the random measurement words, stream
 * 1 the failures' letters, stream 2 + c the failure gaps of class c.  Event
 * e of rank r in its probability class owns the keys r*B .. r*B + B - 1; a
 * cursor per class jumps from failing key to failing key: a draw v (63 bits)
 * puts the next failure g + 1 keys on, g being the number of thresholds
 * t[g'] <= v (g' < T), or passes T keys and draws again when v >= t[T-1].
 * Only integer compares decide, so the two tiers agree bit for bit.  Each
 * failure is injected at its event's program position and, when the caller
 * asks for error counts, adds one to its lane's count.  A trial batch draws
 * each attempt's seed from the caller's numpy bit generator, exactly as
 * `random_raw()` would.
 *
 * Compiled on demand with the system C compiler and loaded through ctypes;
 * see `_cext_kernel` in fused.py for the build/caching protocol.  The build
 * cache is keyed by a hash of this source.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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
        if (s->error_count)
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
 * `out` holds M outcome rows of W words and then two working rows;
 * `error_count` (B entries) may be NULL when no counts are wanted. */
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

/* ------------------------------------------------------------------ */
/* A Level-1 trial batch: the first attempt on every lane, then pooled
 * verification retries, as `Level1EccExperiment.run_trial_batch_detailed`
 * runs them. */

/* numpy's bitgen_t (numpy/random/bitgen.h). */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* Deal a pool of `width` attempts out to n pending lanes in order, as
 * `_hand_out` does: lane i takes pool lanes starts[i]..ends[i], up to and
 * including the first whose verification `passed`, but no more than
 * budgets[i] (at least 1) of them and none past the pool's end.  Returns
 * the number of lanes that got a pool lane; the last of them may be cut off
 * by the end.  Exported for the tests, which hold it to `_hand_out`. */
int64_t repro_hand_out(int64_t width, const uint8_t *passed, int64_t n,
                       const int64_t *budgets, int64_t *starts, int64_t *ends)
{
    int64_t start = 0, i = 0;
    for (; start < width && i < n; ++i) {
        int64_t end = start, last = start + budgets[i] - 1;
        if (last > width - 1)
            last = width - 1;
        while (end < last && !passed[end])
            ++end;
        starts[i] = start;
        ends[i] = end;
        start = end + 1;
    }
    return i;
}

/* One attempt of `width` lanes from fresh frames: the run with the next
 * seed of the generator, then its decode into three rows of `width` flags.
 * `frames` holds 2 * qubits * W words and `out` (M + 2) * W. */
static int64_t level1_attempt(const int64_t *resolved, int64_t width, bitgen_t *bitgen,
                              uint64_t *frames, uint64_t *out, uint8_t *flags)
{
    const int64_t *plan = AT(const int64_t *, resolved, 0);
    int64_t W = (width + 63) / 64, qubits = resolved[5];
    memset(frames, 0, 2 * qubits * W * sizeof(uint64_t));
    uint64_t seed = bitgen->next_raw(bitgen->state);
    uint64_t *fx = frames, *fz = frames + qubits * W;
    int64_t status = repro_frame_run(W, width, seed, plan, AT(const int64_t *, resolved, 1),
                                     AT(const int64_t *, resolved, 2), out, fx, fz, 0);
    if (status)
        return status;
    return repro_lookup_decode(W, width, AT(const int64_t *, resolved, 3), resolved[4], out,
                               fx, flags);
}

/* Run a trial batch of B lanes under a cap of `limit` attempts per lane
 * (at least 1), drawing one seed per attempt from `bitgen`, whose lock the
 * caller holds.  The int64 `resolved` block holds the addresses of the
 * plan, reference and noise blocks of an attempt's run and of its decode
 * tables, then the decode's signs and the register's qubits.  `flags`
 * receives the (3, B) failure, nontrivial-syndrome and verification-passed
 * rows each lane keeps and `widths` (`room` entries) the width of every
 * attempt.  The first attempt runs all B lanes; while lanes are pending
 * (rejected with attempts left), the next pool has min(B, their remaining
 * attempts, ceil(1.15 * pending / accepted) + 8) lanes, `accepted` being
 * the first attempt's acceptance fraction (the last term only when it is
 * positive), and `repro_hand_out` deals it out.  Returns the number of
 * attempts, or -1 on an unknown opcode, -2 when memory cannot be allocated
 * and -3 when `room` is too small. */
int64_t repro_level1_batch(int64_t B, int64_t limit, const int64_t *resolved, bitgen_t *bitgen,
                           uint8_t *flags, int64_t *widths, int64_t room)
{
    const int64_t *plan = AT(const int64_t *, resolved, 0);
    int64_t W = (B + 63) / 64, qubits = resolved[5], M = plan[1];
    uint64_t *words = malloc((2 * qubits + M + 2) * W * sizeof(uint64_t));
    int64_t *lanes = malloc(5 * B * sizeof(int64_t));
    uint8_t *pool = malloc(3 * B);
    int64_t status = words && lanes && pool ? 0 : 2;
    int64_t made = 0;
    if (!status)
        status = level1_attempt(resolved, B, bitgen, words, words + 2 * qubits * W, flags);
    if (!status)
        widths[made++] = B;
    int64_t *pending = lanes, *tries = pending + B, *budgets = tries + B;
    int64_t *starts = budgets + B, *ends = starts + B, n = 0;
    if (!status)
        for (int64_t b = 0; b < B; ++b)
            if (!flags[2 * B + b]) {
                pending[n] = b;
                tries[n++] = 1;
            }
    double accepted = 1.0 - (double)n / (double)B;
    while (!status && n && limit > 1) {
        int64_t width = B, total = 0;
        for (int64_t i = 0; i < n; ++i)
            total += budgets[i] = limit - tries[i];
        if (total < width)
            width = total;
        if (accepted > 0) {
            /* Room for every pending lane to pass at the measured rate,
             * with a margin, so a second pool is rarely needed. */
            double wanted = 1.15 * (double)n / accepted;
            int64_t ceiling = (int64_t)wanted;
            ceiling += (double)ceiling < wanted;
            if (ceiling + 8 < width)
                width = ceiling + 8;
        }
        if (made == room) {
            status = 3;
            break;
        }
        status = level1_attempt(resolved, width, bitgen, words, words + 2 * qubits * W, pool);
        if (status)
            break;
        widths[made++] = width;
        int64_t served = repro_hand_out(width, pool + 2 * width, n, budgets, starts, ends);
        int64_t kept = 0;
        for (int64_t i = 0; i < n; ++i) {
            if (i < served) {
                int64_t lane = pending[i], end = ends[i];
                for (int r = 0; r < 3; ++r)
                    flags[r * B + lane] = pool[r * width + end];
                tries[i] += end - starts[i] + 1;
                if (pool[2 * width + end] || tries[i] >= limit)
                    continue;
            }
            pending[kept] = pending[i];
            tries[kept++] = tries[i];
        }
        n = kept;
    }
    free(words);
    free(lanes);
    free(pool);
    return status ? -status : made;
}

/* ------------------------------------------------------------------ */
/* Greedy EPR schedule: the twin of `GreedyEprScheduler._try_place` and
 * `_bucket_dijkstra` in repro.network, on the integer ids of `MeshIndex`:
 * node (r, c) of a rows x columns mesh is r * columns + c, and the directed
 * edge from node u to its up, left, down or right neighbour is 4 * u + k,
 * k = 0..3. */

/* One side of the bidirectional search: tentative distances (-1 while
 * unreached), predecessors, settled flags and a bucket queue.  The slots
 * are circular buckets, each the FIFO list of the entries pushed at one
 * distance: `slot` holds the bucket being popped, at distance `current`,
 * and slot + i (mod slots) the bucket at distance current + i.  An edge
 * costs 1 + its load <= slots - 1, so the queued distances always fit in
 * one turn of the slots and a push never lands in the bucket being
 * popped. */
typedef struct {
    int64_t *dist;
    int64_t *pred;
    int64_t *settled;
    int64_t *head;
    int64_t *tail;
    int64_t *next;
    int64_t *node;
    int64_t entries;
    int64_t queued;
    int64_t current;
    int64_t slot;
} search_side;

/* `around[4 * u + k]` is neighbour k (up, left, down, right) of node u, or
 * -1 off the mesh. */
typedef struct {
    int64_t columns, nodes, slots;
    int64_t *around;
    search_side side[2];
} mesh_search;

static void push(search_side *s, int64_t node, int64_t distance, int64_t slots)
{
    int64_t entry = s->entries++, slot = s->slot + distance - s->current;
    if (slot >= slots)
        slot -= slots;
    s->node[entry] = node;
    s->next[entry] = -1;
    if (s->tail[slot] < 0)
        s->head[slot] = entry;
    else
        s->next[s->tail[slot]] = entry;
    s->tail[slot] = entry;
    s->queued++;
}

/* The next node in (distance, push order); -1 when the queue is empty. */
static int64_t pop(search_side *s, int64_t slots)
{
    if (!s->queued)
        return -1;
    int64_t slot = s->slot;
    for (; s->head[slot] < 0; ++s->current)
        slot = slot + 1 == slots ? 0 : slot + 1;
    s->slot = slot;
    int64_t entry = s->head[slot];
    s->head[slot] = s->next[entry];
    if (s->head[slot] < 0)
        s->tail[slot] = -1;
    s->queued--;
    return s->node[entry];
}

/* Edge id of the step from node u to its neighbour v (in one column the
 * row steps are +-1, so they are tested first). */
static int64_t step_edge(int64_t columns, int64_t u, int64_t v)
{
    int64_t k = v == u - columns ? 0 : v == u + columns ? 2 : v == u - 1 ? 1 : 3;
    return 4 * u + k;
}

/* The cheapest path from source to target under edge cost 1 + load, with
 * `_bucket_dijkstra`'s tie-break: the sides alternate, forward first, one
 * pop each (a stale pop of a settled node still uses up the turn),
 * neighbours are expanded up, left, down, right, and the search stops at
 * the first node settled from both sides, returning the path through the
 * best meeting node seen so far.  Writes the path's node ids to `path`
 * (2 * nodes entries) and returns its length, or -1 if a queue runs dry,
 * which a connected mesh never does. */
static int64_t bucket_search(mesh_search *m, const int64_t *load, int64_t source,
                             int64_t target, int64_t *path)
{
    path[0] = source;
    if (source == target)
        return 1;
    for (int d = 0; d < 2; ++d) {
        search_side *s = m->side + d;
        for (int64_t v = 0; v < m->nodes; ++v) {
            s->dist[v] = -1;
            s->settled[v] = 0;
        }
        for (int64_t slot = 0; slot < m->slots; ++slot)
            s->head[slot] = s->tail[slot] = -1;
        s->entries = s->queued = s->current = s->slot = 0;
    }
    m->side[0].dist[source] = m->side[1].dist[target] = 0;
    m->side[0].pred[source] = m->side[1].pred[target] = -1;
    push(m->side, source, 0, m->slots);
    push(m->side + 1, target, 0, m->slots);
    int64_t best = -1, meet = -1;
    for (int d = 0;; d ^= 1) {
        search_side *s = m->side + d, *o = m->side + (d ^ 1);
        int64_t u = pop(s, m->slots);
        if (u < 0)
            return -1;
        if (s->settled[u])
            continue;
        s->settled[u] = 1;
        if (o->settled[u])
            break;
        int64_t step = s->current + 1;
        for (int k = 0; k < 4; ++k) {
            int64_t v = m->around[4 * u + k];
            if (v < 0 || s->settled[v])
                continue;
            /* Forward edges leave u; backward edges arrive at it. */
            int64_t length = step + load[d ? 4 * v + (k + 2) % 4 : 4 * u + k];
            if (s->dist[v] < 0 || length < s->dist[v]) {
                s->dist[v] = length;
                s->pred[v] = u;
                push(s, v, length, m->slots);
                if (o->dist[v] >= 0 && (best < 0 || length + o->dist[v] < best)) {
                    best = length + o->dist[v];
                    meet = v;
                }
            }
        }
    }
    int64_t length = 0;
    for (int64_t v = meet; v >= 0; v = m->side[0].pred[v])
        path[length++] = v;
    for (int64_t i = 0, j = length - 1; i < j; ++i, --j) {
        int64_t swap = path[i];
        path[i] = path[j];
        path[j] = swap;
    }
    for (int64_t v = m->side[1].pred[meet]; v >= 0; v = m->side[1].pred[v])
        path[length++] = v;
    return length;
}

/* int64 entries of a search's neighbour table and two sides. */
static int64_t search_size(int64_t nodes, int64_t slots)
{
    return 4 * nodes + 2 * (3 * nodes + 2 * slots + 2 * (4 * nodes + 1));
}

/* Lay a search's neighbour table and sides out in `work` (search_size
 * entries); returns the first entry past them. */
static int64_t *search_init(mesh_search *m, int64_t rows, int64_t columns, int64_t slots,
                            int64_t *work)
{
    int64_t nodes = rows * columns, pool = 4 * nodes + 1;
    m->columns = columns;
    m->nodes = nodes;
    m->slots = slots;
    m->around = work;
    for (int64_t u = 0; u < nodes; ++u) {
        int64_t r = u / columns, c = u % columns;
        work[4 * u] = r > 0 ? u - columns : -1;
        work[4 * u + 1] = c > 0 ? u - 1 : -1;
        work[4 * u + 2] = r + 1 < rows ? u + columns : -1;
        work[4 * u + 3] = c + 1 < columns ? u + 1 : -1;
    }
    work += 4 * nodes;
    for (int d = 0; d < 2; ++d) {
        search_side *s = m->side + d;
        s->dist = work;
        s->pred = work + nodes;
        s->settled = work + 2 * nodes;
        s->head = work + 3 * nodes;
        s->tail = s->head + slots;
        s->next = s->tail + slots;
        s->node = s->next + pool;
        work = s->node + pool;
    }
    return work;
}

/* The congestion search alone, on loads below slots - 1: writes the path's
 * node ids to `path` (2 * rows * columns entries) and returns its length,
 * -1 when there is no path and -2 when memory cannot be allocated.  The
 * tests hold it to the routes recorded from networkx. */
int64_t repro_route_search(int64_t rows, int64_t columns, int64_t slots, const int64_t *load,
                           int64_t source, int64_t target, int64_t *path)
{
    int64_t *work = malloc(search_size(rows * columns, slots) * sizeof(int64_t));
    if (!work)
        return -2;
    mesh_search m;
    search_init(&m, rows, columns, slots, work);
    int64_t length = bucket_search(&m, load, source, target, path);
    free(work);
    return length;
}

/* The path that walks the rows to their end first (rows_first), or the
 * columns; returns its length. */
static int64_t dimension_ordered(int64_t columns, int64_t source, int64_t target,
                                 int rows_first, int64_t *path)
{
    int64_t r = source / columns, c = source % columns;
    int64_t to_r = target / columns, to_c = target % columns, length = 0;
    path[length++] = source;
    for (int leg = 0; leg < 2; ++leg) {
        if ((leg == 0) == rows_first)
            for (; r != to_r; path[length++] = r * columns + c)
                r += r < to_r ? 1 : -1;
        else
            for (; c != to_c; path[length++] = r * columns + c)
                c += c < to_c ? 1 : -1;
    }
    return length;
}

static int same_path(const int64_t *a, int64_t a_length, const int64_t *b, int64_t b_length)
{
    return a_length == b_length && !memcmp(a, b, a_length * sizeof(int64_t));
}

/* True when every edge of the path has load <= limit. */
static int fits(const int64_t *load, int64_t columns, const int64_t *path, int64_t length,
                int64_t limit)
{
    for (int64_t i = 1; i < length; ++i)
        if (load[step_edge(columns, path[i - 1], path[i])] > limit)
            return 0;
    return 1;
}

/* The route of a demand in its window, as `_try_place` walks the
 * candidates: X-then-Y, Y-then-X if it differs, then the congestion
 * search's path if it differs from both (counted in *searches), the first
 * whose every edge has load <= limit.  `candidates` holds 4 * nodes
 * entries for their paths; *path points at the route taken.  Returns its
 * length, 0 when no candidate fits and -1 if the search finds no path. */
static int64_t route(mesh_search *m, const int64_t *load, int64_t source, int64_t target,
                     int64_t limit, int64_t *candidates, int64_t **path, int64_t *searches)
{
    int64_t columns = m->columns;
    int64_t *x_path = candidates, *y_path = x_path + m->nodes, *w_path = y_path + m->nodes;
    int64_t x_length = dimension_ordered(columns, source, target, 1, x_path), y_length = 0;
    *path = x_path;
    if (source == target || fits(load, columns, x_path, x_length, limit))
        return x_length;
    if (source / columns != target / columns && source % columns != target % columns) {
        y_length = dimension_ordered(columns, source, target, 0, y_path);
        *path = y_path;
        if (fits(load, columns, y_path, y_length, limit))
            return y_length;
    }
    int64_t w_length = bucket_search(m, load, source, target, w_path);
    ++*searches;
    *path = w_path;
    if (w_length < 0)
        return -1;
    if (same_path(w_path, w_length, x_path, x_length)
        || same_path(w_path, w_length, y_path, y_length)
        || !fits(load, columns, w_path, w_length, limit))
        return 0;
    return w_length;
}

/* Place n EPR demands greedily, window by window, as
 * `GreedyEprScheduler.schedule` does.  `demands` holds four int64 per
 * demand: source and destination node ids (equal for a demand between a
 * tile and itself), window and pairs.  A demand takes its route (`route`,
 * with limit capacity - pairs) in its window's load; a demand that fits
 * none moves to the next window, after that window's own demands, until
 * it has slipped max_deferral windows.
 * Outputs, each in the order the scheduler appends it:
 *   transfers: per placed demand, its index, its window and the end of its
 *              path in `paths` (each path follows the one before);
 *   unserved:  the indices of the demands never placed;
 *   loads:     per edge a window loaded, in first-touch order, its id and
 *              its load in the window;
 *   windows:   per window that loaded an edge, its index and the end of
 *              its entries in `loads`;
 *   counts:    transfers, unserved, path entries, windows and congestion
 *              searches.
 * `paths` and `loads` hold `room` entries (and pairs).  Returns 2 when
 * memory cannot be allocated, 3 when `room` is too small and 4 if the
 * search finds no path. */
int64_t repro_schedule(
    int64_t rows, int64_t columns, int64_t capacity, int64_t max_deferral,
    int64_t n, const int64_t *demands, int64_t room, int64_t *transfers,
    int64_t *unserved, int64_t *paths, int64_t *loads, int64_t *windows, int64_t *counts)
{
    int64_t nodes = rows * columns, horizon = 0;
    for (int64_t i = 0; i < n; ++i)
        if (demands[4 * i + 2] >= horizon)
            horizon = demands[4 * i + 2] + 1;
    horizon += max_deferral;
    /* Loads never pass the capacity, so an edge costs at most capacity + 1. */
    int64_t slots = capacity + 2;
    int64_t *work = calloc(search_size(nodes, slots) + 12 * nodes + 3 * n + horizon + 1,
                           sizeof(int64_t));
    if (!work)
        return 2;
    mesh_search m;
    int64_t *load = search_init(&m, rows, columns, slots, work), *touched = load + 4 * nodes;
    int64_t *candidates = touched + 4 * nodes;
    int64_t *order = candidates + 4 * nodes;
    int64_t *carried = order + n, *deferred = carried + n;
    int64_t *first = deferred + n;
    /* Demands by window, in input order: window w's are order[first[w] ..
     * first[w + 1]). */
    for (int64_t i = 0; i < n; ++i)
        first[demands[4 * i + 2] + 1]++;
    for (int64_t w = 0; w < horizon; ++w)
        first[w + 1] += first[w];
    for (int64_t i = 0; i < n; ++i)
        order[first[demands[4 * i + 2]]++] = i;
    for (int64_t w = horizon; w > 0; --w)
        first[w] = first[w - 1];
    first[0] = 0;

    int64_t placed = 0, lost = 0, used = 0, entries = 0, loaded = 0, searches = 0, status = 0;
    int64_t n_carried = 0, n_touched = 0;
    for (int64_t w = 0; w < horizon && !status; ++w) {
        int64_t own = first[w + 1] - first[w], n_deferred = 0;
        for (int64_t j = 0; j < own + n_carried; ++j) {
            int64_t i = j < own ? order[first[w] + j] : carried[j - own];
            int64_t source = demands[4 * i], target = demands[4 * i + 1];
            int64_t pairs = demands[4 * i + 3], *path;
            int64_t length = route(&m, load, source, target, capacity - pairs, candidates, &path,
                                   &searches);
            if (length < 0) {
                status = 4;
                break;
            }
            if (!length) {
                if (w + 1 < horizon && w + 1 <= demands[4 * i + 2] + max_deferral)
                    deferred[n_deferred++] = i;
                else
                    unserved[lost++] = i;
                continue;
            }
            if (used + length > room) {
                status = 3;
                break;
            }
            for (int64_t k = 0; k < length; ++k) {
                paths[used + k] = path[k];
                if (k) {
                    int64_t edge = step_edge(columns, path[k - 1], path[k]);
                    if (!load[edge])
                        touched[n_touched++] = edge;
                    load[edge] += pairs;
                }
            }
            used += length;
            transfers[3 * placed] = i;
            transfers[3 * placed + 1] = w;
            transfers[3 * placed + 2] = used;
            placed++;
        }
        int64_t *swap = carried;
        carried = deferred;
        deferred = swap;
        n_carried = n_deferred;
        /* A window loads fewer edges than its paths have entries, so the
         * load pairs fit wherever the paths did, and a window that loads
         * an edge places a demand. */
        for (int64_t t = 0; t < n_touched; ++t, ++entries) {
            loads[2 * entries] = touched[t];
            loads[2 * entries + 1] = load[touched[t]];
            load[touched[t]] = 0;
        }
        if (n_touched) {
            windows[2 * loaded] = w;
            windows[2 * loaded + 1] = entries;
            loaded++;
        }
        n_touched = 0;
    }
    counts[0] = placed;
    counts[1] = lost;
    counts[2] = used;
    counts[3] = loaded;
    counts[4] = searches;
    free(work);
    return status;
}
