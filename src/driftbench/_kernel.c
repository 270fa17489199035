/* The loops of driftbench that numpy cannot batch: an SGD epoch of the
 * trainer (driftbench_sgd), the tokenizer of ASCII text, which gives each
 * token a type id in one pass (driftbench_encode), the chain sampler of
 * the synthetic language, which sums each transition row's CDF only as
 * far as its draw (driftbench_chain), the co-occurrence counter
 * (driftbench_cooccur), the writer and reader of the embedding text
 * format (driftbench_format, driftbench_parse), the line writer and the
 * readers of the COOC and edge-list formats (driftbench_format_lines,
 * driftbench_read_cooc, driftbench_read_edge_list), the loop of
 * neighbour ranking: the cosine division with top-k selection
 * (driftbench_select), and the product of a CSR matrix with dense
 * vectors that scores sparse rows (driftbench_csr_dot). The SGD epoch
 * does its arithmetic in the same order as the numpy step it replaces,
 * except that dot products and sums run sequentially where numpy calls
 * BLAS or sums pairwise, so results agree with it to the last few bits.
 * The tokenizer gives the tokens of corpus._TOKEN_RE, the chain sampler
 * the ids of numpy's searchsorted over whole row CDFs, the counter the
 * CSR arrays of the numpy counter, the text functions the same bytes and
 * values as repr(), %, float() and int(), the ranking loop the same ids
 * and score bits as numpy's ranking, and the CSR product the bits of its
 * numpy twin. Each text reader takes a file's body only in its writer's
 * layout and order, and returns the offset of the first line or field
 * that breaks them, so that its caller reads that file line by line
 * instead. Build it with -ffp-contract=off and without fast-math so that
 * every run of the same build gives the same bits: the SGD step's
 * element-wise updates run in vector lanes, each lane doing the scalar
 * operations, and no sum is ever reordered. The kernel name in training
 * manifests hashes this source, so any change here changes it.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* the entry of corpus._window_ids before each document and after the last */
#define BOUNDARY (-2)

/* numpy's logaddexp(0.0, y), branch for branch */
static double logaddexp0(double y)
{
    double tmp = 0.0 - y;
    if (y == 0.0)
        return 0.0 + 0.69314718055994530942;
    if (tmp > 0)
        return 0.0 + log1p(exp(-tmp));
    if (tmp <= 0)
        return y + log1p(exp(tmp));
    return 0.0 + y;
}

/* out[i] = w[rows[i]] . h, each sum in index order; four rows at a time
 * keep four independent sums in flight */
static void dots(const double *w, const int64_t *rows, int64_t nrows,
                 const double *h, int64_t d, double *out)
{
    int64_t i = 0, j;
    for (; i + 4 <= nrows; i += 4) {
        const double *r0 = w + rows[i] * d, *r1 = w + rows[i + 1] * d;
        const double *r2 = w + rows[i + 2] * d, *r3 = w + rows[i + 3] * d;
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        for (j = 0; j < d; j++) {
            s0 += r0[j] * h[j];
            s1 += r1[j] * h[j];
            s2 += r2[j] * h[j];
            s3 += r3[j] * h[j];
        }
        out[i] = s0;
        out[i + 1] = s1;
        out[i + 2] = s2;
        out[i + 3] = s3;
    }
    for (; i < nrows; i++) {
        const double *r = w + rows[i] * d;
        double s = 0.0;
        for (j = 0; j < d; j++)
            s += r[j] * h[j];
        out[i] = s;
    }
}

/* The element-wise updates of a step, two elements at a time in the
 * vector lanes of GCC and Clang (SSE2 on x86-64, NEON on AArch64). Each
 * lane does the scalar operations of its element, so the bits are the
 * scalar loop's; restrict: y and x never overlap, so neither do the lanes'
 * loads and stores. */
typedef double lanes __attribute__((vector_size(16)));

/* memcpy: a row of doubles need not be 16-byte aligned */
static lanes load(const double *p)
{
    lanes v;
    memcpy(&v, p, sizeof v);
    return v;
}

static void store(double *p, lanes v) { memcpy(p, &v, sizeof v); }

static void add(double *restrict y, const double *restrict x, int64_t d)
{
    int64_t j = 0;
    for (; j + 2 <= d; j += 2)
        store(y + j, load(y + j) + load(x + j));
    for (; j < d; j++)
        y[j] += x[j];
}

static void sub(double *restrict y, const double *restrict x, int64_t d)
{
    int64_t j = 0;
    for (; j + 2 <= d; j += 2)
        store(y + j, load(y + j) - load(x + j));
    for (; j < d; j++)
        y[j] -= x[j];
}

static void add_scaled(double *restrict y, double a, const double *restrict x, int64_t d)
{
    int64_t j = 0;
    for (; j + 2 <= d; j += 2)
        store(y + j, load(y + j) + a * load(x + j));
    for (; j < d; j++)
        y[j] += a * x[j];
}

static void sub_scaled(double *restrict y, double a, const double *restrict x, int64_t d)
{
    int64_t j = 0;
    for (; j + 2 <= d; j += 2)
        store(y + j, load(y + j) - a * load(x + j));
    for (; j < d; j++)
        y[j] -= a * x[j];
}

static void scale(double *y, double a, int64_t d)
{
    int64_t j = 0;
    for (; j + 2 <= d; j += 2)
        store(y + j, load(y + j) * a);
    for (; j < d; j++)
        y[j] *= a;
}

static void divide(double *y, double a, int64_t d)
{
    int64_t j = 0;
    for (; j + 2 <= d; j += 2)
        store(y + j, load(y + j) / a);
    for (; j < d; j++)
        y[j] /= a;
}

typedef struct {
    double *w_in, *w_out;
    int64_t vocab, dim, k;
    double *h, *grad_h, *scores, *exps;
    int64_t *rows;
} model;

/* One SGD step on the sample (ctx[0..n-1] -> target); returns its loss. */
static double step(model *m, const int64_t *ctx, int64_t n, int64_t target,
                   const int64_t *noise, double lr)
{
    const int64_t d = m->dim;
    double *h = m->h, *grad_h = m->grad_h, *scores = m->scores, *exps = m->exps;
    double loss;
    int64_t i, j, nrows;

    memcpy(h, m->w_in + ctx[0] * d, sizeof(double) * (size_t)d);
    for (i = 1; i < n; i++)
        add(h, m->w_in + ctx[i] * d, d);
    divide(h, (double)n, d);

    if (m->k == 0) {
        double top = -INFINITY, z = 0.0;
        nrows = m->vocab;
        dots(m->w_out, m->rows, nrows, h, d, scores);
        for (i = 0; i < nrows; i++)
            if (!isnan(top) && (scores[i] > top || isnan(scores[i])))
                top = scores[i];  /* a NaN score sticks, as in np.max */
        for (i = 0; i < nrows; i++) {
            scores[i] -= top;
            exps[i] = exp(scores[i]);
            z += exps[i];
        }
        loss = log(z) - scores[target];
        for (i = 0; i < nrows; i++)
            scores[i] = exps[i] / z;  /* scores now holds dscores */
        scores[target] -= 1.0;
    } else {
        double neg = 0.0;
        nrows = 0;
        m->rows[nrows++] = target;
        for (i = 0; i < m->k; i++)
            if (noise[i] != target)
                m->rows[nrows++] = noise[i];
        dots(m->w_out, m->rows, nrows, h, d, exps);  /* exps holds the scores u */
        for (i = 1; i < nrows; i++)
            neg += logaddexp0(exps[i]);
        loss = logaddexp0(-exps[0]) + neg;
        for (i = 0; i < nrows; i++)
            scores[i] = 1.0 / (1.0 + exp(-exps[i]));
        scores[0] -= 1.0;
    }

    /* both gradients come from the weights before this step's updates */
    for (j = 0; j < d; j++)
        grad_h[j] = 0.0;
    for (i = 0; i < nrows; i++)
        add_scaled(grad_h, scores[i], m->w_out + m->rows[i] * d, d);
    /* repeated rows are updated one after another, as np.subtract.at does */
    for (i = 0; i < nrows; i++)
        sub_scaled(m->w_out + m->rows[i] * d, lr * scores[i], h, d);
    scale(grad_h, lr / (double)n, d);  /* (lr / len(ctx)) * grad_h */
    for (i = 0; i < n; i++)
        sub(m->w_in + ctx[i] * d, grad_h, d);
    return loss;
}

/* One CBOW or skip-gram SGD pass over a range of window positions.
 *
 * This is the per-sample loop of trainer._sample_loss_grads and
 * trainer._apply_step in C, in the style of word2vec.c (Mikolov et al.
 * 2013): one sample at a time, over noise words drawn beforehand.
 *
 * `ids` holds every document's vocabulary ids (-1 for out-of-vocabulary
 * tokens) with a BOUNDARY before each document and after the last; a
 * window walks at most `radius` positions each side of its token and stops
 * at a boundary, so it stays in bounds and never crosses documents.
 * Positions start..stop-1 are trained, in
 * order; a CBOW sample is one in-vocabulary target with a non-empty
 * in-vocabulary context, a skip-gram sample is one (target, context word)
 * pair, and each sample takes the next k ids of `noise` (none under
 * softmax, k == 0), dropping those equal to its target.
 *
 * Returns 0, or -1 when scratch memory cannot be allocated.
 */
int driftbench_sgd(double *w_in, double *w_out, int64_t vocab, int64_t dim,
                   const int64_t *ids, int64_t start, int64_t stop,
                   int64_t radius, int32_t skipgram,
                   const int64_t *noise, int64_t k,
                   double learning_rate, double lr_floor,
                   int64_t seen, int64_t total, double *loss_sum)
{
    model m = {w_in, w_out, vocab, dim, k};
    int64_t wide = k == 0 ? vocab : k + 1;
    int64_t *ctx = malloc(sizeof(int64_t) * (size_t)(2 * radius));
    double *buf = malloc(sizeof(double) * (size_t)(2 * dim + 2 * wide));
    int64_t p, o, i;
    double sum = *loss_sum;

    m.rows = malloc(sizeof(int64_t) * (size_t)wide);
    if (ctx == NULL || buf == NULL || m.rows == NULL) {
        free(ctx);
        free(buf);
        free(m.rows);
        return -1;
    }
    m.h = buf;
    m.grad_h = buf + dim;
    m.scores = buf + 2 * dim;
    m.exps = buf + 2 * dim + wide;
    if (k == 0)  /* softmax updates every output row, in order */
        for (i = 0; i < vocab; i++)
            m.rows[i] = i;

    for (p = start; p < stop; p++) {
        int64_t target = ids[p], n = 0, left = 0, samples;
        if (target < 0)
            continue;
        while (left < radius && ids[p - left - 1] != BOUNDARY)
            left++;
        for (o = -left; o < 0; o++)  /* the context in window order */
            if (ids[p + o] >= 0)
                ctx[n++] = ids[p + o];
        for (o = 1; o <= radius && ids[p + o] != BOUNDARY; o++)
            if (ids[p + o] >= 0)
                ctx[n++] = ids[p + o];
        samples = skipgram ? n : (n > 0);
        for (i = 0; i < samples; i++) {
            /* Python's max(lr_floor, frac) keeps lr_floor unless frac is larger */
            double frac = 1.0 - (double)seen / (double)total;
            double lr = learning_rate * (frac > lr_floor ? frac : lr_floor);
            if (skipgram)
                sum += step(&m, &ids[p], 1, ctx[i], noise, lr);
            else
                sum += step(&m, ctx, n, target, noise, lr);
            noise += k;
            seen++;
        }
    }
    *loss_sum = sum;
    free(ctx);
    free(buf);
    free(m.rows);
    return 0;
}

/* ---------------------------------------------------------------------
 * the synthetic language
 */

/* The first i with cdf[i] >= x, or n: numpy's searchsorted(side="left")
 * of one key, the same halving, for an ascending cdf and an x not NaN. */
static int64_t search_left(const double *cdf, int64_t n, double x)
{
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        if (cdf[mid] < x)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* The chain loop of synthetic.synthetic_corpus: out[0] is the unigram
 * word of draws[0], and each out[i] the successor of out[i - 1] that
 * draws[i] picks from that word's row, never built: unigram (vocab
 * entries) with the entries at the word's npref preferred ids (ascending,
 * row r of preferred) multiplied by boost, divided by sums[r]. The scan
 * sums the row's CDF only as far as the draw, in the order and with the
 * IEEE operations of np.cumsum(row / sums[r]); the CDF does not decrease,
 * so its first entry not below the draw is the id searchsorted finds. A
 * draw above the last entry, which rounding leaves just below 1.0, picks
 * the last word. */
void driftbench_chain(const double *unigram, const double *unigram_cdf, const int64_t *preferred,
                      int64_t npref, const double *sums, double boost, int64_t vocab,
                      const double *draws, int64_t n, int64_t *out)
{
    int64_t i, j, k, current;

    if (n < 1)
        return;
    current = search_left(unigram_cdf, vocab, draws[0]);
    out[0] = current = current == vocab ? vocab - 1 : current;
    for (i = 1; i < n; i++) {
        const int64_t *pref = preferred + current * npref;
        double sum = sums[current], cdf = 0.0, x = draws[i];

        current = vocab - 1;
        for (j = 0, k = 0; j < vocab; j++) {
            double w = unigram[j];
            if (k < npref && pref[k] == j) {
                w = w * boost;
                k++;
            }
            cdf += w / sum;
            if (cdf >= x) {
                current = j;
                break;
            }
        }
        out[i] = current;
    }
}

/* ---------------------------------------------------------------------
 * embedding text: shortest round-trip formatting and parsing
 */

/* Ryu's 125-bit multipliers (Adams 2018, "Ryu: fast float-to-string
 * conversion", PLDI), as (low, high) 64-bit pairs: RYU_INV_ROWS inverse
 * powers floor(2^(bitlength(5^i) - 1 + 125) / 5^i) + 1, then 326 powers
 * 5^i scaled to 125 bits. kernel.py computes them with exact integers and
 * passes them to driftbench_format. */
#define RYU_BITS 125
#define RYU_INV_ROWS 342

typedef unsigned __int128 u128;

/* ceil(log2(5^e)) for 1 <= e <= 3528, and 1 for e == 0 */
static int32_t pow5bits(int32_t e) { return (int32_t)(((uint32_t)e * 1217359) >> 19) + 1; }
/* floor(log10(2^e)) for 0 <= e <= 1650 */
static int32_t log10pow2(int32_t e) { return (int32_t)(((uint32_t)e * 78913) >> 18); }
/* floor(log10(5^e)) for 0 <= e <= 2620 */
static int32_t log10pow5(int32_t e) { return (int32_t)(((uint32_t)e * 732923) >> 20); }

static int multiple_of_pow5(uint64_t v, int32_t p)
{
    int32_t count = 0;
    while (v % 5 == 0) {
        v /= 5;
        count++;
    }
    return count >= p;
}

static int multiple_of_pow2(uint64_t v, int32_t p) { return (v & ((1ull << p) - 1)) == 0; }

/* (m * mul) >> j for a 55-bit m, a 125-bit mul and j >= 64 */
static uint64_t mul_shift(uint64_t m, const uint64_t *mul, int32_t j)
{
    u128 low = (u128)m * mul[0], high = (u128)m * mul[1];
    return (uint64_t)(((low >> 64) + high) >> (j - 64));
}

/* The shortest decimal digits*10^exponent that reads back as the double
 * with this mantissa and biased exponent (not zero, not inf or nan); of
 * several, the closest, ties to even: Ryu's d2d. */
static uint64_t shortest(uint64_t mantissa, uint32_t biased, const uint64_t *table,
                         int32_t *exponent)
{
    const int even = mantissa % 2 == 0;
    int32_t e2, e10, removed = 0;
    uint64_t m2, mv, vr, vp, vm, output;
    uint32_t mm_shift = mantissa != 0 || biased <= 1;
    int vm_zeros = 0, vr_zeros = 0;
    uint8_t last = 0;

    if (biased == 0) {
        e2 = 1 - 1023 - 52 - 2;
        m2 = mantissa;
    } else {
        e2 = (int32_t)biased - 1023 - 52 - 2;
        m2 = (1ull << 52) | mantissa;
    }
    mv = 4 * m2;
    /* the interval of decimals that read back: (vm, vp), ends included
     * when the mantissa is even (round-half-even reading) */
    if (e2 >= 0) {
        const int32_t q = log10pow2(e2) - (e2 > 3);
        const int32_t j = -e2 + q + RYU_BITS + pow5bits(q) - 1;
        const uint64_t *mul = table + 2 * q;
        e10 = q;
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if (q <= 21) {
            if (mv % 5 == 0)
                vr_zeros = multiple_of_pow5(mv, q);
            else if (even)
                vm_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            else
                vp -= multiple_of_pow5(mv + 2, q);
        }
    } else {
        const int32_t q = log10pow5(-e2) - (-e2 > 1);
        const int32_t i = -e2 - q;
        const int32_t j = q - (pow5bits(i) - RYU_BITS);
        const uint64_t *mul = table + 2 * (RYU_INV_ROWS + i);
        e10 = q + e2;
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if (q <= 1) {
            vr_zeros = 1;
            if (even)
                vm_zeros = mm_shift == 1;
            else
                vp--;
        } else if (q < 63) {
            vr_zeros = multiple_of_pow2(mv, q);
        }
    }
    /* drop digits while the interval still holds a shorter decimal */
    while (vp / 10 > vm / 10) {
        vm_zeros &= vm % 10 == 0;
        vr_zeros &= last == 0;
        last = (uint8_t)(vr % 10);
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed++;
    }
    if (vm_zeros) {
        while (vm % 10 == 0) {
            vr_zeros &= last == 0;
            last = (uint8_t)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
    }
    if (vr_zeros && last == 5 && vr % 2 == 0)
        last = 4;  /* exactly halfway: round to even */
    output = vr + ((vr == vm && (!even || !vm_zeros)) || last >= 5);
    *exponent = e10 + removed;
    return output;
}

/* Writes repr(x) at out and returns the end: positional for decimal
 * exponents -4 <= e < 16, else d.ddde+XX, with ".0" on integral values. */
static char *format_double(double x, const uint64_t *table, char *out)
{
    uint64_t bits, output;
    uint32_t biased;
    int32_t exponent, n = 0, point, i;
    char digits[20];

    memcpy(&bits, &x, sizeof bits);
    biased = (uint32_t)(bits >> 52) & 0x7ff;
    if (biased == 0x7ff && (bits << 12) != 0) {
        memcpy(out, "nan", 3);
        return out + 3;
    }
    if (bits >> 63)
        *out++ = '-';
    if (biased == 0x7ff) {
        memcpy(out, "inf", 3);
        return out + 3;
    }
    if ((bits << 1) == 0) {
        memcpy(out, "0.0", 3);
        return out + 3;
    }
    output = shortest(bits & ((1ull << 52) - 1), biased, table, &exponent);
    for (; output % 10 == 0; output /= 10)
        exponent++;
    for (; output; output /= 10)
        digits[n++] = (char)('0' + output % 10);  /* least significant first */
    point = exponent + n;  /* x = 0.digits * 10^point */
    if (point < -3 || point > 16) {
        *out++ = digits[n - 1];
        if (n > 1) {
            *out++ = '.';
            for (i = n - 2; i >= 0; i--)
                *out++ = digits[i];
        }
        *out++ = 'e';
        *out++ = point - 1 < 0 ? '-' : '+';
        exponent = abs(point - 1);
        if (exponent >= 100)
            *out++ = (char)('0' + exponent / 100);
        *out++ = (char)('0' + exponent / 10 % 10);
        *out++ = (char)('0' + exponent % 10);
    } else if (point <= 0) {
        *out++ = '0';
        *out++ = '.';
        for (i = point; i < 0; i++)
            *out++ = '0';
        for (i = n - 1; i >= 0; i--)
            *out++ = digits[i];
    } else {
        for (i = n - 1; i >= 0; i--) {
            if (n - 1 - i == point)
                *out++ = '.';
            *out++ = digits[i];
        }
        if (point >= n) {
            for (i = n; i < point; i++)
                *out++ = '0';
            *out++ = '.';
            *out++ = '0';
        }
    }
    return out;
}

/* The body of an embedding text file: per row, the next token of
 * `tokens` (each ends with LF, which no token holds), a space, and the
 * row's `cols` components as repr() writes them, separated by spaces and
 * ended by LF. `out` must hold the tokens plus 25 bytes per component.
 * Returns the number of bytes written. */
int64_t driftbench_format(const double *x, int64_t rows, int64_t cols,
                          const char *tokens, const uint64_t *table, char *out)
{
    char *start = out;
    int64_t r, c;

    for (r = 0; r < rows; r++) {
        while (*tokens != '\n')
            *out++ = *tokens++;
        tokens++;
        *out++ = ' ';
        for (c = 0; c < cols; c++) {
            if (c > 0)
                *out++ = ' ';
            out = format_double(*x++, table, out);
        }
        *out++ = '\n';
    }
    return out - start;
}

/* Eisel-Lemire (Lemire 2021, "Number parsing at a gigabyte per second",
 * Software: Practice and Experience 51(8)): the double nearest w * 10^q
 * for a w of 19 digits or fewer, from one or two 64x64->128-bit products
 * with a 128-bit power of five. The table holds, as (low, high) 64-bit
 * pairs, 5^q for EL_MIN_Q <= q <= EL_MAX_Q, scaled so that bit 127 is
 * set: truncated, except floor + 1 for -27 <= q < 0. kernel.py computes
 * it with exact integers and passes it to driftbench_parse. */
#define EL_MIN_Q (-342)
#define EL_MAX_Q 308
#define EL_DIGITS 19

/* Sets *value to w * 10^q (w != 0, EL_MIN_Q <= q <= EL_MAX_Q) rounded to
 * nearest, ties to even, and returns 1; or returns 0 where it does not
 * decide: a subnormal or infinite result, or a product whose truncated
 * bits leave the rounding open. */
static int eisel_lemire(uint64_t w, int32_t q, const uint64_t *powers, double *value)
{
    const uint64_t *power = powers + 2 * (q - EL_MIN_Q);
    const int lz = __builtin_clzll(w);
    uint64_t high, low, mantissa, bits;
    int32_t exponent;
    int upper;
    u128 product;

    w <<= lz;
    product = (u128)w * power[1];
    high = (uint64_t)(product >> 64);
    low = (uint64_t)product;
    /* the result needs the top 55 bits (53, a rounding bit and one the
     * product may lack); when the 9 below them are all ones, a carry from
     * the low half of the power may reach them */
    if ((high & 0x1ff) == 0x1ff) {
        uint64_t second = (uint64_t)(((u128)w * power[0]) >> 64);
        low += second;
        high += low < second;
        if (low == UINT64_MAX && (q < -27 || q > 55))
            return 0;  /* outside these q the power itself is inexact */
    }
    upper = (int)(high >> 63);
    mantissa = high >> (upper + 9);  /* 54 bits: the double's 53 and a rounding bit */
    /* biased: floor(q log2(10)) (217706 / 2^16 is log2(10)) plus the
     * product's top bit, less the normalising shift */
    exponent = ((217706 * q) >> 16) + 63 + upper - lz + 1023;
    if (exponent <= 0)
        return 0;
    /* exactly halfway (possible only for -4 <= q <= 23): round to even */
    if (low <= 1 && q >= -4 && q <= 23 && (mantissa & 3) == 1
        && mantissa << (upper + 9) == high)
        mantissa &= ~(uint64_t)1;
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if (mantissa >> 53) {  /* rounding carried into a new bit */
        mantissa >>= 1;
        exponent++;
    }
    if (exponent >= 0x7ff)
        return 0;
    bits = (uint64_t)exponent << 52 | (mantissa & ((1ull << 52) - 1));
    memcpy(value, &bits, sizeof bits);
    return 1;
}

static int is_digit(char c) { return c >= '0' && c <= '9'; }

/* Reads the field at p, before end, into *value as float() reads it, and
 * returns the field's end, which holds sep; or returns NULL when the field
 * does not end on sep, is not a decimal [+-]?(D+(.D*)?|.D+)(e[+-]?D+)? (so
 * no 'E', hex, inf or nan, and no space) or reads as non-finite. Eisel-
 * Lemire decides all but a field of more than 19 significant digits, a
 * subnormal or overflowing one and an open rounding; strtod reads those,
 * where the check on sep keeps it inside the buffer. A field that strtod
 * reads differently from float() (another locale's decimal point) is
 * refused, so it costs time, not correctness. */
static const char *read_field(const char *p, const char *end, char sep,
                              const uint64_t *powers, double *value)
{
    const char *field = p, *digits;
    uint64_t w = 0;
    int64_t significant = 0, q = 0, e = 0;
    int negative = 0, any;

    if (p < end && (*p == '-' || *p == '+'))
        negative = *p++ == '-';
    digits = p;
    while (p < end && *p == '0')
        p++;
    for (; p < end && is_digit(*p); p++, significant++)
        w = 10 * w + (uint64_t)(*p - '0');
    any = p > digits;
    if (p < end && *p == '.') {
        const char *fraction = ++p;
        if (significant == 0)  /* zeros after the point lead too */
            while (p < end && *p == '0')
                p++;
        for (; p < end && is_digit(*p); p++, significant++)
            w = 10 * w + (uint64_t)(*p - '0');
        q = -(p - fraction);
        any |= p > fraction;
    }
    if (!any)
        return NULL;
    if (p < end && *p == 'e') {
        int minus = 0;
        p++;
        if (p < end && (*p == '-' || *p == '+'))
            minus = *p++ == '-';
        if (p == end || !is_digit(*p))
            return NULL;
        for (; p < end && is_digit(*p); p++)
            if (e < INT64_C(100000000000000000))  /* beyond any field's length */
                e = 10 * e + (*p - '0');
        q += minus ? -e : e;
    }
    if (p == end || *p != sep)
        return NULL;
    if (significant <= EL_DIGITS) {
        if (w == 0 || q < EL_MIN_Q) {  /* below half the least subnormal */
            *value = negative ? -0.0 : 0.0;
            return p;
        }
        if (q > EL_MAX_Q)
            return NULL;
        if (eisel_lemire(w, (int32_t)q, powers, value)) {
            if (negative)
                *value = -*value;
            return p;
        }
    }
    {
        char *stop;
        *value = strtod(field, &stop);
        return stop == p && isfinite(*value) ? p : NULL;
    }
}

/* Parses the `size` bytes at `body`, the body of an embedding text file,
 * into `out` (rows x cols, cols >= 1): `rows` lines, each a token of one
 * byte or more up to the first space, then `cols` fields as read_field
 * reads them, separated by spaces and ended by LF. Writes each token,
 * ended by LF, to `tokens` (which must hold `size` bytes) and their length
 * to *token_bytes. Returns -1, or the byte offset of the first token or
 * field that breaks this layout, or of any bytes after the last line; a
 * caller reads that file some other way. */
int64_t driftbench_parse(const char *body, int64_t size, int64_t rows, int64_t cols,
                         const uint64_t *powers, double *out, char *tokens,
                         int64_t *token_bytes)
{
    const char *p = body, *end = body + size;
    char *t = tokens;
    int64_t r, c;

    for (r = 0; r < rows; r++) {
        const char *row = p;
        while (p < end && *p != ' ' && *p != '\n')
            p++;
        if (p == row || p == end || *p != ' ')
            return row - body;
        memcpy(t, row, (size_t)(p - row));
        t += p - row;
        *t++ = '\n';
        for (c = 0; c < cols; c++) {
            const char *field = p + 1;
            p = read_field(field, end, c + 1 < cols ? ' ' : '\n', powers, out++);
            if (p == NULL)
                return field - body;
        }
        p++;
    }
    *token_bytes = t - tokens;
    return p == end ? -1 : p - body;
}

/* ---------------------------------------------------------------------
 * COOC and edge-list text
 */

/* Reads the field at p, before end, into *value as int() reads it, and
 * returns the field's end, which holds sep; or returns NULL when the field
 * is empty, holds a byte other than an ASCII digit, reaches 2**63, or
 * does not end on sep. */
static const char *read_int(const char *p, const char *end, char sep, int64_t *value)
{
    const char *field = p;
    uint64_t v = 0;

    for (; p < end && *p >= '0' && *p <= '9'; p++) {
        uint64_t digit = (uint64_t)(*p - '0');
        if (v > (UINT64_C(0x7fffffffffffffff) - digit) / 10)
            return NULL;
        v = v * 10 + digit;
    }
    if (p == field || p == end || *p != sep)
        return NULL;
    *value = (int64_t)v;
    return p;
}

/* The end of the token at p: the first TAB before end, or NULL where an
 * LF or the end comes first. */
static const char *token_end(const char *p, const char *end)
{
    for (; p < end && *p != '\t'; p++)
        if (*p == '\n')
            return NULL;
    return p < end ? p : NULL;
}

/* Writes v in decimal at out, as %d writes it, and returns the end. */
static char *write_int(int64_t v, char *out)
{
    char digits[20];
    int n = 0;
    uint64_t u = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;

    if (v < 0)
        *out++ = '-';
    do {
        digits[n++] = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    while (n > 0)
        *out++ = digits[--n];
    return out;
}

/* Writes `rows` lines at out and returns the number of bytes written. Each
 * line is the prefix, then one field per column (ncols <= 3), separated by
 * TABs and ended by LF. Column k holds columns[k][r] in row r, or r itself
 * where columns[k] is NULL. Where bit k of token_columns is set, that value
 * names token i of `tokens`, which spans starts[i] to starts[i + 1] - 1
 * (its LF left out), and the field is the token's bytes; otherwise the
 * field is the value in decimal. These are the lines of COOC files and
 * edge lists. */
int64_t driftbench_format_lines(const char *prefix, int64_t prefix_bytes, const char *tokens,
                                const int64_t *starts, int64_t rows, int64_t ncols,
                                int64_t token_columns, const int64_t *c0, const int64_t *c1,
                                const int64_t *c2, char *out)
{
    const int64_t *columns[3] = {c0, c1, c2};
    char *start = out;
    int64_t r, k;

    for (r = 0; r < rows; r++) {
        memcpy(out, prefix, (size_t)prefix_bytes);
        out += prefix_bytes;
        for (k = 0; k < ncols; k++) {
            int64_t value = columns[k] == NULL ? r : columns[k][r];
            if (token_columns >> k & 1) {
                int64_t bytes = starts[value + 1] - 1 - starts[value];
                memcpy(out, tokens + starts[value], (size_t)bytes);
                out += bytes;
            } else {
                out = write_int(value, out);
            }
            *out++ = k + 1 < ncols ? '\t' : '\n';
        }
    }
    return out - start;
}

/* Reads the body of a COOC v1 file, the lines after its header: `vocab`
 * lines `index TAB token TAB frequency`, the index equal to the line's
 * number from 0, the token any bytes but TAB and LF and the frequency at
 * least 1, then lines `t TAB c TAB count` in strictly increasing (t, c)
 * order with t <= c < vocab and count >= 1, each number as read_int reads
 * it. Writes the tokens, each ended by LF, to `tokens` (which must hold
 * `size` bytes), their length to *token_bytes and the frequencies to
 * freqs. The matrix is symmetric: each triple stands for (t, c) and
 * (c, t). A call with indices NULL sets indptr (vocab + 1 entries) to its
 * row starts; a second call with indices and data, sized from that indptr,
 * fills in each row's columns, ascending, and counts, and leaves indptr as
 * it found it. The cells mirrored into a row (columns below the diagonal)
 * come from triples before the row's own, so one cursor per row places
 * both in column order. Returns -1, or the byte offset of the first line
 * that breaks this layout. */
int64_t driftbench_read_cooc(const char *body, int64_t size, int64_t vocab, char *tokens,
                             int64_t *token_bytes, int64_t *freqs, int64_t *indptr,
                             int32_t *indices, int64_t *data)
{
    const char *p = body, *end = body + size;
    char *t_out = tokens;
    int64_t r, t, c, count, last_t = -1, last_c = -1;

    for (r = 0; r < vocab; r++) {
        const char *line = p, *stop;
        int64_t index;
        if ((p = read_int(p, end, '\t', &index)) == NULL || index != r
            || (stop = token_end(p + 1, end)) == NULL)
            return line - body;
        memcpy(t_out, p + 1, (size_t)(stop - p - 1));
        t_out += stop - p - 1;
        *t_out++ = '\n';
        if ((p = read_int(stop + 1, end, '\n', &freqs[r])) == NULL || freqs[r] < 1)
            return line - body;
        p++;
    }
    *token_bytes = t_out - tokens;
    if (indices == NULL)
        memset(indptr, 0, sizeof(int64_t) * (size_t)(vocab + 1));
    while (p < end) {
        const char *line = p;
        if ((p = read_int(p, end, '\t', &t)) == NULL
            || (p = read_int(p + 1, end, '\t', &c)) == NULL
            || (p = read_int(p + 1, end, '\n', &count)) == NULL
            || t > c || c >= vocab || count < 1 || t < last_t || (t == last_t && c <= last_c))
            return line - body;
        p++;
        last_t = t;
        last_c = c;
        if (indices == NULL) {  /* count each row's cells in the entry after its start */
            indptr[t + 1]++;
            if (t < c)
                indptr[c + 1]++;
        } else {  /* indptr[row] is the row's fill cursor */
            indices[indptr[t]] = (int32_t)c;
            data[indptr[t]++] = count;
            if (t < c) {
                indices[indptr[c]] = (int32_t)t;
                data[indptr[c]++] = count;
            }
        }
    }
    if (indices == NULL) {
        for (r = 0; r < vocab; r++)
            indptr[r + 1] += indptr[r];
    } else {  /* each cursor stopped at the next row's start */
        memmove(indptr + 1, indptr, sizeof(int64_t) * (size_t)vocab);
        indptr[0] = 0;
    }
    return -1;
}

/* Compares the a_bytes at a with the b_bytes at b as memcmp does, a
 * shorter prefix first: UTF-8 in this order sorts by code point. */
static int compare(const char *a, int64_t a_bytes, const char *b, int64_t b_bytes)
{
    int order = memcmp(a, b, (size_t)(a_bytes < b_bytes ? a_bytes : b_bytes));
    return order != 0 ? order : (a_bytes > b_bytes) - (a_bytes < b_bytes);
}

/* compare() of node i's token, which spans starts[i] to starts[i + 1] - 1
 * of tokens, with the `bytes` at q. */
static int compare_node(const char *tokens, const int64_t *starts, int64_t i, const char *q,
                        int64_t bytes)
{
    return compare(tokens + starts[i], starts[i + 1] - 1 - starts[i], q, bytes);
}

/* The id in [lo, nodes) of the node whose token is the `bytes` at q, or
 * -1, the node tokens being in increasing order. The search gallops
 * forward from lo (Bentley and Yao 1976), so a merge of sorted queries
 * costs the log of each step. */
static int64_t find_node(const char *tokens, const int64_t *starts, int64_t nodes, int64_t lo,
                         const char *q, int64_t bytes)
{
    int64_t hi = lo, step = 1;

    while (hi < nodes && compare_node(tokens, starts, hi, q, bytes) < 0) {
        lo = hi + 1;
        hi += step;
        step *= 2;
    }
    if (hi > nodes)
        hi = nodes;
    while (lo < hi) {  /* every node below lo holds a lesser token, none from hi on */
        int64_t mid = lo + (hi - lo) / 2;
        if (compare_node(tokens, starts, mid, q, bytes) < 0)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo < nodes && compare_node(tokens, starts, lo, q, bytes) == 0 ? lo : -1;
}

/* Reads the body of an edge list, the lines after its `# nodes: N`
 * header: `nodes` lines `# node TAB token TAB self_weight`, the tokens in
 * strictly increasing byte order, then `edges` lines `tokenA TAB tokenB TAB
 * weight` in strictly increasing (tokenA, tokenB) order, each token a
 * node's, tokenA before tokenB, the weight at least 1 and no line starting
 * with '#'; tokens are any bytes but TAB and LF, and numbers as read_int
 * reads them. Writes the node tokens, each ended by LF, to `tokens` (which
 * must hold `size` bytes), where node i's starts at starts[i] (nodes + 1
 * entries, the last the tokens' length), and the self weights to
 * self_weights. The edges go to the upper-triangular CSR arrays indptr
 * (nodes + 1 entries), indices and data (edges entries each): an edge's
 * end tokens are found by merging them with the sorted nodes, never by
 * hashing. Returns -1, or the byte offset of the first line that breaks
 * this layout or does not fit the arrays. */
int64_t driftbench_read_edge_list(const char *body, int64_t size, int64_t nodes, int64_t edges,
                                  char *tokens, int64_t *starts, int64_t *self_weights,
                                  int64_t *indptr, int32_t *indices, int64_t *data)
{
    static const char node_prefix[] = "# node\t";
    const int64_t prefix_bytes = sizeof node_prefix - 1;
    const char *p = body, *end = body + size;
    char *t_out = tokens;
    int64_t i, a = 0, b = -1, k = 0;

    for (i = 0; i < nodes; i++) {
        const char *line = p, *stop;
        if (end - p < prefix_bytes || memcmp(p, node_prefix, (size_t)prefix_bytes) != 0
            || (stop = token_end(p + prefix_bytes, end)) == NULL)
            return line - body;
        starts[i] = t_out - tokens;
        memcpy(t_out, p + prefix_bytes, (size_t)(stop - p - prefix_bytes));
        t_out += stop - p - prefix_bytes;
        *t_out++ = '\n';
        if ((i > 0 && compare_node(tokens, starts, i - 1, tokens + starts[i],
                                   t_out - 1 - tokens - starts[i]) >= 0)
            || (p = read_int(stop + 1, end, '\n', &self_weights[i])) == NULL)
            return line - body;
        p++;
    }
    starts[nodes] = t_out - tokens;
    memset(indptr, 0, sizeof(int64_t) * (size_t)(nodes + 1));
    while (p < end) {
        const char *line = p, *a_end, *b_end;
        int64_t first, second, weight;
        if (k == edges || *p == '#' || (a_end = token_end(p, end)) == NULL
            || (b_end = token_end(a_end + 1, end)) == NULL
            || (p = read_int(b_end + 1, end, '\n', &weight)) == NULL || weight < 1)
            return line - body;
        p++;
        /* tokenA is a's or a later node's; tokenB is after b's in a's row, else after tokenA */
        first = find_node(tokens, starts, nodes, a, line, a_end - line);
        if (first < 0)
            return line - body;
        second = find_node(tokens, starts, nodes, first == a && k > 0 ? b + 1 : first + 1,
                           a_end + 1, b_end - a_end - 1);
        if (second < 0)
            return line - body;
        a = first;
        b = second;
        indptr[a + 1]++;
        indices[k] = (int32_t)b;
        data[k++] = weight;
    }
    for (i = 0; i < nodes; i++)
        indptr[i + 1] += indptr[i];
    return k == edges ? -1 : size;
}

/* ---------------------------------------------------------------------
 * neighbour ranking
 */

/* Whether (score a, lexicographic rank ra) ranks before (b, rb): score
 * descending with NaN last, then rank ascending; -0.0 ties 0.0. This is
 * the order of vector_space._select, whose sort keys are -score and rank. */
static int ranks_before(double a, int64_t ra, double b, int64_t rb)
{
    if (a != a || b != b)
        return b != b && (a == a || ra < rb);
    if (a != b)
        return a > b;
    return ra < rb;
}

/* Restores the heap (score, id)[0..n-1] below position p: every entry
 * ranks after none of its children, so the last-ranked entry is at 0. */
static void sift_down(double *score, int64_t *id, const int64_t *lex_rank, int64_t n, int64_t p)
{
    double s = score[p];
    int64_t i = id[p];
    for (;;) {
        int64_t c = 2 * p + 1;
        if (c >= n)
            break;
        if (c + 1 < n && ranks_before(score[c], lex_rank[id[c]], score[c + 1], lex_rank[id[c + 1]]))
            c++;
        if (!ranks_before(s, lex_rank[i], score[c], lex_rank[id[c]]))
            break;
        score[p] = score[c];
        id[p] = id[c];
        p = c;
    }
    score[p] = s;
    id[p] = i;
}

/* For each of the `queries` rows of `scores` (queries x vocab), the ids
 * and scores of its k best candidates, best first, in ranks_before order,
 * to ids and top (queries x k). Row q leaves out the n_exclude ids at
 * exclude[q * n_exclude ..], each in [0, vocab); k must not exceed the
 * candidates left. Where norms is not NULL, candidate i of row q scores
 * scores[q][i] / (norms[i] * qnorms[q]), the IEEE operations of the numpy
 * division. One pass keeps the k best in a heap whose root is the one
 * that ranks last. Returns 0, or -1 when scratch memory cannot be
 * allocated. */
int driftbench_select(const double *scores, int64_t queries, int64_t vocab,
                      const double *norms, const double *qnorms,
                      const int64_t *exclude, int64_t n_exclude,
                      const int64_t *lex_rank, int64_t k, int64_t *ids, double *top)
{
    unsigned char *left_out = calloc((size_t)vocab + 1, 1);
    int64_t q, i, n, worst_rank = 0;
    double worst = 0.0;  /* the score and lex_rank of the heap's root */

    if (left_out == NULL)
        return -1;
    for (q = 0; q < queries; q++) {
        const double *row = scores + q * vocab;
        const int64_t *drop = exclude + q * n_exclude;
        double *hs = top + q * k;
        int64_t *hi = ids + q * k;

        for (i = 0; i < n_exclude; i++)
            left_out[drop[i]] = 1;
        n = 0;
        for (i = 0; i < vocab; i++) {
            double s;
            if (left_out[i])
                continue;
            s = norms == NULL ? row[i] : row[i] / (norms[i] * qnorms[q]);
            if (n < k) {
                hs[n] = s;
                hi[n++] = i;
                if (n == k)
                    for (int64_t p = k / 2 - 1; p >= 0; p--)
                        sift_down(hs, hi, lex_rank, k, p);
            } else if (!(s < worst) && ranks_before(s, lex_rank[i], worst, worst_rank)) {
                hs[0] = s;
                hi[0] = i;
                sift_down(hs, hi, lex_rank, k, 0);
            } else {
                continue;  /* most entries: a score below the root's ranks after it */
            }
            worst = hs[0];
            worst_rank = lex_rank[hi[0]];
        }
        for (i = 0; i < n_exclude; i++)
            left_out[drop[i]] = 0;
        /* heapsort: the last-ranked entry goes to the end, and so on */
        for (n = k - 1; n > 0; n--) {
            double s = hs[0];
            int64_t id = hi[0];
            hs[0] = hs[n];
            hi[0] = hi[n];
            hs[n] = s;
            hi[n] = id;
            sift_down(hs, hi, lex_rank, n, 0);
        }
    }
    free(left_out);
    return 0;
}

/* y = A x for the CSR matrix A (rows x n: indptr, indices, data) and the
 * dense x (n x k), y being rows x k, both row-major. Each y[i][j] starts
 * at 0.0 and adds data[p] * x[indices[p]][j] over row i's entries p in
 * index order: the order of scipy's csr_matvec and csr_matvecs, so a
 * score has their bits. The k lanes of a row are independent sums. */
void driftbench_csr_dot(const int64_t *indptr, const int32_t *indices, const double *data,
                        int64_t rows, const double *x, int64_t k, double *y)
{
    for (int64_t i = 0; i < rows; i++) {
        double *yi = y + i * k;
        memset(yi, 0, (size_t)k * sizeof *yi);
        for (int64_t p = indptr[i]; p < indptr[i + 1]; p++)
            add_scaled(yi, data[p], x + (int64_t)indices[p] * k, k);
    }
}

/* ---------------------------------------------------------------------
 * tokenization
 */

/* [A-Za-z0-9]: the ASCII bytes of corpus._TOKEN_RE's runs */
static int is_word_byte(unsigned char c)
{
    return (unsigned char)((c | 0x20) - 'a') < 26 || (unsigned char)(c - '0') < 10;
}

/* Doubles an open-addressing table of `slots` slots, reinserting each
 * occupied slot's type id by its stored hash. Returns the new slot count,
 * or 0 when memory cannot be allocated (the old table is kept). */
static int64_t grow_slots(uint64_t **hashes, int32_t **slot_ids, int64_t slots)
{
    int64_t bigger = 2 * slots, i, j;
    uint64_t *h = malloc(sizeof(uint64_t) * (size_t)bigger);
    int32_t *id = malloc(sizeof(int32_t) * (size_t)bigger);

    if (h == NULL || id == NULL) {
        free(h);
        free(id);
        return 0;
    }
    memset(id, 0xff, sizeof(int32_t) * (size_t)bigger);  /* -1: empty */
    for (i = 0; i < slots; i++) {
        if ((*slot_ids)[i] < 0)
            continue;
        for (j = (int64_t)((*hashes)[i] & (uint64_t)(bigger - 1)); id[j] >= 0; j = (j + 1) & (bigger - 1))
            ;
        h[j] = (*hashes)[i];
        id[j] = (*slot_ids)[i];
    }
    free(*hashes);
    free(*slot_ids);
    *hashes = h;
    *slot_ids = id;
    return bigger;
}

/* The tokens of corpus.tokenize in the ASCII text (size bytes), in one
 * pass: each maximal run of [A-Za-z0-9], lowercased, joined with the next
 * run across one ' or - that sits between the two. Each token is hashed
 * over its bytes (FNV-1a; equal hashes are compared by length and
 * memcmp) to a type id, the types numbered in first-seen order, as
 * word2vec's ReadWord and AddWordToVocab build a vocabulary (Mikolov et al.
 * 2013). Writes each token's type id to ids, which must hold (size + 1) /
 * 2 entries, and the distinct types, each ended by LF, to types, which
 * must hold size + 1 bytes: a token lies in the text and a separator
 * follows all but the last. A token is written at the end of types while
 * it is read, so no token is too long, and is kept there only when it is
 * new. The table starts small and doubles to stay at most half full.
 * Returns the number of tokens and sets sizes[0] to the number of types
 * and sizes[1] to the bytes of types; or returns -1 when memory cannot be
 * allocated. */
int64_t driftbench_encode(const unsigned char *text, int64_t size, int32_t *ids, char *types,
                          int64_t *sizes)
{
    int64_t slots = 1024, capacity = 1024, ntypes = 0, ntokens = 0, used = 0, p = 0, result = -1;
    uint64_t *hashes = malloc(sizeof(uint64_t) * (size_t)slots);
    int32_t *slot_ids = malloc(sizeof(int32_t) * (size_t)slots);
    /* type t is types[starts[t] .. starts[t + 1] - 2], then its LF */
    int64_t *starts = malloc(sizeof(int64_t) * (size_t)(capacity + 1));

    if (hashes == NULL || slot_ids == NULL || starts == NULL)
        goto done;
    memset(slot_ids, 0xff, sizeof(int32_t) * (size_t)slots);  /* -1: empty */
    starts[0] = 0;
    while (p < size) {
        char *token = types + used;
        uint64_t h = UINT64_C(14695981039346656037);
        int64_t n = 0, i;

        if (!is_word_byte(text[p])) {
            p++;
            continue;
        }
        for (;;) {
            for (; p < size && is_word_byte(text[p]); p++) {
                unsigned char c = text[p] | 0x20;  /* digits have the bit already */
                token[n++] = (char)c;
                h = (h ^ c) * UINT64_C(1099511628211);
            }
            if (p + 1 >= size || (text[p] != '\'' && text[p] != '-') || !is_word_byte(text[p + 1]))
                break;
            token[n++] = (char)text[p];
            h = (h ^ text[p]) * UINT64_C(1099511628211);
            p++;
        }
        for (i = (int64_t)(h & (uint64_t)(slots - 1)); slot_ids[i] >= 0; i = (i + 1) & (slots - 1)) {
            int32_t t = slot_ids[i];
            if (hashes[i] == h && starts[t + 1] - 1 - starts[t] == n
                    && memcmp(types + starts[t], token, (size_t)n) == 0)
                break;
        }
        if (slot_ids[i] < 0) {  /* a new type: keep its bytes */
            if (ntypes == capacity) {
                int64_t *bigger = realloc(starts, sizeof(int64_t) * (size_t)(2 * capacity + 1));
                if (bigger == NULL)
                    goto done;
                starts = bigger;
                capacity *= 2;
            }
            used += n;
            types[used++] = '\n';
            starts[ntypes + 1] = used;
            hashes[i] = h;
            slot_ids[i] = (int32_t)ntypes++;
        }
        ids[ntokens++] = slot_ids[i];
        if (2 * ntypes > slots && (slots = grow_slots(&hashes, &slot_ids, slots)) == 0)
            goto done;
    }
    sizes[0] = ntypes;
    sizes[1] = used;
    result = ntokens;
done:
    free(hashes);
    free(slot_ids);
    free(starts);
    return result;
}

/* ---------------------------------------------------------------------
 * co-occurrence counting
 */

static int by_column(const void *a, const void *b)
{
    int32_t x = *(const int32_t *)a, y = *(const int32_t *)b;
    return (x > y) - (x < y);
}

/* Adds one to column c of row t's accumulator, which holds nt columns,
 * unless c is out of vocabulary; returns the number of columns it holds
 * then. */
static int64_t accumulate(int64_t c, int64_t t, int64_t *mark, int64_t *count,
                          int32_t *touched, int64_t nt)
{
    if (c < 0)
        return nt;
    if (mark[c] != t) {
        mark[c] = t;
        count[c] = 0;
        touched[nt++] = (int32_t)c;
    }
    count[c]++;
    return nt;
}

/* The counts of count_model.count_cooccurrences as a CSR matrix (vocab x
 * vocab): entry (t, c) counts the position pairs (p, q) with 0 < |p - q|
 * <= radius and no BOUNDARY between them, ids[p] == t and ids[q] == c, so
 * the matrix is symmetric. `ids` has the layout of corpus._window_ids:
 * vocabulary ids, -1 out of vocabulary, with a BOUNDARY before each
 * document and after the last, where every walk from a token stops, so no
 * window crosses a document or the array's ends.
 *
 * Row by row, with a sparse accumulator in the manner of Gustavson (1978,
 * ACM TOMS): a counting sort lists each word's positions, and vocab marks
 * and counts, reused for every row, sum the in-window neighbours of the
 * row's occurrences. Scratch memory grows with the tokens and the
 * vocabulary, never with tokens x radius. Every call fills indptr (vocab +
 * 1 entries). Where indices is not NULL, it also writes each row's
 * columns, ascending, and their counts to indices and data from
 * indptr[t]: a first call without them sizes the arrays of a second.
 * Returns 0, or -1 when scratch memory cannot be allocated. */
int driftbench_cooccur(const int64_t *ids, int64_t n, int64_t vocab, int64_t radius,
                       int64_t *indptr, int32_t *indices, int64_t *data)
{
    int64_t *first = calloc((size_t)vocab + 1, sizeof(int64_t));
    int64_t *mark = malloc(sizeof(int64_t) * ((size_t)vocab + 1));
    int64_t *count = malloc(sizeof(int64_t) * ((size_t)vocab + 1));
    int32_t *touched = malloc(sizeof(int32_t) * ((size_t)vocab + 1));
    int64_t *pos = NULL;
    int64_t p, t, i, o;
    int status = -1;

    if (first == NULL || mark == NULL || count == NULL || touched == NULL)
        goto done;
    for (p = 0; p < n; p++)
        if (ids[p] >= 0)
            first[ids[p] + 1]++;
    for (t = 0; t < vocab; t++)
        first[t + 1] += first[t];  /* word t's positions are pos[first[t] ..] */
    pos = malloc(sizeof(int64_t) * ((size_t)first[vocab] + 1));
    if (pos == NULL)
        goto done;
    memcpy(mark, first, sizeof(int64_t) * (size_t)vocab);  /* the fill cursor of each word */
    for (p = 0; p < n; p++)
        if (ids[p] >= 0)
            pos[mark[ids[p]]++] = p;
    for (t = 0; t < vocab; t++)
        mark[t] = -1;  /* mark[c] == t: column c is in row t's accumulator */

    indptr[0] = 0;
    for (t = 0; t < vocab; t++) {
        int64_t nt = 0;
        for (i = first[t]; i < first[t + 1]; i++) {
            const int64_t *at = ids + pos[i];
            for (o = 1; o <= radius && at[-o] != BOUNDARY; o++)
                nt = accumulate(at[-o], t, mark, count, touched, nt);
            for (o = 1; o <= radius && at[o] != BOUNDARY; o++)
                nt = accumulate(at[o], t, mark, count, touched, nt);
        }
        indptr[t + 1] = indptr[t] + nt;
        if (indices == NULL)
            continue;
        qsort(touched, (size_t)nt, sizeof *touched, by_column);
        for (i = 0; i < nt; i++) {
            indices[indptr[t] + i] = touched[i];
            data[indptr[t] + i] = count[touched[i]];
        }
    }
    status = 0;
done:
    free(first);
    free(mark);
    free(count);
    free(touched);
    free(pos);
    return status;
}
