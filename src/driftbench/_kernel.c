/* The two loops of driftbench that numpy cannot batch: an SGD epoch of
 * the trainer (driftbench_sgd) and the sweeps of the Jacobi SVD
 * (driftbench_jacobi). Each does its arithmetic in the same order as the
 * numpy path it replaces, except that dot products and sums run
 * sequentially where numpy calls BLAS or sums pairwise, so results agree
 * with it to the last few bits. Build it with -ffp-contract=off and
 * without fast-math so that every run of the same build gives the same
 * bits.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

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

    for (j = 0; j < d; j++)
        h[j] = m->w_in[ctx[0] * d + j];
    for (i = 1; i < n; i++)
        for (j = 0; j < d; j++)
            h[j] += m->w_in[ctx[i] * d + j];
    for (j = 0; j < d; j++)
        h[j] /= (double)n;

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
    for (i = 0; i < nrows; i++) {
        const double *row = m->w_out + m->rows[i] * d;
        for (j = 0; j < d; j++)
            grad_h[j] += scores[i] * row[j];
    }
    /* repeated rows are updated one after another, as np.subtract.at does */
    for (i = 0; i < nrows; i++) {
        double *row = m->w_out + m->rows[i] * d;
        double a = lr * scores[i];
        for (j = 0; j < d; j++)
            row[j] -= a * h[j];
    }
    for (j = 0; j < d; j++)
        grad_h[j] *= lr / (double)n;  /* (lr / len(ctx)) * grad_h */
    for (i = 0; i < n; i++) {
        double *row = m->w_in + ctx[i] * d;
        for (j = 0; j < d; j++)
            row[j] -= grad_h[j];
    }
    return loss;
}

/* One CBOW or skip-gram SGD pass over a range of window positions.
 *
 * This is the per-sample loop of trainer._sample_loss_grads and
 * trainer._apply_step in C, in the style of word2vec.c (Mikolov et al.
 * 2013): one sample at a time, over noise words drawn beforehand.
 *
 * `ids` holds every document's vocabulary ids (-1 for out-of-vocabulary
 * tokens) with `radius` -1 entries before each document and after the
 * last, so ids[p - radius .. p + radius] is in bounds for every token and
 * windows never cross documents. Positions start..stop-1 are trained, in
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
        int64_t target = ids[p], n = 0, samples;
        if (target < 0)
            continue;
        for (o = -radius; o <= radius; o++)
            if (o != 0 && ids[p + o] >= 0)
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

/* x, y = c*x - s*y, s*x + c*y elementwise; two elements per step so that
 * the compiler can pair them in one vector instruction */
static void rotate(double *restrict x, double *restrict y, int64_t len, double c, double s)
{
    int64_t i;
    for (i = 0; i + 2 <= len; i += 2) {
        double x0 = x[i], x1 = x[i + 1], y0 = y[i], y1 = y[i + 1];
        x[i] = c * x0 - s * y0;
        x[i + 1] = c * x1 - s * y1;
        y[i] = s * x0 + c * y0;
        y[i + 1] = s * x1 + c * y1;
    }
    for (; i < len; i++) {
        double x0 = x[i], y0 = y[i];
        x[i] = c * x0 - s * y0;
        y[i] = s * x0 + c * y0;
    }
}

/* The sweeps of stability.jacobi_svd: one-sided Jacobi rotations
 * (Hestenes 1958) of the columns of a, accumulated into v, in cyclic
 * order by rows (p < q), until a sweep rotates no pair.
 *
 * `at` is a transposed: d rows of n, so each column of a is a contiguous
 * row; `vt` is v transposed, d rows of d. A pair is skipped when
 * |apq| <= tol * sqrt(app * aqq) or when app * aqq underflows to 0; apq,
 * app and aqq come from one pass over the two columns, each a sequential
 * sum in index order.
 *
 * Returns the number of sweeps done, the last one rotating nothing, or -1
 * when each of max_sweeps sweeps rotated some pair.
 */
int driftbench_jacobi(double *at, double *vt, int64_t n, int64_t d,
                      double tol, int64_t max_sweeps)
{
    int64_t sweep, p, q, i;

    for (sweep = 1; sweep <= max_sweeps; sweep++) {
        int rotated = 0;
        for (p = 0; p < d - 1; p++) {
            for (q = p + 1; q < d; q++) {
                double *ap = at + p * n, *aq = at + q * n;
                double *vp = vt + p * d, *vq = vt + q * d;
                double apq = 0.0, app = 0.0, aqq = 0.0, theta, c, s;
                for (i = 0; i < n; i++) {
                    apq += ap[i] * aq[i];
                    app += ap[i] * ap[i];
                    aqq += aq[i] * aq[i];
                }
                if (fabs(apq) <= tol * sqrt(app * aqq) || app * aqq == 0.0)
                    continue;
                theta = 0.5 * atan2(2.0 * apq, aqq - app);
                c = cos(theta);
                s = sin(theta);
                rotate(ap, aq, n, c, s);
                rotate(vp, vq, d, c, s);
                rotated = 1;
            }
        }
        if (!rotated)
            return (int)sweep;
    }
    return -1;
}
