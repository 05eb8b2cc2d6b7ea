"""cffi build recipe for the ``repro._native`` split-scoring extension.

The C core replicates the NumPy scoring path *operation for operation* so
that its results are bit-identical (see ``docs/ALGORITHMS.md`` §13):

* the stable log-sigmoid chain ``t = log1p(exp(-|z|));
  where(z > 0, -t, z - t)`` is evaluated through the **same transcendental
  code NumPy itself dispatches to** — on AVX-512 machines NumPy's
  ``_multiarray_umath`` shared object exports its bundled Intel SVML
  kernels (``__svml_exp8_ha`` / ``__svml_log1p8_ha`` / ``__svml_log8_ha``),
  which ``repro_native_init`` resolves with ``dlopen``/``dlsym`` and calls
  eight lanes at a time; the scalar-libm provider covers builds where NumPy
  itself routes through libm;
* row reduction uses NumPy's pairwise-summation algorithm (blocks of eight
  with eight partial accumulators, halving recursion above 128 elements);
* quantization is C ``rint`` (round-half-even), the exact semantics of
  ``np.round`` at ``decimals=0``;
* negation and absolute value are sign-bit flips/masks, matching
  ``np.negative`` / ``np.abs`` on signed zeros;
* ``repro_score_chain`` replays ``SplitScorer._run_chain`` over
  ``LazySplitKernel.scores`` step for step — same lookups, same memo
  updates, same accept test (``np.log`` through the provider above) — so
  the hit / evaluation / peak counters come out equal too;
* grouped sufficient statistics replicate ``np.bincount`` (sequential
  accumulation in index order) and ``.sum(axis=0)`` (sequential row
  accumulation for multi-column arrays, pairwise for the single-column
  case, which NumPy reduces as a contiguous vector).

Used two ways: ``setup.py`` consumes ``ffibuilder`` for an ahead-of-time
extension build when ``REPRO_BUILD_NATIVE`` is set, and
``repro._native.load`` compiles the same recipe on demand into a cache
directory when no prebuilt module exists.  Either way the loader certifies
the compiled code against NumPy on a probe battery before it is ever used.
"""

from __future__ import annotations

from cffi import FFI

ffibuilder = FFI()

CDEF = """
int repro_native_init(const char *umath_path, int want_svml);
int repro_native_provider(void);
int repro_eval_chunk(const double *group_value, const int64_t *group_row,
                     int64_t n_rows, const double *values, int64_t n_obs,
                     const double *sign, double beta, double quantum,
                     double *out);
int repro_score_chain(const double *values, int64_t n_obs, const double *sign,
                      const int64_t *group_row, const double *group_value,
                      const double *beta_grid, int64_t n_beta,
                      const int64_t *groups, int64_t n_items,
                      const double *uniforms, int64_t draws_per_item,
                      int64_t max_steps, int64_t stop_repeats,
                      int64_t chunk_rows, double quantum, double *cache,
                      uint8_t *seen, double *best_score, int64_t *steps,
                      int64_t *best_idx, int64_t *counters);
int repro_grouped_1d(const double *vals, int64_t n, const int64_t *labels,
                     int64_t n_groups, double *count, double *total,
                     double *sumsq);
int repro_grouped_2d(const double *vals, int64_t rows, int64_t cols,
                     const int64_t *labels, int64_t n_groups, double *count,
                     double *total, double *sumsq);
int repro_log_marginal(const double *n, const double *s, const double *q,
                       const double *lgam_alpha_n, int64_t size, double mu0,
                       double lambda0, double alpha0, double beta0,
                       double log_lambda0, double log_beta0,
                       double lgamma_alpha0, double log_2pi, double *out);
"""

CSOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(REPRO_NO_AVX512)
#define REPRO_HAVE_AVX512 1
#include <dlfcn.h>
#include <immintrin.h>
#endif

static int use_svml = 0;

#if REPRO_HAVE_AVX512
typedef __m512d (*svml8_fn)(__m512d);
static svml8_fn p_exp8, p_log1p8, p_log8;

/* The stable log-sigmoid over one margin row, eight lanes at a time via
 * the SVML kernels NumPy's own exp/log1p loops call.  Negation and abs
 * are sign-bit ops so signed zeros match np.negative/np.abs exactly; the
 * where(z > 0, ...) select uses an ordered compare (NaN -> false), the
 * semantics of np.greater. */
__attribute__((target("avx512f")))
static void row_fill_svml(double gv, const double *vrow, const double *sgn,
                          double beta, double *row, int64_t n)
{
    const __m512d vgv = _mm512_set1_pd(gv);
    const __m512d vbeta = _mm512_set1_pd(beta);
    const __m512d zero = _mm512_setzero_pd();
    const __m512i sbit = _mm512_set1_epi64((int64_t)0x8000000000000000ULL);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512d v = _mm512_loadu_pd(vrow + i);
        __m512d s = _mm512_loadu_pd(sgn + i);
        __m512d z = _mm512_mul_pd(_mm512_mul_pd(_mm512_sub_pd(vgv, v), s),
                                  vbeta);
        __m512d naz = _mm512_castsi512_pd(
            _mm512_or_si512(_mm512_castpd_si512(z), sbit)); /* -|z| */
        __m512d t = p_log1p8(p_exp8(naz));
        __mmask8 pos = _mm512_cmp_pd_mask(z, zero, _CMP_GT_OQ);
        __m512d neg_t = _mm512_castsi512_pd(
            _mm512_xor_si512(_mm512_castpd_si512(t), sbit));
        __m512d res = _mm512_mask_blend_pd(pos, _mm512_sub_pd(z, t), neg_t);
        _mm512_storeu_pd(row + i, res);
    }
    if (i < n) {
        __mmask8 m = (__mmask8)((1u << (n - i)) - 1u);
        __m512d v = _mm512_maskz_loadu_pd(m, vrow + i);
        __m512d s = _mm512_maskz_loadu_pd(m, sgn + i);
        __m512d z = _mm512_mul_pd(_mm512_mul_pd(_mm512_sub_pd(vgv, v), s),
                                  vbeta);
        __m512d naz = _mm512_castsi512_pd(
            _mm512_or_si512(_mm512_castpd_si512(z), sbit));
        __m512d t = p_log1p8(p_exp8(naz));
        __mmask8 pos = _mm512_cmp_pd_mask(z, zero, _CMP_GT_OQ);
        __m512d neg_t = _mm512_castsi512_pd(
            _mm512_xor_si512(_mm512_castpd_si512(t), sbit));
        __m512d res = _mm512_mask_blend_pd(pos, _mm512_sub_pd(z, t), neg_t);
        _mm512_mask_storeu_pd(row + i, m, res);
    }
}

/* np.log via __svml_log8_ha, in place, masked tail. */
__attribute__((target("avx512f")))
static void apply_log_svml(double *x, int64_t n)
{
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm512_storeu_pd(x + i, p_log8(_mm512_loadu_pd(x + i)));
    if (i < n) {
        __mmask8 m = (__mmask8)((1u << (n - i)) - 1u);
        __m512d v = _mm512_maskz_loadu_pd(m, x + i);
        _mm512_mask_storeu_pd(x + i, m, p_log8(v));
    }
}
#endif

static void row_fill_scalar(double gv, const double *vrow, const double *sgn,
                            double beta, double *row, int64_t n)
{
    int64_t i;
    for (i = 0; i < n; i++) {
        double z = ((gv - vrow[i]) * sgn[i]) * beta;
        double t = log1p(exp(-fabs(z)));
        row[i] = (z > 0.0) ? -t : z - t;
    }
}

static void apply_log(double *x, int64_t n)
{
    int64_t i;
#if REPRO_HAVE_AVX512
    if (use_svml) {
        apply_log_svml(x, n);
        return;
    }
#endif
    for (i = 0; i < n; i++)
        x[i] = log(x[i]);
}

/* NumPy's pairwise summation of a contiguous row (numpy/_core/src/umath/
 * loops_utils.h.src semantics): plain accumulation below 8 elements, 8
 * partial accumulators up to 128, then halving recursion with the split
 * point rounded down to a multiple of 8. */
static double pw_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        int64_t i;
        for (i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (i = 0; i < 8; i++)
            r[i] = a[i];
        for (i = 8; i + 8 <= n; i += 8) {
            r[0] += a[i];
            r[1] += a[i + 1];
            r[2] += a[i + 2];
            r[3] += a[i + 3];
            r[4] += a[i + 4];
            r[5] += a[i + 5];
            r[6] += a[i + 6];
            r[7] += a[i + 7];
        }
        {
            double res = ((r[0] + r[1]) + (r[2] + r[3]))
                       + ((r[4] + r[5]) + (r[6] + r[7]));
            for (; i < n; i++)
                res += a[i];
            return res;
        }
    }
    {
        int64_t n2 = n / 2;
        n2 -= n2 % 8;
        return pw_sum(a, n2) + pw_sum(a + n2, n - n2);
    }
}

int repro_native_init(const char *umath_path, int want_svml)
{
    if (want_svml) {
#if REPRO_HAVE_AVX512
        void *handle;
        if (!__builtin_cpu_supports("avx512f"))
            return -3;
        handle = dlopen(umath_path, RTLD_NOW | RTLD_LOCAL);
        if (!handle)
            return -1;
        p_exp8 = (svml8_fn)dlsym(handle, "__svml_exp8_ha");
        p_log1p8 = (svml8_fn)dlsym(handle, "__svml_log1p8_ha");
        p_log8 = (svml8_fn)dlsym(handle, "__svml_log8_ha");
        if (!p_exp8 || !p_log1p8 || !p_log8) {
            dlclose(handle);
            return -2;
        }
        use_svml = 1;
        return 1;
#else
        return -4;
#endif
    }
    use_svml = 0;
    return 0;
}

int repro_native_provider(void)
{
    return use_svml;
}

/* One (group, beta) score: z = ((gv - values_row[o]) * sign[o]) * beta,
 * stable log-sigmoid, pairwise row sum, round-half-even quantization. */
static double row_score(double gv, const double *vrow, const double *sgn,
                        double beta, double quantum, double *row, int64_t n)
{
#if REPRO_HAVE_AVX512
    if (use_svml)
        row_fill_svml(gv, vrow, sgn, beta, row, n);
    else
#endif
        row_fill_scalar(gv, vrow, sgn, beta, row, n);
    return rint(pw_sum(row, n) / quantum) * quantum;
}

/* The LazySplitKernel._evaluate chunk body for one same-beta chunk. */
int repro_eval_chunk(const double *group_value, const int64_t *group_row,
                     int64_t n_rows, const double *values, int64_t n_obs,
                     const double *sign, double beta, double quantum,
                     double *out)
{
    double *row;
    int64_t r;
    row = (double *)malloc((size_t)(n_obs > 0 ? n_obs : 1) * sizeof(double));
    if (!row)
        return -1;
    for (r = 0; r < n_rows; r++)
        out[r] = row_score(group_value[r], values + group_row[r] * n_obs,
                           sign, beta, quantum, row, n_obs);
    free(row);
    return 0;
}

/* A memo slot is published cache-then-seen: the score is written first and
 * the seen flag stored with release semantics; readers load the flag with
 * acquire semantics before touching the score.  Two threads that adopted
 * the same shared-cache entry may both evaluate a slot (same deterministic
 * value, benign); neither can read a seen-but-unwritten score.  (GCC/clang
 * builtins, like the toolchains the loader looks for; anything else fails
 * the build and the loader falls back to NumPy.) */
#define SEEN_ACQUIRE(p) __atomic_load_n((p), __ATOMIC_ACQUIRE)
#define SEEN_RELEASE(p) __atomic_store_n((p), (uint8_t)1, __ATOMIC_RELEASE)

typedef struct {
    const double *values, *sign, *group_value, *beta_grid;
    const int64_t *group_row, *groups;
    int64_t n_obs, n_beta, chunk_rows;
    double quantum;
    double *cache, *row;
    uint8_t *seen, *miss;
    int64_t *flat, *per_beta;
    int64_t hits, evaluations, peak;
} chain_ctx;

/* LazySplitKernel.scores for the k chain items act[0..k) at beta indices
 * bidx[0..k): hits are counted against the memo as it stood when the
 * lookup began (a duplicate key inside one lookup is a miss for every
 * holder, as in ~seen[flat]), the distinct missing keys are evaluated
 * once each, and peak tracks the largest same-beta chunk _evaluate would
 * have allocated (min(keys at that beta, chunk_rows) rows of n_obs). */
static void chain_lookup(chain_ctx *c, const int64_t *act, int64_t k,
                         const int64_t *bidx, double *score)
{
    int64_t j, b, n_miss = 0;
    for (j = 0; j < k; j++) {
        int64_t key = c->groups[act[j]] * c->n_beta + bidx[j];
        c->flat[j] = key;
        c->miss[j] = !SEEN_ACQUIRE(c->seen + key);
        n_miss += c->miss[j];
    }
    c->hits += k - n_miss;
    if (n_miss) {
        memset(c->per_beta, 0, (size_t)c->n_beta * sizeof(int64_t));
        for (j = 0; j < k; j++) {
            int64_t key = c->flat[j], g;
            if (!c->miss[j] || SEEN_ACQUIRE(c->seen + key))
                continue;
            g = key / c->n_beta;
            b = key % c->n_beta;
            c->cache[key] = row_score(
                c->group_value[g], c->values + c->group_row[g] * c->n_obs,
                c->sign, c->beta_grid[b], c->quantum, c->row, c->n_obs);
            SEEN_RELEASE(c->seen + key);
            c->per_beta[b]++;
            c->evaluations++;
        }
        for (b = 0; b < c->n_beta; b++) {
            int64_t rows = c->per_beta[b] < c->chunk_rows ? c->per_beta[b]
                                                          : c->chunk_rows;
            if (rows * c->n_obs > c->peak)
                c->peak = rows * c->n_obs;
        }
    }
    for (j = 0; j < k; j++)
        score[j] = c->cache[c->flat[j]];
}

/* SplitScorer._run_chain over a LazySplitKernel's tables, whole node in
 * one call.  The chain stays step-synchronous (every active item takes
 * step s before any takes s + 1) because the memo counters depend on the
 * order of lookups; scores and accept decisions would not.  cache/seen are
 * the kernel's own memo, updated in place.  counters = {hits, evaluations,
 * peak_chunk_elements}.  Returns -1 on allocation failure, -3 when a start
 * uniform is negative or NaN (not a draw from [0, 1)). */
int repro_score_chain(const double *values, int64_t n_obs, const double *sign,
                      const int64_t *group_row, const double *group_value,
                      const double *beta_grid, int64_t n_beta,
                      const int64_t *groups, int64_t n_items,
                      const double *uniforms, int64_t draws_per_item,
                      int64_t max_steps, int64_t stop_repeats,
                      int64_t chunk_rows, double quantum, double *cache,
                      uint8_t *seen, double *best_score, int64_t *steps,
                      int64_t *best_idx, int64_t *counters)
{
    chain_ctx c;
    int64_t *ibuf, *act, *cur_idx, *rejects, *prop;
    double *dbuf, *cur_score, *prop_score, *log_u;
    int64_t i, j, k, step;
    int rc = 0;
    size_t n = (size_t)(n_items > 0 ? n_items : 1);

    ibuf = (int64_t *)calloc(5 * n + (size_t)n_beta, sizeof(int64_t));
    dbuf = (double *)malloc(
        (3 * n + (size_t)(n_obs > 0 ? n_obs : 1)) * sizeof(double));
    c.miss = (uint8_t *)malloc(n);
    if (!ibuf || !dbuf || !c.miss) {
        free(ibuf);
        free(dbuf);
        free(c.miss);
        return -1;
    }
    act = ibuf;
    cur_idx = ibuf + n;
    rejects = ibuf + 2 * n;
    prop = ibuf + 3 * n;
    c.flat = ibuf + 4 * n;
    c.per_beta = ibuf + 5 * n;
    cur_score = dbuf;
    prop_score = dbuf + n;
    log_u = dbuf + 2 * n;
    c.row = dbuf + 3 * n;
    c.values = values;
    c.sign = sign;
    c.group_value = group_value;
    c.beta_grid = beta_grid;
    c.group_row = group_row;
    c.groups = groups;
    c.n_obs = n_obs;
    c.n_beta = n_beta;
    c.chunk_rows = chunk_rows;
    c.quantum = quantum;
    c.cache = cache;
    c.seen = seen;
    c.hits = c.evaluations = c.peak = 0;

    for (i = 0; i < n_items; i++) {
        /* min((u * n_beta).astype(int64), n_beta - 1) */
        int64_t idx = (int64_t)(uniforms[i * draws_per_item] * (double)n_beta);
        if (idx > n_beta - 1)
            idx = n_beta - 1;
        if (idx < 0) {
            rc = -3;
            goto done;
        }
        cur_idx[i] = idx;
        act[i] = i;
        steps[i] = 0;
    }
    chain_lookup(&c, act, n_items, cur_idx, cur_score);
    for (i = 0; i < n_items; i++) {
        best_score[i] = cur_score[i];
        best_idx[i] = cur_idx[i];
    }

    k = n_items;
    for (step = 0; step < max_steps && k > 0; step++) {
        int64_t kept = 0;
        for (j = 0; j < k; j++) {
            const double *u = uniforms + act[j] * draws_per_item + 1 + 2 * step;
            int64_t p = cur_idx[act[j]] + (u[0] < 0.5 ? -1 : 1);
            if (p < 0)
                p = 1;
            if (p >= n_beta)
                p = n_beta - 2;
            prop[j] = p;
            /* np.maximum(u_acc, 1e-300): NaN propagates */
            log_u[j] = (u[1] != u[1] || u[1] > 1e-300) ? u[1] : 1e-300;
        }
        chain_lookup(&c, act, k, prop, prop_score);
        apply_log(log_u, k);
        for (j = 0; j < k; j++) {
            i = act[j];
            steps[i]++;
            if (log_u[j] < prop_score[j] - cur_score[i]) {
                cur_idx[i] = prop[j];
                cur_score[i] = prop_score[j];
                rejects[i] = 0;
                if (cur_score[i] > best_score[i]) {
                    best_score[i] = cur_score[i];
                    best_idx[i] = cur_idx[i];
                }
                act[kept++] = i;
            } else if (++rejects[i] < stop_repeats) {
                act[kept++] = i;
            }
        }
        k = kept;
    }
    for (i = 0; i < n_items; i++)
        best_score[i] = rint(best_score[i] / quantum) * quantum;
    counters[0] = c.hits;
    counters[1] = c.evaluations;
    counters[2] = c.peak;
done:
    free(ibuf);
    free(dbuf);
    free(c.miss);
    return rc;
}

/* StatsArrays.grouped, 1-D: three np.bincount passes fused into one.
 * bincount accumulates sequentially in index order, which interleaving
 * the three accumulators preserves per accumulator. */
int repro_grouped_1d(const double *vals, int64_t n, const int64_t *labels,
                     int64_t n_groups, double *count, double *total,
                     double *sumsq)
{
    int64_t i;
    memset(count, 0, (size_t)n_groups * sizeof(double));
    memset(total, 0, (size_t)n_groups * sizeof(double));
    memset(sumsq, 0, (size_t)n_groups * sizeof(double));
    for (i = 0; i < n; i++) {
        int64_t g = labels[i];
        double v = vals[i];
        if (g < 0 || g >= n_groups)
            return -2;
        count[g] += 1.0;
        total[g] += v;
        sumsq[g] += v * v;
    }
    return 0;
}

/* StatsArrays.grouped, 2-D over axis=1: column sums replicate
 * vals.sum(axis=0) — sequential row accumulation for cols > 1; for
 * cols == 1 NumPy reduces the contiguous column pairwise — then one
 * bincount pass over the columns. */
int repro_grouped_2d(const double *vals, int64_t rows, int64_t cols,
                     const int64_t *labels, int64_t n_groups, double *count,
                     double *total, double *sumsq)
{
    double *colsum, *colsumsq;
    int64_t r, o;
    memset(count, 0, (size_t)n_groups * sizeof(double));
    memset(total, 0, (size_t)n_groups * sizeof(double));
    memset(sumsq, 0, (size_t)n_groups * sizeof(double));
    if (cols == 0)
        return 0;
    for (o = 0; o < cols; o++)
        if (labels[o] < 0 || labels[o] >= n_groups)
            return -2;
    colsum = (double *)malloc((size_t)cols * 2 * sizeof(double));
    if (!colsum)
        return -1;
    colsumsq = colsum + cols;
    if (cols == 1) {
        double *sq = (double *)malloc((size_t)(rows > 0 ? rows : 1)
                                      * sizeof(double));
        if (!sq) {
            free(colsum);
            return -1;
        }
        for (r = 0; r < rows; r++)
            sq[r] = vals[r] * vals[r];
        colsum[0] = pw_sum(vals, rows);
        colsumsq[0] = pw_sum(sq, rows);
        free(sq);
    } else {
        for (o = 0; o < cols; o++) {
            colsum[o] = 0.0;
            colsumsq[o] = 0.0;
        }
        for (r = 0; r < rows; r++) {
            const double *vrow = vals + r * cols;
            for (o = 0; o < cols; o++) {
                double v = vrow[o];
                colsum[o] += v;
                colsumsq[o] += v * v;
            }
        }
    }
    for (o = 0; o < cols; o++) {
        int64_t g = labels[o];
        count[g] += (double)rows;
        total[g] += colsum[o];
        sumsq[g] += colsumsq[o];
    }
    free(colsum);
    return 0;
}

/* normal_gamma.log_marginal minus the gammaln(alpha_N) term, which the
 * caller computes with SciPy and passes in.  Every expression mirrors the
 * NumPy path's evaluation order; the two np.log calls go through the
 * active transcendental provider in blocks. */
int repro_log_marginal(const double *n, const double *s, const double *q,
                       const double *lgam_alpha_n, int64_t size, double mu0,
                       double lambda0, double alpha0, double beta0,
                       double log_lambda0, double log_beta0,
                       double lgamma_alpha0, double log_2pi, double *out)
{
    enum { BLOCK = 512 };
    double lam_n[BLOCK], beta_n[BLOCK];
    int64_t start, j;
    for (start = 0; start < size; start += BLOCK) {
        int64_t m = size - start;
        if (m > BLOCK)
            m = BLOCK;
        for (j = 0; j < m; j++) {
            int64_t i = start + j;
            double nn = n[i];
            double n_safe = (nn > 0.0) ? nn : 1.0;
            double xbar = s[i] / n_safe;
            double cs = q[i] - (n_safe * xbar) * xbar;
            /* np.maximum(cs, 0.0): NaN propagates, unlike fmax. */
            double ss = (cs > 0.0) ? cs : ((cs != cs) ? cs : 0.0);
            double diff = xbar - mu0;
            lam_n[j] = lambda0 + nn;
            beta_n[j] = (beta0 + ss / 2.0)
                      + ((((lambda0 * nn) * diff) * diff) / (2.0 * lam_n[j]));
        }
        apply_log(lam_n, m);
        apply_log(beta_n, m);
        for (j = 0; j < m; j++) {
            int64_t i = start + j;
            double nn = n[i];
            double alpha_n = alpha0 + nn / 2.0;
            double val = ((((lgam_alpha_n[i] - lgamma_alpha0)
                            + alpha0 * log_beta0)
                           - alpha_n * beta_n[j])
                          + 0.5 * (log_lambda0 - lam_n[j]))
                         - (nn / 2.0) * log_2pi;
            out[i] = (nn > 0.0) ? val : 0.0;
        }
    }
    return 0;
}
"""

ffibuilder.cdef(CDEF)
ffibuilder.set_source(
    "repro._native._native_kernel",
    CSOURCE,
    libraries=["m", "dl"],
)

if __name__ == "__main__":  # pragma: no cover - manual AOT build entry
    ffibuilder.compile(verbose=True)
