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
  a node's row read from shared margins is never stored: ``margin_score``
  adds each block of eight into one AVX-512 register whose lanes are those
  eight accumulators, for four of a lookup's keys at once, each in its own
  register and its one-key order (every ``avx512f`` function that returns
  into scalar code ends with ``vzeroupper``);
* quantization is C ``rint`` (round-half-even), the exact semantics of
  ``np.round`` at ``decimals=0``;
* negation and absolute value are sign-bit flips/masks, matching
  ``np.negative`` / ``np.abs`` on signed zeros (or ``-0.0 - t``, which is
  ``-t`` for every ``t >= +0``);
* ``repro_score_batch`` replays ``SplitScorer._run_chain`` (or, for
  GENOMICA, ``score_grid_best_kernel``) over ``LazySplitKernel.scores``
  for a batch of tree nodes, parent by parent —
  same lookups, same memo updates, same accept test (``np.log`` through the
  provider above) — so the hit / evaluation / peak counters come out equal
  too; a lookup evaluates only the distinct keys it misses, and the accept
  pass is integer-mask blends, without a branch.  The nodes share each
  ``log1p(exp(-|z|))`` row, which does not depend on a node's +-1 sign
  vector, through a per-parent table of margin rows keyed by universe
  column; a node whose columns are one run reads them by plain loads, any
  other gathers them, and since t(u, o) is t(o, u) bit for bit a
  (parent, beta) block the first lookups will read enough of is filled
  whole, each 8 x 8 tile once (its rows' exp8 calls before their log1p8
  calls) and stored again transposed;
* ``repro_obs_reassign_sweep`` / ``repro_obs_merge_sweep`` replay
  ``coclustering.reassign_obs_sweep`` / ``merge_obs_sweep`` over one
  observation clustering's own state, move for move: the draws in the
  loop's order, the column sums by the pairwise rule, the
  stacked marginals (with ``gammaln`` read from the state's one table at
  the clustering's row stride),
  the score vector in the same operation order and ``weighted_choice_logs``
  (``rint``, provider ``exp``, pairwise total, sequential ``cumsum``);
* ``repro_var_reassign_sweep`` / ``repro_var_merge_sweep`` replay
  ``coclustering.reassign_var_sweep`` / ``merge_var_sweep`` over a packed
  ``CoClusterState``: per candidate cluster the ``np.bincount`` of the
  moved rows' column sums in observation order, the stacked marginals,
  ``np.add.reduceat`` as first element plus the pairwise sum of the rest,
  the removal delta and a merging cluster's own score by the pairwise
  rule, ``block.sum(axis=0)`` in member order, and the fresh singleton
  scored from the pairwise row sum but built from the sequential one;
* the uniforms the chain and the four sweeps consume are computed where
  they are read, from a span's address (generator, key, offset), by one
  ``draw`` accessor (inline while its Philox block is in hand):
  Philox4x64-10 with ``numpy.random.Philox``'s key, counter and
  word-to-double conventions (``philox_block``; ``PhiloxStream.block`` is
  the definition), or the MRG recurrence of
  ``rng/mrg.py`` stepped in exact ``uint64`` arithmetic from the state a
  square-and-multiply matrix power reaches (``MRGStream.block`` is the
  definition).  Each chain item keeps its own cursor: its Philox step
  pairs share a four-draw block, and its MRG state starts one 3 x 3
  product on from the previous item's.

``CDEF`` and ``CSOURCE`` are plain strings, so hashing them for the cache
key parses nothing; ``ffibuilder()`` makes the cffi ``FFI`` (and parses
``CDEF``) only when something is compiled.  Used two ways: ``setup.py``
calls ``ffibuilder`` for an ahead-of-time extension build when
``REPRO_BUILD_NATIVE`` is set, and ``repro._native.load`` compiles the same
recipe on demand into a cache directory when no prebuilt module exists.
Either way the loader certifies the compiled code against NumPy on a probe
battery before it is ever used.
"""

from __future__ import annotations

CDEF = """
int repro_native_init(const char *umath_path, int want_svml);
int repro_native_provider(void);
void repro_uniforms(int64_t gen, uint64_t key, uint64_t offset,
                    int64_t count, double *out);
typedef struct {
    const int64_t *obs;
    const double *sign;
    int64_t gen;
    uint64_t key, offset;
    int64_t n_obs, chunk_rows, shared;
    double *best_score;
    int64_t *steps, *best_idx;
    int64_t hits, evaluations, peak;
} repro_node;
int repro_score_batch(const double *uvalues, const int64_t *urow,
                      int64_t n_parents, int64_t n_u, const double *beta_grid,
                      int64_t n_beta, repro_node *nodes, int64_t n_nodes,
                      int64_t max_steps, int64_t stop_repeats, double quantum,
                      int64_t share, int64_t grid, int64_t *table_counters);
int repro_obs_reassign_sweep(const double *block, int64_t rows, int64_t m,
                             int64_t *labels, double *count, double *total,
                             double *sumsq, double *lm, int64_t *k_io,
                             int64_t gen, uint64_t key,
                             uint64_t offset, const double *lgam,
                             const double *prior, double quantum,
                             int64_t *k_trace);
int repro_obs_merge_sweep(int64_t rows, int64_t m, int64_t *labels,
                          double *count, double *total, double *sumsq,
                          double *lm, int64_t *k_io, int64_t gen,
                          uint64_t key, uint64_t offset, const double *lgam,
                          const double *prior, double quantum,
                          int64_t *k_trace);
int repro_var_reassign_sweep(const double *data, int64_t n, int64_t m,
                             int64_t *var_labels, int64_t *member_order,
                             const int64_t *obs_labels,
                             const int64_t *offsets, int64_t n_blocks,
                             int64_t *k_io, double *count, double *total,
                             double *sumsq, double *lm,
                             int64_t gen, uint64_t key,
                             uint64_t offset, const double *lgam,
                             const double *prior, double quantum,
                             int64_t *origin, int64_t *member_counts,
                             int64_t *moves);
int repro_var_merge_sweep(const double *data, int64_t n, int64_t m,
                          int64_t *var_labels, int64_t *member_order,
                          const int64_t *obs_labels, const int64_t *offsets,
                          int64_t n_blocks, int64_t *k_io, double *count,
                          double *total, double *sumsq, double *lm,
                          int64_t gen, uint64_t key,
                          uint64_t offset, const double *lgam,
                          const double *prior, double quantum,
                          int64_t *origin, int64_t *member_counts,
                          int64_t *moves);
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
    int64_t i;
    for (i = 0; i < n; i += 8) {
        __mmask8 m = n - i >= 8 ? (__mmask8)0xFF
                                : (__mmask8)((1u << (n - i)) - 1u);
        __m512d v = _mm512_maskz_loadu_pd(m, vrow + i);
        __m512d s = _mm512_maskz_loadu_pd(m, sgn + i);
        __m512d z = _mm512_mul_pd(_mm512_mul_pd(_mm512_sub_pd(vgv, v), s),
                                  vbeta);
        __m512d naz = _mm512_castsi512_pd(
            _mm512_or_si512(_mm512_castpd_si512(z), sbit)); /* -|z| */
        __m512d t = p_log1p8(p_exp8(naz));
        __mmask8 pos = _mm512_cmp_pd_mask(z, zero, _CMP_GT_OQ);
        __m512d neg_t = _mm512_castsi512_pd(
            _mm512_xor_si512(_mm512_castpd_si512(t), sbit));
        __m512d res = _mm512_mask_blend_pd(pos, _mm512_sub_pd(z, t), neg_t);
        _mm512_mask_storeu_pd(row + i, m, res);
    }
    _mm256_zeroupper();
}

/* np.log / np.exp via __svml_log8_ha / __svml_exp8_ha, in place, masked
 * tail. */
__attribute__((target("avx512f")))
static void apply_svml(svml8_fn fn, double *x, int64_t n)
{
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm512_storeu_pd(x + i, fn(_mm512_loadu_pd(x + i)));
    if (i < n) {
        __mmask8 m = (__mmask8)((1u << (n - i)) - 1u);
        __m512d v = _mm512_maskz_loadu_pd(m, x + i);
        _mm512_mask_storeu_pd(x + i, m, fn(v));
    }
    _mm256_zeroupper();
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
        apply_svml(p_log8, x, n);
        return;
    }
#endif
    for (i = 0; i < n; i++)
        x[i] = log(x[i]);
}

static void apply_exp(double *x, int64_t n)
{
    int64_t i;
#if REPRO_HAVE_AVX512
    if (use_svml) {
        apply_svml(p_exp8, x, n);
        return;
    }
#endif
    for (i = 0; i < n; i++)
        x[i] = exp(x[i]);
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

/* Philox4x64-10 (Salmon et al., SC'11) as numpy.random.Philox keys and
 * counts it: a 64-bit key is the key pair {key, 0}; Philox increments its
 * counter *before* generating, so the four words of counter value c + 1 are
 * draws 4c..4c + 3; Generator.random turns a word into a double as
 * (w >> 11) * 2^-53.  Draw i of a keyed stream is therefore word i % 4 of
 * counter {i / 4 + 1, 0, 0, 0} — a pure function of (key, i), the property
 * PhiloxStream.block is defined by and this is certified against.  (The
 * 128-bit product is a GCC/clang extension, like the atomics below.) */
static void philox_block(uint64_t key, uint64_t counter, double *out)
{
    uint64_t c0 = counter, c1 = 0, c2 = 0, c3 = 0, k0 = key, k1 = 0;
    int round;
    for (round = 0; round < 10; round++) {
        unsigned __int128 p0 = (unsigned __int128)0xD2E7470EE14C6C93ULL * c0;
        unsigned __int128 p1 = (unsigned __int128)0xCA5A826395121157ULL * c2;
        c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;
        c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;
        c1 = (uint64_t)p1;
        c3 = (uint64_t)p0;
        k0 += 0x9E3779B97F4A7C15ULL;
        k1 += 0xBB67AE8584CAA73BULL;
    }
    out[0] = (double)(c0 >> 11) * (1.0 / 9007199254740992.0);
    out[1] = (double)(c1 >> 11) * (1.0 / 9007199254740992.0);
    out[2] = (double)(c2 >> 11) * (1.0 / 9007199254740992.0);
    out[3] = (double)(c3 >> 11) * (1.0 / 9007199254740992.0);
}

/* The MRG of rng/mrg.py: x_n = (a1 x_{n-1} + a2 x_{n-2} + a3 x_{n-3}) mod M
 * on the state (x_{n-1}, x_{n-2}, x_{n-3}), A its transition matrix.  Draw
 * i of the stream keyed `key` is x / M for the first word x of A^(i + 1) s0,
 * s0 the seed state MRGStream derives from the key — the property
 * MRGStream.block is defined by and this is certified against.  Every
 * entry is below M < 2^31, so a product of two is below 2^62 and a sum of
 * three below 2^64: uint64 arithmetic gives Python's integers exactly, and
 * x / M in double is the correctly rounded quotient NumPy's is. */
#define MRG_M 2147483543ULL
static const uint64_t mrg_a[9] = {1403580, 810728, 1234567, 1, 0, 0, 0, 1, 0};

/* out = a b mod M, a 3 x 3 and b 3 x n (n = 3: a matrix, 1: a state) */
static void mrg_mul(const uint64_t *a, const uint64_t *b, int n, uint64_t *out)
{
    uint64_t r[9];
    int i, j;
    for (i = 0; i < 3; i++)
        for (j = 0; j < n; j++)
            r[i * n + j] = (a[3 * i] * b[j] + a[3 * i + 1] * b[n + j]
                            + a[3 * i + 2] * b[2 * n + j]) % MRG_M;
    memcpy(out, r, (size_t)(3 * n) * sizeof(uint64_t));
}

/* b = A^k b, square-and-multiply (powers of A commute) */
static void mrg_ahead(uint64_t k, uint64_t *b, int n)
{
    uint64_t base[9];
    memcpy(base, mrg_a, sizeof base);
    for (; k; k >>= 1) {
        if (k & 1)
            mrg_mul(base, b, n, b);
        mrg_mul(base, base, 3, base);
    }
}

/* x = A^n s0: the state before draw n of the stream keyed `key` */
static void mrg_state(uint64_t key, uint64_t n, uint64_t *x)
{
    x[0] = key % (MRG_M - 1) + 1;
    x[1] = (key >> 21) % (MRG_M - 1) + 1;
    x[2] = (key >> 42) % (MRG_M - 1) + 1;
    mrg_ahead(n, x, 1);
}

enum { PHILOX, MRG }; /* generator tags, in _native._GENERATORS' order */

/* Where an entry's uniforms come from: draws offset, offset + 1, ... of the
 * stream (gen, key), computed when read.  Philox keeps the last block (a
 * chain item's consecutive steps or a sweep's consecutive draws mostly
 * share one; `blocks` counts the ones computed; counter 0 holds no draw,
 * so block == 0 means nothing is kept yet).  MRG keeps x, the state before
 * draw `at` of the stream, so a sequential read is one step and any other
 * a jump (at == ~0: nothing kept yet; no draw of a span has that index). */
typedef struct {
    int64_t gen;
    uint64_t key, offset, block, at;
    double kept[4];
    uint64_t x[3];
    int64_t blocks;
} draws;

static draws draws_from(int64_t gen, uint64_t key, uint64_t offset)
{
    draws d = {.gen = gen, .key = key, .offset = offset, .block = 0,
               .at = ~0ULL};
    return d;
}

/* draw's other cases, out of line: an MRG step (or jump) and a Philox
 * block not yet in hand. */
__attribute__((noinline))
static double draw_refresh(draws *d, uint64_t at)
{
    if (d->gen == MRG) {
        uint64_t x0;
        if (at != d->at)
            mrg_state(d->key, at, d->x);
        x0 = (mrg_a[0] * d->x[0] + mrg_a[1] * d->x[1] + mrg_a[2] * d->x[2])
           % MRG_M;
        memmove(d->x + 1, d->x, 2 * sizeof(uint64_t));
        d->x[0] = x0;
        d->at = at + 1;
        return (double)x0 / (double)MRG_M;
    }
    d->block = at / 4 + 1;
    philox_block(d->key, d->block, d->kept);
    d->blocks++;
    return d->kept[at % 4];
}

/* Draw i of the span: inline while its Philox block is in hand (an MRG
 * cursor's block stays 0, which no counter is, so it always refreshes). */
static inline double draw(draws *d, int64_t i)
{
    const uint64_t at = d->offset + (uint64_t)i;
    if (__builtin_expect(at / 4 + 1 == d->block, 1))
        return d->kept[at % 4];
    return draw_refresh(d, at);
}

/* PhiloxStream / MRGStream(key).block(offset, count) */
void repro_uniforms(int64_t gen, uint64_t key, uint64_t offset,
                    int64_t count, double *out)
{
    draws d = draws_from(gen, key, offset);
    int64_t i;
    for (i = 0; i < count; i++)
        out[i] = draw(&d, i);
}

int repro_native_init(const char *umath_path, int want_svml)
{
    (void)umath_path; /* read by the AVX-512 build only */
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

/* The sign-free half of a margin, t = log1p(exp(-|(gv - x) * beta|)), over
 * one parent's universe row.  A left/right sign of exactly +-1 only flips
 * the sign of z = ((gv - x) * s) * beta — IEEE multiplication rounds
 * symmetrically — and |.| drops it again, so t is the log1p(exp(-|z|)) of
 * every node whose observations are columns of this row, whatever its
 * sign vector: it is filled once per (parent, beta, value) and read by all
 * of them (docs/ALGORITHMS.md section 13, "Margins are shared across
 * nodes"). */
#if REPRO_HAVE_AVX512
__attribute__((target("avx512f")))
static void margin_fill_svml(double gv, const double *uv, double beta,
                             double *t, int64_t n)
{
    const __m512d vgv = _mm512_set1_pd(gv);
    const __m512d vbeta = _mm512_set1_pd(beta);
    const __m512i sbit = _mm512_set1_epi64((int64_t)0x8000000000000000ULL);
    int64_t i;
    for (i = 0; i < n; i += 8) {
        __mmask8 m = n - i >= 8 ? (__mmask8)0xFF
                                : (__mmask8)((1u << (n - i)) - 1u);
        __m512d z = _mm512_mul_pd(
            _mm512_sub_pd(vgv, _mm512_maskz_loadu_pd(m, uv + i)), vbeta);
        __m512d naz = _mm512_castsi512_pd(
            _mm512_or_si512(_mm512_castpd_si512(z), sbit)); /* -|z| */
        _mm512_mask_storeu_pd(t + i, m, p_exp8(naz));
    }
    /* log1p8 over the stored exp8 values after all of them: no call waits
     * on the one just before it */
    for (i = 0; i < n; i += 8) {
        __mmask8 m = n - i >= 8 ? (__mmask8)0xFF
                                : (__mmask8)((1u << (n - i)) - 1u);
        _mm512_mask_storeu_pd(t + i, m,
                              p_log1p8(_mm512_maskz_loadu_pd(m, t + i)));
    }
    _mm256_zeroupper();
}

/* where(z > 0, -t, z - t) for one key (value gv, beta, margin row t) over
 * eight of the node's observations, with z = ((gv - v) * s) * beta exactly
 * as row_fill_svml computes it from their values v and signs s, and t read
 * at their columns: from col0 on when the node's columns are one run
 * (contig: obs[j] == obs[0] + j), else gathered at idx.  It is computed as
 * (z > 0 ? -0.0 : z) - t, one masked move and one subtraction: -0.0 - t is
 * -t exactly for every t >= +0, and t, a log1p of an exp, is >= +0 wherever
 * z > 0 (it is NaN only where z is, and then z > 0 is false). */
__attribute__((target("avx512f")))
static inline __m512d margin_lanes(double gv, double beta, const double *t,
                                   __m512d v, __m512d s, int contig,
                                   int64_t col0, __m512i idx, __mmask8 m)
{
    const __m512d zero = _mm512_setzero_pd();
    __m512d z = _mm512_mul_pd(
        _mm512_mul_pd(_mm512_sub_pd(_mm512_set1_pd(gv), v), s),
        _mm512_set1_pd(beta));
    __m512d tt = contig ? _mm512_maskz_loadu_pd(m, t + col0)
                        : _mm512_mask_i64gather_pd(zero, m, idx, t, 8);
    __mmask8 pos = _mm512_cmp_pd_mask(z, zero, _CMP_GT_OQ);
    return _mm512_sub_pd(_mm512_mask_mov_pd(z, pos, _mm512_set1_pd(-0.0)),
                         tt);
}

/* How many of a node's missing keys one margin_scores_svml call sums. */
#define MARGIN_GROUP 4

/* pw_sum of margin_lanes' values for g keys of one node at once (n <= 128;
 * key q at gv[q], beta[q] and margin row t[q]) into out[q], the rows never
 * stored: each block of eight is added into one register per key whose
 * lanes are pw_sum's eight accumulators (from -0.0, which adds exactly),
 * and the node's values, signs and columns are loaded once for all g.
 * Inlined at a constant g, so the g accumulators stay in registers and
 * their adds are g independent chains. */
__attribute__((target("avx512f"), always_inline))
static inline void margin_run(int g, const double *gv, const double *vrow,
                              const double *sgn, const double *beta,
                              const double *const *t, const int64_t *obs,
                              int contig, int64_t n, double *out)
{
    __m512d acc[MARGIN_GROUP];
    double r[8], res[MARGIN_GROUP];
    int64_t i = 0, j;
    int q;
    for (q = 0; q < g; q++) {
        acc[q] = _mm512_set1_pd(-0.0);
        res[q] = 0.0;
    }
    for (; i + 8 <= n; i += 8) {
        const __m512d v = _mm512_loadu_pd(vrow + i);
        const __m512d s = _mm512_loadu_pd(sgn + i);
        const __m512i idx = contig ? _mm512_setzero_si512()
                                   : _mm512_loadu_si512(obs + i);
        for (q = 0; q < g; q++)
            acc[q] = _mm512_add_pd(acc[q],
                                   margin_lanes(gv[q], beta[q], t[q], v, s,
                                                contig, obs[i], idx, 0xFF));
    }
    if (n >= 8 && g == 4) {
        /* pw_sum's ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) for
         * the four keys at once: adjacent lanes, then 128-bit lanes, then
         * 256-bit halves */
        __m512d ab = _mm512_add_pd(_mm512_unpacklo_pd(acc[0], acc[1]),
                                   _mm512_unpackhi_pd(acc[0], acc[1]));
        __m512d cd = _mm512_add_pd(_mm512_unpacklo_pd(acc[2], acc[3]),
                                   _mm512_unpackhi_pd(acc[2], acc[3]));
        __m512d h = _mm512_add_pd(_mm512_shuffle_f64x2(ab, cd, 0x88),
                                  _mm512_shuffle_f64x2(ab, cd, 0xDD));
        _mm256_storeu_pd(res, _mm256_add_pd(
            _mm512_castpd512_pd256(_mm512_shuffle_f64x2(h, h, 0x08)),
            _mm512_castpd512_pd256(_mm512_shuffle_f64x2(h, h, 0x0D))));
    } else if (n >= 8)
        for (q = 0; q < g; q++) {
            _mm512_storeu_pd(r, acc[q]);
            res[q] = ((r[0] + r[1]) + (r[2] + r[3]))
                   + ((r[4] + r[5]) + (r[6] + r[7]));
        }
    if (i < n) {
        const __mmask8 m = (__mmask8)((1u << (n - i)) - 1u);
        const __m512d v = _mm512_maskz_loadu_pd(m, vrow + i);
        const __m512d s = _mm512_maskz_loadu_pd(m, sgn + i);
        const __m512i idx = _mm512_maskz_loadu_epi64(m, obs + i);
        for (q = 0; q < g; q++) {
            _mm512_storeu_pd(r, margin_lanes(gv[q], beta[q], t[q], v, s,
                                             contig, obs[i], idx, m));
            for (j = 0; j < n - i; j++)
                res[q] += r[j];
        }
    }
    for (q = 0; q < g; q++)
        out[q] = res[q];
}

/* pw_sum's halving split above 128, over g keys (1 or MARGIN_GROUP), each
 * key's sums added in the order pw_sum adds them. */
__attribute__((target("avx512f")))
static void margin_pw(int g, const double *gv, const double *vrow,
                      const double *sgn, const double *beta,
                      const double *const *t, const int64_t *obs, int contig,
                      int64_t n, double *out)
{
    if (n > 128) {
        double hi[MARGIN_GROUP];
        int64_t n2 = n / 2;
        int q;
        n2 -= n2 % 8;
        margin_pw(g, gv, vrow, sgn, beta, t, obs, contig, n2, out);
        margin_pw(g, gv, vrow + n2, sgn + n2, beta, t, obs + n2, contig,
                  n - n2, hi);
        for (q = 0; q < g; q++)
            out[q] += hi[q];
    } else if (g == 1)
        margin_run(1, gv, vrow, sgn, beta, t, obs, contig, n, out);
    else
        margin_run(MARGIN_GROUP, gv, vrow, sgn, beta, t, obs, contig, n, out);
}

/* g quantized scores of the node, each as node_score computes it. */
__attribute__((target("avx512f")))
static void margin_scores_svml(int g, const double *gv, const double *vrow,
                               const double *sgn, const double *beta,
                               const double *const *t, const int64_t *obs,
                               int contig, int64_t n, double quantum,
                               double *out)
{
    int q;
    margin_pw(g, gv, vrow, sgn, beta, t, obs, contig, n, out);
    for (q = 0; q < g; q++)
        out[q] = rint(out[q] / quantum) * quantum;
    _mm256_zeroupper();
}

/* The eight rows of an 8 x 8 tile become its eight columns: pairs of rows
 * interleaved, then 128- and 256-bit lanes regrouped. */
__attribute__((target("avx512f")))
static inline void transpose8(__m512d *r)
{
    __m512d t[8], u[8];
    int i;
    for (i = 0; i < 8; i += 2) {
        t[i] = _mm512_unpacklo_pd(r[i], r[i + 1]);
        t[i + 1] = _mm512_unpackhi_pd(r[i], r[i + 1]);
    }
    for (i = 0; i < 8; i += 4) {
        u[i] = _mm512_shuffle_f64x2(t[i], t[i + 2], 0x88);
        u[i + 1] = _mm512_shuffle_f64x2(t[i + 1], t[i + 3], 0x88);
        u[i + 2] = _mm512_shuffle_f64x2(t[i], t[i + 2], 0xDD);
        u[i + 3] = _mm512_shuffle_f64x2(t[i + 1], t[i + 3], 0xDD);
    }
    for (i = 0; i < 4; i++) {
        r[i] = _mm512_shuffle_f64x2(u[i], u[i + 4], 0x88);
        r[i + 4] = _mm512_shuffle_f64x2(u[i], u[i + 4], 0xDD);
    }
}

/* block_fill eight lanes at a time: each 8 x 8 tile on or above the
 * diagonal is computed as margin_fill_svml computes its rows, stored, and
 * (off the diagonal) stored again transposed in registers. */
__attribute__((target("avx512f")))
static void block_fill_svml(const double *uv, double beta, double *blk,
                            int64_t n)
{
    const __m512d vbeta = _mm512_set1_pd(beta);
    const __m512i sbit = _mm512_set1_epi64((int64_t)0x8000000000000000ULL);
    int64_t i0, j0, r;
    for (i0 = 0; i0 < n; i0 += 8) {
        const int64_t rows = n - i0 < 8 ? n - i0 : 8;
        for (j0 = i0; j0 < n; j0 += 8) {
            const int64_t cols = n - j0 < 8 ? n - j0 : 8;
            const __mmask8 mc = (__mmask8)((1u << cols) - 1u);
            const __m512d vo = _mm512_maskz_loadu_pd(mc, uv + j0);
            __m512d t[8];
            /* the rows' exp8 calls first, their log1p8 calls after: no
             * call waits on the one just before it */
            for (r = 0; r < rows; r++) {
                __m512d z = _mm512_mul_pd(
                    _mm512_sub_pd(_mm512_set1_pd(uv[i0 + r]), vo), vbeta);
                t[r] = p_exp8(_mm512_castsi512_pd(_mm512_or_si512(
                    _mm512_castpd_si512(z), sbit))); /* -|z| */
            }
            for (r = 0; r < rows; r++) {
                t[r] = p_log1p8(t[r]);
                _mm512_mask_storeu_pd(blk + (i0 + r) * n + j0, mc, t[r]);
            }
            if (j0 == i0)
                continue;
            /* off the diagonal the tile has all eight rows */
            transpose8(t);
            for (r = 0; r < cols; r++)
                _mm512_storeu_pd(blk + (j0 + r) * n + i0, t[r]);
        }
    }
    _mm256_zeroupper();
}
#endif

static void margin_fill(double gv, const double *uv, double beta, double *t,
                        int64_t n)
{
    int64_t i;
#if REPRO_HAVE_AVX512
    if (use_svml) {
        margin_fill_svml(gv, uv, beta, t, n);
        return;
    }
#endif
    for (i = 0; i < n; i++)
        t[i] = log1p(exp(-fabs((gv - uv[i]) * beta)));
}

/* Every margin row of one (parent, beta) block, row u filled as
 * margin_fill(uv[u], ...) fills it.  t(u, o) equals t(o, u) bit for bit:
 * IEEE subtraction is antisymmetric, multiplication rounds symmetrically
 * and |.| drops the sign, so each entry above the diagonal is computed
 * once and stored at both places — about n^2 / 2 exp/log1p evaluations
 * where n lazy rows take n^2 (docs/ALGORITHMS.md section 10). */
static void block_fill(const double *uv, double beta, double *blk, int64_t n)
{
    int64_t u, o;
#if REPRO_HAVE_AVX512
    if (use_svml) {
        block_fill_svml(uv, beta, blk, n);
        return;
    }
#endif
    for (u = 0; u < n; u++)
        for (o = u; o < n; o++)
            blk[u * n + o] = blk[o * n + u] =
                log1p(exp(-fabs((uv[u] - uv[o]) * beta)));
}

/* pw_sum(where(z > 0, -t, z - t)) over the node's columns, quantized; the
 * scalar provider applies into the scratch `row` and sums it. */
static double margin_score(double gv, const double *vrow, const double *sgn,
                           double beta, const double *t, const int64_t *obs,
                           int contig, double quantum, double *row, int64_t n)
{
    int64_t i;
    (void)contig; /* read by the AVX-512 build only */
#if REPRO_HAVE_AVX512
    if (use_svml) {
        double res;
        margin_scores_svml(1, &gv, vrow, sgn, &beta, &t, obs, contig, n,
                           quantum, &res);
        return res;
    }
#endif
    for (i = 0; i < n; i++) {
        double z = ((gv - vrow[i]) * sgn[i]) * beta;
        row[i] = (z > 0.0) ? -t[obs[i]] : z - t[obs[i]];
    }
    return rint(pw_sum(row, n) / quantum) * quantum;
}

/* One tree node of a scoring batch.  Its candidate split l * n_obs + j is
 * (candidate parent l, the parent's value at the node's j-th observation),
 * and the chain runs over every one of them: chain item i writes
 * best_score/steps/best_idx[i] (steps and best_idx may be NULL: not
 * wanted);
 * hits/evaluations/peak are written once per call.  `obs` are the node's
 * observations as columns of the batch's universe and `sign` its
 * left/right vector (`shared`: every entry is exactly +-1, the
 * precondition of reading shared margin rows); chain item i reads draws
 * offset + i * (1 + 2 max_steps) onwards of the stream (gen, key). */
typedef struct {
    const int64_t *obs;
    const double *sign;
    int64_t gen;
    uint64_t key, offset;
    int64_t n_obs, chunk_rows, shared;
    double *best_score;
    int64_t *steps, *best_idx;
    int64_t hits, evaluations, peak;
} repro_node;

/* What one repro_score_batch call holds: the universe (one row of parent
 * values and value ranks per candidate parent), the margin table of the
 * parent in hand, and the (node, parent) chain in hand with its scratch
 * memo, allocated by the call and seen by no other thread. */
typedef struct {
    const double *beta_grid, *uv;
    const int64_t *ur;
    int64_t n_u, n_beta;
    double quantum;
    /* margin rows of the parent in hand, row b * n_u + u holding t(u, .)
     * at beta b (NULL: nothing shared); a value's rows are those of its
     * first column, rep[rank]; have[] marks the rows read so far, whole[b]
     * the blocks filled before any chain ran */
    double *rows;
    const int64_t *rep;
    uint8_t *have, *whole;
    int64_t filled, uses;
    /* the chain in hand; vrow is its parent's values at its columns */
    const repro_node *nd;
    const double *vrow;
    double *row, *cache;
    uint8_t *seen;
    int contig;
    int64_t *flat, *mrow, *ucol, *list;
    int64_t hits, evaluations;
} batch_ctx;

/* The margin row log1p(exp(-|z|)) of the parent in hand at beta b for the
 * value in universe column u, filled on first read unless its block was
 * filled whole; every call is a row use. */
static const double *margin_row(batch_ctx *c, int64_t u, int64_t b)
{
    const int64_t col = c->rep[c->ur[u]], key = b * c->n_u + col;
    double *t = c->rows + key * c->n_u;
    c->uses++;
    if (!c->have[key]) {
        if (!c->whole[b])
            margin_fill(c->uv[col], c->uv, c->beta_grid[b], t, c->n_u);
        c->have[key] = 1;
        c->filled++;
    }
    return t;
}

/* One (group, beta) score of the node in hand, for the group whose value
 * sits in universe column u: z = ((gv - values_row[o]) * sign[o]) * beta,
 * stable log-sigmoid, pairwise row sum, round-half-even quantization.  A
 * node with +-1 signs reads log1p(exp(-|z|)) from the parent's margin row
 * (filled on first read unless its block was filled whole); any other
 * node, and every node when the batch shares no table, evaluates the
 * fused row. */
static double node_score(batch_ctx *c, int64_t u, int64_t b)
{
    const repro_node *nd = c->nd;
    const double gv = c->uv[u], beta = c->beta_grid[b];
    if (!c->rows || !nd->shared)
        return row_score(gv, c->vrow, nd->sign, beta, c->quantum, c->row,
                         nd->n_obs);
    return margin_score(gv, c->vrow, nd->sign, beta, margin_row(c, u, b),
                        nd->obs, c->contig, c->quantum, c->row, nd->n_obs);
}

/* LazySplitKernel.scores for the k chain items act[0..k) at beta indices
 * bidx[0..k): hits are counted against the memo as it stood when the
 * lookup began (a duplicate key inside one lookup is a miss for every
 * holder, as in ~seen[flat]) and the distinct missing keys are evaluated
 * once each: the key pass lists every slot and keeps the missing ones
 * (list[n] = j; n += !seen), the miss pass keeps the first slot of each
 * distinct key (in place, marking it seen), and only they are evaluated,
 * MARGIN_GROUP keys at a time where the node reads shared margin rows
 * through SVML (the rest one by one).  missed[b] counts them per beta for
 * this lookup of the node:
 * groups never span parents, so summed over the node's parents it is what
 * one all-parents lookup would have missed at that beta — the count
 * _evaluate sizes its same-beta chunks by (peak_chunk_elements). */
static void chain_lookup(batch_ctx *c, const int64_t *act, int64_t k,
                         const int64_t *bidx, int64_t *missed, double *score)
{
    int64_t j, x = 0, n_miss = 0, n_new = 0;
    for (j = 0; j < k; j++) {
        int64_t key = c->mrow[act[j]] * c->n_beta + bidx[j];
        c->flat[j] = key;
        c->list[n_miss] = j;
        n_miss += !c->seen[key];
    }
    c->hits += k - n_miss;
    for (j = 0; j < n_miss; j++) {
        const int64_t slot = c->list[j], key = c->flat[slot];
        const int fresh = !c->seen[key]; /* else a duplicate of this lookup */
        c->list[n_new] = slot;
        n_new += fresh;
        missed[bidx[slot]] += fresh;
        c->seen[key] = 1;
    }
    c->evaluations += n_new;
#if REPRO_HAVE_AVX512
    if (use_svml && c->rows && c->nd->shared)
        for (; x + MARGIN_GROUP <= n_new; x += MARGIN_GROUP) {
            double gv[MARGIN_GROUP], beta[MARGIN_GROUP], s[MARGIN_GROUP];
            const double *t[MARGIN_GROUP];
            int q;
            for (q = 0; q < MARGIN_GROUP; q++) {
                const int64_t slot = c->list[x + q], u = c->ucol[act[slot]];
                gv[q] = c->uv[u];
                beta[q] = c->beta_grid[bidx[slot]];
                t[q] = margin_row(c, u, bidx[slot]);
            }
            margin_scores_svml(MARGIN_GROUP, gv, c->vrow, c->nd->sign, beta,
                               t, c->nd->obs, c->contig, c->nd->n_obs,
                               c->quantum, s);
            for (q = 0; q < MARGIN_GROUP; q++)
                c->cache[c->flat[c->list[x + q]]] = s[q];
        }
#endif
    for (; x < n_new; x++) {
        j = c->list[x];
        c->cache[c->flat[j]] = node_score(c, c->ucol[act[j]], bidx[j]);
    }
    for (j = 0; j < k; j++)
        score[j] = c->cache[c->flat[j]];
}

/* score_grid_best_kernel for the node in hand over the parent in hand: per
 * beta in grid order one lookup of all its items, each keeping the first
 * strictly greater score from -inf at index 0 (NaN never improves). */
static void grid_best(batch_ctx *c, int64_t *act, int64_t *bidx,
                      int64_t *missed, double *score, double *best,
                      int64_t *idx)
{
    int64_t b, i, k = c->nd->n_obs;
    for (i = 0; i < k; i++) {
        c->ucol[i] = c->nd->obs[i];
        c->mrow[i] = c->ur[c->ucol[i]];
        act[i] = i;
        best[i] = -INFINITY;
        idx[i] = 0;
    }
    for (b = 0; b < c->n_beta; b++) {
        for (i = 0; i < k; i++)
            bidx[i] = b;
        chain_lookup(c, act, k, bidx, missed, score);
        for (i = 0; i < k; i++)
            if (score[i] > best[i]) {
                best[i] = score[i];
                idx[i] = b;
            }
    }
}

/* A chain item's first beta index and first draw cursor, kept from the
 * pre-pass that seats it to the start of its chain: the words its first
 * Philox block holds after draw 0 (words 1..3, copied bit for bit; the
 * block's word 0 is at most draw 0 itself) or the MRG state after draw 0:
 * 32 bytes an item, for the items of the parent in hand. */
typedef struct {
    uint64_t x[3];
    int64_t beta;
} seat;

/* A double's bits, for the accept pass's mask blends. */
typedef union {
    double d;
    int64_t i;
} bits;

/* SplitScorer._run_chain for a batch of tree nodes, parent-major: for each
 * candidate parent, each node's chain over its candidate splits of that
 * parent (chain items [k0, k1) of the node) runs step-synchronously (every
 * active item takes step s before any takes s + 1; the memo counters
 * depend on the order of lookups, scores and accept decisions would not)
 * against a scratch memo keyed by universe value rank, and with `share`
 * all nodes read one table of margin rows, n_beta * n_u of n_u per parent
 * (node_score).  A node's candidate l * n_obs + j is (parent row l of
 * uvalues, value at universe column obs[j]); chain item i reads its draws
 * through a cursor of its own: only the draws a chain reaches are
 * computed, two Philox steps share a block, and an MRG item is seated at
 * the state its node's previous item started from times A^per_item (nine
 * multiply-mods, not a matrix power; one power per node seats the first).
 *
 * Per parent, a pre-pass seats every item of every node first: its draw 0
 * gives its first beta, kept with its cursor (seat).  The first lookups
 * read every distinct (beta, value) row their shared nodes' items start
 * at; where at one beta that is at least whole_rows rows, lazy fills were
 * certain to cost at least what filling the block whole costs
 * (block_fill: ceil(n_u / 8) (ceil(n_u / 8) + 1) / 2 tiles of 64 lanes,
 * against ceil(n_u / 8) blocks of 8 lanes per lazy row), and the block is
 * filled whole before any chain runs; rows count as filled when first
 * read.  With `grid`, grid_best runs where the chain would: nothing is
 * drawn and every item reads its value's rows at every beta.  The chain
 * step is branch-free but for the Philox refresh and the evaluation of a
 * missing key: the accept test, the best-so-far update and the
 * keep-or-drop decision are integer-mask blends (as ?: selects, GCC
 * compiled two of them into data-dependent branches).  A node's steps and
 * best_idx are written only where they are wanted (not NULL).
 *
 * table_counters = {rows filled, row uses, Philox blocks computed}; each
 * node reports {hits, evaluations, peak_chunk_elements} as one all-parents
 * chain would have counted them.  Returns -1 on allocation failure. */
int repro_score_batch(const double *uvalues, const int64_t *urow,
                      int64_t n_parents, int64_t n_u, const double *beta_grid,
                      int64_t n_beta, repro_node *nodes, int64_t n_nodes,
                      int64_t max_steps, int64_t stop_repeats, double quantum,
                      int64_t share, int64_t grid, int64_t *table_counters)
{
    batch_ctx c;
    int64_t *ibuf, *act, *cur_idx, *rejects, *prop, *best_idx, *n_steps, *missed;
    int64_t *rep, *first_rows;
    double *dbuf, *cur_score, *prop_score, *log_u, *vbuf;
    uint8_t *bbuf, *contig;
    draws *d;
    seat *seats;
    uint64_t ahead[9] = {1, 0, 0, 0, 1, 0, 0, 0, 1}, *item_x;
    int64_t i, j, k, l, q, s, step, max_obs = 1, n_items = 1, blocks = 0;
    const int64_t n_lookups = max_steps + 1, n_memo = n_u * n_beta;
    const int64_t n_rows = share ? n_memo : 0, per_item = 1 + 2 * max_steps;
    const int64_t whole_rows = 4 * ((n_u + 7) / 8 + 1);
    size_t n;

    for (q = 0; q < n_nodes; q++) {
        if (nodes[q].n_obs > max_obs)
            max_obs = nodes[q].n_obs;
        n_items += nodes[q].n_obs;
    }
    n = (size_t)max_obs;
    ibuf = (int64_t *)calloc(10 * n + (size_t)(n_u + n_beta)
                                 + (size_t)(n_nodes * n_lookups * n_beta),
                             sizeof(int64_t));
    dbuf = (double *)malloc(
        (3 * n + 2 * (size_t)max_obs + (size_t)(n_memo + n_rows * n_u))
        * sizeof(double));
    bbuf = (uint8_t *)malloc((size_t)(n_memo + n_rows + n_beta + n_nodes));
    /* the cursors, then the seats and the nodes' MRG states behind them */
    d = (draws *)malloc(n * sizeof(draws) + (size_t)n_items * sizeof(seat)
                        + (3 * (size_t)n_nodes + 1) * sizeof(uint64_t));
    if (!ibuf || !dbuf || !bbuf || !d) {
        free(ibuf);
        free(dbuf);
        free(bbuf);
        free(d);
        return -1;
    }
    seats = (seat *)(d + n);
    item_x = (uint64_t *)(seats + n_items);
    /* per node, the MRG state before its next chain item's draws */
    mrg_ahead((uint64_t)per_item, ahead, 3);
    for (q = 0; q < n_nodes; q++)
        if (nodes[q].gen == MRG)
            mrg_state(nodes[q].key, nodes[q].offset, item_x + 3 * q);
    act = ibuf;
    cur_idx = ibuf + n;
    rejects = ibuf + 2 * n;
    prop = ibuf + 3 * n;
    c.flat = ibuf + 4 * n;
    c.mrow = ibuf + 5 * n;
    c.ucol = ibuf + 6 * n;
    best_idx = ibuf + 7 * n;
    c.list = ibuf + 8 * n;
    n_steps = ibuf + 9 * n;
    c.rep = rep = ibuf + 10 * n;
    first_rows = rep + n_u;
    missed = first_rows + n_beta;
    cur_score = dbuf;
    prop_score = dbuf + n;
    log_u = dbuf + 2 * n;
    c.row = dbuf + 3 * n;
    vbuf = c.row + max_obs;
    c.cache = vbuf + max_obs;
    c.rows = share ? c.cache + n_memo : NULL;
    c.seen = bbuf;
    c.have = bbuf + n_memo;
    c.whole = c.have + n_rows;
    contig = c.whole + n_beta;
    c.beta_grid = beta_grid;
    c.n_u = n_u;
    c.n_beta = n_beta;
    c.quantum = quantum;
    c.filled = c.uses = 0;
    for (q = 0; q < n_nodes; q++) {
        const int64_t *obs = nodes[q].obs;
        nodes[q].hits = nodes[q].evaluations = nodes[q].peak = 0;
        /* one run of columns: its margin reads are plain loads */
        contig[q] = 1;
        for (j = 1; j < nodes[q].n_obs; j++)
            contig[q] &= obs[j] == obs[0] + j;
    }

    for (l = 0; l < n_parents; l++) {
        c.uv = uvalues + l * n_u;
        c.ur = urow + l * n_u;
        for (i = n_u - 1; i >= 0; i--)
            rep[c.ur[i]] = i;
        memset(c.have, 0, (size_t)n_rows);
        memset(c.seen, 0, (size_t)n_memo);
        memset(first_rows, 0, (size_t)n_beta * sizeof(int64_t));
        for (q = 0, s = 0; q < n_nodes; q++) {
            repro_node *nd = nodes + q;
            const int64_t k0 = l * nd->n_obs;
            for (i = 0; i < nd->n_obs; i++, s++) {
                draws di = draws_from(nd->gen, nd->key,
                                      nd->offset + (uint64_t)((k0 + i) * per_item));
                int64_t idx, key;
                if (nd->gen == MRG) {
                    memcpy(di.x, item_x + 3 * q, sizeof di.x);
                    di.at = di.offset;
                    mrg_mul(ahead, item_x + 3 * q, 1, item_x + 3 * q);
                }
                /* min((u * n_beta).astype(int64), n_beta - 1); a grid item
                 * draws nothing and reads every beta, counted at beta 0 */
                idx = grid ? 0 : (int64_t)(draw(&di, 0) * (double)n_beta);
                idx = idx > n_beta - 1 ? n_beta - 1 : idx;
                seats[s].beta = idx;
                if (nd->gen == MRG)
                    memcpy(seats[s].x, di.x, sizeof seats[s].x);
                else
                    memcpy(seats[s].x, di.kept + 1, sizeof seats[s].x);
                blocks += di.blocks;
                key = c.ur[nd->obs[i]] * n_beta + idx;
                first_rows[idx] += nd->shared && !c.seen[key];
                c.seen[key] |= (uint8_t)nd->shared;
            }
        }
        for (j = 0; j < n_beta; j++) {
            c.whole[j] = c.rows && first_rows[grid ? 0 : j] >= whole_rows;
            if (c.whole[j])
                block_fill(c.uv, beta_grid[j], c.rows + j * n_u * n_u, n_u);
        }
        for (q = 0, s = 0; q < n_nodes; q++) {
            repro_node *nd = nodes + q;
            const int64_t n_obs = nd->n_obs;
            int64_t *node_missed = missed + q * n_lookups * n_beta;
            const int64_t k0 = l * n_obs, k1 = k0 + n_obs;
            k = n_obs;
            c.nd = nd;
            c.hits = c.evaluations = 0;
            c.contig = contig[q];
            if (c.contig && n_obs) {
                c.vrow = c.uv + nd->obs[0];
            } else {
                for (j = 0; j < n_obs; j++)
                    vbuf[j] = c.uv[nd->obs[j]];
                c.vrow = vbuf;
            }
            memset(c.seen, 0, (size_t)n_memo);
            if (grid) {
                grid_best(&c, act, prop, node_missed, prop_score,
                          nd->best_score + k0,
                          nd->best_idx ? nd->best_idx + k0 : best_idx);
                nd->hits += c.hits;
                nd->evaluations += c.evaluations;
                continue;
            }
            for (i = 0; i < k; i++, s++) {
                d[i] = draws_from(nd->gen, nd->key,
                                  nd->offset + (uint64_t)((k0 + i) * per_item));
                if (nd->gen == MRG) {
                    memcpy(d[i].x, seats[s].x, sizeof d[i].x);
                    d[i].at = d[i].offset + 1;
                } else {
                    memcpy(d[i].kept + 1, seats[s].x, sizeof seats[s].x);
                    d[i].block = d[i].offset / 4 + 1;
                }
                c.ucol[i] = nd->obs[i];
                c.mrow[i] = c.ur[c.ucol[i]];
                cur_idx[i] = seats[s].beta;
                rejects[i] = 0;
                act[i] = i;
                n_steps[i] = 0;
            }
            chain_lookup(&c, act, k, cur_idx, node_missed, cur_score);
            for (i = 0; i < k; i++) {
                nd->best_score[k0 + i] = cur_score[i];
                best_idx[i] = cur_idx[i];
            }
            for (step = 0; step < max_steps && k > 0; step++) {
                int64_t kept = 0;
                for (j = 0; j < k; j++) {
                    const double u_prop = draw(d + act[j], 1 + 2 * step),
                                 u_acc = draw(d + act[j], 2 + 2 * step);
                    int64_t p = cur_idx[act[j]] + (u_prop < 0.5 ? -1 : 1);
                    p = p < 0 ? 1 : p;
                    prop[j] = p >= n_beta ? n_beta - 2 : p;
                    /* np.maximum(u_acc, 1e-300): NaN propagates */
                    log_u[j] =
                        (u_acc != u_acc || u_acc > 1e-300) ? u_acc : 1e-300;
                }
                chain_lookup(&c, act, k, prop,
                             node_missed + (step + 1) * n_beta, prop_score);
                apply_log(log_u, k);
                for (j = 0; j < k; j++) {
                    const int64_t p = prop[j];
                    bits ps, cur, best;
                    int64_t acc, better, r;
                    i = act[j];
                    ps.d = prop_score[j];
                    cur.d = cur_score[i];
                    best.d = nd->best_score[k0 + i];
                    /* all-ones masks: accepted, and a new best */
                    acc = -(int64_t)(log_u[j] < ps.d - cur.d);
                    better = acc & -(int64_t)(ps.d > best.d);
                    r = (rejects[i] + 1) & ~acc;
                    /* active items only leave: it has taken every step */
                    n_steps[i] = step + 1;
                    cur_idx[i] = (p & acc) | (cur_idx[i] & ~acc);
                    cur.i = (ps.i & acc) | (cur.i & ~acc);
                    cur_score[i] = cur.d;
                    best_idx[i] = (p & better) | (best_idx[i] & ~better);
                    best.i = (ps.i & better) | (best.i & ~better);
                    nd->best_score[k0 + i] = best.d;
                    rejects[i] = r;
                    act[kept] = i;
                    kept += (acc & 1) | (r < stop_repeats);
                }
                k = kept;
            }
            for (i = k0; i < k1; i++) {
                nd->best_score[i] = rint(nd->best_score[i] / quantum) * quantum;
                blocks += d[i - k0].blocks;
            }
            if (nd->steps)
                memcpy(nd->steps + k0, n_steps,
                       (size_t)(k1 - k0) * sizeof(int64_t));
            if (nd->best_idx)
                memcpy(nd->best_idx + k0, best_idx,
                       (size_t)(k1 - k0) * sizeof(int64_t));
            nd->hits += c.hits;
            nd->evaluations += c.evaluations;
        }
    }
    /* peak = the largest same-beta chunk of any lookup:
     * min(keys missed at that beta, chunk_rows) rows of n_obs */
    for (q = 0; q < n_nodes; q++)
        for (i = 0; i < n_lookups * n_beta; i++) {
            int64_t rows = missed[q * n_lookups * n_beta + i];
            if (rows > nodes[q].chunk_rows)
                rows = nodes[q].chunk_rows;
            if (rows * nodes[q].n_obs > nodes[q].peak)
                nodes[q].peak = rows * nodes[q].n_obs;
        }
    table_counters[0] = c.filled;
    table_counters[1] = c.uses;
    table_counters[2] = blocks;
    free(ibuf);
    free(dbuf);
    free(bbuf);
    free(d);
    return 0;
}

/* normal_gamma.log_marginal minus the gammaln(alpha_N) term, which the
 * sweeps read from their gammaln table and pass in.  Every expression mirrors the
 * NumPy path's evaluation order; the two np.log calls go through the
 * active transcendental provider in blocks.  p = {mu0, lambda0, alpha0,
 * beta0, log_lambda0, log_beta0, lgamma_alpha0, log_2pi}. */
static void log_marginal_core(const double *n, const double *s,
                              const double *q, const double *lgam_alpha_n,
                              int64_t size, const double *p, double *out)
{
    enum { BLOCK = 512 };
    const double mu0 = p[0], lambda0 = p[1], alpha0 = p[2], beta0 = p[3];
    const double log_lambda0 = p[4], log_beta0 = p[5];
    const double lgamma_alpha0 = p[6], log_2pi = p[7];
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
}

/* GibbsRandom.weighted_choice_logs over logs[0..n) with its one uniform:
 * rint quantisation, exp(logs - peak) through the provider, pairwise
 * total, sequential cumsum, first cum > u * total.  A non-finite entry
 * weighs 0, which is the masked branch; on an all-finite vector the same
 * expressions are the unmasked branch (its peak is the finite peak).  With
 * no finite entry the draw picks uniformly, as the randint fallback does.
 * logs is quantised in place; w is n doubles of scratch. */
static int64_t weighted_choice(double *logs, int64_t n, double u,
                               double quantum, double *w)
{
    int64_t i, idx, any = 0;
    double peak = 0.0, total, cum = 0.0;
    for (i = 0; i < n; i++) {
        logs[i] = rint(logs[i] / quantum) * quantum;
        if (isfinite(logs[i])) {
            if (!any || logs[i] > peak)
                peak = logs[i];
            any = 1;
        }
    }
    if (!any) {
        idx = (int64_t)(u * (double)n);
        return idx < n - 1 ? idx : n - 1;
    }
    for (i = 0; i < n; i++)
        w[i] = isfinite(logs[i]) ? logs[i] - peak : 0.0;
    apply_exp(w, n);
    for (i = 0; i < n; i++)
        if (!isfinite(logs[i]))
            w[i] = 0.0;
    total = pw_sum(w, n);
    u *= total;
    for (idx = 0; idx < n; idx++) {
        cum += w[idx];
        if (cum > u)
            break;
    }
    return idx < n - 1 ? idx : n - 1;
}

/* One ObsClustering under a sweep: its own labels / statistics / marginals
 * (buffers of at least m + 1 slots: all-singletons plus a fresh cluster is
 * the most a sweep holds, for one move), the integer cluster sizes that
 * index the gammaln table lgam[t] = gammaln(alpha0 + rows * t / 2), and
 * per-call scratch: seven vectors of m + 3 candidates, the gathered column
 * and its squares. */
typedef struct {
    int64_t m, k;
    int64_t *labels, *sizes;
    double *count, *total, *sumsq, *lm;
    const double *lgam;
    double *n, *s, *q, *lg, *scored, *scores, *w, *col, *colsq;
} sweep_ctx;

/* Everything the loops below index by is checked here, before the first
 * write: labels inside [0, k), no empty cluster (so k <= m holds between
 * moves), counts equal to rows * size (so every count the sweep forms is a
 * table entry).  -1 allocation, -2 state. */
static int sweep_begin(sweep_ctx *c, int64_t rows)
{
    int64_t i, cap = c->m + 3;
    c->sizes = (int64_t *)calloc((size_t)cap, sizeof(int64_t));
    c->n = (double *)malloc((size_t)(7 * cap + 2 * rows) * sizeof(double));
    if (!c->sizes || !c->n)
        return -1;
    c->s = c->n + cap;
    c->q = c->s + cap;
    c->lg = c->q + cap;
    c->scored = c->lg + cap;
    c->scores = c->scored + cap;
    c->w = c->scores + cap;
    c->col = c->w + cap;
    c->colsq = c->col + rows;
    for (i = 0; i < c->m; i++) {
        if (c->labels[i] < 0 || c->labels[i] >= c->k)
            return -2;
        c->sizes[c->labels[i]]++;
    }
    for (i = 0; i < c->k; i++)
        if (c->sizes[i] < 1 || c->count[i] != (double)(rows * c->sizes[i]))
            return -2;
    return 0;
}

static int sweep_end(sweep_ctx *c, int64_t *k_io, int rc)
{
    if (!rc)
        *k_io = c->k;
    free(c->sizes);
    free(c->n);
    return rc;
}

/* ObsClustering._drop_cluster: shift the buffers down over the emptied
 * slot and renumber the labels above it. */
static void sweep_drop(sweep_ctx *c, int64_t cl)
{
    size_t tail = (size_t)(c->k - 1 - cl);
    int64_t j;
    memmove(c->count + cl, c->count + cl + 1, tail * sizeof(double));
    memmove(c->total + cl, c->total + cl + 1, tail * sizeof(double));
    memmove(c->sumsq + cl, c->sumsq + cl + 1, tail * sizeof(double));
    memmove(c->lm + cl, c->lm + cl + 1, tail * sizeof(double));
    memmove(c->sizes + cl, c->sizes + cl + 1, tail * sizeof(int64_t));
    for (j = 0; j < c->m; j++)
        if (c->labels[j] > cl)
            c->labels[j]--;
    c->k--;
}

/* Candidate slot i <- block `cl` with (dn, ds, dq) added and dt more
 * observations; the slot of the move's own cluster (whose score is
 * overwritten with the 0 baseline, and whose size could leave the table)
 * is scored as an empty block instead. */
static void sweep_stack(sweep_ctx *c, int64_t i, int64_t cl, int skip,
                        double dn, double ds, double dq, int64_t dt)
{
    if (skip) {
        c->n[i] = c->s[i] = c->q[i] = 0.0;
        c->lg[i] = c->lgam[0];
        return;
    }
    c->n[i] = c->count[cl] + dn;
    c->s[i] = c->total[cl] + ds;
    c->q[i] = c->sumsq[cl] + dq;
    c->lg[i] = c->lgam[c->sizes[cl] + dt];
}

/* The move: cluster `cl` takes the statistics and marginal scored in
 * candidate slot `slot` (the operations the NumPy move would repeat on the
 * same operands) and now holds `size` observations. */
static void sweep_adopt(sweep_ctx *c, int64_t cl, int64_t slot, int64_t size)
{
    c->count[cl] = c->n[slot];
    c->total[cl] = c->s[slot];
    c->sumsq[cl] = c->q[slot];
    c->lm[cl] = c->scored[slot];
    c->sizes[cl] = size;
}

/* coclustering.reassign_obs_sweep over block (rows x m, C order): m moves,
 * draw 2i picks the observation and draw 2i + 1 the target (draws offset
 * on of the stream (gen, key)).
 * k_trace, when not NULL, receives the cluster count each move was scored
 * against (what the recorder's cost vector is sized by). */
int repro_obs_reassign_sweep(const double *block, int64_t rows, int64_t m,
                             int64_t *labels, double *count, double *total,
                             double *sumsq, double *lm, int64_t *k_io,
                             int64_t gen, uint64_t key,
                             uint64_t offset, const double *lgam,
                             const double *prior, double quantum,
                             int64_t *k_trace)
{
    sweep_ctx c = {.m = m, .k = *k_io, .labels = labels, .sizes = NULL,
                   .count = count, .total = total, .sumsq = sumsq,
                   .lm = lm, .lgam = lgam};
    draws d = draws_from(gen, key, offset);
    const double cn = (double)rows;
    int64_t it, r, cl;
    int rc = sweep_begin(&c, rows);
    if (rc)
        return sweep_end(&c, k_io, rc);
    for (it = 0; it < m; it++) {
        int64_t k = c.k, obs, src, choice;
        double cs, cq, rem_delta;
        obs = (int64_t)(draw(&d, 2 * it) * (double)m);
        if (obs > m - 1)
            obs = m - 1;
        src = labels[obs];
        for (r = 0; r < rows; r++) {
            c.col[r] = block[r * m + obs];
            c.colsq[r] = c.col[r] * c.col[r];
        }
        cs = pw_sum(c.col, rows);
        cq = pw_sum(c.colsq, rows);
        if (k_trace)
            k_trace[it] = k;
        /* the k candidate blocks with the column added, the source block
         * with it removed, the column alone */
        for (cl = 0; cl < k; cl++)
            sweep_stack(&c, cl, cl, cl == src, cn, cs, cq, 1);
        sweep_stack(&c, k, src, 0, -cn, -cs, -cq, -1);
        c.n[k + 1] = cn;
        c.s[k + 1] = cs;
        c.q[k + 1] = cq;
        c.lg[k + 1] = lgam[1];
        log_marginal_core(c.n, c.s, c.q, c.lg, k + 2, prior, c.scored);
        rem_delta = c.scored[k] - lm[src];
        for (cl = 0; cl < k; cl++)
            c.scores[cl] = (c.scored[cl] - lm[cl]) + rem_delta;
        c.scores[src] = 0.0;
        c.scores[k] = rem_delta + c.scored[k + 1];
        choice = weighted_choice(c.scores, k + 1, draw(&d, 2 * it + 1),
                                 quantum, c.w);
        if (choice == src)
            continue;
        sweep_adopt(&c, src, k, c.sizes[src] - 1);
        if (choice == k) { /* fresh: slot k + 1 is the column alone */
            sweep_adopt(&c, k, k + 1, 1);
            c.k++;
        } else {
            sweep_adopt(&c, choice, choice, c.sizes[choice] + 1);
        }
        labels[obs] = choice;
        if (count[src] <= 0.0)
            sweep_drop(&c, src);
    }
    return sweep_end(&c, k_io, 0);
}

/* coclustering.merge_obs_sweep: one pass over the clusters, one uniform
 * per iteration; every iteration either advances or removes a cluster, so
 * there are exactly k-at-entry of them. */
int repro_obs_merge_sweep(int64_t rows, int64_t m, int64_t *labels,
                          double *count, double *total, double *sumsq,
                          double *lm, int64_t *k_io, int64_t gen,
                          uint64_t key, uint64_t offset, const double *lgam,
                          const double *prior, double quantum,
                          int64_t *k_trace)
{
    sweep_ctx c = {.m = m, .k = *k_io, .labels = labels, .sizes = NULL,
                   .count = count, .total = total, .sumsq = sumsq,
                   .lm = lm, .lgam = lgam};
    draws d = draws_from(gen, key, offset);
    int64_t it = 0, cid = 0, cl, j;
    int rc = sweep_begin(&c, rows);
    if (rc)
        return sweep_end(&c, k_io, rc);
    while (cid < c.k) {
        int64_t k = c.k, choice;
        if (k_trace)
            k_trace[it] = k;
        for (cl = 0; cl < k; cl++)
            sweep_stack(&c, cl, cl, cl == cid, count[cid], total[cid],
                        sumsq[cid], c.sizes[cid]);
        log_marginal_core(c.n, c.s, c.q, c.lg, k, prior, c.scored);
        for (cl = 0; cl < k; cl++)
            c.scores[cl] = (c.scored[cl] - lm[cl]) - lm[cid];
        c.scores[cid] = 0.0;
        choice = weighted_choice(c.scores, k, draw(&d, it++), quantum, c.w);
        if (choice == cid) {
            cid++;
            continue;
        }
        sweep_adopt(&c, choice, choice, c.sizes[choice] + c.sizes[cid]);
        for (j = 0; j < m; j++)
            if (labels[j] == cid)
                labels[j] = choice;
        sweep_drop(&c, cid);
    }
    return sweep_end(&c, k_io, 0);
}

/* A packed CoClusterState under a variable sweep.  A *slot* names a cluster
 * for the length of the sweep: the k0 clusters at entry are slots
 * 0..k0-1, the j-th cluster a reassign sweep opens is slot k0 + j.
 * Positions — what var_labels and the candidate order mean — map to slots
 * through slot_at, so dropping a cluster shifts that one array.  A variable
 * sweep never changes an observation partition, so a slot's blocks stay at
 * one place in the flat per-block arrays: slot c < k0 at offsets[c], labelled
 * by row c of obs_labels; fresh slot k0 + j is the single block n_blocks + j
 * holding every observation.  Each slot's members are a doubly linked list:
 * remove / append / extend keep the order data[members].sum(axis=0) and the
 * observation sweeps' column sums run in.  The stacked arrays are the
 * oracle's: the live clusters' blocks in position order from bounds[p],
 * then what the move appends. */
typedef struct {
    int64_t n, m, k, k0, n_slots, n_blocks;
    const double *data, *lgam, *prior;
    const int64_t *obs_labels;
    double *count, *total, *sumsq, *lm;
    int64_t *slot_at;
    int64_t *off, *kc, *head, *tail, *size, *pos_of; /* per slot */
    int64_t *bsize;                                  /* per block */
    int64_t *vslot, *next, *prev;                    /* per variable */
    int64_t *bounds, *zeros;
    double *sn, *ss, *sq, *lg, *scored, *delta, *as, *aq; /* stacked */
    double *scores, *w, *wsum, *wsq, *gather;
} var_ctx;

static void var_link(var_ctx *c, int64_t s, int64_t v)
{
    c->prev[v] = c->tail[s];
    c->next[v] = -1;
    if (c->tail[s] < 0)
        c->head[s] = v;
    else
        c->next[c->tail[s]] = v;
    c->tail[s] = v;
    c->vslot[v] = s;
}

static void var_unlink(var_ctx *c, int64_t s, int64_t v)
{
    if (c->prev[v] < 0)
        c->head[s] = c->next[v];
    else
        c->next[c->prev[v]] = c->next[v];
    if (c->next[v] < 0)
        c->tail[s] = c->prev[v];
    else
        c->prev[c->next[v]] = c->prev[v];
}

/* Everything the loops index by is checked here, before the first write to
 * a caller's buffer.  -1 allocation, -2 variable labels / member lists (a
 * label outside [0, k0), an empty cluster, a variable listed twice or under
 * another cluster), -4 observation labels outside a cluster's [0, k_c), -5
 * offsets that do not tile the block arrays, -6 counts that are not
 * members x block size (so every count the sweep forms is a gammaln-table
 * entry).  max_fresh bounds the clusters the sweep can open. */
static int var_begin(var_ctx *c, const int64_t *var_labels,
                     const int64_t *member_order, const int64_t *offsets,
                     int64_t max_fresh)
{
    const int64_t n = c->n, m = c->m, k0 = c->k0;
    const int64_t n_slots = k0 + max_fresh;
    const int64_t cap_blocks = c->n_blocks + max_fresh;
    const int64_t cap = cap_blocks + c->n_blocks + 1;
    int64_t i, j, s, idx = 0, *ip;
    double *dp;
    c->off = NULL;
    c->sn = NULL;
    for (s = 0; s < k0; s++)
        if (offsets[s + 1] <= offsets[s])
            return -5;
    if (offsets[0] != 0 || offsets[k0] != c->n_blocks)
        return -5;
    ip = (int64_t *)calloc(
        (size_t)(6 * n_slots + cap_blocks + 4 * n + 2 + m), sizeof(int64_t));
    dp = (double *)malloc(
        (size_t)(8 * cap + 4 * n + 4 + 2 * m) * sizeof(double));
    c->off = ip; /* the two allocations var_end frees */
    c->sn = dp;
    if (!ip || !dp)
        return -1;
    c->kc = ip + n_slots;
    c->head = ip + 2 * n_slots;
    c->tail = ip + 3 * n_slots;
    c->size = ip + 4 * n_slots;
    c->pos_of = ip + 5 * n_slots;
    c->bsize = ip + 6 * n_slots;
    c->vslot = c->bsize + cap_blocks;
    c->next = c->vslot + n;
    c->prev = c->next + n;
    c->bounds = c->prev + n;
    c->zeros = c->bounds + n + 2;
    c->ss = dp + cap;
    c->sq = dp + 2 * cap;
    c->lg = dp + 3 * cap;
    c->scored = dp + 4 * cap;
    c->delta = dp + 5 * cap;
    c->as = dp + 6 * cap;
    c->aq = dp + 7 * cap;
    c->scores = dp + 8 * cap;
    c->w = c->scores + n + 2;
    c->wsum = c->w + n + 2;
    c->wsq = c->wsum + m;
    c->gather = c->wsq + m;

    for (i = 0; i < n; i++) {
        if (var_labels[i] < 0 || var_labels[i] >= k0)
            return -2;
        c->size[var_labels[i]]++;
        c->vslot[i] = -1;
    }
    for (s = 0; s < k0; s++)
        if (c->size[s] < 1)
            return -2;
    for (s = 0; s < k0; s++) {
        const int64_t *lab = c->obs_labels + s * m;
        c->off[s] = offsets[s];
        c->kc[s] = offsets[s + 1] - offsets[s];
        c->head[s] = c->tail[s] = -1;
        for (j = 0; j < c->size[s]; j++) {
            int64_t v = member_order[idx++];
            if (v < 0 || v >= n || var_labels[v] != s || c->vslot[v] >= 0)
                return -2;
            var_link(c, s, v);
        }
        for (j = 0; j < m; j++) {
            if (lab[j] < 0 || lab[j] >= c->kc[s])
                return -4;
            c->bsize[c->off[s] + lab[j]]++;
        }
        for (i = c->off[s]; i < offsets[s + 1]; i++)
            if (c->count[i] != (double)(c->size[s] * c->bsize[i]))
                return -6;
    }
    for (s = 0; s < k0; s++)
        c->slot_at[s] = c->pos_of[s] = s;
    c->k = c->n_slots = k0;
    return 0;
}

/* On success the clusters in position order: var_labels, the members of
 * each (member_order, member_counts) and, left in slot_at by the sweep, the
 * slot each came from. */
static int var_end(var_ctx *c, int64_t *var_labels, int64_t *member_order,
                   int64_t *member_counts, int64_t *k_io, int rc)
{
    if (!rc) {
        int64_t p, v, idx = 0;
        for (p = 0; p < c->k; p++) {
            int64_t s = c->slot_at[p];
            member_counts[p] = c->size[s];
            for (v = c->head[s]; v >= 0; v = c->next[v]) {
                member_order[idx++] = v;
                var_labels[v] = p;
            }
        }
        *k_io = c->k;
    }
    free(c->off);
    free(c->sn);
    return rc;
}

/* CoClusterState._stacked_lm's stacking: for every live cluster the
 * np.bincount of the moved rows' column sums (wsum, wsq) over its
 * observation labels — sequential accumulation in observation order — and
 * its blocks with `rows` rows of them added.  The cluster at position `skip`
 * (the move's own: its score is overwritten with the 0 baseline, and its
 * count could leave the table) is stacked as empty blocks.  Returns the
 * number of blocks stacked. */
static int64_t var_stack(var_ctx *c, int64_t rows, const double *wsum,
                         const double *wsq, int64_t skip)
{
    int64_t p, i, j, base = 0;
    for (p = 0; p < c->k; p++) {
        int64_t s = c->slot_at[p], kc = c->kc[s], off = c->off[s];
        const int64_t *lab = s < c->k0 ? c->obs_labels + s * c->m : c->zeros;
        double *as = c->as + base, *aq = c->aq + base;
        c->bounds[p] = base;
        for (i = 0; i < kc; i++)
            as[i] = aq[i] = 0.0;
        for (j = 0; j < c->m; j++) {
            as[lab[j]] += wsum[j];
            aq[lab[j]] += wsq[j];
        }
        for (i = 0; i < kc; i++, base++) {
            if (p == skip) {
                c->sn[base] = c->ss[base] = c->sq[base] = 0.0;
                c->lg[base] = c->lgam[0];
                continue;
            }
            c->sn[base] = c->count[off + i]
                        + (double)(rows * c->bsize[off + i]);
            c->ss[base] = c->total[off + i] + as[i];
            c->sq[base] = c->sumsq[off + i] + aq[i];
            c->lg[base] = c->lgam[(int64_t)c->sn[base]];
        }
    }
    c->bounds[c->k] = base;
    return base;
}

/* One scoring call over the n_stacked slots, then np.add.reduceat of the
 * marginals' change per live cluster into scores[p]: the segment's first
 * element plus the pairwise sum of the rest. */
static void var_score(var_ctx *c, int64_t n_stacked)
{
    int64_t p, i;
    log_marginal_core(c->sn, c->ss, c->sq, c->lg, n_stacked, c->prior,
                      c->scored);
    for (p = 0; p < c->k; p++) {
        int64_t s = c->slot_at[p], base = c->bounds[p];
        for (i = 0; i < c->kc[s]; i++)
            c->delta[base + i] = c->scored[base + i] - c->lm[c->off[s] + i];
        c->scores[p] = c->delta[base]
                     + pw_sum(c->delta + base + 1, c->kc[s] - 1);
    }
}

/* The move: slot s takes the statistics and marginals scored in stacked
 * slots from `from` on (the operations the NumPy move would repeat on the
 * same operands).  StatsArrays.grouped's refusal of a NaN total cannot
 * trigger here: such a candidate scores NaN and is never drawn. */
static void var_adopt(var_ctx *c, int64_t s, int64_t from)
{
    int64_t i, off = c->off[s];
    for (i = 0; i < c->kc[s]; i++) {
        c->count[off + i] = c->sn[from + i];
        c->total[off + i] = c->ss[from + i];
        c->sumsq[off + i] = c->sq[from + i];
        c->lm[off + i] = c->scored[from + i];
    }
}

/* CoClusterState._drop_cluster at position p. */
static void var_drop(var_ctx *c, int64_t p)
{
    for (; p < c->k - 1; p++) {
        c->slot_at[p] = c->slot_at[p + 1];
        c->pos_of[c->slot_at[p]] = p;
    }
    c->k--;
}

/* coclustering.reassign_var_sweep over data (n x m, C order): n moves,
 * draw 2i picks the variable and draw 2i + 1 the target (draws offset on of
 * the stream (gen, key)).  moves,
 * when not NULL, receives per iteration whether a cluster was opened and
 * the position dropped (-1: none) — what a recorder needs to rebuild the
 * clusters every iteration was scored against. */
int repro_var_reassign_sweep(const double *data, int64_t n, int64_t m,
                             int64_t *var_labels, int64_t *member_order,
                             const int64_t *obs_labels,
                             const int64_t *offsets, int64_t n_blocks,
                             int64_t *k_io, double *count, double *total,
                             double *sumsq, double *lm,
                             int64_t gen, uint64_t key,
                             uint64_t offset, const double *lgam,
                             const double *prior, double quantum,
                             int64_t *origin, int64_t *member_counts,
                             int64_t *moves)
{
    var_ctx c = {.n = n, .m = m, .k = 0, .k0 = *k_io, .n_slots = 0,
                 .n_blocks = n_blocks, .data = data, .lgam = lgam,
                 .prior = prior, .obs_labels = obs_labels, .count = count,
                 .total = total, .sumsq = sumsq, .lm = lm, .slot_at = origin};
    draws d = draws_from(gen, key, offset);
    int64_t it, i, j;
    int rc = var_begin(&c, var_labels, member_order, offsets, n);
    for (it = 0; !rc && it < n; it++) {
        int64_t k = c.k, var, src, ps, kcs, removed, fresh, choice;
        const double *row;
        double rem_delta;
        var = (int64_t)(draw(&d, 2 * it) * (double)n);
        if (var > n - 1)
            var = n - 1;
        row = data + var * m;
        for (j = 0; j < m; j++)
            c.wsq[j] = row[j] * row[j];
        src = c.vslot[var];
        ps = c.pos_of[src];
        kcs = c.kc[src];
        /* the k candidate clusters with the row added, the source's blocks
         * with it removed, the row alone */
        removed = var_stack(&c, 1, row, c.wsq, ps);
        for (i = 0; i < kcs; i++) {
            int64_t b = c.off[src] + i, a = c.bounds[ps] + i;
            c.sn[removed + i] = count[b] - (double)c.bsize[b];
            c.ss[removed + i] = total[b] - c.as[a];
            c.sq[removed + i] = sumsq[b] - c.aq[a];
            c.lg[removed + i] = lgam[(int64_t)c.sn[removed + i]];
        }
        fresh = removed + kcs;
        c.sn[fresh] = (double)m;
        c.ss[fresh] = pw_sum(row, m);
        c.sq[fresh] = pw_sum(c.wsq, m);
        c.lg[fresh] = lgam[m];
        var_score(&c, fresh + 1);
        for (i = 0; i < kcs; i++)
            c.delta[removed + i] = c.scored[removed + i] - lm[c.off[src] + i];
        rem_delta = pw_sum(c.delta + removed, kcs);
        for (i = 0; i < k; i++)
            c.scores[i] = rem_delta + c.scores[i];
        c.scores[ps] = 0.0;
        c.scores[k] = rem_delta + c.scored[fresh];
        choice = weighted_choice(c.scores, k + 1, draw(&d, 2 * it + 1),
                                 quantum, c.w);
        if (moves) {
            moves[2 * it] = choice == k;
            moves[2 * it + 1] = -1;
        }
        if (choice == ps)
            continue;
        var_adopt(&c, src, removed);
        var_unlink(&c, src, var);
        c.size[src]--;
        if (choice == k) {
            /* ObsClustering.from_block of the row alone: one block, its
             * sums bincount's sequential ones (the scored singleton used
             * the pairwise sum), its marginal scored from them */
            int64_t s = c.n_slots++, b = c.n_blocks++;
            double t = 0.0, q = 0.0;
            for (j = 0; j < m; j++) {
                t += row[j];
                q += c.wsq[j];
            }
            count[b] = (double)m;
            total[b] = t;
            sumsq[b] = q;
            log_marginal_core(count + b, total + b, sumsq + b, lgam + m, 1,
                              prior, lm + b);
            c.off[s] = b;
            c.kc[s] = 1;
            c.bsize[b] = m;
            c.head[s] = c.tail[s] = -1;
            c.size[s] = 1;
            c.slot_at[k] = s;
            c.pos_of[s] = k;
            c.k++;
            var_link(&c, s, var);
        } else {
            int64_t s = c.slot_at[choice];
            var_adopt(&c, s, c.bounds[choice]);
            var_link(&c, s, var);
            c.size[s]++;
        }
        if (c.size[src] == 0) {
            var_drop(&c, ps);
            if (moves)
                moves[2 * it + 1] = ps;
        }
    }
    return var_end(&c, var_labels, member_order, member_counts, k_io, rc);
}

/* coclustering.merge_var_sweep: one pass over the clusters, one uniform per
 * iteration, exactly k-at-entry of them.  The merging cluster's column sums
 * are data[members].sum(axis=0): row by row in member order, or — a single
 * column, which NumPy reduces as a contiguous vector — pairwise. */
int repro_var_merge_sweep(const double *data, int64_t n, int64_t m,
                          int64_t *var_labels, int64_t *member_order,
                          const int64_t *obs_labels, const int64_t *offsets,
                          int64_t n_blocks, int64_t *k_io, double *count,
                          double *total, double *sumsq, double *lm,
                          int64_t gen, uint64_t key,
                          uint64_t offset, const double *lgam,
                          const double *prior, double quantum,
                          int64_t *origin, int64_t *member_counts,
                          int64_t *moves)
{
    var_ctx c = {.n = n, .m = m, .k = 0, .k0 = *k_io, .n_slots = 0,
                 .n_blocks = n_blocks, .data = data, .lgam = lgam,
                 .prior = prior, .obs_labels = obs_labels, .count = count,
                 .total = total, .sumsq = sumsq, .lm = lm, .slot_at = origin};
    draws d = draws_from(gen, key, offset);
    int64_t it = 0, cid = 0, i, j, v;
    int rc = var_begin(&c, var_labels, member_order, offsets, 0);
    while (!rc && cid < c.k) {
        int64_t k = c.k, sc = c.slot_at[cid], rows = c.size[sc], choice, s;
        double own;
        if (m == 1) {
            for (i = 0, v = c.head[sc]; v >= 0; v = c.next[v], i++) {
                c.gather[i] = data[v];
                c.gather[n + i] = data[v] * data[v];
            }
            c.wsum[0] = pw_sum(c.gather, rows);
            c.wsq[0] = pw_sum(c.gather + n, rows);
        } else {
            for (j = 0; j < m; j++)
                c.wsum[j] = c.wsq[j] = 0.0;
            for (v = c.head[sc]; v >= 0; v = c.next[v]) {
                const double *row = data + v * m;
                for (j = 0; j < m; j++) {
                    c.wsum[j] += row[j];
                    c.wsq[j] += row[j] * row[j];
                }
            }
        }
        var_score(&c, var_stack(&c, rows, c.wsum, c.wsq, cid));
        own = pw_sum(lm + c.off[sc], c.kc[sc]);
        for (i = 0; i < k; i++)
            c.scores[i] -= own;
        c.scores[cid] = 0.0;
        choice = weighted_choice(c.scores, k, draw(&d, it), quantum, c.w);
        if (moves) {
            moves[2 * it] = 0;
            moves[2 * it + 1] = choice == cid ? -1 : cid;
        }
        it++;
        if (choice == cid) {
            cid++;
            continue;
        }
        s = c.slot_at[choice];
        var_adopt(&c, s, c.bounds[choice]);
        for (v = c.head[sc]; v >= 0; v = i) {
            i = c.next[v];
            var_link(&c, s, v);
        }
        c.size[s] += rows;
        c.size[sc] = 0;
        c.head[sc] = c.tail[sc] = -1;
        var_drop(&c, cid);
    }
    return var_end(&c, var_labels, member_order, member_counts, k_io, rc);
}
"""


def ffibuilder():
    """The cffi builder of ``repro._native._native_kernel``."""
    from cffi import FFI

    ffi = FFI()
    ffi.cdef(CDEF)
    ffi.set_source("repro._native._native_kernel", CSOURCE, libraries=["m", "dl"])
    return ffi


if __name__ == "__main__":  # pragma: no cover - manual AOT build entry
    ffibuilder().compile(verbose=True)
