#include "common/simd.hh"

#include <functional>
#include <limits>

// On x86-64 GNU compilers every kernel is built twice, for AVX2 and
// for the baseline ISA, and GCC's ifunc resolver picks one at load
// time. Neither target enables FMA and ISO C++ mode keeps
// -ffp-contract=off, so both clones round each lane exactly like
// scalar_ref. A build may predefine the macro empty to get the
// baseline code alone; the kernel tests do, so that code is tested on
// AVX2 hosts too.
#ifndef XPRO_SIMD_CLONES
#if defined(__x86_64__) && defined(__GNUC__)
#define XPRO_SIMD_CLONES                                               \
    __attribute__((target_clones("avx2", "default")))
#define XPRO_SIMD_AVX2_CLONE 1
#else
#define XPRO_SIMD_CLONES
#endif
#endif

namespace xpro
{

namespace scalar_ref
{

double
dot(const double *a, const double *b, size_t n)
{
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i)
        acc += a[i] * b[i];
    return acc;
}

double
squaredNorm(const double *a, size_t n)
{
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i)
        acc += a[i] * a[i];
    return acc;
}

void
scale(double *dst, const double *src, double c, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] = c * src[i];
}

void
axpy(double *dst, const double *src, double c, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] += c * src[i];
}

size_t
smoSelectUp(const double *error, const double *upOffset, size_t n,
            double *gmax)
{
    double best = -std::numeric_limits<double>::infinity();
    size_t at = n;
    for (size_t t = 0; t < n; ++t) {
        const double v = upOffset[t] - error[t];
        if (v > best) {
            best = v;
            at = t;
        }
    }
    *gmax = best;
    return at;
}

size_t
pairUpdateSelectUp(double *error, const double *rowI,
                   const double *rowJ, double di, double dj,
                   const double *upOffset, size_t n, double *gmax)
{
    for (size_t k = 0; k < n; ++k)
        error[k] += di * rowI[k] + dj * rowJ[k];
    return smoSelectUp(error, upOffset, n, gmax);
}

size_t
smoSelectLow(const double *error, const double *lowOffset,
             const double *rowI, const double *diag, double kii,
             double gmax, double tau, size_t n, double *gmax2)
{
    double top = -std::numeric_limits<double>::infinity();
    double best = std::numeric_limits<double>::infinity();
    size_t at = n;
    for (size_t t = 0; t < n; ++t) {
        const double v = error[t] + lowOffset[t];
        if (v > top)
            top = v;
        const double b = gmax + v;
        if (!(b > 0.0))
            continue;
        double a = (kii + diag[t]) - 2.0 * rowI[t];
        if (a < tau)
            a = tau;
        const double objective = -(b * b) / a;
        if (objective < best) {
            best = objective;
            at = t;
        }
    }
    *gmax2 = top;
    return at;
}

void
zscore(double *dst, const double *src, double mu, double sigma,
       size_t n)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] = (src[i] - mu) / sigma;
}

void
maxMinSumPacked(const double *packed, size_t n, double *maxOut,
                double *minOut, double *sumOut)
{
    for (size_t j = 0; j < simdPackWidth; ++j) {
        double mx = packed[j];
        double mn = packed[j];
        double sum = 0.0;
        for (size_t i = 0; i < n; ++i) {
            const double v = packed[i * simdPackWidth + j];
            if (mx < v)
                mx = v;
            if (v < mn)
                mn = v;
            sum += v;
        }
        maxOut[j] = mx;
        minOut[j] = mn;
        sumOut[j] = sum;
    }
}

void
centeredSquareSumPacked(const double *packed, size_t n,
                        const double *mu, double *accOut)
{
    for (size_t j = 0; j < simdPackWidth; ++j) {
        double acc = 0.0;
        for (size_t i = 0; i < n; ++i) {
            const double d = packed[i * simdPackWidth + j] - mu[j];
            acc += d * d;
        }
        accOut[j] = acc;
    }
}

void
signCrossingsPacked(const double *packed, size_t n, double *out)
{
    for (size_t j = 0; j < simdPackWidth; ++j) {
        size_t crossings = 0;
        for (size_t i = 1; i < n; ++i) {
            const bool prev =
                packed[(i - 1) * simdPackWidth + j] < 0.0;
            const bool cur = packed[i * simdPackWidth + j] < 0.0;
            crossings += prev != cur;
        }
        out[j] = static_cast<double>(crossings);
    }
}

void
moment34Packed(const double *packed, size_t n, const double *mu,
               const double *sigma, double *acc3, double *acc4)
{
    for (size_t j = 0; j < simdPackWidth; ++j) {
        double a3 = 0.0;
        double a4 = 0.0;
        for (size_t i = 0; i < n; ++i) {
            const double z =
                (packed[i * simdPackWidth + j] - mu[j]) / sigma[j];
            const double z3 = z * z * z;
            a3 += z3;
            a4 += z3 * z;
        }
        acc3[j] = a3;
        acc4[j] = a4;
    }
}

void
dwtStepPacked(const double *in, size_t m, const double *low,
              const double *high, size_t taps, double *approx,
              double *detail)
{
    for (size_t j = 0; j < simdPackWidth; ++j) {
        for (size_t k = 0; k < m / 2; ++k) {
            double a = 0.0;
            double d = 0.0;
            for (size_t t = 0; t < taps; ++t) {
                const double x =
                    in[((2 * k + t) % m) * simdPackWidth + j];
                a += low[t] * x;
                d += high[t] * x;
            }
            approx[k * simdPackWidth + j] = a;
            detail[k * simdPackWidth + j] = d;
        }
    }
}

} // namespace scalar_ref

namespace
{

// Four doubles: two vectors per simdPackWidth-wide tile row. Eight
// lanes would spill the accumulators through the stack. aligned(8)
// makes every dereference an unaligned load or store; may_alias lets
// the kernels view double buffers through it.
typedef double V
    __attribute__((vector_size(32), aligned(8), may_alias));
using Mask = decltype(V{} < V{});

constexpr size_t vecWidth = sizeof(V) / sizeof(double);
static_assert(simdPackWidth == 2 * vecWidth);

} // namespace

const char *
simdBackendName()
{
#ifdef XPRO_SIMD_AVX2_CLONE
    if (__builtin_cpu_supports("avx2"))
        return "avx2";
#endif
    return "generic";
}

XPRO_SIMD_CLONES void
simdScale(double *dst, const double *src, double c, size_t n)
{
    size_t i = 0;
    for (; i + vecWidth <= n; i += vecWidth)
        *reinterpret_cast<V *>(dst + i) =
            c * *reinterpret_cast<const V *>(src + i);
    for (; i < n; ++i)
        dst[i] = c * src[i];
}

XPRO_SIMD_CLONES void
simdAxpy(double *dst, const double *src, double c, size_t n)
{
    size_t i = 0;
    for (; i + vecWidth <= n; i += vecWidth)
        *reinterpret_cast<V *>(dst + i) +=
            c * *reinterpret_cast<const V *>(src + i);
    for (; i < n; ++i)
        dst[i] += c * src[i];
}

namespace
{

// Index-tracked max and min over the lanes of two (best, index)
// chains. Lanes compare strictly, so each keeps its earliest index;
// the merge prefers the lowest index among equal values, and a
// scalar tail past every lane's indices replaces only on a strictly
// better value. The helpers are always inlined and take vectors by
// reference, so each clone keeps its own ISA and no vector crosses a
// call boundary by value.

[[gnu::always_inline]] inline void
keepMax(V &best, Mask &at, const V &v, const Mask &idx)
{
    const Mask better = v > best;
    best = better ? v : best;
    at = better ? idx : at;
}

/** Fold both chains' lanes to the best value under @p better (a
 *  strict order) and the lowest index that reached it. */
template <typename Better>
[[gnu::always_inline]] inline size_t
mergeLanes(const V (&best)[2], const Mask (&at)[2], Better better,
           double *value)
{
    double top = best[0][0];
    size_t pick = static_cast<size_t>(at[0][0]);
    for (size_t c = 0; c < 2; ++c) {
        for (size_t l = 0; l < vecWidth; ++l) {
            const size_t lane_at = static_cast<size_t>(at[c][l]);
            if (better(best[c][l], top) ||
                (best[c][l] == top && lane_at < pick)) {
                top = best[c][l];
                pick = lane_at;
            }
        }
    }
    *value = top;
    return pick;
}

[[gnu::always_inline]] inline const V &
load(const double *p)
{
    return *reinterpret_cast<const V *>(p);
}

/** I_up chains: best upOffset - error so far, and where. */
struct UpScan
{
    V best[2];
    Mask at[2];
    Mask idx[2] = {{0, 1, 2, 3}, {4, 5, 6, 7}};

    [[gnu::always_inline]] explicit UpScan(size_t n)
    {
        const double inf = std::numeric_limits<double>::infinity();
        best[0] = best[1] = V{-inf, -inf, -inf, -inf};
        at[0] = at[1] = Mask{} + static_cast<long>(n);
    }

    /** Take the simdPackWidth elements from @p t, one half per
     *  chain. */
    [[gnu::always_inline]] void
    step(const double *error, const double *upOffset, size_t t)
    {
        for (size_t c = 0; c < 2; ++c) {
            const size_t k = t + c * vecWidth;
            keepMax(best[c], at[c], load(upOffset + k) - load(error + k),
                    idx[c]);
            idx[c] += simdPackWidth;
        }
    }

    /** Fold the chains and the scalar tail [t, n). */
    [[gnu::always_inline]] size_t
    finish(const double *error, const double *upOffset, size_t t,
           size_t n, double *gmax)
    {
        double top;
        size_t pick = mergeLanes(best, at, std::greater<>(), &top);
        for (; t < n; ++t) {
            const double v = upOffset[t] - error[t];
            if (v > top) {
                top = v;
                pick = t;
            }
        }
        *gmax = top;
        return pick;
    }
};

} // namespace

XPRO_SIMD_CLONES size_t
simdSmoSelectUp(const double *error, const double *upOffset, size_t n,
                double *gmax)
{
    UpScan scan(n);
    size_t t = 0;
    for (; t + simdPackWidth <= n; t += simdPackWidth)
        scan.step(error, upOffset, t);
    return scan.finish(error, upOffset, t, n, gmax);
}

XPRO_SIMD_CLONES size_t
simdPairUpdateSelectUp(double *error, const double *rowI,
                       const double *rowJ, double di, double dj,
                       const double *upOffset, size_t n, double *gmax)
{
    UpScan scan(n);
    const auto update = [&](size_t k) __attribute__((always_inline)) {
        *reinterpret_cast<V *>(error + k) +=
            di * load(rowI + k) + dj * load(rowJ + k);
    };
    size_t t = 0;
    for (; t + simdPackWidth <= n; t += simdPackWidth) {
        update(t);
        update(t + vecWidth);
        scan.step(error, upOffset, t);
    }
    for (size_t k = t; k < n; ++k)
        error[k] += di * rowI[k] + dj * rowJ[k];
    return scan.finish(error, upOffset, t, n, gmax);
}

XPRO_SIMD_CLONES size_t
simdSmoSelectLow(const double *error, const double *lowOffset,
                 const double *rowI, const double *diag, double kii,
                 double gmax, double tau, size_t n, double *gmax2)
{
    // The chains of simdSmoSelectUp, for a max (gmax2) and an
    // index-tracked min (the objective) in one pass. Lanes with
    // b <= 0, masked ones included, never win the min.
    const double inf = std::numeric_limits<double>::infinity();
    V top[2], best[2];
    top[0] = top[1] = V{-inf, -inf, -inf, -inf};
    best[0] = best[1] = V{inf, inf, inf, inf};
    Mask at[2], idx[2] = {{0, 1, 2, 3}, {4, 5, 6, 7}};
    at[0] = at[1] = Mask{} + static_cast<long>(n);
    const V zero = {};
    const auto take = [&](size_t c, size_t k) __attribute__((always_inline)) {
        const V v = load(error + k) + load(lowOffset + k);
        top[c] = v > top[c] ? v : top[c];
        const V b = gmax + v;
        V a = (kii + load(diag + k)) - 2.0 * load(rowI + k);
        a = a < tau ? tau : a;
        const V objective = -(b * b) / a;
        const Mask better = (b > zero) & (objective < best[c]);
        best[c] = better ? objective : best[c];
        at[c] = better ? idx[c] : at[c];
    };
    size_t t = 0;
    for (; t + simdPackWidth <= n; t += simdPackWidth) {
        take(0, t);
        take(1, t + vecWidth);
        idx[0] += simdPackWidth;
        idx[1] += simdPackWidth;
    }
    double top_all = -inf;
    for (size_t c = 0; c < 2; ++c) {
        for (size_t l = 0; l < vecWidth; ++l) {
            if (top[c][l] > top_all)
                top_all = top[c][l];
        }
    }
    double low;
    size_t pick = mergeLanes(best, at, std::less<>(), &low);
    for (; t < n; ++t) {
        const double v = error[t] + lowOffset[t];
        if (v > top_all)
            top_all = v;
        const double b = gmax + v;
        if (!(b > 0.0))
            continue;
        double a = (kii + diag[t]) - 2.0 * rowI[t];
        if (a < tau)
            a = tau;
        const double objective = -(b * b) / a;
        if (objective < low) {
            low = objective;
            pick = t;
        }
    }
    *gmax2 = top_all;
    return pick;
}

XPRO_SIMD_CLONES void
simdDotPacked(const double *a, const double *packed, size_t n,
              double *out)
{
    const V *tile = reinterpret_cast<const V *>(packed);
    V acc0 = {}, acc1 = {};
    for (size_t k = 0; k < n; ++k) {
        acc0 += a[k] * tile[2 * k];
        acc1 += a[k] * tile[2 * k + 1];
    }
    V *lanes = reinterpret_cast<V *>(out);
    lanes[0] = acc0;
    lanes[1] = acc1;
}

XPRO_SIMD_CLONES void
simdSquaredNormsPacked(const double *packed, size_t n, double *out)
{
    const V *tile = reinterpret_cast<const V *>(packed);
    V acc0 = {}, acc1 = {};
    for (size_t k = 0; k < n; ++k) {
        const V c0 = tile[2 * k], c1 = tile[2 * k + 1];
        acc0 += c0 * c0;
        acc1 += c1 * c1;
    }
    V *lanes = reinterpret_cast<V *>(out);
    lanes[0] = acc0;
    lanes[1] = acc1;
}

XPRO_SIMD_CLONES void
simdZScore(double *dst, const double *src, double mu, double sigma,
           size_t n)
{
    size_t i = 0;
    for (; i + vecWidth <= n; i += vecWidth)
        *reinterpret_cast<V *>(dst + i) =
            (*reinterpret_cast<const V *>(src + i) - mu) / sigma;
    for (; i < n; ++i)
        dst[i] = (src[i] - mu) / sigma;
}

XPRO_SIMD_CLONES void
simdMaxMinSumPacked(const double *packed, size_t n, double *maxOut,
                    double *minOut, double *sumOut)
{
    // Strict compares keep the accumulator on ties, -0.0 vs 0.0
    // included: std::max_element's update rule, and scalar_ref's.
    const V *tile = reinterpret_cast<const V *>(packed);
    V mx0 = tile[0], mx1 = tile[1];
    V mn0 = mx0, mn1 = mx1;
    V sm0 = {}, sm1 = {};
    for (size_t i = 0; i < n; ++i) {
        const V v0 = tile[2 * i], v1 = tile[2 * i + 1];
        mx0 = v0 > mx0 ? v0 : mx0;
        mx1 = v1 > mx1 ? v1 : mx1;
        mn0 = v0 < mn0 ? v0 : mn0;
        mn1 = v1 < mn1 ? v1 : mn1;
        sm0 += v0;
        sm1 += v1;
    }
    V *maxLanes = reinterpret_cast<V *>(maxOut);
    V *minLanes = reinterpret_cast<V *>(minOut);
    V *sumLanes = reinterpret_cast<V *>(sumOut);
    maxLanes[0] = mx0;
    maxLanes[1] = mx1;
    minLanes[0] = mn0;
    minLanes[1] = mn1;
    sumLanes[0] = sm0;
    sumLanes[1] = sm1;
}

XPRO_SIMD_CLONES void
simdCenteredSquareSumPacked(const double *packed, size_t n,
                            const double *mu, double *accOut)
{
    const V *tile = reinterpret_cast<const V *>(packed);
    const V *muLanes = reinterpret_cast<const V *>(mu);
    const V mu0 = muLanes[0], mu1 = muLanes[1];
    V a0 = {}, a1 = {};
    for (size_t i = 0; i < n; ++i) {
        const V d0 = tile[2 * i] - mu0, d1 = tile[2 * i + 1] - mu1;
        a0 += d0 * d0;
        a1 += d1 * d1;
    }
    V *lanes = reinterpret_cast<V *>(accOut);
    lanes[0] = a0;
    lanes[1] = a1;
}

XPRO_SIMD_CLONES void
simdSignCrossingsPacked(const double *packed, size_t n, double *out)
{
    // Negative-sample masks (-1/0 per lane) XORed across consecutive
    // rows mark sign changes; subtracting them counts exactly.
    const V *tile = reinterpret_cast<const V *>(packed);
    const V zero = {};
    Mask p0 = tile[0] < zero, p1 = tile[1] < zero;
    Mask c0 = {}, c1 = {};
    for (size_t i = 1; i < n; ++i) {
        const Mask q0 = tile[2 * i] < zero;
        const Mask q1 = tile[2 * i + 1] < zero;
        c0 -= p0 ^ q0;
        c1 -= p1 ^ q1;
        p0 = q0;
        p1 = q1;
    }
    for (size_t j = 0; j < vecWidth; ++j) {
        out[j] = static_cast<double>(c0[j]);
        out[vecWidth + j] = static_cast<double>(c1[j]);
    }
}

XPRO_SIMD_CLONES void
simdMoment34Packed(const double *packed, size_t n, const double *mu,
                   const double *sigma, double *acc3, double *acc4)
{
    const V *tile = reinterpret_cast<const V *>(packed);
    const V *muLanes = reinterpret_cast<const V *>(mu);
    const V *sigmaLanes = reinterpret_cast<const V *>(sigma);
    const V mu0 = muLanes[0], mu1 = muLanes[1];
    const V sg0 = sigmaLanes[0], sg1 = sigmaLanes[1];
    V a30 = {}, a31 = {}, a40 = {}, a41 = {};
    for (size_t i = 0; i < n; ++i) {
        const V z0 = (tile[2 * i] - mu0) / sg0;
        const V z1 = (tile[2 * i + 1] - mu1) / sg1;
        const V c0 = z0 * z0 * z0, c1 = z1 * z1 * z1;
        a30 += c0;
        a31 += c1;
        a40 += c0 * z0;
        a41 += c1 * z1;
    }
    V *lanes3 = reinterpret_cast<V *>(acc3);
    V *lanes4 = reinterpret_cast<V *>(acc4);
    lanes3[0] = a30;
    lanes3[1] = a31;
    lanes4[0] = a40;
    lanes4[1] = a41;
}

XPRO_SIMD_CLONES void
simdDwtStepPacked(const double *in, size_t m, const double *low,
                  const double *high, size_t taps, double *approx,
                  double *detail)
{
    // Zero-initialised accumulators plus one tap per add: the scalar
    // 0.0 start, so -0.0 products round to +0.0 exactly as there.
    const V *tile = reinterpret_cast<const V *>(in);
    V *a = reinterpret_cast<V *>(approx);
    V *d = reinterpret_cast<V *>(detail);
    for (size_t k = 0; k < m / 2; ++k) {
        V a0 = {}, a1 = {}, d0 = {}, d1 = {};
        size_t row = 2 * k;
        for (size_t t = 0; t < taps; ++t, ++row) {
            if (row == m)
                row = 0;
            const V x0 = tile[2 * row], x1 = tile[2 * row + 1];
            a0 += low[t] * x0;
            a1 += low[t] * x1;
            d0 += high[t] * x0;
            d1 += high[t] * x1;
        }
        a[2 * k] = a0;
        a[2 * k + 1] = a1;
        d[2 * k] = d0;
        d[2 * k + 1] = d1;
    }
}

void
simdPackRows(const double *const *rows, size_t count, size_t n,
             double *packed)
{
    // Local row pointers: the stores may alias rows[], which would
    // otherwise be reloaded for every element.
    const double *src[simdPackWidth];
    for (size_t j = 0; j < count; ++j)
        src[j] = rows[j];
    for (size_t k = 0; k < n; ++k) {
        double *col = packed + k * simdPackWidth;
        size_t j = 0;
        for (; j < count; ++j)
            col[j] = src[j][k];
        for (; j < simdPackWidth; ++j)
            col[j] = 0.0;
    }
}

} // namespace xpro
