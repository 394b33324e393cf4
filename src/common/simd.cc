#include "common/simd.hh"

#include <bit>
#include <cstdint>
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

// sin and cos, one source for a lane (double) and a vector of lanes
// (V). Argument reduction is fdlibm's __ieee754_rem_pio2 medium case
// made branch-free: pi/2 = kPio2_1 + kPio2_2 + kPio2_3 + kPio2_3t,
// the first three with at most 33 significant bits, so k times each
// is exact for |k| < 2^20; x - k * kPio2_1 is exact by Sterbenz, and
// the next steps keep their rounding errors with Fast2Sum. Each is
// exact: both operands lie on a fine enough grid that a difference
// small enough to have the smaller operand first needs no rounding.
// The reduced argument is a double-double r0 + r1 accurate to well
// past 53 bits even next to multiples of pi/2, where x - k * pi/2
// cancels. fdlibm's __kernel_sin and __kernel_cos polynomials (|r| <=
// pi/4, tail included) then give the result; cos is sin with the
// quadrant plus one.

constexpr double
fromBits(uint64_t bits)
{
    return std::bit_cast<double>(bits);
}

constexpr double kInvPio2 = fromBits(0x3FE45F306DC9C883); // 2/pi
constexpr double kPio2_1 = fromBits(0x3FF921FB54400000);
constexpr double kPio2_2 = fromBits(0x3DD0B4611A600000);
constexpr double kPio2_3 = fromBits(0x3BA3198A2E000000);
constexpr double kPio2_3t = fromBits(0x397B839A252049C1);
// (v + kRoundShift) - kRoundShift rounds |v| < 2^51 to the nearest
// integer.
constexpr double kRoundShift = 0x1.8p52;

constexpr double kS1 = fromBits(0xBFC5555555555549);
constexpr double kS2 = fromBits(0x3F8111111110F8A6);
constexpr double kS3 = fromBits(0xBF2A01A019C161D5);
constexpr double kS4 = fromBits(0x3EC71DE357B1FE7D);
constexpr double kS5 = fromBits(0xBE5AE5E68A2B9CEB);
constexpr double kS6 = fromBits(0x3DE5D93A5ACFD57C);
constexpr double kC1 = fromBits(0x3FA555555555554C);
constexpr double kC2 = fromBits(0xBF56C16C16C15177);
constexpr double kC3 = fromBits(0x3EFA01A019CB1590);
constexpr double kC4 = fromBits(0xBE927E4F809C52AD);
constexpr double kC5 = fromBits(0x3E21EE9EBDB4B1C4);
constexpr double kC6 = fromBits(0xBDA8FAE9BE8838D4);

// The helpers below return through pointers, so that no vector
// crosses a call boundary by value (see keepMax).

/** a - b = *sum + *err (Dekker's Fast2Sum on a and -b): exact when
 *  a - b rounds exactly or a's exponent is at least b's. */
template <typename T>
[[gnu::always_inline]] inline void
fastTwoDiff(const T &a, const T &b, T *sum, T *err)
{
    const T s = a - b;
    *err = (a - s) - b;
    *sum = s;
}

// A template argument drops V's aligned(8), so the lane templates
// work on naturally aligned locals and the unaligned loads and stores
// stay in the array loops.
typedef double Lanes __attribute__((vector_size(32)));
typedef uint64_t LaneBits __attribute__((vector_size(32)));

/** The integer type holding T's bits, lane for lane. */
template <typename T>
struct BitsOf
{
    using type = uint64_t;
};

template <>
struct BitsOf<Lanes>
{
    using type = LaneBits;
};

/** *out = sin r or cos r of x = k * pi/2 + r, by the quadrant @p q
 *  (k for sin, k + 1 for cos). */
template <typename T>
[[gnu::always_inline]] inline void
pickQuadrant(const T &q, const T &sinR, const T &cosR, T *out)
{
    // m = q - 4 * round(q / 4) in {-2, -1, 0, 1, 2}: sin r, cos r,
    // -sin r, -cos r for q = 0, 1, 2, 3 (mod 4).
    const T m = q - 4.0 * ((q * 0.25 + kRoundShift) - kRoundShift);
    const T y = (m == 1.0) | (m == -1.0) ? cosR : sinR;
    *out = (m < -0.5) | (m > 1.5) ? -y : y;
}

/** *sinOut = sin(x) if @p Sin and *cosOut = cos(x) if @p Cos, from
 *  one reduction. */
template <bool Sin, bool Cos, typename T>
[[gnu::always_inline]] inline void
sinCosLanes(const T &x, T *sinOut, T *cosOut)
{
    // Reduce: x = k * pi/2 + r0 + r1.
    const T k = (x * kInvPio2 + kRoundShift) - kRoundShift;
    const T a = x - k * kPio2_1;
    T s1, e1, s2, e2, r0, r1;
    fastTwoDiff(a, k * kPio2_2, &s1, &e1);
    fastTwoDiff(s1, k * kPio2_3, &s2, &e2);
    fastTwoDiff(s2, k * kPio2_3t - (e1 + e2), &r0, &r1);

    // fdlibm's kernels on r0 + r1.
    const T z = r0 * r0;
    const T w = z * z;
    const T ps = kS2 + z * (kS3 + z * kS4) + z * w * (kS5 + z * kS6);
    const T v = z * r0;
    const T sinR = r0 - ((z * (0.5 * r1 - v * ps) - r1) - v * kS1);
    const T pc = z * (kC1 + z * (kC2 + z * kC3)) +
                 w * w * (kC4 + z * (kC5 + z * kC6));
    const T hz = 0.5 * z;
    const T one = 1.0 - hz;
    const T cosR = one + (((1.0 - one) - hz) + (z * pc - r0 * r1));

    const T nan = T{} + std::numeric_limits<double>::quiet_NaN();
    const auto inDomain =
        (x <= simdSinCosMaxArg) & (x >= -simdSinCosMaxArg);
    if constexpr (Sin) {
        T y;
        pickQuadrant(k, sinR, cosR, &y);
        // sin(-0) = -0; the reduction's sums round it to +0.
        y = x == 0.0 ? x : y;
        *sinOut = inDomain ? y : nan;
    }
    if constexpr (Cos) {
        T y;
        pickQuadrant(k + 1.0, sinR, cosR, &y);
        *cosOut = inDomain ? y : nan;
    }
}

template <bool Sin, bool Cos>
[[gnu::always_inline]] inline void
sinCosArray(double *sinDst, double *cosDst, const double *src, size_t n)
{
    // Each input is loaded before either output is stored, so an
    // output may be the input.
    size_t i = 0;
    for (; i + vecWidth <= n; i += vecWidth) {
        const Lanes x = *reinterpret_cast<const V *>(src + i);
        Lanes s, c;
        sinCosLanes<Sin, Cos>(x, &s, &c);
        if constexpr (Sin)
            *reinterpret_cast<V *>(sinDst + i) = s;
        if constexpr (Cos)
            *reinterpret_cast<V *>(cosDst + i) = c;
    }
    for (; i < n; ++i) {
        const double x = src[i];
        double s, c;
        sinCosLanes<Sin, Cos>(x, &s, &c);
        if constexpr (Sin)
            sinDst[i] = s;
        if constexpr (Cos)
            cosDst[i] = c;
    }
}

// log, one source for a lane and a vector of lanes: fdlibm's
// __ieee754_log for positive normal x, without its branches. The
// exponent and mantissa come from integer operations on the bits;
// x is normalized into [sqrt(2)/2, sqrt(2)) as 1 + f with exponent
// k, and log(x) = k * ln2 + log(1 + f), where log(1 + f) = f -
// s * (f - R) (or fdlibm's hfsq form over the same R for the larger
// |f|) with s = f / (2 + f) and R fdlibm's polynomial in s^2. Both
// forms are evaluated and one is picked per lane. fdlibm's k == 0
// and |f| < 2^-20 shortcuts are left out: at k == 0 its general form
// gives the same bits, and below 2^-20 the general form is as
// accurate. Zero, negative, subnormal, infinite and NaN lanes go to
// logSpecial().

constexpr double kLn2Hi = fromBits(0x3FE62E42FEE00000);
constexpr double kLn2Lo = fromBits(0x3DEA39EF35793C76);
constexpr double kLg1 = fromBits(0x3FE5555555555593);
constexpr double kLg2 = fromBits(0x3FD999999997FA04);
constexpr double kLg3 = fromBits(0x3FD2492494229359);
constexpr double kLg4 = fromBits(0x3FCC71C51D8E78AF);
constexpr double kLg5 = fromBits(0x3FC7466496CB03DE);
constexpr double kLg6 = fromBits(0x3FC39A09D078C69F);
constexpr double kLg7 = fromBits(0x3FC2F112DF3E5244);
// The normalized 1 + f at or above which, or below which, fdlibm
// takes the hfsq form: its high-word mantissa tests
// 0x6147a <= hx <= 0x6b851, on the two halves of the range.
constexpr double kHfsqAtOrAbove = fromBits(0x3FF6147A00000000);
constexpr double kHfsqBelow = fromBits(0x3FE6B85200000000);
// 2^52 + 1023: the bits 0x43300000_00000000 | (biased exponent)
// read as a double, minus this, are the unbiased exponent.
constexpr double kExpBias = 0x1p52 + 1023.0;

/** *out = log(x) for positive normal x with @p kBias = kExpBias;
 *  kExpBias + 54 gives log(x * 2^-54), for a subnormal scaled up by
 *  2^54. */
template <typename T>
[[gnu::always_inline]] inline void
logLanes(const T &x, double kBias, T *out)
{
    // __builtin_bit_cast, not std::bit_cast: no vector crosses a
    // call boundary by value.
    using Bits = typename BitsOf<T>::type;
    const Bits bits = __builtin_bit_cast(Bits, x);
    const Bits hx = bits >> 32;
    const Bits mant = hx & 0xfffff;
    // i = 0x100000 when the mantissa is at least sqrt(2)'s: then x
    // is halved into [sqrt(2)/2, 1) and k counts one more.
    const Bits i = (mant + 0x95f64) & 0x100000;
    const T xn = __builtin_bit_cast(
        T, ((mant | (i ^ 0x3ff00000)) << 32) | (bits & 0xffffffff));
    const T dk = __builtin_bit_cast(
                     T, ((hx >> 20) + (i >> 20)) | 0x4330000000000000) -
                 kBias;

    const T f = xn - 1.0;
    const T s = f / (2.0 + f);
    const T z = s * s;
    const T w = z * z;
    const T t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
    const T t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
    const T r = t2 + t1;
    const T hfsq = 0.5 * f * f;
    const T withHfsq =
        dk * kLn2Hi - ((hfsq - (s * (hfsq + r) + dk * kLn2Lo)) - f);
    const T plain = dk * kLn2Hi - ((s * (f - r) - dk * kLn2Lo) - f);
    *out = (xn >= kHfsqAtOrAbove) | (xn < kHfsqBelow) ? withHfsq
                                                        : plain;
}

// logLanes() takes x in [kMinNormal, kMaxFinite] as it is.
constexpr double kMinNormal = std::numeric_limits<double>::min();
constexpr double kMaxFinite = std::numeric_limits<double>::max();

/** log(x) for the x logLanes() does not take, as fdlibm returns it:
 *  -inf for +-0, NaN for x < 0 and NaN, +inf for +inf, and
 *  subnormals scaled up by 2^54 first. */
[[gnu::noinline, gnu::cold]] double
logSpecial(double x)
{
    if (x == 0.0)
        return -std::numeric_limits<double>::infinity();
    if (!(x >= 0.0))
        return x != x ? x + x : std::numeric_limits<double>::quiet_NaN();
    if (x == std::numeric_limits<double>::infinity())
        return x;
    double y;
    logLanes(x * 0x1p54, kExpBias + 54.0, &y);
    return y;
}

[[gnu::always_inline]] inline double
logOne(double x)
{
    if (!(x >= kMinNormal && x <= kMaxFinite))
        return logSpecial(x);
    double y;
    logLanes(x, kExpBias, &y);
    return y;
}

} // namespace

namespace scalar_ref
{

void
sin(double *dst, const double *src, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        sinCosLanes<true, false, double>(src[i], dst + i, nullptr);
}

void
cos(double *dst, const double *src, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        sinCosLanes<false, true, double>(src[i], nullptr, dst + i);
}

void
log(double *dst, const double *src, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] = logOne(src[i]);
}

} // namespace scalar_ref

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
simdSin(double *dst, const double *src, size_t n)
{
    sinCosArray<true, false>(dst, nullptr, src, n);
}

XPRO_SIMD_CLONES void
simdCos(double *dst, const double *src, size_t n)
{
    sinCosArray<false, true>(nullptr, dst, src, n);
}

XPRO_SIMD_CLONES void
simdSinCos(double *sinOut, double *cosOut, const double *src, size_t n)
{
    sinCosArray<true, true>(sinOut, cosOut, src, n);
}

XPRO_SIMD_CLONES void
simdLog(double *dst, const double *src, size_t n)
{
    size_t i = 0;
    for (; i + vecWidth <= n; i += vecWidth) {
        const Lanes x = *reinterpret_cast<const V *>(src + i);
        Lanes y;
        logLanes(x, kExpBias, &y);
        const auto takes = (x >= kMinNormal) & (x <= kMaxFinite);
        if (!(takes[0] & takes[1] & takes[2] & takes[3])) {
            for (size_t l = 0; l < vecWidth; ++l) {
                if (!takes[l])
                    y[l] = logSpecial(x[l]);
            }
        }
        *reinterpret_cast<V *>(dst + i) = y;
    }
    for (; i < n; ++i)
        dst[i] = logOne(src[i]);
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
