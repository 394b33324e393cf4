/**
 * @file
 * Portable SIMD kernels for the serving hot path, SVM training and
 * dataset synthesis (its sines and its Gaussian noise).
 *
 * Every kernel here but simdSin/simdCos/simdSinCos and simdLog (a
 * deterministic sin, cos and log, see there) is
 * **order-preserving**: vectorization runs across independent output
 * elements while each output's reduction stays serial left-to-right,
 * so results are bit-identical to the retained scalar references
 * below (and to the pre-SIMD code) on every ISA. That is the
 * contract the differential tests
 * (tests/test_simd_kernels.cc and tests/test_hotpath_identity.cc,
 * ctest label `hotpath`) enforce bit for bit — no ULP slack needed.
 *
 * Each kernel has one source, written with GCC vector extensions
 * over 4-lane double vectors. On x86-64 GNU compilers it is cloned
 * for AVX2 and for the baseline ISA, and the loader picks the clone
 * the host supports. Neither clone uses FMA contraction, so per-lane
 * arithmetic is identical across clones and to scalar_ref.
 *
 * The workhorse is the packed dot-product micro-kernel: the right
 * operand is transposed into a fixed-width interleaved tile
 * (simdPackWidth columns) so that out[j] += a[k] * packed[k][j]
 * broadcasts one left element against a contiguous vector of right
 * columns. Per output j the accumulation is serial in k — exactly
 * dotProduct()'s schedule — which is how the SVM kernel tile
 * (ml/kernel.hh), and with it training's Gram rows and every
 * decision, matches the scalar references bit for bit.
 */

#ifndef XPRO_COMMON_SIMD_HH
#define XPRO_COMMON_SIMD_HH

#include <cstddef>

namespace xpro
{

/**
 * Column count of the packed right-operand tile consumed by
 * simdDotPacked(). Pack buffers must be padded (with zeros) to this
 * width; a multiple of every supported vector width.
 */
constexpr size_t simdPackWidth = 8;

/** ISA of the kernel clones this host runs: "avx2" or "generic". */
const char *simdBackendName();

/** dst[i] = c * src[i] for i in [0, n). */
void simdScale(double *dst, const double *src, double c, size_t n);

/** dst[i] += c * src[i] for i in [0, n). */
void simdAxpy(double *dst, const double *src, double c, size_t n);

/*
 * SMO working-set selection (Fan, Chen & Lin 2005, as in LIBSVM).
 * error[t] is the bias-free training error; membership of the index
 * sets I_up and I_low is an offset per sample, 0.0 for members and
 * -inf otherwise, so a scan is one branch-free max or min over every
 * lane. These scans reduce across lanes, unlike the kernels above:
 * a max or min with its index is exact in any order once ties keep
 * the lowest index. Each scan runs two independent (best, index)
 * chains, one per half of every simdPackWidth-element step, so
 * consecutive compare/blend pairs do not wait on each other. Lanes
 * use only exactly rounded operations (add, subtract, multiply,
 * divide, compare), so every clone picks the same sample, and the
 * same value, as scalar_ref.
 */

/**
 * First SMO index: the first t in [0, n) maximising
 * upOffset[t] - error[t]. Writes that maximum to *gmax and returns
 * t; returns n with *gmax = -inf when every offset is -inf.
 */
size_t simdSmoSelectUp(const double *error, const double *upOffset,
                       size_t n, double *gmax);

/**
 * SMO pair step's error update fused with the next step's first
 * index: error[k] += di * rowI[k] + dj * rowJ[k] for k in [0, n),
 * associated exactly as written (the two products summed, then
 * added to error[k]), followed by simdSmoSelectUp(error, upOffset,
 * n, gmax) on the updated errors, in one pass over the arrays.
 */
size_t simdPairUpdateSelectUp(double *error, const double *rowI,
                              const double *rowJ, double di, double dj,
                              const double *upOffset, size_t n,
                              double *gmax);

/**
 * Second SMO index, fused with the stopping rule's max. With
 * v[t] = error[t] + lowOffset[t], writes max_t v[t] to *gmax2 (-inf
 * when every offset is -inf). Over the t with
 * b = gmax + v[t] > 0 it returns the first t minimising the
 * second-order objective -(b * b) / max((kii + diag[t]) -
 * 2 * rowI[t], tau); n when no t has b > 0.
 */
size_t simdSmoSelectLow(const double *error, const double *lowOffset,
                        const double *rowI, const double *diag,
                        double kii, double gmax, double tau, size_t n,
                        double *gmax2);

/**
 * Largest |x| simdSin() and simdCos() evaluate; outside
 * [-simdSinCosMaxArg, simdSinCosMaxArg] (and for NaN and +-inf) they
 * return NaN.
 */
constexpr double simdSinCosMaxArg = 0x1p20;

/**
 * dst[i] = sin(src[i]) for i in [0, n); @p dst may equal @p src.
 * Unlike the kernels above this is no libm-order reproduction: it is
 * its own deterministic sin (fdlibm's reduction and polynomials,
 * branch-free), within 1 ulp of the true sine over the domain,
 * sin(+-0) = +-0, and bit-identical on every clone and to
 * scalar_ref::sin, so results do not depend on the host libm.
 */
void simdSin(double *dst, const double *src, size_t n);

/** dst[i] = cos(src[i]); simdSin()'s reduction with the quadrant
 *  plus one, and its domain, bound and identity contract. */
void simdCos(double *dst, const double *src, size_t n);

/**
 * sinOut[i] = sin(src[i]) and cosOut[i] = cos(src[i]) for i in
 * [0, n), from one argument reduction per element: the same bits as
 * simdSin() and simdCos(). Either output may equal @p src; they must
 * not equal each other.
 */
void simdSinCos(double *sinOut, double *cosOut, const double *src,
                size_t n);

/**
 * dst[i] = log(src[i]) for i in [0, n); @p dst may equal @p src.
 * Like simdSin() its own deterministic function: fdlibm's log,
 * branch-free for positive normal inputs, within 1 ulp of the true
 * logarithm and bit-identical on every clone and to scalar_ref::log.
 * log(+-0) = -inf, log(x < 0) = NaN, log(+inf) = +inf and NaN stays
 * NaN; those lanes and subnormals take a scalar path.
 */
void simdLog(double *dst, const double *src, size_t n);

/**
 * Packed multi-dot micro-kernel:
 * out[j] = sum_k a[k] * packed[k * simdPackWidth + j] for j in
 * [0, simdPackWidth), each accumulated serially in k (bit-identical
 * to simdPackWidth independent scalarDot() calls on the unpacked
 * columns). @p packed holds @p n interleaved groups of
 * simdPackWidth column values.
 */
void simdDotPacked(const double *a, const double *packed, size_t n,
                   double *out);

/**
 * Packed squared norms: out[j] = sum_k packed[k * simdPackWidth + j]^2
 * for j in [0, simdPackWidth), each accumulated serially in k
 * (bit-identical to simdPackWidth independent scalar squared-norm
 * loops over the unpacked columns).
 */
void simdSquaredNormsPacked(const double *packed, size_t n,
                            double *out);

/**
 * Elementwise z-score: dst[i] = (src[i] - mu) / sigma. Subtraction
 * and division are both exactly rounded under IEEE-754, so the
 * vectorized lanes are bit-identical to the scalar expression — this
 * is the one hot-path kernel that vectorizes a DIVISION (the
 * dominant cost of the skew/kurtosis feature pass) rather than a
 * reduction.
 */
void simdZScore(double *dst, const double *src, double mu,
                double sigma, size_t n);

/*
 * Packed per-lane statistics kernels. These run one independent
 * signal per lane of the simdPackWidth-wide tile layout (the
 * cross-event batching trick: lane j is event j), with every lane's
 * reduction serial left-to-right in i — so lane j's result is
 * bit-identical to running the scalar statistics loop on signal j
 * alone, while the loop-carried dependency chains that bound the
 * per-event path amortize over simdPackWidth events. All
 * simdPackWidth lanes are computed; callers ignore the padding
 * lanes.
 */

/**
 * Per-lane max, min and serial sum in one pass. Max/min update only
 * when the new element strictly compares (ties keep the earlier
 * element, matching std::max_element / std::min_element down to the
 * sign of zero); the sum accumulates serially from 0.0 exactly like
 * featureMean()'s loop.
 */
void simdMaxMinSumPacked(const double *packed, size_t n,
                         double *maxOut, double *minOut,
                         double *sumOut);

/**
 * Per-lane centered square sum: acc[j] = sum_i
 * (packed[i][j] - mu[j])^2, accumulated serially in i — the
 * variance numerator, featureVar()'s exact loop.
 */
void simdCenteredSquareSumPacked(const double *packed, size_t n,
                                 const double *mu, double *accOut);

/**
 * Per-lane zero-crossing count, as a double:
 * (prev < 0) != (cur < 0) over consecutive samples — exactly
 * featureCzero()'s predicate.
 */
void simdSignCrossingsPacked(const double *packed, size_t n,
                             double *out);

/**
 * Per-lane third and fourth standardized moments' numerators:
 * with z = (x - mu[j]) / sigma[j] (exactly rounded, see
 * simdZScore), acc3[j] += (z*z)*z and acc4[j] += ((z*z)*z)*z,
 * serially in i — the association featureSkew()/featureKurt() use.
 * Callers must pre-substitute a safe sigma (e.g. 1.0) for
 * degenerate lanes and discard their outputs.
 */
void simdMoment34Packed(const double *packed, size_t n,
                        const double *mu, const double *sigma,
                        double *acc3, double *acc4);

/**
 * Per-lane DWT analysis step with periodic extension: @p in holds
 * @p m tile rows (m even, m >= @p taps), and for k in [0, m/2)
 * lane j of row k of @p approx (@p detail) is the sum over tap t of
 * low[t] (high[t]) * in[((2k + t) mod m) * simdPackWidth + j],
 * accumulated from 0.0 in tap order — dwtStep()'s loop per lane, so
 * every lane is bit-identical to the single-signal transform. The
 * outputs must not overlap @p in.
 */
void simdDwtStepPacked(const double *in, size_t m, const double *low,
                       const double *high, size_t taps,
                       double *approx, double *detail);

/**
 * Transpose up to simdPackWidth equal-length rows into the
 * interleaved layout simdDotPacked() consumes:
 * packed[k * simdPackWidth + j] = rows[j][k]. Columns past @p count
 * are zero-filled. @p packed must hold n * simdPackWidth doubles.
 */
void simdPackRows(const double *const *rows, size_t count, size_t n,
                  double *packed);

/**
 * Retained scalar references for the differential tests: plain
 * left-to-right single-accumulator loops, the schedule every SIMD
 * kernel above must reproduce exactly.
 */
namespace scalar_ref
{

double dot(const double *a, const double *b, size_t n);
double squaredNorm(const double *a, size_t n);
void scale(double *dst, const double *src, double c, size_t n);
void axpy(double *dst, const double *src, double c, size_t n);
size_t smoSelectUp(const double *error, const double *upOffset,
                   size_t n, double *gmax);
size_t pairUpdateSelectUp(double *error, const double *rowI,
                          const double *rowJ, double di, double dj,
                          const double *upOffset, size_t n,
                          double *gmax);
size_t smoSelectLow(const double *error, const double *lowOffset,
                    const double *rowI, const double *diag, double kii,
                    double gmax, double tau, size_t n, double *gmax2);
void zscore(double *dst, const double *src, double mu, double sigma,
            size_t n);
void maxMinSumPacked(const double *packed, size_t n, double *maxOut,
                     double *minOut, double *sumOut);
void centeredSquareSumPacked(const double *packed, size_t n,
                             const double *mu, double *accOut);
void signCrossingsPacked(const double *packed, size_t n,
                         double *out);
void moment34Packed(const double *packed, size_t n, const double *mu,
                    const double *sigma, double *acc3, double *acc4);
void dwtStepPacked(const double *in, size_t m, const double *low,
                   const double *high, size_t taps, double *approx,
                   double *detail);
/** simdSin, simdCos and simdLog one lane at a time: the same
 *  code. */
void sin(double *dst, const double *src, size_t n);
void cos(double *dst, const double *src, size_t n);
void log(double *dst, const double *src, size_t n);

} // namespace scalar_ref

} // namespace xpro

#endif // XPRO_COMMON_SIMD_HH
