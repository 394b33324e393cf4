/**
 * @file
 * Every common/simd kernel against its retained scalar reference,
 * compared bit for bit (ctest label `hotpath`). EXPECT_EQ on doubles
 * treats -0.0 == 0.0, so every comparison here is on the IEEE-754
 * bit pattern: the max/min tie rule and the sign of zero are part of
 * the contract.
 *
 * This file builds twice: against xpro_common, which runs the clone
 * the host supports, and against a baseline-only copy of simd.cc
 * (tests prefixed `baseline.`), so the default clone is tested on
 * AVX2 hosts too.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numbers>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/simd.hh"

namespace
{

using namespace xpro;

std::vector<double>
randomVector(Rng &rng, size_t n)
{
    std::vector<double> values(n);
    for (double &v : values)
        v = rng.uniform(-2.0, 2.0);
    return values;
}

void
expectSameBits(const double *got, const double *want, size_t n,
               const std::string &what)
{
    for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(std::bit_cast<uint64_t>(got[i]),
                  std::bit_cast<uint64_t>(want[i]))
            << what << " i=" << i << ": " << got[i] << " vs "
            << want[i];
    }
}

TEST(SimdKernelTest, BackendNameIsKnown)
{
    const std::string name = simdBackendName();
    EXPECT_TRUE(name == "generic" || name == "avx2") << name;
}

TEST(SimdKernelTest, ScaleMatchesScalarReferenceExactly)
{
    Rng rng(40601);
    for (size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u, 64u, 100u}) {
        const std::vector<double> src = randomVector(rng, n);
        const double c = rng.uniform(-3.0, 3.0);
        std::vector<double> simd(n, -1.0), scalar(n, -1.0);
        simdScale(simd.data(), src.data(), c, n);
        scalar_ref::scale(scalar.data(), src.data(), c, n);
        expectSameBits(simd.data(), scalar.data(), n,
                       "n=" + std::to_string(n));
    }
}

TEST(SimdKernelTest, AxpyMatchesScalarReferenceExactly)
{
    Rng rng(40602);
    for (size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u, 64u, 100u}) {
        const std::vector<double> src = randomVector(rng, n);
        const std::vector<double> base = randomVector(rng, n);
        const double c = rng.uniform(-3.0, 3.0);
        std::vector<double> simd = base, scalar = base;
        simdAxpy(simd.data(), src.data(), c, n);
        scalar_ref::axpy(scalar.data(), src.data(), c, n);
        expectSameBits(simd.data(), scalar.data(), n,
                       "n=" + std::to_string(n));
    }
}

/** Values in {-1, 0, 1}, so extrema repeat within and across lanes. */
std::vector<double>
tiedVector(Rng &rng, size_t n)
{
    std::vector<double> values(n);
    for (double &v : values)
        v = static_cast<double>(rng.below(3)) - 1.0;
    return values;
}

/** SMO membership offsets: 0.0 with probability @p share, else -inf. */
std::vector<double>
membershipOffsets(Rng &rng, size_t n, double share)
{
    std::vector<double> offsets(n);
    for (double &v : offsets)
        v = rng.uniform(0.0, 1.0) < share
                ? 0.0
                : -std::numeric_limits<double>::infinity();
    return offsets;
}

TEST(SimdKernelTest, SmoSelectionScansMatchScalarReferenceExactly)
{
    // Variants: random values with mixed membership, tied values
    // with mixed membership, tied values with every sample a member,
    // and no members at all.
    Rng rng(40607);
    std::vector<size_t> lengths(38);
    for (size_t n = 0; n < lengths.size(); ++n)
        lengths[n] = n;
    lengths.push_back(200);
    for (size_t n : lengths) {
        for (int variant = 0; variant < 4; ++variant) {
            const std::string what = "n=" + std::to_string(n) +
                                     " variant " +
                                     std::to_string(variant);
            const bool tied = variant == 1 || variant == 2;
            const double share =
                variant == 2 ? 1.0 : (variant == 3 ? 0.0 : 0.6);
            const auto values = [&] {
                return tied ? tiedVector(rng, n) : randomVector(rng, n);
            };
            const std::vector<double> error = values();
            const std::vector<double> row_i = values();
            std::vector<double> diag = values();
            for (double &d : diag)
                d = std::fabs(d) + 0.5;
            const std::vector<double> up =
                membershipOffsets(rng, n, share);
            const std::vector<double> low =
                membershipOffsets(rng, n, share);
            const double kii = tied ? 1.0 : rng.uniform(0.5, 2.0);
            const double tau = 1e-12;

            double gmax_simd = 0.0, gmax_ref = 0.0;
            const size_t i_simd = simdSmoSelectUp(
                error.data(), up.data(), n, &gmax_simd);
            const size_t i_ref = scalar_ref::smoSelectUp(
                error.data(), up.data(), n, &gmax_ref);
            EXPECT_EQ(i_simd, i_ref) << what;
            expectSameBits(&gmax_simd, &gmax_ref, 1, what + " gmax");

            // The reference picks the first member at the maximum.
            size_t first = n;
            for (size_t t = 0; t < n; ++t) {
                if (up[t] == 0.0 && -error[t] == gmax_ref) {
                    first = t;
                    break;
                }
            }
            if (first < n) {
                EXPECT_EQ(i_ref, first) << what;
            }
            if (share == 0.0) {
                EXPECT_EQ(i_ref, n) << what;
                EXPECT_EQ(gmax_ref,
                          -std::numeric_limits<double>::infinity())
                    << what;
            }

            // A gmax that makes some b = gmax + v positive, and 0.0 for
            // the all-members tied case so that b ties at 1.
            const double gmax = variant == 2 ? 0.0 : rng.uniform(0.0, 2.0);
            double gmax2_simd = 0.0, gmax2_ref = 0.0;
            const size_t j_simd = simdSmoSelectLow(
                error.data(), low.data(), row_i.data(), diag.data(), kii,
                gmax, tau, n, &gmax2_simd);
            const size_t j_ref = scalar_ref::smoSelectLow(
                error.data(), low.data(), row_i.data(), diag.data(), kii,
                gmax, tau, n, &gmax2_ref);
            EXPECT_EQ(j_simd, j_ref) << what;
            expectSameBits(&gmax2_simd, &gmax2_ref, 1, what + " gmax2");
            if (share == 0.0) {
                EXPECT_EQ(j_ref, n) << what;
                EXPECT_EQ(gmax2_ref,
                          -std::numeric_limits<double>::infinity())
                    << what;
            }
        }
    }
}

TEST(SimdKernelTest, PairUpdateSelectUpMatchesScalarReferenceExactly)
{
    // Every length up to 37 covers each scalar tail (0-7 elements)
    // after zero to four 8-element steps of the two chains. Variants:
    // random values with mixed membership, tied values with every
    // sample a member, and no members at all.
    Rng rng(40608);
    for (size_t n = 0; n <= 37; ++n) {
        for (int variant = 0; variant < 3; ++variant) {
            const std::string what = "n=" + std::to_string(n) +
                                     " variant " +
                                     std::to_string(variant);
            const bool tied = variant == 1;
            const double share =
                variant == 0 ? 0.6 : (variant == 1 ? 1.0 : 0.0);
            const auto values = [&] {
                return tied ? tiedVector(rng, n) : randomVector(rng, n);
            };
            const std::vector<double> base = values();
            const std::vector<double> row_i = values();
            const std::vector<double> row_j = values();
            const std::vector<double> up =
                membershipOffsets(rng, n, share);
            // A zero step in the tied variant keeps the errors tied.
            const double di = tied ? 0.0 : rng.uniform(-3.0, 3.0);
            const double dj = tied ? 0.0 : rng.uniform(-3.0, 3.0);

            std::vector<double> simd = base, scalar = base;
            double gmax_simd = 0.0, gmax_ref = 0.0;
            const size_t i_simd = simdPairUpdateSelectUp(
                simd.data(), row_i.data(), row_j.data(), di, dj,
                up.data(), n, &gmax_simd);
            const size_t i_ref = scalar_ref::pairUpdateSelectUp(
                scalar.data(), row_i.data(), row_j.data(), di, dj,
                up.data(), n, &gmax_ref);
            expectSameBits(simd.data(), scalar.data(), n, what);
            EXPECT_EQ(i_simd, i_ref) << what;
            expectSameBits(&gmax_simd, &gmax_ref, 1, what + " gmax");

            // The reference is the SMO error update the solver has
            // always used, then the plain I_up scan.
            std::vector<double> inline_loop = base;
            for (size_t k = 0; k < n; ++k)
                inline_loop[k] += di * row_i[k] + dj * row_j[k];
            expectSameBits(scalar.data(), inline_loop.data(), n,
                           what + " ref");
            double gmax_scan = 0.0;
            EXPECT_EQ(i_ref, scalar_ref::smoSelectUp(inline_loop.data(),
                                                     up.data(), n,
                                                     &gmax_scan))
                << what;
            expectSameBits(&gmax_ref, &gmax_scan, 1, what + " scan");
            if (tied && n > 0) {
                // Every error in {-1, 0, 1}: the first sample at the
                // maximum wins, whichever chain and lane it sits in.
                size_t first = 0;
                for (size_t t = 1; t < n; ++t) {
                    if (-base[t] > -base[first])
                        first = t;
                }
                EXPECT_EQ(i_simd, first) << what;
            }
            if (share == 0.0) {
                EXPECT_EQ(i_simd, n) << what;
                EXPECT_EQ(gmax_simd,
                          -std::numeric_limits<double>::infinity())
                    << what;
            }
        }
    }
}

TEST(SimdKernelTest, SmoSelectionScansKeepTheLowestIndexOnTies)
{
    // Every sample equal: both scans must pick sample 0, whichever
    // lane it sits in, at lengths with and without a scalar tail.
    for (size_t n : {1u, 4u, 5u, 9u, 12u, 13u, 17u, 200u}) {
        const std::vector<double> error(n, -1.0), zero(n, 0.0),
            row_i(n, 0.25), diag(n, 1.0);
        double gmax = 0.0, gmax2 = 0.0;
        EXPECT_EQ(simdSmoSelectUp(error.data(), zero.data(), n, &gmax),
                  0u)
            << n;
        EXPECT_EQ(gmax, 1.0) << n;
        EXPECT_EQ(simdSmoSelectLow(error.data(), zero.data(),
                                   row_i.data(), diag.data(), 1.0, 2.0,
                                   1e-12, n, &gmax2),
                  0u)
            << n;
        EXPECT_EQ(gmax2, -1.0) << n;
    }
}

TEST(SimdKernelTest, DotPackedMatchesPerColumnScalarDots)
{
    Rng rng(40603);
    for (size_t n : {1u, 2u, 3u, 5u, 8u, 17u, 48u, 129u}) {
        for (size_t count = 1; count <= simdPackWidth; ++count) {
            std::vector<std::vector<double>> rows;
            std::vector<const double *> rowPtrs;
            for (size_t j = 0; j < count; ++j) {
                rows.push_back(randomVector(rng, n));
                rowPtrs.push_back(rows.back().data());
            }
            std::vector<double> packed(n * simdPackWidth);
            simdPackRows(rowPtrs.data(), count, n, packed.data());

            const std::vector<double> a = randomVector(rng, n);
            double lanes[simdPackWidth];
            simdDotPacked(a.data(), packed.data(), n, lanes);
            // Zero-filled pad lanes produce exact zero dots.
            double want[simdPackWidth] = {};
            for (size_t j = 0; j < count; ++j)
                want[j] =
                    scalar_ref::dot(a.data(), rows[j].data(), n);
            expectSameBits(lanes, want, simdPackWidth,
                           "n=" + std::to_string(n) + " count=" +
                               std::to_string(count));
        }
    }
}

TEST(SimdKernelTest, SquaredNormsPackedMatchesScalar)
{
    Rng rng(40604);
    for (size_t n : {1u, 2u, 7u, 8u, 31u, 96u}) {
        std::vector<std::vector<double>> rows;
        std::vector<const double *> rowPtrs;
        for (size_t j = 0; j < simdPackWidth; ++j) {
            rows.push_back(randomVector(rng, n));
            rowPtrs.push_back(rows.back().data());
        }
        std::vector<double> packed(n * simdPackWidth);
        simdPackRows(rowPtrs.data(), simdPackWidth, n,
                     packed.data());
        double lanes[simdPackWidth], want[simdPackWidth];
        simdSquaredNormsPacked(packed.data(), n, lanes);
        for (size_t j = 0; j < simdPackWidth; ++j)
            want[j] = scalar_ref::squaredNorm(rows[j].data(), n);
        expectSameBits(lanes, want, simdPackWidth,
                       "n=" + std::to_string(n));
    }
}

TEST(SimdKernelTest, ZScoreMatchesScalarReferenceExactly)
{
    Rng rng(50505);
    for (size_t n : {1u, 2u, 3u, 4u, 5u, 8u, 17u, 64u, 187u}) {
        const std::vector<double> src = randomVector(rng, n);
        const double mu = rng.uniform(-1.0, 1.0);
        const double sigma = rng.uniform(0.1, 3.0);
        std::vector<double> got(n, -1.0);
        std::vector<double> want(n, -2.0);
        simdZScore(got.data(), src.data(), mu, sigma, n);
        scalar_ref::zscore(want.data(), src.data(), mu, sigma, n);
        expectSameBits(got.data(), want.data(), n,
                       "n=" + std::to_string(n));
    }
}

/**
 * One row per lane, nine samples each, built to hit the tie rules:
 * ±0.0 ties that start and end on opposite zeros (so "keep the
 * first" and "take the last" disagree), maxima and minima that
 * repeat, and exact zeros of both signs between sign changes (any
 * zero counts as non-negative).
 */
std::vector<std::vector<double>>
signedZeroTieRows()
{
    return {
        {0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, -0.0},
        {-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, 0.0},
        {1.0, 3.0, -2.0, 3.0, -2.0, 3.0, 1.0, -2.0, 3.0},
        {1.0, 0.0, -1.0, -0.0, 2.0, 0.0, -3.0, 0.0, 0.5},
        {-1.0, -0.0, 0.0, 1.0, -0.0, -1.0, 0.0, -0.0, -2.0},
        {2.5, 2.5, 2.5, 2.5, 2.5, 2.5, 2.5, 2.5, 2.5},
        {-0.0, -0.0, -0.0, 0.0, -0.0, -0.0, 0.0, -0.0, 0.0},
        {-4.0, 0.0, -4.0, -0.0, 4.0, -0.0, 4.0, 0.0, -4.0},
    };
}

/** Runs every packed statistics kernel on @p rows (one per lane, all
 *  the same length) against its scalar reference. */
void
expectPackedStatsMatch(const std::vector<std::vector<double>> &rows,
                       Rng &rng)
{
    const size_t n = rows[0].size();
    const std::string at = "n=" + std::to_string(n);
    std::vector<const double *> rowPtrs;
    for (const std::vector<double> &row : rows)
        rowPtrs.push_back(row.data());
    std::vector<double> packed(n * simdPackWidth);
    simdPackRows(rowPtrs.data(), simdPackWidth, n, packed.data());

    double mx[simdPackWidth], mn[simdPackWidth];
    double sum[simdPackWidth];
    double rmx[simdPackWidth], rmn[simdPackWidth];
    double rsum[simdPackWidth];
    simdMaxMinSumPacked(packed.data(), n, mx, mn, sum);
    scalar_ref::maxMinSumPacked(packed.data(), n, rmx, rmn, rsum);

    double mu[simdPackWidth], sigma[simdPackWidth];
    for (size_t j = 0; j < simdPackWidth; ++j) {
        mu[j] = rsum[j] / static_cast<double>(n);
        sigma[j] = rng.uniform(0.5, 2.0);
    }
    double acc[simdPackWidth], racc[simdPackWidth];
    simdCenteredSquareSumPacked(packed.data(), n, mu, acc);
    scalar_ref::centeredSquareSumPacked(packed.data(), n, mu, racc);
    double cz[simdPackWidth], rcz[simdPackWidth];
    simdSignCrossingsPacked(packed.data(), n, cz);
    scalar_ref::signCrossingsPacked(packed.data(), n, rcz);
    double a3[simdPackWidth], a4[simdPackWidth];
    double ra3[simdPackWidth], ra4[simdPackWidth];
    simdMoment34Packed(packed.data(), n, mu, sigma, a3, a4);
    scalar_ref::moment34Packed(packed.data(), n, mu, sigma, ra3, ra4);

    expectSameBits(mx, rmx, simdPackWidth, "max " + at);
    expectSameBits(mn, rmn, simdPackWidth, "min " + at);
    expectSameBits(sum, rsum, simdPackWidth, "sum " + at);
    expectSameBits(acc, racc, simdPackWidth, "var acc " + at);
    expectSameBits(cz, rcz, simdPackWidth, "crossings " + at);
    expectSameBits(a3, ra3, simdPackWidth, "m3 " + at);
    expectSameBits(a4, ra4, simdPackWidth, "m4 " + at);
}

TEST(SimdKernelTest, PackedStatsKernelsMatchScalarReference)
{
    Rng rng(70707);
    for (size_t n : {1u, 2u, 3u, 8u, 64u, 187u}) {
        std::vector<std::vector<double>> rows;
        for (size_t j = 0; j < simdPackWidth; ++j)
            rows.push_back(randomVector(rng, n));
        expectPackedStatsMatch(rows, rng);
    }
    expectPackedStatsMatch(signedZeroTieRows(), rng);
}

TEST(SimdKernelTest, DwtStepPackedMatchesScalarReferenceExactly)
{
    // Haar and Db4 analysis taps with their quadrature mirrors, as
    // dsp/dwt builds them.
    const double h = 1.0 / std::sqrt(2.0);
    const std::vector<std::vector<double>> lows = {
        {h, h},
        {0.48296291314469025, 0.83651630373746899,
         0.22414386804185735, -0.12940952255092145},
    };
    Rng rng(70708);
    for (const std::vector<double> &low : lows) {
        const size_t taps = low.size();
        std::vector<double> high(taps);
        for (size_t t = 0; t < taps; ++t)
            high[t] = (t % 2 == 0 ? 1.0 : -1.0) * low[taps - 1 - t];
        for (size_t m = 8; m <= 256; m += 8) {
            // Live lanes: random, all +0.0, alternating +-0.0, all
            // -0.0, tiny and huge; lanes past `live` are padding.
            for (size_t live : {1u, 5u, 8u}) {
                std::vector<std::vector<double>> rows;
                std::vector<const double *> rowPtrs;
                for (size_t j = 0; j < live; ++j) {
                    std::vector<double> row = randomVector(rng, m);
                    for (size_t i = 0; i < m; ++i) {
                        switch ((j + m / 8) % 6) {
                        case 1:
                            row[i] = 0.0;
                            break;
                        case 2:
                            row[i] = i % 2 ? -0.0 : 0.0;
                            break;
                        case 3:
                            row[i] = -0.0;
                            break;
                        case 4:
                            row[i] *= 1e-310;
                            break;
                        case 5:
                            row[i] *= 1e150;
                            break;
                        default:
                            break;
                        }
                    }
                    rows.push_back(std::move(row));
                    rowPtrs.push_back(rows.back().data());
                }
                std::vector<double> packed(m * simdPackWidth);
                simdPackRows(rowPtrs.data(), live, m, packed.data());

                const size_t outSize = m / 2 * simdPackWidth;
                const double nan =
                    std::numeric_limits<double>::quiet_NaN();
                std::vector<double> approx(outSize, nan);
                std::vector<double> detail(outSize, nan);
                std::vector<double> refApprox(outSize, -nan);
                std::vector<double> refDetail(outSize, -nan);
                simdDwtStepPacked(packed.data(), m, low.data(),
                                  high.data(), taps, approx.data(),
                                  detail.data());
                scalar_ref::dwtStepPacked(packed.data(), m, low.data(),
                                          high.data(), taps,
                                          refApprox.data(),
                                          refDetail.data());
                const std::string at = "taps=" + std::to_string(taps) +
                                       " m=" + std::to_string(m) +
                                       " live=" + std::to_string(live);
                expectSameBits(approx.data(), refApprox.data(),
                               outSize, "approx " + at);
                expectSameBits(detail.data(), refDetail.data(),
                               outSize, "detail " + at);
            }
        }
    }
}

/** Nearest double to k * pi/2, rounded from long double. */
double
nearPio2Multiple(long k)
{
    return static_cast<double>(
        static_cast<long double>(k) *
        1.570796326794896619231321691639751442L);
}

/** sin/cos inputs that stress the reduction and the special cases:
 *  signed zeros, subnormals, tiny normals, multiples of pi/2 and
 *  their neighbours, the domain edges and just past them, +-inf,
 *  NaN, then random values over the domain. */
std::vector<double>
sinCosInputs(Rng &rng)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double edge = simdSinCosMaxArg;
    std::vector<double> xs = {
        0.0, -0.0, 4.9406564584124654e-324, -4.9406564584124654e-324,
        1e-310, -2.2250738585072009e-308, 2.2250738585072014e-308,
        1e-20, -3e-9, edge, -edge, std::nextafter(edge, 0.0),
        std::nextafter(edge, inf), std::nextafter(-edge, -inf), inf,
        -inf, std::numeric_limits<double>::quiet_NaN(),
    };
    for (long k : {1L, -1L, 2L, 3L, 4L, 7L, 100L, -355L, 65536L,
                   667544L, -667544L}) {
        const double x = nearPio2Multiple(k);
        xs.insert(xs.end(), {x, std::nextafter(x, inf),
                             std::nextafter(x, -inf)});
    }
    while (xs.size() < 160)
        xs.push_back(rng.uniform(-edge, edge));
    return xs;
}

TEST(SimdKernelTest, SinCosMatchScalarReferenceExactly)
{
    Rng rng(70709);
    const std::vector<double> xs = sinCosInputs(rng);
    // Every length and start offset puts each special value in a
    // vector lane and in the scalar tail.
    for (size_t n : {0u, 1u, 3u, 4u, 5u, 7u, 8u, 128u, 136u}) {
        for (size_t at = 0; at + n <= xs.size(); at += (n > 8 ? 11 : 1)) {
            const double *src = xs.data() + at;
            const double nan = std::numeric_limits<double>::quiet_NaN();
            std::vector<double> s(n, nan), c(n, nan), rs(n, -nan),
                rc(n, -nan);
            simdSin(s.data(), src, n);
            simdCos(c.data(), src, n);
            scalar_ref::sin(rs.data(), src, n);
            scalar_ref::cos(rc.data(), src, n);
            const std::string where =
                "n=" + std::to_string(n) + " at=" + std::to_string(at);
            EXPECT_EQ(std::memcmp(s.data(), rs.data(), n * 8), 0)
                << "sin " << where;
            EXPECT_EQ(std::memcmp(c.data(), rc.data(), n * 8), 0)
                << "cos " << where;
            // In place gives the same bits.
            std::vector<double> inPlace(src, src + n);
            simdSin(inPlace.data(), inPlace.data(), n);
            EXPECT_EQ(std::memcmp(inPlace.data(), s.data(), n * 8), 0)
                << "in-place sin " << where;
        }
    }
}

TEST(SimdKernelTest, SinCosSpecialValues)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double edge = simdSinCosMaxArg;
    const double xs[] = {0.0, -0.0, 4.9406564584124654e-324,
                         -1e-310, inf, -inf,
                         std::numeric_limits<double>::quiet_NaN(),
                         std::nextafter(edge, inf),
                         std::nextafter(-edge, -inf), edge, -edge};
    constexpr size_t n = sizeof(xs) / sizeof(xs[0]);
    double s[n], c[n];
    simdSin(s, xs, n);
    simdCos(c, xs, n);
    // sin keeps zeros and subnormals (with their signs) exactly.
    for (size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(std::bit_cast<uint64_t>(s[i]),
                  std::bit_cast<uint64_t>(xs[i]))
            << i;
        EXPECT_EQ(c[i], 1.0) << i;
    }
    // Past the domain, and for inf and NaN: NaN.
    for (size_t i = 4; i < 9; ++i) {
        EXPECT_TRUE(std::isnan(s[i])) << i;
        EXPECT_TRUE(std::isnan(c[i])) << i;
    }
    for (size_t i = 9; i < n; ++i) {
        EXPECT_FALSE(std::isnan(s[i])) << i;
        EXPECT_FALSE(std::isnan(c[i])) << i;
    }
}

/** |got - want| in units of the last place of want as a double. */
double
ulpError(double got, long double want)
{
    const double rounded = static_cast<double>(want);
    const int exponent = rounded == 0.0
                             ? -1074
                             : std::max(std::ilogb(rounded) - 52, -1074);
    return static_cast<double>(
        std::fabs(static_cast<long double>(got) - want) /
        std::ldexp(1.0L, exponent));
}

TEST(SimdKernelTest, SinCosWithinOneUlpOfLongDouble)
{
    // A dense grid over the whole domain and over a few periods, plus
    // the three doubles nearest every multiple of pi/2 in a stride
    // over the domain (where x - k * pi/2 cancels), against libm's
    // long double sinl/cosl. fdlibm's kernels bound the error below
    // one ulp; this implementation measures ~0.78 ulp at worst.
    const double edge = simdSinCosMaxArg;
    std::vector<double> xs;
    for (long i = -100000; i <= 100000; ++i) {
        xs.push_back(edge * (static_cast<double>(i) / 100000.0));
        xs.push_back(20.0 * (static_cast<double>(i) / 100000.0));
    }
    for (long k = -667544; k <= 667544; k += 17) {
        const double x = nearPio2Multiple(k);
        xs.insert(xs.end(),
                  {x, std::nextafter(x, 2.0 * edge),
                   std::nextafter(x, -2.0 * edge)});
    }
    std::vector<double> s(xs.size()), c(xs.size());
    simdSin(s.data(), xs.data(), xs.size());
    simdCos(c.data(), xs.data(), xs.size());
    double worstSin = 0.0, worstCos = 0.0, atSin = 0.0, atCos = 0.0;
    for (size_t i = 0; i < xs.size(); ++i) {
        const long double x = xs[i];
        const double es = ulpError(s[i], sinl(x));
        const double ec = ulpError(c[i], cosl(x));
        if (es > worstSin) {
            worstSin = es;
            atSin = xs[i];
        }
        if (ec > worstCos) {
            worstCos = ec;
            atCos = xs[i];
        }
    }
    EXPECT_LT(worstSin, 1.0) << "sin at x=" << atSin;
    EXPECT_LT(worstCos, 1.0) << "cos at x=" << atCos;
    std::printf("worst error over %zu points: sin %.3f ulp, cos %.3f "
                "ulp\n",
                xs.size(), worstSin, worstCos);
}

TEST(SimdKernelTest, SinCosFusedMatchesSinAndCosExactly)
{
    Rng rng(70711);
    const std::vector<double> xs = sinCosInputs(rng);
    for (size_t n : {0u, 1u, 3u, 4u, 5u, 7u, 8u, 128u, 136u}) {
        for (size_t at = 0; at + n <= xs.size(); at += (n > 8 ? 11 : 1)) {
            const double *src = xs.data() + at;
            const double nan = std::numeric_limits<double>::quiet_NaN();
            std::vector<double> s(n, nan), c(n, nan), fs(n, -nan),
                fc(n, -nan);
            simdSin(s.data(), src, n);
            simdCos(c.data(), src, n);
            simdSinCos(fs.data(), fc.data(), src, n);
            const std::string where =
                "n=" + std::to_string(n) + " at=" + std::to_string(at);
            EXPECT_EQ(std::memcmp(fs.data(), s.data(), n * 8), 0)
                << "sin " << where;
            EXPECT_EQ(std::memcmp(fc.data(), c.data(), n * 8), 0)
                << "cos " << where;
            // In place, into either output.
            std::vector<double> sinInPlace(src, src + n), other(n);
            simdSinCos(sinInPlace.data(), other.data(),
                       sinInPlace.data(), n);
            EXPECT_EQ(std::memcmp(sinInPlace.data(), s.data(), n * 8), 0)
                << "in-place sin " << where;
            EXPECT_EQ(std::memcmp(other.data(), c.data(), n * 8), 0)
                << "cos beside in-place sin " << where;
            std::vector<double> cosInPlace(src, src + n);
            simdSinCos(other.data(), cosInPlace.data(),
                       cosInPlace.data(), n);
            EXPECT_EQ(std::memcmp(cosInPlace.data(), c.data(), n * 8), 0)
                << "in-place cos " << where;
            EXPECT_EQ(std::memcmp(other.data(), s.data(), n * 8), 0)
                << "sin beside in-place cos " << where;
        }
    }
}

TEST(SimdKernelTest, SinCosPinnedBits)
{
    // The exact outputs at fixed points, on every clone; here they
    // also equal the correctly rounded values.
    struct Pin
    {
        double x;
        uint64_t sin;
        uint64_t cos;
    };
    const Pin pins[] = {
        {0.5, 0x3fdeaee8744b05f0, 0x3fec1528065b7d50},
        {1.0, 0x3feaed548f090cee, 0x3fe14a280fb5068c},
        {-3.0, 0xbfc210386db6d55b, 0xbfefae04be85e5d2},
        {100.0, 0xbfe03425b78c4db8, 0x3feb981dbf665fdf},
        {std::numbers::pi / 2, 0x3ff0000000000000, 0x3c91a62633145c07},
        {std::numbers::pi, 0x3ca1a62633145c07, 0xbff0000000000000},
        {355.0, 0xbeff9bd0307d1de3, 0xbfefffffffc18e4c},
        {1e6, 0xbfd6664b2568d867, 0x3fedf9df9906d32c},
    };
    for (const Pin &pin : pins) {
        double s, c;
        simdSin(&s, &pin.x, 1);
        simdCos(&c, &pin.x, 1);
        EXPECT_EQ(std::bit_cast<uint64_t>(s), pin.sin) << pin.x;
        EXPECT_EQ(std::bit_cast<uint64_t>(c), pin.cos) << pin.x;
    }
}

/** log inputs: the special values (+-0, negatives, subnormals, +-inf,
 *  NaN), the extreme normals, 1 and its neighbours, uniform grid
 *  points, then positive normals from random bit patterns. */
std::vector<double>
logInputs(Rng &rng)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double tiny = std::numeric_limits<double>::min();
    std::vector<double> xs = {
        0.0, -0.0, -1.0, -tiny, inf, -inf,
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::denorm_min(), 1e-310,
        std::nextafter(tiny, 0.0), tiny, std::nextafter(tiny, 1.0),
        std::numeric_limits<double>::max(), 1.0,
        std::nextafter(1.0, 0.0), std::nextafter(1.0, 2.0), 0x1p-53,
        0.5, 2.0, std::numbers::sqrt2, std::numbers::sqrt2 / 2,
    };
    while (xs.size() < 120)
        xs.push_back(rng.uniform());
    while (xs.size() < 200) {
        const double x = std::bit_cast<double>(rng.next() >> 1);
        if (std::isnormal(x))
            xs.push_back(x);
    }
    return xs;
}

TEST(SimdKernelTest, LogMatchesScalarReferenceExactly)
{
    Rng rng(70713);
    const std::vector<double> xs = logInputs(rng);
    // Every length and start offset puts each special value in a
    // vector lane and in the scalar tail.
    for (size_t n : {0u, 1u, 3u, 4u, 5u, 7u, 8u, 64u, 136u}) {
        for (size_t at = 0; at + n <= xs.size(); at += (n > 8 ? 11 : 1)) {
            const double *src = xs.data() + at;
            const double nan = std::numeric_limits<double>::quiet_NaN();
            std::vector<double> got(n, nan), want(n, -nan);
            simdLog(got.data(), src, n);
            scalar_ref::log(want.data(), src, n);
            const std::string where =
                "n=" + std::to_string(n) + " at=" + std::to_string(at);
            EXPECT_EQ(std::memcmp(got.data(), want.data(), n * 8), 0)
                << where;
            std::vector<double> inPlace(src, src + n);
            simdLog(inPlace.data(), inPlace.data(), n);
            EXPECT_EQ(std::memcmp(inPlace.data(), got.data(), n * 8), 0)
                << "in place " << where;
        }
    }
}

TEST(SimdKernelTest, LogSpecialValues)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double xs[] = {0.0, -0.0, -1.0, -1e-310, -inf, nan, inf, 1.0};
    constexpr size_t n = sizeof(xs) / sizeof(xs[0]);
    double y[n];
    simdLog(y, xs, n);
    EXPECT_EQ(y[0], -inf);
    EXPECT_EQ(y[1], -inf);
    for (size_t i = 2; i < 6; ++i)
        EXPECT_TRUE(std::isnan(y[i])) << xs[i];
    EXPECT_EQ(y[6], inf);
    EXPECT_EQ(std::bit_cast<uint64_t>(y[7]), 0u) << "log(1) = +0";

    // Subnormals scale up first, and 2^-53 (the smallest positive
    // uniform) is an ordinary normal: each within 1 ulp of logl.
    const double small[] = {std::numeric_limits<double>::denorm_min(),
                            1e-320, 1e-310,
                            std::nextafter(
                                std::numeric_limits<double>::min(), 0.0),
                            0x1p-53};
    for (double x : small) {
        double got;
        simdLog(&got, &x, 1);
        EXPECT_LT(ulpError(got, logl(x)), 1.0) << x;
    }
}

TEST(SimdKernelTest, LogWithinOneUlpOfLongDouble)
{
    // Every uniform() grid point k * 2^-53 next to 0 and next to 1
    // (Box-Muller's log takes u1 in (0, 1)), a grid over the two
    // ranges of 1 + f where fdlibm switches to its hfsq form and the
    // error peaks, plus positive normals from random bit patterns,
    // against libm's long double logl. fdlibm's log bounds the error
    // below one ulp.
    std::vector<double> xs;
    for (uint64_t k = 1; k <= 200000; ++k) {
        xs.push_back(static_cast<double>(k) * 0x1p-53);
        xs.push_back(1.0 - static_cast<double>(k) * 0x1p-53);
    }
    const double halfSqrt2 = std::numbers::sqrt2 / 2;
    for (int i = 0; i < 100000; ++i) {
        const double t = static_cast<double>(i) / 100000.0;
        xs.push_back(1.3799 + (std::numbers::sqrt2 - 1.3799) * t);
        xs.push_back(halfSqrt2 + (0.71 - halfSqrt2) * t);
    }
    Rng rng(70714);
    while (xs.size() < 800000) {
        const double x = std::bit_cast<double>(rng.next() >> 1);
        if (std::isnormal(x))
            xs.push_back(x);
    }
    std::vector<double> y(xs.size());
    simdLog(y.data(), xs.data(), xs.size());
    double worst = 0.0, at = 0.0;
    for (size_t i = 0; i < xs.size(); ++i) {
        const double e =
            ulpError(y[i], logl(static_cast<long double>(xs[i])));
        if (e > worst) {
            worst = e;
            at = xs[i];
        }
    }
    EXPECT_LT(worst, 1.0) << "log at x=" << at;
    std::printf("worst error over %zu points: log %.3f ulp\n", xs.size(),
                worst);
}

TEST(SimdKernelTest, LogPinnedBits)
{
    // The exact outputs at fixed points, on every clone. All but
    // log(3) (one ulp below) are the correctly rounded values. The
    // last point lies where fdlibm takes its hfsq form; the other
    // form is one ulp off there.
    struct Pin
    {
        double x;
        uint64_t log;
    };
    const Pin pins[] = {
        {0.5, 0xbfe62e42fefa39ef},
        {2.0, 0x3fe62e42fefa39ef},
        {3.0, 0x3ff193ea7aad030a},
        {10.0, 0x40026bb1bbb55516},
        {0.1, 0xc0026bb1bbb55515},
        {0.7, 0xbfd6d3c324e13f50},
        {1.3, 0x3fd0ca937be1b9dc},
        {0x1p-53, 0xc0425e4f7b2737fa},
        {1.0 - 0x1p-53, 0xbca0000000000000},
        {1e300, 0x4085963447f87fb5},
        {0x1.687fd8e837491p-1, 0xbfd67411cde3e761},
    };
    for (const Pin &pin : pins) {
        double y;
        simdLog(&y, &pin.x, 1);
        EXPECT_EQ(std::bit_cast<uint64_t>(y), pin.log) << pin.x;
    }
}

} // namespace
