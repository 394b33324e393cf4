/**
 * @file
 * Differential test harness for the allocation-free SIMD serving hot
 * path (ctest label `hotpath`). The kernels themselves are checked
 * in test_simd_kernels.cc; the order-preserving SIMD contract
 * (common/simd.hh) promises bit-identical results, so no ULP slack
 * appears anywhere in this file either. The same discipline covers
 * the packed statistics and DWT passes, the compiled serving pipeline
 * (HotPathPipeline vs TrainedPipeline), cross-user batching at every
 * batch size and worker count, and the fleet report bytes. The
 * counting allocator (alloc_count.hh) then pins the other half of
 * the contract: zero steady-state heap allocations per event.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "alloc_count.hh"
#include "common/arena.hh"
#include "common/matrix.hh"
#include "common/random.hh"
#include "common/simd.hh"
#include "core/pipeline.hh"
#include "data/testcases.hh"
#include "dsp/dwt.hh"
#include "dsp/feature_pool.hh"
#include "fleet/fleet.hh"
#include "ml/kernel.hh"
#include "obs/stats_registry.hh"
#include "serve/batch_server.hh"
#include "serve/hot_path.hh"

namespace
{

using namespace xpro;
using xpro::testing::AllocScope;

std::vector<double>
randomVector(Rng &rng, size_t n)
{
    std::vector<double> values(n);
    for (double &v : values)
        v = rng.uniform(-2.0, 2.0);
    return values;
}

FlatMatrix
randomMatrix(Rng &rng, size_t rows, size_t cols)
{
    FlatMatrix m(rows, cols);
    for (size_t i = 0; i < rows; ++i) {
        for (size_t j = 0; j < cols; ++j)
            m.rowData(i)[j] = rng.uniform(-2.0, 2.0);
    }
    return m;
}

// --- Fused statistics pass ----------------------------------------

TEST(FeatureIdentityTest, FusedAllKindsMatchesPerKindExactly)
{
    Rng rng(60606);
    for (size_t n : {1u, 2u, 7u, 64u, 100u, 187u}) {
        for (int trial = 0; trial < 8; ++trial) {
            const std::vector<double> signal = randomVector(rng, n);
            double fused[featureKindCount];
            computeAllKindsInto(signal.data(), n, fused);
            for (size_t k = 0; k < featureKindCount; ++k) {
                EXPECT_EQ(fused[k],
                          computeFeature(allFeatureKinds[k],
                                         signal.data(), n))
                    << "n=" << n << " kind "
                    << featureName(allFeatureKinds[k]);
            }
        }
    }
    // Near-constant signal: sigma < 1e-12 must zero skew/kurtosis
    // exactly like the per-kind references do.
    const std::vector<double> flat(64, 0.75);
    double fused[featureKindCount];
    computeAllKindsInto(flat.data(), flat.size(), fused);
    for (size_t k = 0; k < featureKindCount; ++k) {
        EXPECT_EQ(fused[k],
                  computeFeature(allFeatureKinds[k], flat.data(),
                                 flat.size()))
            << "flat signal, kind "
            << featureName(allFeatureKinds[k]);
    }
}

TEST(FeatureIdentityTest, PackedAllKindsMatchesPerLaneExactly)
{
    Rng rng(80808);
    for (size_t n : {1u, 2u, 8u, 64u, 187u}) {
        for (size_t lanes : {1u, 3u, 8u}) {
            std::vector<std::vector<double>> rows;
            std::vector<const double *> rowPtrs;
            for (size_t j = 0; j < lanes; ++j) {
                // Lane 1 gets a constant signal so the packed path
                // must reproduce the degenerate sigma < 1e-12
                // branch per lane.
                rows.push_back(j == 1
                                   ? std::vector<double>(n, 0.25)
                                   : randomVector(rng, n));
                rowPtrs.push_back(rows.back().data());
            }
            std::vector<double> packed(n * simdPackWidth);
            simdPackRows(rowPtrs.data(), lanes, n, packed.data());

            std::vector<double> out(lanes * featureKindCount,
                                    -7.0);
            computeAllKindsPacked(packed.data(), n, lanes,
                                  out.data(), featureKindCount);
            for (size_t j = 0; j < lanes; ++j) {
                double want[featureKindCount];
                computeAllKindsInto(rows[j].data(), n, want);
                for (size_t k = 0; k < featureKindCount; ++k) {
                    EXPECT_EQ(out[j * featureKindCount + k],
                              want[k])
                        << "n=" << n << " lanes=" << lanes
                        << " lane " << j << " kind "
                        << featureName(allFeatureKinds[k]);
                }
            }
        }
    }
}

// --- Arena --------------------------------------------------------

TEST(ArenaTest, AllocationsAreAlignedAndAccounted)
{
    Arena arena(256);
    size_t used = 0;
    for (size_t bytes : {1u, 7u, 16u, 33u, 250u}) {
        void *p = arena.alloc(bytes);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(reinterpret_cast<uintptr_t>(p) %
                      alignof(std::max_align_t),
                  0u);
        used += bytes;
        EXPECT_GE(arena.bytesUsed(), used);
    }
}

TEST(ArenaTest, ResetKeepsCapacityAndStopsAllocating)
{
    Arena arena(1 << 10);
    // Warmup: grow to the workload's high-water mark.
    for (int pass = 0; pass < 2; ++pass) {
        arena.reset();
        for (int i = 0; i < 40; ++i)
            arena.alloc<double>(17);
    }
    const size_t blocks = arena.blockCount();
    const size_t reserved = arena.bytesReserved();
    AllocScope scope;
    for (int pass = 0; pass < 10; ++pass) {
        arena.reset();
        for (int i = 0; i < 40; ++i) {
            double *p = arena.alloc<double>(17);
            p[0] = 1.0;
            p[16] = 2.0;
        }
    }
    EXPECT_EQ(scope.count(), 0u);
    EXPECT_EQ(arena.blockCount(), blocks);
    EXPECT_EQ(arena.bytesReserved(), reserved);
}

TEST(ArenaTest, OversizedRequestGetsItsOwnBlock)
{
    Arena arena(64);
    double *big = arena.alloc<double>(100); // 800 bytes > 64
    ASSERT_NE(big, nullptr);
    big[0] = 1.0;
    big[99] = 2.0;
    EXPECT_GE(arena.bytesReserved(), 800u);
}

// --- Gram rows vs scalar schedules --------------------------------

/** K(x, z) from the scalar references: rbfFromParts(gamma, |x|^2,
 *  |z|^2, x.z) for the RBF, the bare dot for the linear kernel. */
double
kernelFromScalarParts(const Kernel &kernel, const double *x,
                      const double *z, size_t dims)
{
    const double dot = scalar_ref::dot(x, z, dims);
    if (kernel.kind == KernelKind::Linear)
        return dot;
    return rbfFromParts(kernel.gamma, scalar_ref::squaredNorm(x, dims),
                        scalar_ref::squaredNorm(z, dims), dot);
}

TEST(KernelIdentityTest, GramRowsMatchGramExactly)
{
    // Every entry equals the kernel formed from the scalar parts. One
    // GramRows across every bind, largest first, so smaller Grams
    // run on a buffer holding stale rows. Rows are requested in a
    // random order, some twice; each data set has a duplicated row
    // and an all-zero row.
    Rng rng(40622);
    GramRows rows;
    for (KernelKind kind : {KernelKind::Rbf, KernelKind::Linear}) {
        const Kernel kernel{kind, 1.1};
        for (size_t n : {200u, 1u, 7u, 8u, 9u}) {
            FlatMatrix a = randomMatrix(rng, n, 11);
            if (n > 2) {
                std::copy_n(a.rowData(1), 11, a.rowData(n - 1));
                std::fill_n(a.rowData(n / 2), 11, 0.0);
            }
            FlatMatrix full(n, n);
            for (size_t i = 0; i < n; ++i) {
                for (size_t k = 0; k < n; ++k) {
                    full.rowData(i)[k] = kernelFromScalarParts(
                        kernel, a.rowData(i), a.rowData(k), 11);
                }
            }
            rows.bind(kernel, a);
            ASSERT_EQ(rows.size(), n);

            std::vector<size_t> order(n);
            for (size_t i = 0; i < n; ++i)
                order[i] = i;
            rng.shuffle(order);
            for (size_t r = 0; r < n / 3; ++r)
                order.push_back(order[rng.below(n)]);
            const std::string what = kernel.name() +
                                     " n=" + std::to_string(n);
            for (size_t i : order) {
                EXPECT_EQ(0, std::memcmp(rows.row(i), full.rowData(i),
                                         n * sizeof(double)))
                    << what << " i=" << i;
                EXPECT_TRUE(rows.built(i)) << what;
            }
            for (size_t i = 0; i < n; ++i) {
                const double diag = rows.diagonal(i);
                EXPECT_EQ(0, std::memcmp(&diag, full.rowData(i) + i,
                                         sizeof(double)))
                    << what << " diagonal " << i;
            }
        }
    }
}

// --- DWT: vectorized decomposition vs chained scalar steps --------

TEST(DwtIdentityTest, DecomposeMatchesChainedDwtStepExactly)
{
    Rng rng(40630);
    for (Wavelet wavelet : {Wavelet::Haar, Wavelet::Db4}) {
        for (size_t n : {16u, 32u, 64u, 128u, 256u}) {
            const size_t maxLevels =
                wavelet == Wavelet::Haar ? 4u : 3u;
            for (size_t levels = 1; levels <= maxLevels; ++levels) {
                const std::vector<double> signal =
                    randomVector(rng, n);

                // Scalar reference: chain the retained per-level
                // step.
                std::vector<std::vector<double>> refDetail;
                std::vector<double> approx = signal;
                for (size_t l = 0; l < levels; ++l) {
                    DwtLevel level = dwtStep(approx, wavelet);
                    refDetail.push_back(std::move(level.detail));
                    approx = std::move(level.approx);
                }

                DwtScratch scratch;
                scratch.decompose(signal.data(), n, wavelet,
                                  levels);
                ASSERT_EQ(scratch.levels(), levels);
                for (size_t l = 0; l < levels; ++l) {
                    ASSERT_EQ(scratch.detailSize(l),
                              refDetail[l].size());
                    EXPECT_EQ(0, std::memcmp(
                                     scratch.detailData(l),
                                     refDetail[l].data(),
                                     refDetail[l].size() *
                                         sizeof(double)))
                        << waveletName(wavelet) << " n=" << n
                        << " level " << l;
                }
                ASSERT_EQ(scratch.approxSize(), approx.size());
                EXPECT_EQ(0, std::memcmp(scratch.approxData(),
                                         approx.data(),
                                         approx.size() *
                                             sizeof(double)))
                    << waveletName(wavelet) << " n=" << n;

                // And the vector wrapper rides the same path.
                const DwtDecomposition decomp =
                    dwtDecompose(signal, wavelet, levels);
                for (size_t l = 0; l < levels; ++l)
                    EXPECT_EQ(decomp.detail[l], refDetail[l]);
                EXPECT_EQ(decomp.approx, approx);
            }
        }
    }
}

TEST(DwtIdentityTest, SteadyStateDecomposeIsAllocationFree)
{
    Rng rng(40631);
    const std::vector<double> signal = randomVector(rng, 128);
    DwtScratch scratch;
    scratch.decompose(signal.data(), 128, Wavelet::Db4, 5);
    AllocScope scope;
    for (int i = 0; i < 50; ++i)
        scratch.decompose(signal.data(), 128, Wavelet::Db4, 5);
    EXPECT_EQ(scope.count(), 0u);
}

// --- Feature extraction -------------------------------------------

TEST(FeatureIdentityTest, ExtractAllIntoMatchesExtractAll)
{
    Rng rng(40640);
    const FeatureExtractor extractor(Wavelet::Db4);
    DwtScratch scratch;
    for (size_t n : {100u, 128u, 132u, 187u}) {
        const std::vector<double> segment = randomVector(rng, n);
        const std::vector<double> reference =
            extractor.extractAll(segment);
        double fast[featurePoolSize];
        extractor.extractAllInto(segment.data(), n, fast, scratch);
        ASSERT_EQ(reference.size(), featurePoolSize);
        for (size_t f = 0; f < featurePoolSize; ++f)
            EXPECT_EQ(fast[f], reference[f]) << "n=" << n
                                             << " feature " << f;
    }
}

/**
 * Lane of kind @p kind: random, all +0.0, alternating +0.0 / -0.0,
 * random scaled to tiny (down to subnormal) or huge magnitudes, or
 * all -0.0 (the sum from 0.0 turns its coefficients into +0.0).
 */
std::vector<double>
packLane(Rng &rng, size_t n, size_t kind)
{
    std::vector<double> lane = randomVector(rng, n);
    for (size_t i = 0; i < n; ++i) {
        switch (kind % 6) {
        case 1:
            lane[i] = 0.0;
            break;
        case 2:
            lane[i] = i % 2 == 0 ? 0.0 : -0.0;
            break;
        case 3:
            lane[i] *= i % 3 == 0 ? 1e-310 : 1e-150;
            break;
        case 4:
            lane[i] *= 1e150;
            break;
        case 5:
            lane[i] = -0.0;
            break;
        default:
            break;
        }
    }
    return lane;
}

TEST(FeatureIdentityTest, PackedExtractionMatchesExtractAllIntoExactly)
{
    // Every lane's full 48-value row, bit for bit, against the
    // single-event path — the DWT levels as well as the statistics.
    Rng rng(40641);
    DwtScratch scratch;
    DwtScratch single;
    Arena arena;
    std::vector<double> rows(simdPackWidth * featurePoolSize);
    for (Wavelet wavelet : {Wavelet::Haar, Wavelet::Db4}) {
        const FeatureExtractor extractor(wavelet);
        // Longest first, so a short pack follows a longer one in the
        // same scratch and would read its stale rows.
        for (size_t n : {256u, 187u, 136u, 132u, 128u, 100u, 82u,
                         64u}) {
            for (size_t count = 1; count <= simdPackWidth; ++count) {
                std::vector<std::vector<double>> lanes;
                const double *segments[simdPackWidth];
                for (size_t j = 0; j < count; ++j) {
                    lanes.push_back(packLane(rng, n, j + count));
                    segments[j] = lanes.back().data();
                }
                std::fill(rows.begin(), rows.end(), -7.0);
                arena.reset();
                extractor.extractAllPackedInto(segments, count, n,
                                               rows.data(), scratch,
                                               arena);
                for (size_t j = 0; j < count; ++j) {
                    double want[featurePoolSize];
                    extractor.extractAllInto(segments[j], n, want,
                                             single);
                    EXPECT_EQ(0, std::memcmp(rows.data() +
                                                 j * featurePoolSize,
                                             want, sizeof(want)))
                        << waveletName(wavelet) << " n=" << n
                        << " count=" << count << " lane " << j;
                }
            }
        }
    }
}

// --- Compiled hot path vs the trained pipeline --------------------

TrainedPipeline
trainTiny(TestCase testCase, uint64_t seed, size_t candidates,
          size_t maxSegments, Wavelet wavelet = Wavelet::Db4)
{
    const SignalDataset dataset = makeTestCase(testCase, seed);
    EngineConfig config;
    config.subspace.candidates = candidates;
    config.wavelet = wavelet;
    TrainingOptions options;
    options.maxTrainingSegments = maxSegments;
    options.seed = seed;
    return trainPipeline(dataset, config, options);
}

TEST(HotPathTest, ClassifyMatchesTrainedPipelineOnEverySegment)
{
    const uint64_t seed = 2017;
    const SignalDataset dataset = makeTestCase(TestCase::C1, seed);
    const TrainedPipeline pipeline =
        trainTiny(TestCase::C1, seed, 6, 60);
    const HotPathPipeline hot(pipeline);
    EXPECT_GT(hot.baseCount(), 0u);

    Arena arena;
    DwtScratch scratch;
    for (const Segment &segment : dataset.segments) {
        EXPECT_EQ(hot.classify(segment.samples, arena, scratch),
                  pipeline.classify(segment.samples));
    }
}

TEST(HotPathTest, PackedFeaturesThenClassifyFeaturesMatchClassify)
{
    // BatchServer's two passes on one pipeline: lane-packed feature
    // extraction through extractor(), then classifyFeatures() per
    // row.
    const uint64_t seed = 2017;
    const SignalDataset dataset = makeTestCase(TestCase::C1, seed);
    const TrainedPipeline pipeline =
        trainTiny(TestCase::C1, seed, 6, 60);
    const HotPathPipeline hot(pipeline);

    Arena arena;
    DwtScratch scratch;
    Rng rng(90909);
    std::vector<double> rows(simdPackWidth * featurePoolSize);
    for (size_t count : {1u, 2u, 5u, 8u}) {
        const double *segments[simdPackWidth];
        size_t picked[simdPackWidth];
        const size_t n = dataset.segments.front().samples.size();
        for (size_t j = 0; j < count; ++j) {
            picked[j] = rng.below(dataset.segments.size());
            const Segment &segment = dataset.segments[picked[j]];
            ASSERT_EQ(segment.samples.size(), n);
            segments[j] = segment.samples.data();
        }
        arena.reset();
        hot.extractor().extractAllPackedInto(
            segments, count, n, rows.data(), scratch, arena);
        for (size_t j = 0; j < count; ++j) {
            arena.reset();
            EXPECT_EQ(hot.classifyFeatures(
                          rows.data() + j * featurePoolSize, arena),
                      pipeline.classify(
                          dataset.segments[picked[j]].samples))
                << "count=" << count << " lane " << j;
        }
    }
}

TEST(HotPathTest, SteadyStateClassifyIsAllocationFree)
{
    const TrainedPipeline pipeline =
        trainTiny(TestCase::C1, 2017, 6, 60);
    const HotPathPipeline hot(pipeline);
    const SignalDataset dataset = makeTestCase(TestCase::C1, 2017);

    Arena arena;
    DwtScratch scratch;
    // Warmup: grow arena and scratch to their high-water marks.
    for (size_t i = 0; i < 3 && i < dataset.segments.size(); ++i)
        hot.classify(dataset.segments[i].samples, arena, scratch);

    int sink = 0;
    AllocScope scope;
    for (const Segment &segment : dataset.segments) {
        sink += hot.classify(segment.samples.data(),
                             segment.samples.size(), arena,
                             scratch);
    }
    EXPECT_EQ(scope.count(), 0u)
        << "steady-state classify must not touch the heap";
    EXPECT_NE(sink, 12345); // keep the loop observable
}

// --- Cross-user batching ------------------------------------------

TEST(BatchServerTest, AnyBatchSizeAndWorkerCountIsBitIdentical)
{
    // Two users with different models and segment lengths.
    const TrainedPipeline p0 = trainTiny(TestCase::C1, 2017, 4, 40);
    const TrainedPipeline p1 = trainTiny(TestCase::E1, 2019, 4, 40);
    const SignalDataset d0 = makeTestCase(TestCase::C1, 2017);
    const SignalDataset d1 = makeTestCase(TestCase::E1, 2019);
    const HotPathPipeline h0(p0), h1(p1);

    Rng rng(40650);
    std::vector<ServingEvent> events;
    for (size_t e = 0; e < 57; ++e) {
        const uint32_t user = rng.chance(0.5) ? 0 : 1;
        const SignalDataset &data = user == 0 ? d0 : d1;
        const Segment &segment =
            data.segments[e % data.segments.size()];
        events.push_back({user, segment.samples.data(),
                          segment.samples.size()});
    }

    // Per-event oracle: each event alone through the trained
    // pipeline (the PR-3 batch-vs-per-sample discipline).
    std::vector<int> expected;
    for (const ServingEvent &event : events) {
        const TrainedPipeline &pipeline = event.user == 0 ? p0 : p1;
        expected.push_back(pipeline.classify(
            {event.segment, event.segment + event.length}));
    }

    for (size_t batch : {0u, 1u, 3u, 8u, 32u}) {
        for (size_t workers : {1u, 2u, 5u}) {
            BatchServer server({&h0, &h1}, batch, workers);
            EXPECT_EQ(server.serve(events), expected)
                << "batch=" << batch << " workers=" << workers;
        }
    }
}

/** One serving user: a tiny model trained on its own dataset. */
struct UserSpec
{
    TestCase testCase;
    uint64_t seed;
    Wavelet wavelet = Wavelet::Db4;
};

/** Trained users, each with the dataset its events come from. */
struct ServingUsers
{
    std::vector<TrainedPipeline> pipelines;
    std::vector<SignalDataset> datasets;
    std::vector<HotPathPipeline> hot;
    std::vector<const HotPathPipeline *> users;
};

ServingUsers
trainUsers(const std::vector<UserSpec> &specs)
{
    ServingUsers out;
    for (const UserSpec &spec : specs) {
        out.pipelines.push_back(
            trainTiny(spec.testCase, spec.seed, 4, 40, spec.wavelet));
        out.datasets.push_back(makeTestCase(spec.testCase, spec.seed));
        out.hot.emplace_back(out.pipelines.back());
    }
    for (const HotPathPipeline &hot : out.hot)
        out.users.push_back(&hot);
    return out;
}

/** @p count events of uniformly drawn users, each a uniformly drawn
 *  segment of that user's dataset. */
std::vector<ServingEvent>
randomStream(const ServingUsers &users, size_t count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<ServingEvent> events;
    for (size_t e = 0; e < count; ++e) {
        const uint32_t user =
            static_cast<uint32_t>(rng.below(users.users.size()));
        const SignalDataset &data = users.datasets[user];
        const Segment &segment =
            data.segments[rng.below(data.segments.size())];
        events.push_back({user, segment.samples.data(),
                          segment.samples.size()});
    }
    return events;
}

TEST(BatchServerTest, SharedLengthUsersMatchOracleAcrossWavelets)
{
    // Users 0-3 share one segment length (132) but not a model: M1
    // and M2 at two seeds each. User 4 has the same length but a
    // Haar DWT, so its features differ from the Db4 users' on the
    // same samples. User 5 has another length (C1, 82).
    const ServingUsers users = trainUsers({
        {TestCase::M1, 2017},
        {TestCase::M1, 2019},
        {TestCase::M2, 2017},
        {TestCase::M2, 2019},
        {TestCase::M1, 2023, Wavelet::Haar},
        {TestCase::C1, 2017},
    });
    const std::vector<ServingEvent> events =
        randomStream(users, 150, 71113);

    std::vector<int> expected;
    for (const ServingEvent &event : events) {
        expected.push_back(users.pipelines[event.user].classify(
            {event.segment, event.segment + event.length}));
    }

    for (size_t batch : {0u, 1u, 3u, 8u, 32u, 64u}) {
        for (size_t workers : {1u, 2u, 5u}) {
            BatchServer server(users.users, batch, workers);
            EXPECT_EQ(server.serve(events), expected)
                << "batch=" << batch << " workers=" << workers;
        }
    }
}

TEST(BatchServerTest, SingleWorkerServeLoopIsAllocationFree)
{
    const TrainedPipeline pipeline =
        trainTiny(TestCase::C1, 2017, 4, 40);
    const SignalDataset dataset = makeTestCase(TestCase::C1, 2017);
    const HotPathPipeline hot(pipeline);

    std::vector<ServingEvent> events;
    for (size_t e = 0; e < 32; ++e) {
        const Segment &segment =
            dataset.segments[e % dataset.segments.size()];
        events.push_back({0, segment.samples.data(),
                          segment.samples.size()});
    }
    std::vector<int> out(events.size(), 0);

    BatchServer server({&hot}, 8, 1);
    server.serveInto(events.data(), events.size(), out.data());

    AllocScope scope;
    for (int pass = 0; pass < 5; ++pass)
        server.serveInto(events.data(), events.size(), out.data());
    EXPECT_EQ(scope.count(), 0u)
        << "inline steady-state serving must not touch the heap";
}

TEST(BatchServerTest, SingleWorkerMultiUserServeLoopIsAllocationFree)
{
    // Four users over three lengths (M1 and M2 at 132, E1 at 128, C1
    // at 82), so the feature pass keeps several lane packs open and
    // the decision pass fills several user buckets.
    const ServingUsers users = trainUsers({{TestCase::M1, 2017},
                                           {TestCase::M2, 2017},
                                           {TestCase::E1, 2017},
                                           {TestCase::C1, 2017}});
    const std::vector<ServingEvent> events =
        randomStream(users, 96, 52361);
    std::vector<int> out(events.size(), 0);

    BatchServer server(users.users, 32, 1);
    server.serveInto(events.data(), events.size(), out.data());

    AllocScope scope;
    for (int pass = 0; pass < 5; ++pass)
        server.serveInto(events.data(), events.size(), out.data());
    EXPECT_EQ(scope.count(), 0u)
        << "inline steady-state serving must not touch the heap";
}

TEST(BatchServerTest, EqualLengthEventsOfDifferentUsersShareOnePack)
{
    if (!statsCompiledIn())
        GTEST_SKIP() << "stats compiled out";
    // Eight users with their own models, all at segment length 132:
    // one batch of one event each must fill one lane pack.
    std::vector<UserSpec> specs;
    for (uint64_t seed = 2017; seed < 2021; ++seed) {
        specs.push_back({TestCase::M1, seed});
        specs.push_back({TestCase::M2, seed});
    }
    ASSERT_EQ(specs.size(), simdPackWidth);
    const ServingUsers users = trainUsers(specs);
    std::vector<ServingEvent> events;
    for (uint32_t user = 0; user < specs.size(); ++user) {
        const Segment &segment = users.datasets[user].segments[user];
        events.push_back({user, segment.samples.data(),
                          segment.samples.size()});
    }

    StatsRegistry &reg = StatsRegistry::instance();
    const StatsSnapshot before = reg.snapshot();
    BatchServer server(users.users, simdPackWidth, 1);
    server.serve(events);
    const StatsSnapshot after = reg.snapshot();
    auto delta = [&](const char *name) {
        return after.value(name) - before.value(name);
    };
    EXPECT_EQ(delta("serve.events_classified"), simdPackWidth);
    EXPECT_EQ(delta("serve.lane_groups"), 1u);
    EXPECT_EQ(delta("serve.lane_slots_idle"), 0u);
}

// --- Fleet serving phase ------------------------------------------

FleetConfig
servingFleetConfig(size_t batchEvents, size_t servingWorkers)
{
    FleetConfig config;
    config.nodes = heterogeneousFleet(2);
    for (FleetNodeSpec &node : config.nodes) {
        node.subspaceCandidates = 4;
        node.maxTrainingSegments = 40;
    }
    config.eventsPerNode = 2;
    config.servingEvents = 24;
    config.batchEvents = batchEvents;
    config.servingWorkers = servingWorkers;
    return config;
}

TEST(FleetServingTest, ReportBytesIdenticalAcrossBatchSettings)
{
    const FleetResult whole = runFleet(servingFleetConfig(0, 1));
    const std::string bytes = whole.report.serialize();
    EXPECT_NE(bytes.find("serving v1"), std::string::npos);

    const ServingReport &serving = whole.report.serving;
    EXPECT_TRUE(serving.enabled);
    EXPECT_EQ(serving.events, 24u);
    EXPECT_EQ(serving.users, 2u);
    ASSERT_EQ(serving.nodeEvents.size(), 2u);
    EXPECT_EQ(serving.nodeEvents[0] + serving.nodeEvents[1], 24u);

    // Any batch size x worker count must serialize byte for byte
    // the same: cross-user batching only reorders computation
    // between events, never inside one.
    for (const auto &[batch, workers] :
         {std::pair<size_t, size_t>{1, 1}, {3, 2}, {7, 5}}) {
        const FleetResult other =
            runFleet(servingFleetConfig(batch, workers));
        EXPECT_EQ(other.report.serialize(), bytes)
            << "batch=" << batch << " workers=" << workers;
    }
}

TEST(FleetServingTest, DisabledServingKeepsLegacyReportBytes)
{
    FleetConfig config = servingFleetConfig(0, 1);
    config.servingEvents = 0;
    const FleetResult result = runFleet(config);
    EXPECT_FALSE(result.report.serving.enabled);
    EXPECT_EQ(result.report.serialize().find("serving"),
              std::string::npos);
}

} // namespace
