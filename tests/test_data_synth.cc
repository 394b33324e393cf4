/**
 * @file
 * Tests for the synthetic biosignal generators and the Table-1 test
 * cases.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "core/pipeline.hh"
#include "data/ecg_synth.hh"
#include "data/eeg_synth.hh"
#include "data/emg_synth.hh"
#include "data/testcases.hh"
#include "dsp/features.hh"
#include "fnv_digest.hh"

namespace
{

using namespace xpro;

TEST(EcgSynthTest, SegmentShapeAndRange)
{
    Rng rng(501);
    EcgSynthConfig config;
    const auto segment =
        synthesizeEcgSegment(82, 360.0, false, config, rng);
    EXPECT_EQ(segment.size(), 82u);
    // R peak dominates: max well above noise floor.
    EXPECT_GT(featureMax(segment), 0.5);
    EXPECT_LT(featureMax(segment), 3.0);
}

TEST(EcgSynthTest, AbnormalHasSmallerRAndT)
{
    Rng rng(503);
    EcgSynthConfig config;
    config.noiseLevel = 0.0;
    config.baselineWander = 0.0;
    // Equal sample counts: comparing sums compares means.
    double normal_max = 0.0;
    double abnormal_max = 0.0;
    for (int i = 0; i < 50; ++i) {
        normal_max += featureMax(
            synthesizeEcgSegment(128, 360.0, false, config, rng));
        abnormal_max += featureMax(
            synthesizeEcgSegment(128, 360.0, true, config, rng));
    }
    EXPECT_GT(normal_max, abnormal_max);
}

TEST(EegSynthTest, PositiveClassHasHigherPeaks)
{
    Rng rng(505);
    EegSynthConfig config;
    double pos_kurt = 0.0;
    double neg_kurt = 0.0;
    for (int i = 0; i < 50; ++i) {
        pos_kurt += featureKurt(
            synthesizeEegSegment(128, 512.0, true, config, rng));
        neg_kurt += featureKurt(
            synthesizeEegSegment(128, 512.0, false, config, rng));
    }
    // Spike transients raise kurtosis on average.
    EXPECT_GT(pos_kurt, neg_kurt);
}

TEST(EmgSynthTest, ClassesDifferInVariance)
{
    Rng rng(507);
    EmgSynthConfig config;
    double pos_var = 0.0;
    double neg_var = 0.0;
    for (int i = 0; i < 50; ++i) {
        pos_var += featureVar(
            synthesizeEmgSegment(132, 1000.0, true, config, rng));
        neg_var += featureVar(
            synthesizeEmgSegment(132, 1000.0, false, config, rng));
    }
    EXPECT_NE(pos_var, neg_var);
}

TEST(EmgSynthTest, NearZeroMean)
{
    Rng rng(509);
    EmgSynthConfig config;
    const auto segment =
        synthesizeEmgSegment(132, 1000.0, true, config, rng);
    EXPECT_EQ(segment.size(), 132u);
    EXPECT_NEAR(featureMean(segment), 0.0, 0.3);
}

TEST(TestCasesTest, Table1ShapesMatchPaper)
{
    const struct
    {
        TestCase id;
        const char *symbol;
        size_t length;
        size_t count;
    } expected[] = {
        {TestCase::C1, "C1", 82, 1162},
        {TestCase::C2, "C2", 136, 884},
        {TestCase::E1, "E1", 128, 1000},
        {TestCase::E2, "E2", 128, 1000},
        {TestCase::M1, "M1", 132, 1200},
        {TestCase::M2, "M2", 132, 1200},
    };
    for (const auto &row : expected) {
        const TestCaseInfo &info = testCaseInfo(row.id);
        EXPECT_STREQ(info.symbol, row.symbol);
        EXPECT_EQ(info.segmentLength, row.length);
        EXPECT_EQ(info.segmentCount, row.count);
    }
}

TEST(TestCasesTest, MaterializedDatasetsMatchInfo)
{
    for (TestCase id : allTestCases) {
        const TestCaseInfo &info = testCaseInfo(id);
        const SignalDataset dataset = makeTestCase(id, 99);
        EXPECT_EQ(dataset.size(), info.segmentCount);
        EXPECT_EQ(dataset.symbol, info.symbol);
        for (size_t i = 0; i < 5; ++i) {
            EXPECT_EQ(dataset.segments[i].samples.size(),
                      info.segmentLength);
        }
    }
}

TEST(TestCasesTest, ClassBalanceIsEven)
{
    const SignalDataset dataset = makeTestCase(TestCase::E1, 99);
    const size_t pos = dataset.positiveCount();
    EXPECT_NEAR(static_cast<double>(pos) /
                    static_cast<double>(dataset.size()),
                0.5, 0.01);
}

TEST(TestCasesTest, DeterministicBySeed)
{
    const SignalDataset a = makeTestCase(TestCase::M1, 7);
    const SignalDataset b = makeTestCase(TestCase::M1, 7);
    const SignalDataset c = makeTestCase(TestCase::M1, 8);
    EXPECT_EQ(a.segments[0].samples, b.segments[0].samples);
    EXPECT_NE(a.segments[0].samples, c.segments[0].samples);
}

TEST(TestCasesTest, CasesAreDistinct)
{
    const SignalDataset e1 = makeTestCase(TestCase::E1, 7);
    const SignalDataset e2 = makeTestCase(TestCase::E2, 7);
    EXPECT_NE(e1.segments[0].samples, e2.segments[0].samples);
}

TEST(TestCasesTest, EventRatesArePlausible)
{
    for (TestCase id : allTestCases) {
        const SignalDataset dataset = makeTestCase(id, 3);
        const double rate = dataset.eventsPerSecond();
        // Segments last a fraction of a second up to a second.
        EXPECT_GT(rate, 1.0);
        EXPECT_LT(rate, 20.0);
    }
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (std::bit_cast<uint64_t>(a[i]) != std::bit_cast<uint64_t>(b[i]))
            return false;
    }
    return true;
}

TEST(TestCasesTest, LabelRuleMatchesMaterializedLabels)
{
    for (TestCase id : allTestCases) {
        const SignalDataset dataset = makeTestCase(id, 11);
        const std::vector<int> labels = testCaseLabels(id);
        ASSERT_EQ(labels.size(), dataset.size());
        for (size_t i = 0; i < labels.size(); ++i)
            EXPECT_EQ(dataset.segments[i].label, labels[i]) << i;
    }
}

TEST(TestCasesTest, SkippedSegmentsKeepTheRngOnOneDrawSequence)
{
    // Each generator, both classes: a skipped segment leaves the
    // stream exactly where a rendered one does.
    for (bool cls : {false, true}) {
        Rng rendered(31), skipped(31);
        for (int i = 0; i < 3; ++i) {
            synthesizeEcgSegment(82, 360.0, cls, {}, rendered);
            EXPECT_TRUE(
                synthesizeEcgSegment(82, 360.0, cls, {}, skipped, false)
                    .empty());
            synthesizeEegSegment(128, 512.0, cls, {}, rendered);
            EXPECT_TRUE(synthesizeEegSegment(128, 512.0, cls, {},
                                             skipped, false)
                            .empty());
            synthesizeEmgSegment(132, 1000.0, cls, {}, rendered);
            EXPECT_TRUE(synthesizeEmgSegment(132, 1000.0, cls, {},
                                             skipped, false)
                            .empty());
        }
        EXPECT_EQ(skipped.next(), rendered.next()) << cls;
    }
}

TEST(TestCasesTest, MaskedDatasetsEqualFullOnKeptSegments)
{
    // Three masks per case and seed: the fleet's training split (the
    // FleetNodeSpec defaults), every other segment, and the last
    // segment alone (every earlier one skipped).
    for (TestCase id : allTestCases) {
        const size_t count = testCaseInfo(id).segmentCount;
        for (uint64_t seed : {1u, 2u, 2017u}) {
            const SignalDataset full = makeTestCase(id, seed);

            TrainingOptions options;
            options.maxTrainingSegments = 250;
            options.seed = seed;
            const std::vector<bool> fleet = splitMask(
                trainingSplit(testCaseLabels(id), options), count);
            std::vector<bool> alternate(count), last(count);
            for (size_t i = 0; i < count; i += 2)
                alternate[i] = true;
            last[count - 1] = true;

            for (const auto &[name, keep] :
                 {std::pair{"fleet", fleet},
                  std::pair{"alternate", alternate},
                  std::pair{"last", last}}) {
                const SignalDataset masked = makeTestCase(id, seed, keep);
                ASSERT_EQ(masked.size(), count);
                for (size_t i = 0; i < count; ++i) {
                    const Segment &segment = masked.segments[i];
                    EXPECT_EQ(segment.label, full.segments[i].label);
                    if (keep[i]) {
                        EXPECT_TRUE(sameBits(segment.samples,
                                             full.segments[i].samples))
                            << testCaseInfo(id).symbol << " seed "
                            << seed << " " << name << " segment " << i;
                    } else {
                        EXPECT_TRUE(segment.samples.empty());
                    }
                }
            }
        }
    }
}

/** FNV-1a over each segment's label, length and sample bits. */
uint64_t
datasetDigest(const SignalDataset &dataset)
{
    test::Fnv1aDigest digest;
    for (const Segment &segment : dataset.segments) {
        digest.add(
            static_cast<uint64_t>(static_cast<int64_t>(segment.label)));
        digest.add(static_cast<uint64_t>(segment.samples.size()));
        for (double v : segment.samples)
            digest.add(v);
    }
    return digest.value();
}

// Fence for any change to synthesis: every sample of every case at
// seed 1, in full and with the fleet's training split (the
// FleetNodeSpec defaults) as the keep mask. Regenerate only for an
// intended data change.
TEST(TestCasesTest, DatasetDigestsArePinned)
{
    const uint64_t full[6] = {
        0x91556d03006a8859ull, 0x38006b12255cfa7aull,
        0x75a8f39a27623424ull, 0x7977c7da5b1a7dfeull,
        0x499d96dc811d7f4aull, 0xe6c552c9275aef13ull,
    };
    const uint64_t split[6] = {
        0xc2697c5700598119ull, 0xf93ca9dd4ce1e1eaull,
        0x46703e41945a6809ull, 0x009ce4a9bc670ec5ull,
        0x0b40cbdc434fa2f1ull, 0xbf8ae8aa46f1be55ull,
    };
    for (size_t c = 0; c < allTestCases.size(); ++c) {
        const TestCase id = allTestCases[c];
        TrainingOptions options;
        options.maxTrainingSegments = 250;
        options.seed = 1;
        const std::vector<bool> keep =
            splitMask(trainingSplit(testCaseLabels(id), options),
                      testCaseInfo(id).segmentCount);
        const uint64_t gotFull = datasetDigest(makeTestCase(id, 1));
        const uint64_t gotSplit =
            datasetDigest(makeTestCase(id, 1, keep));
        EXPECT_EQ(gotFull, full[c]) << testCaseInfo(id).symbol
                                    << " full: 0x" << std::hex
                                    << gotFull;
        EXPECT_EQ(gotSplit, split[c]) << testCaseInfo(id).symbol
                                      << " split: 0x" << std::hex
                                      << gotSplit;
    }
}

TEST(TestCasesTest, ModalityNames)
{
    EXPECT_EQ(modalityName(Modality::Ecg), "ECG");
    EXPECT_EQ(modalityName(Modality::Eeg), "EEG");
    EXPECT_EQ(modalityName(Modality::Emg), "EMG");
}

} // namespace
