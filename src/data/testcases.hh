/**
 * @file
 * The six evaluation test cases of the paper (Table 1):
 *
 *   | Case | Dataset        | Segment length | Segments |
 *   |------|----------------|----------------|----------|
 *   | C1   | ECGTwoLead     | 82             | 1162     |
 *   | C2   | ECGFiveDays    | 136            | 884      |
 *   | E1   | EEGDifficult01 | 128            | 1000     |
 *   | E2   | EEGDifficult02 | 128            | 1000     |
 *   | M1   | EMGHandLat     | 132            | 1200     |
 *   | M2   | EMGHandTip     | 132            | 1200     |
 *
 * Each case is materialized with the synthetic generators; shapes
 * match Table 1 exactly and class balance is approximately even.
 */

#ifndef XPRO_DATA_TESTCASES_HH
#define XPRO_DATA_TESTCASES_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/biosignal.hh"

namespace xpro
{

/** Identifiers of the six paper test cases. */
enum class TestCase
{
    C1,
    C2,
    E1,
    E2,
    M1,
    M2,
};

/** All test cases in the paper's order. */
constexpr std::array<TestCase, 6> allTestCases = {
    TestCase::C1, TestCase::C2, TestCase::E1,
    TestCase::E2, TestCase::M1, TestCase::M2,
};

/** Static Table-1 attributes of one test case. */
struct TestCaseInfo
{
    TestCase id;
    const char *symbol;
    const char *datasetName;
    Modality modality;
    size_t segmentLength;
    size_t segmentCount;
    /** ADC rate assumed for the modality (sets the event rate). */
    double sampleRateHz;
};

/** Table-1 attributes for @p id. */
const TestCaseInfo &testCaseInfo(TestCase id);

/**
 * Per-segment labels of @p id's dataset: +1 and -1 alternate, so
 * the classes are even. A pure function of the case, independent of
 * the seed; makeTestCase() labels its segments with it.
 */
std::vector<int> testCaseLabels(TestCase id);

/**
 * Materialize a test case with the synthetic generators.
 *
 * @param id Which case.
 * @param seed Generator seed; equal seeds give identical datasets.
 * @param keep Per-segment keep mask, one entry per segment; empty
 *        keeps every segment. A skipped segment keeps its label and
 *        has no samples. The generators draw the same variates for
 *        it, so every kept segment is bit-identical to the same
 *        segment of the full dataset.
 * @return Dataset with Table-1 shape and roughly even class split.
 */
SignalDataset makeTestCase(TestCase id, uint64_t seed = 2017,
                           const std::vector<bool> &keep = {});

} // namespace xpro

#endif // XPRO_DATA_TESTCASES_HH
