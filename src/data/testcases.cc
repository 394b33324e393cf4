#include "data/testcases.hh"

#include "common/logging.hh"
#include "common/random.hh"
#include "data/ecg_synth.hh"
#include "data/eeg_synth.hh"
#include "data/emg_synth.hh"
#include "obs/stats_registry.hh"

namespace xpro
{

namespace
{

const std::array<TestCaseInfo, 6> table1 = {{
    {TestCase::C1, "C1", "ECGTwoLead", Modality::Ecg, 82, 1162, 360.0},
    {TestCase::C2, "C2", "ECGFiveDays", Modality::Ecg, 136, 884, 360.0},
    {TestCase::E1, "E1", "EEGDifficult01", Modality::Eeg, 128, 1000,
     512.0},
    {TestCase::E2, "E2", "EEGDifficult02", Modality::Eeg, 128, 1000,
     512.0},
    {TestCase::M1, "M1", "EMGHandLat", Modality::Emg, 132, 1200,
     1000.0},
    {TestCase::M2, "M2", "EMGHandTip", Modality::Emg, 132, 1200,
     1000.0},
}};

// Stable scope: a dataset is a pure function of (case, seed, mask).
struct DataStatIds
{
    StatId synthesized, skipped;
};

const DataStatIds &
dataStatIds()
{
    static const DataStatIds ids = [] {
        StatsRegistry &reg = StatsRegistry::instance();
        return DataStatIds{
            reg.registerCounter("data.segments_synthesized"),
            reg.registerCounter("data.segments_skipped")};
    }();
    return ids;
}

} // namespace

const TestCaseInfo &
testCaseInfo(TestCase id)
{
    for (const TestCaseInfo &info : table1) {
        if (info.id == id)
            return info;
    }
    panic("unknown test case %d", static_cast<int>(id));
}

std::vector<int>
testCaseLabels(TestCase id)
{
    // Alternate labels for an even class balance.
    const size_t count = testCaseInfo(id).segmentCount;
    std::vector<int> labels(count);
    for (size_t i = 0; i < count; ++i)
        labels[i] = (i % 2) == 0 ? 1 : -1;
    return labels;
}

SignalDataset
makeTestCase(TestCase id, uint64_t seed, const std::vector<bool> &keep)
{
    const TestCaseInfo &info = testCaseInfo(id);
    xproAssert(keep.empty() || keep.size() == info.segmentCount,
               "keep mask has %zu entries, %s has %zu segments",
               keep.size(), info.symbol, info.segmentCount);

    SignalDataset dataset;
    dataset.name = info.datasetName;
    dataset.symbol = info.symbol;
    dataset.modality = info.modality;
    dataset.segmentLength = info.segmentLength;
    dataset.sampleRateHz = info.sampleRateHz;
    dataset.segments.reserve(info.segmentCount);

    Rng rng(seed ^ (static_cast<uint64_t>(id) << 32));

    // Per-case generator tunings. The two cases of each modality
    // differ, mirroring how the paper's dataset pairs differ in
    // class structure and difficulty.
    EcgSynthConfig ecg;
    if (id == TestCase::C2) {
        ecg.noiseLevel = 0.06;
        ecg.abnormalQrsWidening = 1.5;
        ecg.abnormalTScale = 0.5;
    }

    EegSynthConfig eeg;
    if (id == TestCase::E2) {
        // "Difficult02": weaker spikes, smaller band contrast.
        eeg.spikeAmplitude = 1.8;
        eeg.positiveAlphaScale = 1.25;
        eeg.noiseLevel = 0.35;
    }

    EmgSynthConfig emg;
    if (id == TestCase::M2) {
        // Tip vs. hook: closer envelopes than lateral vs. spherical.
        emg.burstsClassPositive = 2;
        emg.burstsClassNegative = 3;
        emg.burstLenPositiveSec = 0.20;
        emg.burstLenNegativeSec = 0.13;
        emg.amplitudePositive = 1.1;
        emg.amplitudeNegative = 1.3;
    }

    const std::vector<int> labels = testCaseLabels(id);
    size_t synthesized = 0;
    for (size_t i = 0; i < info.segmentCount; ++i) {
        const bool positive = labels[i] == 1;
        const bool materialize = keep.empty() || keep[i];
        synthesized += materialize;
        Segment segment;
        segment.label = labels[i];
        switch (info.modality) {
          case Modality::Ecg:
            // Positive = normal beat, negative = abnormal morphology.
            segment.samples = synthesizeEcgSegment(
                info.segmentLength, info.sampleRateHz, !positive, ecg,
                rng, materialize);
            break;
          case Modality::Eeg:
            segment.samples = synthesizeEegSegment(
                info.segmentLength, info.sampleRateHz, positive, eeg,
                rng, materialize);
            break;
          case Modality::Emg:
            segment.samples = synthesizeEmgSegment(
                info.segmentLength, info.sampleRateHz, positive, emg,
                rng, materialize);
            break;
        }
        dataset.segments.push_back(std::move(segment));
    }

    const DataStatIds &ids = dataStatIds();
    StatsRegistry &reg = StatsRegistry::instance();
    reg.add(ids.synthesized, synthesized);
    reg.add(ids.skipped, info.segmentCount - synthesized);
    return dataset;
}

} // namespace xpro
