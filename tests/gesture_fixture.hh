/**
 * @file
 * The 4-class EMG gesture corpus as scaled feature rows, for tests
 * that train one-vs-rest models and build their topologies.
 */

#ifndef XPRO_TESTS_GESTURE_FIXTURE_HH
#define XPRO_TESTS_GESTURE_FIXTURE_HH

#include "data/gestures.hh"
#include "dsp/feature_pool.hh"
#include "ml/multiclass.hh"

namespace xpro::test
{

/** Scaled gesture features plus the corpus's segment length and
 *  event rate. */
struct GestureFeatures
{
    MultiClassData data;
    size_t segmentLength = 0;
    double eventsPerSecond = 0.0;
};

/** makeEmgGestureDataset(@p segments_per_class, @p seed) with every
 *  pool feature extracted and the rows scaled in place. */
inline GestureFeatures
scaledGestureFeatures(size_t segments_per_class, uint64_t seed)
{
    const GestureDataset raw =
        makeEmgGestureDataset(segments_per_class, seed);
    GestureFeatures out;
    out.data.classCount = raw.classCount;
    FeatureExtractor extractor;
    for (const GestureSegment &segment : raw.segments) {
        out.data.rows.push_back(extractor.extractAll(segment.samples));
        out.data.labels.push_back(segment.label);
    }
    FeatureScaler scaler;
    scaler.fit(out.data.rows);
    scaler.transformRowsInPlace(out.data.rows);
    out.segmentLength = raw.segmentLength;
    out.eventsPerSecond = raw.eventsPerSecond();
    return out;
}

} // namespace xpro::test

#endif // XPRO_TESTS_GESTURE_FIXTURE_HH
