/**
 * @file
 * Multi-classification on a wearable EMG armband (paper Section 5.7
 * extension): recognize four hand grasps (lateral, spherical, tip,
 * hook) with a one-vs-rest random-subspace engine, then let the
 * unchanged Automatic XPro Generator partition the extended topology
 * across the armband and the phone.
 */

#include <cstdio>

#include "core/evaluator.hh"
#include "core/topology.hh"
#include "data/gestures.hh"
#include "ml/crossval.hh"
#include "ml/multiclass.hh"

using namespace xpro;

int
main()
{
    // 1. Synthesize the 4-class grasp corpus and extract features.
    const GestureDataset raw = makeEmgGestureDataset(150);
    std::printf("dataset %s: %zu segments, %zu classes "
                "(%s/%s/%s/%s)\n",
                raw.name.c_str(), raw.size(), raw.classCount,
                raw.classNames[0].c_str(), raw.classNames[1].c_str(),
                raw.classNames[2].c_str(), raw.classNames[3].c_str());

    FeatureExtractor extractor;
    MultiClassData all;
    all.classCount = raw.classCount;
    for (const GestureSegment &segment : raw.segments) {
        all.rows.push_back(extractor.extractAll(segment.samples));
        all.labels.push_back(segment.label);
    }

    // 75/25 split (stratification via the binary helper on a
    // one-vs-rest view is overkill here; classes are interleaved).
    const size_t train_count = all.size() * 3 / 4;
    MultiClassData train;
    MultiClassData test;
    train.classCount = test.classCount = all.classCount;
    for (size_t i = 0; i < all.size(); ++i) {
        MultiClassData &dst = i < train_count ? train : test;
        dst.rows.push_back(all.rows[i]);
        dst.labels.push_back(all.labels[i]);
    }

    FeatureScaler scaler;
    scaler.fit(train.rows);
    scaler.transformRowsInPlace(train.rows);
    scaler.transformRowsInPlace(test.rows);

    // 2. Train the one-vs-rest ensemble.
    RandomSubspaceConfig subspace =
        EngineConfig::defaultSubspaceConfig();
    subspace.candidates = 40;
    const MultiClassSubspace model =
        MultiClassSubspace::train(train, subspace);
    std::printf("gesture recognizer: %.1f%% accuracy on held-out "
                "data (%zu one-vs-rest ensembles)\n",
                100.0 * model.accuracy(test), model.classCount());

    // Per-class recall.
    std::vector<size_t> correct(raw.classCount, 0);
    std::vector<size_t> totals(raw.classCount, 0);
    for (size_t i = 0; i < test.size(); ++i) {
        ++totals[test.labels[i]];
        correct[test.labels[i]] +=
            model.predict(test.rows[i]) == test.labels[i];
    }
    for (size_t cls = 0; cls < raw.classCount; ++cls) {
        std::printf("  %-10s recall %.1f%%\n",
                    raw.classNames[cls].c_str(),
                    100.0 * static_cast<double>(correct[cls]) /
                        static_cast<double>(totals[cls]));
    }

    // 3. Partition the extended topology with the same generator.
    const EngineConfig config;
    const EngineTopology topology = buildMultiClassTopology(
        model, raw.segmentLength, config, raw.eventsPerSecond());
    const WirelessLink link(transceiver(config.wireless));
    const SensorNode sensor;
    const Aggregator aggregator;
    const WorkloadContext workload{raw.eventsPerSecond()};

    std::printf("\nextended topology: %zu cells (%zu SVM cells "
                "across %zu classes)\n",
                topology.graph.cellCount(), topology.svmNodes.size(),
                model.classCount());
    std::printf("%-24s %14s %12s %14s\n", "engine", "energy/event",
                "delay", "battery life");
    for (EngineKind kind : allEngineKinds) {
        const EngineEvaluation eval = evaluateEngineKind(
            kind, topology, link, sensor, aggregator, workload);
        std::printf("%-24s %11.2f uJ %9.3f ms %11.1f h\n",
                    engineKindName(kind).c_str(),
                    eval.sensorEnergy.total().uj(),
                    eval.delay.total().ms(),
                    eval.sensorLifetime.hr());
    }
    std::printf("\n\"The rest of the proposed methodology can be "
                "applied directly.\" -- paper Section 5.7\n");
    return 0;
}
