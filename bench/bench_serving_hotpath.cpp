/**
 * @file
 * Serving hot-path harness: the per-event path (one
 * TrainedPipeline::classify() call per event, heap-allocating
 * feature vectors and per-kind statistics) against the
 * allocation-free SIMD hot path with cross-user batching
 * (HotPathPipeline behind BatchServer). Both end in the same
 * Svm::decision() kernel tiles, so the ratio measures framing, DWT,
 * features, scaling and batching. Shape checks: the batched predictions are
 * bit-identical to the per-event oracle at every batch size and
 * worker count tried, and one batching worker is at least 3x the
 * per-event path. Both sides of that gate run on one thread and are
 * timed on thread CPU time, so the ratio does not depend on the
 * host's core count or load. The all-workers rate is printed for
 * information only. The JSON summary reports the shared
 * "events_per_sec" / "peak_rss_mb" keys for the gated 1-worker path,
 * and, ungated, "lane_fill": the share of SIMD lanes the gated pass's
 * lane-packed feature extractions filled (from the serve.lane_*
 * stats; omitted when stats are compiled out).
 */

#include <cstdio>
#include <vector>

#include "bench_common.hh"
#include "common/simd.hh"
#include "dsp/dwt.hh"
#include "dsp/feature_pool.hh"
#include "obs/stats_registry.hh"
#include "serve/batch_server.hh"
#include "serve/hot_path.hh"

using namespace xpro;
using namespace xpro::bench;

namespace
{

/** A serving population: one trained model per user plus a shared
 *  event stream hitting all of them round-robin. */
struct Population
{
    std::vector<TrainedPipeline> pipelines;
    std::vector<HotPathPipeline> hot;
    std::vector<SignalDataset> datasets;
    std::vector<ServingEvent> events;
};

/**
 * The pre-PR per-event serving path, reproduced from the retained
 * reference APIs: frame + full DWT per event into freshly allocated
 * vectors, per-kind statistics via computeAllFeatures() (each kind
 * recomputing its own moments), allocating scaler transform, then
 * the ensemble's per-sample decision (RandomSubspace::predict(), one
 * projected vector per base). This is what
 * TrainedPipeline::classify() compiled to before the fused extractor
 * landed, on today's SVM decision kernel; the differential
 * harness proves the live path stayed bit-identical to it, and the
 * bench re-checks that below.
 */
int
referenceClassify(const TrainedPipeline &pipeline,
                  const std::vector<double> &segment)
{
    std::vector<double> raw(featurePoolSize, 0.0);
    const std::vector<double> frame = frameForDwt(segment);
    const DwtDecomposition decomp =
        dwtDecompose(frame, pipeline.extractor.wavelet(), dwtLevels);
    for (size_t d = 0; d < featureDomainCount; ++d) {
        const auto domain = static_cast<FeatureDomain>(d);
        std::vector<double> signal;
        if (domain == FeatureDomain::Time) {
            signal = segment;
        } else {
            const size_t level = domainLevel(domain);
            signal = decomp.detail[level - 1];
            if (level == dwtLevels) {
                signal.insert(signal.end(), decomp.approx.begin(),
                              decomp.approx.end());
            }
        }
        const auto values = computeAllFeatures(signal);
        for (size_t k = 0; k < featureKindCount; ++k)
            raw[featureIndex({domain, allFeatureKinds[k]})] =
                values[k];
    }
    return pipeline.ensemble.predict(
        pipeline.scaler.transform(raw));
}

Population
buildPopulation(size_t eventsTotal)
{
    const TestCase cases[] = {TestCase::C1, TestCase::E1,
                              TestCase::M1};
    Population pop;
    EngineConfig config; // paper defaults
    config.subspace.candidates = 8;
    TrainingOptions options;
    options.maxTrainingSegments = 120;
    options.seed = 2017;

    pop.pipelines.reserve(std::size(cases));
    pop.datasets.reserve(std::size(cases));
    for (TestCase tc : cases) {
        pop.datasets.push_back(makeTestCase(tc));
        pop.pipelines.push_back(
            trainPipeline(pop.datasets.back(), config, options));
    }
    pop.hot.reserve(pop.pipelines.size());
    for (const TrainedPipeline &pipeline : pop.pipelines)
        pop.hot.emplace_back(pipeline);

    pop.events.reserve(eventsTotal);
    for (size_t e = 0; e < eventsTotal; ++e) {
        const size_t user = e % pop.datasets.size();
        const SignalDataset &data = pop.datasets[user];
        const Segment &segment =
            data.segments[(e / pop.datasets.size()) %
                          data.segments.size()];
        pop.events.push_back({static_cast<uint32_t>(user),
                              segment.samples.data(),
                              segment.samples.size()});
    }
    return pop;
}

} // namespace

int
main()
{
    ShapeChecker checker;
    const size_t eventsTotal = 3000;
    Population pop = buildPopulation(eventsTotal);
    std::printf("serving hot path: %zu events across %zu users\n\n",
                pop.events.size(), pop.hot.size());

    // Pre-PR per-event path: every event alone through the reference
    // pipeline, including its per-call feature/DWT allocations.
    std::vector<int> baseline(eventsTotal);
    std::vector<double> sample; // per-event copy, as the old callers
    ThreadCpuTimer per_event_timer;
    for (size_t e = 0; e < eventsTotal; ++e) {
        const ServingEvent &event = pop.events[e];
        sample.assign(event.segment, event.segment + event.length);
        baseline[e] =
            referenceClassify(pop.pipelines[event.user], sample);
    }
    const double per_event_s = per_event_timer.seconds();
    const double per_event_rate = double(eventsTotal) / per_event_s;

    // The retained reference must agree bit-for-bit with today's
    // TrainedPipeline::classify() — otherwise the baseline would be
    // timing a path the library no longer computes.
    bool live_matches_reference = true;
    for (size_t e = 0; e < eventsTotal; ++e) {
        const ServingEvent &event = pop.events[e];
        sample.assign(event.segment, event.segment + event.length);
        live_matches_reference &=
            pop.pipelines[event.user].classify(sample) ==
            baseline[e];
    }

    // Hot path: packed SIMD kernels, arena scratch, cross-user
    // batches. The gate times one inline worker, like the baseline.
    std::vector<const HotPathPipeline *> users;
    for (const HotPathPipeline &hot : pop.hot)
        users.push_back(&hot);
    BatchServer server(users, 64, 1);
    std::vector<int> batched(eventsTotal);
    server.serveInto(pop.events.data(), eventsTotal,
                     batched.data()); // warmup: grow scratch arenas
    const StatsSnapshot stats_before =
        StatsRegistry::instance().snapshot();
    ThreadCpuTimer batched_timer;
    server.serveInto(pop.events.data(), eventsTotal,
                     batched.data());
    const double batched_s = batched_timer.seconds();
    const double batched_rate = double(eventsTotal) / batched_s;
    const double speedup = batched_rate / per_event_rate;
    const StatsSnapshot stats_after =
        StatsRegistry::instance().snapshot();
    const double lane_groups = double(
        stats_after.value("serve.lane_groups") -
        stats_before.value("serve.lane_groups"));
    const double lane_idle = double(
        stats_after.value("serve.lane_slots_idle") -
        stats_before.value("serve.lane_slots_idle"));
    const double lane_fill =
        lane_groups > 0.0
            ? 1.0 - lane_idle / (lane_groups * double(simdPackWidth))
            : 0.0;

    // Information only: the same batches over every hardware thread,
    // on wall time.
    BatchServer wide(users, 64, 0);
    std::vector<int> wide_out(eventsTotal);
    wide.serveInto(pop.events.data(), eventsTotal, wide_out.data());
    SteadyTimer wide_timer;
    wide.serveInto(pop.events.data(), eventsTotal, wide_out.data());
    const double wide_rate = double(eventsTotal) / wide_timer.seconds();

    std::printf("per-event path : %10.0f events/s  (1 thread, CPU "
                "time)\n",
                per_event_rate);
    std::printf("batched path   : %10.0f events/s  (1 worker, CPU "
                "time)\n",
                batched_rate);
    std::printf("speedup        : %10.2fx\n", speedup);
    if (statsCompiledIn())
        std::printf("lane fill      : %10.3f  (feature packs, 1 "
                    "worker; not gated)\n",
                    lane_fill);
    std::printf("all workers    : %10.0f events/s  (%zu workers, "
                "wall time; not gated)\n\n",
                wide_rate, wide.workerCount());

    std::printf("Shape checks:\n");
    checker.check(live_matches_reference,
                  "TrainedPipeline::classify matches the retained "
                  "pre-PR reference path");
    checker.check(batched == baseline,
                  "batched predictions bit-identical to the "
                  "per-event oracle");

    // Identity must hold at EVERY batch size and worker count, not
    // just the fast configuration the gate times.
    bool identical = true;
    for (size_t batch : {0u, 1u, 7u, 64u}) {
        for (size_t workers : {1u, 2u, 0u}) {
            BatchServer variant(users, batch, workers);
            identical &= variant.serve(pop.events) == baseline;
        }
    }
    checker.check(identical,
                  "identity holds at every batch size x worker "
                  "count");
    checker.check(speedup >= 3.0,
                  "one batching worker is at least 3x the "
                  "per-event path on thread CPU time");

    checker.metric("per_event_events_per_sec", per_event_rate);
    checker.metric("speedup", speedup);
    if (statsCompiledIn())
        checker.metric("lane_fill", lane_fill);
    checker.metric("all_workers_events_per_sec", wide_rate);
    checker.throughput(eventsTotal, batched_s);
    return checker.finish("bench_serving_hotpath");
}
