/**
 * @file
 * Shared infrastructure for the per-figure/per-table benchmark
 * harnesses: the paper's evaluation configuration (Section 4.4), a
 * cache of trained designs per test case, and PASS/FAIL shape-check
 * reporting against the paper's claims.
 *
 * Absolute numbers are not expected to match the authors' silicon
 * measurements (the substrate here is a reconstructed energy model);
 * each bench therefore prints the series the paper plots *and*
 * machine-checks the qualitative shape: who wins, by roughly what
 * factor, and where the crossovers fall.
 */

#ifndef XPRO_BENCH_COMMON_HH
#define XPRO_BENCH_COMMON_HH

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <time.h>

#include "core/pipeline.hh"
#include "data/testcases.hh"
#include "sim/system_sim.hh"

namespace xpro::bench
{

/**
 * Wall-clock stopwatch on std::chrono::steady_clock — monotonic, so
 * host clock adjustments (NTP steps, suspend) can never produce
 * negative or wildly wrong bench timings.
 */
class SteadyTimer
{
  public:
    SteadyTimer() : _start(std::chrono::steady_clock::now()) {}

    void restart() { _start = std::chrono::steady_clock::now(); }

    /** Seconds since construction or the last restart(). */
    double
    seconds() const
    {
        const auto now = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(now - _start).count();
    }

    double ms() const { return seconds() * 1e3; }

  private:
    std::chrono::steady_clock::time_point _start;
};

/**
 * CPU time consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID).
 * Single-thread speedups are gated on this clock, so host load and
 * core count cannot move the ratio.
 */
class ThreadCpuTimer
{
  public:
    ThreadCpuTimer() : _start(now()) {}

    /** CPU seconds since construction. */
    double seconds() const { return now() - _start; }

  private:
    static double
    now()
    {
        timespec ts = {};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        return static_cast<double>(ts.tv_sec) +
               1e-9 * static_cast<double>(ts.tv_nsec);
    }

    double _start;
};

/** Peak resident set size in MiB (getrusage; ru_maxrss is KiB on
 *  Linux). */
inline double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** The paper's classifier setup (Section 4.4), full candidate
 *  budget, with a training-set cap so every bench stays fast. */
inline EngineConfig
paperConfig()
{
    EngineConfig config; // defaults already mirror Section 4.4
    return config;
}

inline TrainingOptions
paperTraining()
{
    TrainingOptions options;
    options.maxTrainingSegments = 300;
    options.seed = 2017;
    return options;
}

/** A trained pipeline per test case, shared by all evaluations. */
class CaseLibrary
{
  public:
    const TrainedPipeline &
    pipeline(TestCase tc)
    {
        auto it = _pipelines.find(tc);
        if (it == _pipelines.end()) {
            const SignalDataset &ds = dataset(tc);
            it = _pipelines
                     .emplace(tc, trainPipeline(ds, paperConfig(),
                                                paperTraining()))
                     .first;
        }
        return it->second;
    }

    const SignalDataset &
    dataset(TestCase tc)
    {
        auto it = _datasets.find(tc);
        if (it == _datasets.end())
            it = _datasets.emplace(tc, makeTestCase(tc)).first;
        return it->second;
    }

    /** Topology for a case under a hardware configuration. */
    EngineTopology
    topology(TestCase tc, const EngineConfig &config)
    {
        const SignalDataset &ds = dataset(tc);
        return buildEngineTopology(pipeline(tc).ensemble,
                                   ds.segmentLength, config,
                                   ds.eventsPerSecond());
    }

  private:
    std::map<TestCase, SignalDataset> _datasets;
    std::map<TestCase, TrainedPipeline> _pipelines;
};

/**
 * Collects PASS/FAIL shape checks plus named metrics and sets the
 * exit code. finish() also emits a one-line JSON summary, so CI can
 * scrape every bench with one grep.
 */
class ShapeChecker
{
  public:
    void
    check(bool ok, const std::string &claim)
    {
        std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL",
                    claim.c_str());
        ++_checks;
        _failures += !ok;
    }

    /** Record a numeric result for the JSON summary line. */
    void
    metric(const std::string &name, double value)
    {
        _metrics.emplace_back(name, value);
    }

    /**
     * Event throughput under the SAME JSON key — "events_per_sec" —
     * in every event-driven bench, so CI can compare them with one
     * grep. @p events is whatever unit of work the bench pushed
     * through (stream events, training segments, sweep points);
     * each bench documents its unit at the call site.
     */
    void
    throughput(size_t events, double seconds)
    {
        metric("events_per_sec",
               seconds > 0.0
                   ? static_cast<double>(events) / seconds
                   : 0.0);
    }

    /** Print a summary; returns the process exit code. */
    int
    finish(const char *bench_name) const
    {
        if (_failures == 0) {
            std::printf("\n%s: all shape checks PASSED\n",
                        bench_name);
        } else {
            std::printf("\n%s: %zu shape check(s) FAILED\n",
                        bench_name, _failures);
        }
        std::printf("{\"bench\":\"%s\",\"checks\":%zu,"
                    "\"failures\":%zu,\"metrics\":{",
                    bench_name, _checks, _failures);
        for (size_t i = 0; i < _metrics.size(); ++i) {
            std::printf("\"%s\":%.9g,",
                        _metrics[i].first.c_str(),
                        _metrics[i].second);
        }
        // Every bench closes with the shared "peak_rss_mb" key, so
        // memory is comparable across all harnesses without each
        // one remembering to report it.
        std::printf("\"peak_rss_mb\":%.9g}}\n", peakRssMb());
        return _failures == 0 ? 0 : 1;
    }

  private:
    size_t _checks = 0;
    size_t _failures = 0;
    std::vector<std::pair<std::string, double>> _metrics;
};

/** Evaluate one engine kind for a case under a configuration. */
inline EngineEvaluation
evaluateCase(CaseLibrary &library, TestCase tc,
             const EngineConfig &config, EngineKind kind)
{
    const SignalDataset &ds = library.dataset(tc);
    const EngineTopology topo = library.topology(tc, config);
    const WirelessLink link(transceiver(config.wireless));
    SensorNodeConfig sensor_config;
    sensor_config.process = config.process;
    const SensorNode sensor(sensor_config);
    const Aggregator aggregator;
    const WorkloadContext workload{ds.eventsPerSecond()};
    return evaluateEngineKind(kind, topo, link, sensor, aggregator,
                              workload);
}

} // namespace xpro::bench

#endif // XPRO_BENCH_COMMON_HH
