/**
 * @file
 * Repository benchmark: runs one named workload per process
 * through the library's public API, checks its outputs, and prints
 * one JSON result line (see README.md in this directory).
 *
 *   xpro_perfbench --workload serve|population|fleet
 *                  --seed N --seconds S --trace 0|1
 *                  [--size full|tiny] [--spans FILE]
 *
 * Every workload runs single-threaded (one worker everywhere). With
 * --trace 0 the result carries the end-to-end metrics; with
 * --trace 1 the same workload runs with spans recorded around the
 * benchmark's own calls, followed by per-layer probes that time public
 * functions on the workload's inputs, and the result carries the
 * per-layer metrics. Spans are written as Chrome-trace JSON.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sched.h>
#include <sys/resource.h>

#include "common/arena.hh"
#include "common/random.hh"
#include "common/simd.hh"
#include "common/worker_pool.hh"
#include "control/adaptive_sim.hh"
#include "control/controller.hh"
#include "control/trace.hh"
#include "core/partitioner.hh"
#include "core/pipeline.hh"
#include "core/topology.hh"
#include "data/testcases.hh"
#include "dsp/dwt.hh"
#include "dsp/feature_pool.hh"
#include "fleet/admission.hh"
#include "fleet/chaos.hh"
#include "fleet/fleet.hh"
#include "fleet/radio_sched.hh"
#include "hw/cost_cache.hh"
#include "obs/stats_registry.hh"
#include "serve/batch_server.hh"
#include "serve/hot_path.hh"
#include "sim/event_queue.hh"
#include "sim/system_sim.hh"
#include "wireless/fault.hh"
#include "wireless/link.hh"
#include "wireless/transceiver.hh"

using namespace xpro;

namespace
{

// --- clocks, statistics, hashing -------------------------------------

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Nearest-rank quantile of @p values (q in [0, 1]). */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        std::ceil(q * static_cast<double>(values.size()));
    const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

/** Median; the mean of the middle two for an even count. */
double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : 0.5 * (values[mid - 1] + values[mid]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** FNV-1a; digests of the deterministic outputs. */
uint64_t
fnv1a(const void *data, size_t size)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

uint64_t
fnv1a(const std::string &text)
{
    return fnv1a(text.data(), text.size());
}

// --- spans ------------------------------------------------------------

/**
 * In-memory span recorder for the traced run: name, start, end,
 * parent and workload-run id per span, written as Chrome-trace JSON
 * at exit. Spans come only from this file, around calls into the
 * library. Disabled (every call a no-op) in untraced runs.
 */
class SpanLog
{
  public:
    static constexpr size_t kCap = 1 << 20;

    void
    enable()
    {
        _enabled = true;
        _origin = wallSeconds();
        _spans.reserve(4096);
    }

    void nextRun() { ++_run; }

    int64_t
    open(const char *name)
    {
        if (!_enabled)
            return -1;
        int64_t id = -1;
        if (_spans.size() < kCap) {
            const int64_t parent = _stack.empty() ? -1 : _stack.back();
            _spans.push_back({name, nowUs(), 0.0, parent, _run});
            id = static_cast<int64_t>(_spans.size() - 1);
        } else {
            ++_dropped;
        }
        _stack.push_back(id);
        return id;
    }

    void
    close(int64_t id)
    {
        if (!_enabled)
            return;
        _stack.pop_back();
        if (id >= 0)
            _spans[static_cast<size_t>(id)].endUs = nowUs();
    }

    size_t size() const { return _spans.size(); }
    size_t dropped() const { return _dropped; }

    /** Chrome-trace JSON ("X" complete events, loadable in
     *  Perfetto); span id, parent and run id ride in args. */
    bool
    write(const std::string &path) const
    {
        FILE *out = std::fopen(path.c_str(), "w");
        if (!out)
            return false;
        std::fprintf(out,
                     "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (size_t i = 0; i < _spans.size(); ++i) {
            const Span &s = _spans[i];
            std::fprintf(out,
                         "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"id\":%zu,\"parent\":%lld,"
                         "\"run\":%u}}",
                         i ? "," : "", s.name, s.startUs,
                         std::max(0.0, s.endUs - s.startUs), i,
                         static_cast<long long>(s.parent), s.run);
        }
        std::fprintf(out, "\n],\"otherData\":{\"dropped\":%zu}}\n",
                     _dropped);
        return std::fclose(out) == 0;
    }

  private:
    struct Span
    {
        const char *name;
        double startUs;
        double endUs;
        int64_t parent;
        uint32_t run;
    };

    double nowUs() const { return (wallSeconds() - _origin) * 1e6; }

    bool _enabled = false;
    double _origin = 0.0;
    uint32_t _run = 0;
    size_t _dropped = 0;
    std::vector<Span> _spans;
    std::vector<int64_t> _stack;
};

SpanLog spans;

class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name) : _id(spans.open(name)) {}
    ~ScopedSpan() { spans.close(_id); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    int64_t _id;
};

// --- options and results ----------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    std::string spansPath;
};

/** Per-layer metrics with units, in report order. Every name is
 *  reported by every traced run; a layer the workload does not cross
 *  reads 0. */
const std::vector<std::pair<const char *, const char *>> kLayerMetrics = {
    {"dsp.dwt_ns", "ns"},
    {"dsp.features_ns", "ns"},
    {"dsp.features_packed_ns", "ns"},
    {"ml.scale_ns", "ns"},
    {"serve.classify_ns", "ns"},
    {"serve.decide_ns", "ns"},
    {"serve.batch_ns", "ns"},
    {"serve.batch_p99_us", "us"},
    {"serve.lane_fill", "ratio"},
    {"sim.wheel_ns_per_item", "ns"},
    {"fleet.pop_nonwheel_s", "s"},
    {"fleet.pop_items_per_event", "ratio"},
    {"fleet.pop_deferred_per_event", "ratio"},
    {"fleet.chaos_migrated_nodes", "count"},
    {"fleet.chaos_rekeyed_items", "count"},
    {"fleet.chaos_retries", "count"},
    {"sim.wheel_cascades_per_item", "ratio"},
    {"sim.wheel_max_pending", "count"},
    {"fleet.slab_bytes_per_node", "B"},
    {"control.observe_us", "us"},
    {"control.resolves_per_window", "ratio"},
    {"sim.stream_us", "us"},
    {"sim.fault_stream_us", "us"},
    {"core.cut_warm_us", "us"},
    {"sim.arq_tries_per_packet", "ratio"},
    {"control.repartitions", "count"},
    {"control.lifetime_pass_s", "s"},
    {"ml.train_ms_per_node", "ms"},
    {"core.topology_ms_per_node", "ms"},
    {"core.cut_cold_ms", "ms"},
    {"fleet.design_s", "s"},
    {"fleet.admission_ms", "ms"},
    {"fleet.sim_ns_per_event", "ns"},
    {"hw.cost_cache_hit_rate", "ratio"},
    {"sim.radio_occupancy", "ratio"},
    {"model.serve_accuracy", "ratio"},
    {"model.pop_completeness", "ratio"},
    {"model.adapt_lifetime_h", "h"},
    {"model.fleet_sensor_life_h", "h"},
    {"host.cpu_over_wall", "ratio"},
    {"host.pass_p50_ms", "ms"},
    {"host.traced_ops_per_s", "1/s"},
};

/** Fewest whole-call passes a run makes. */
constexpr size_t kMinWholePasses = 4;

struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** End-to-end values of the timed loop. */
    double setupS = 0.0;
    double opsPerS = 0.0;
    double passP10Ms = 0.0;
    /** Median pass (a traced-run metric). */
    double passP50Ms = 0.0;
    /** Host CPU time / wall time over the timed loop. */
    double cpuOverWall = 0.0;
    /** Digest of the deterministic output. */
    uint64_t digest = 0;
    /** Per-layer values by name (traced run only). */
    std::map<std::string, double> layer;

    void
    check(bool ok, const std::string &what)
    {
        std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
        correct = correct && ok;
    }

    /**
     * Fill the pass metrics from per-pass seconds, each pass doing
     * @p ops operations. The host is shared: for seconds to minutes
     * at a time it runs every instruction 20-60% slower, so a run's
     * median pass says as much about the neighbours as about the
     * program. Such slowdowns only ever add time, and every run has
     * quiet stretches, so the run's fast passes measure the program:
     * the pass metric is the nearest-rank p10 (the fastest pass when
     * a run makes fewer than ten), and ops_per_s is one pass's
     * operations over it.
     */
    void
    passTimes(const std::vector<double> &seconds, double ops)
    {
        passP10Ms = quantile(seconds, 0.10) * 1e3;
        passP50Ms = median(seconds) * 1e3;
        opsPerS = ratio(ops, passP10Ms * 1e-3);
    }
};

/** Median wall seconds of @p reps runs of @p fn. */
double
medianSeconds(int reps, const std::function<void()> &fn)
{
    std::vector<double> times;
    for (int r = 0; r < reps; ++r) {
        const double start = wallSeconds();
        fn();
        times.push_back(wallSeconds() - start);
    }
    return median(times);
}

/**
 * Set-up time: set-ups repeat, each dropping the previous one's
 * state, until five have run and a second has passed (one at tiny
 * size). Like the passes (see Result::passTimes), the fastest one
 * measures the program rather than the host. Population and fleet,
 * whose set-ups leave no state behind, take the faster of two such
 * rounds, before and after the timed loop: a slow stretch of the host
 * covers one round of about a second more often than both.
 */
double
setupSeconds(const Options &opt, const std::function<void()> &fn)
{
    std::vector<double> times;
    const double begin = wallSeconds();
    do {
        ScopedSpan span("setup");
        const double start = wallSeconds();
        fn();
        times.push_back(wallSeconds() - start);
    } while (!opt.tiny && times.size() < 50 &&
             (times.size() < 5 || wallSeconds() - begin < 1.0));
    std::printf("setup: %zu set-ups, fastest %.4f s, median %.4f s\n",
                times.size(), quantile(times, 0.0), median(times));
    return quantile(times, 0.0);
}

/**
 * The timed region: whole passes of the workload, repeated while the
 * next pass (at the mean pass time so far) still fits in the budget,
 * and at least @p min_passes times. Tracks CPU over wall.
 */
class PassLoop
{
  public:
    PassLoop(double seconds, size_t min_passes)
        : _seconds(seconds), _minPasses(min_passes),
          _wall0(wallSeconds()), _cpu0(cpuSeconds())
    {
    }

    bool
    more() const
    {
        if (_passes.size() < _minPasses)
            return true;
        const double elapsed = wallSeconds() - _wall0;
        return elapsed + elapsed / static_cast<double>(_passes.size()) <=
               _seconds;
    }

    void record(double seconds) { _passes.push_back(seconds); }
    const std::vector<double> &passes() const { return _passes; }

    double
    cpuOverWall() const
    {
        return ratio(cpuSeconds() - _cpu0, wallSeconds() - _wall0);
    }

  private:
    double _seconds;
    size_t _minPasses;
    double _wall0;
    double _cpu0;
    std::vector<double> _passes;
};

/** Median over @p reps runs of @p fn, in ns per item of @p items. */
double
nsPerItem(size_t items, int reps, const std::function<void()> &fn)
{
    return medianSeconds(reps, fn) * 1e9 /
           static_cast<double>(std::max<size_t>(items, 1));
}

// --- serve -----------------------------------------------------------

constexpr size_t kServeBatch = 64;

struct ServeInputs
{
    std::vector<SignalDataset> datasets;
    std::vector<TrainedPipeline> pipelines;
    std::vector<HotPathPipeline> hot;
    /** One pass of the client's request stream. */
    std::vector<ServingEvent> events;
    std::vector<size_t> segmentOf;
    /** TrainedPipeline::classify label per event. */
    std::vector<int> oracle;
    double trainSeconds = 0.0;
};

/**
 * 24 users: the six paper cases x 4 fixed dataset seeds, each with
 * its own trained pipeline. The request stream merges the users'
 * event streams, each user emitting at its case's event rate
 * (sampleRateHz / segmentLength, as the fleet models weight nodes):
 * the next event is user u's with probability rate_u / sum of rates.
 * An EMG user thus sends 2.9x the traffic of a C2 ECG user. --seed
 * drives the event order and the segments; the expected traffic
 * shares, and so the work per pass, are the same for every seed.
 */
ServeInputs
buildServe(const Options &opt)
{
    const size_t seedsPerCase = opt.tiny ? 1 : 4;
    const size_t streamEvents = kServeBatch * (opt.tiny ? 8 : 512);
    ServeInputs in;
    EngineConfig config;
    config.subspace.candidates = opt.tiny ? 4 : 8;
    for (TestCase tc : allTestCases) {
        for (size_t k = 0; k < seedsPerCase; ++k) {
            const uint64_t dataSeed = 2017 + k;
            in.datasets.push_back(makeTestCase(tc, dataSeed));
            TrainingOptions options;
            options.maxTrainingSegments = opt.tiny ? 40 : 120;
            options.seed = dataSeed;
            options.mlWorkers = 1;
            ScopedSpan span("ml.trainPipeline");
            const double start = wallSeconds();
            in.pipelines.push_back(
                trainPipeline(in.datasets.back(), config, options));
            in.trainSeconds += wallSeconds() - start;
        }
    }
    in.hot.reserve(in.pipelines.size());
    for (const TrainedPipeline &p : in.pipelines)
        in.hot.emplace_back(p);

    const size_t users = in.pipelines.size();
    std::vector<double> cdf(users);
    double total = 0.0;
    for (size_t u = 0; u < users; ++u) {
        total += in.datasets[u].eventsPerSecond();
        cdf[u] = total;
    }
    Rng rng(opt.seed);
    std::map<std::pair<size_t, size_t>, int> labels;
    in.events.reserve(streamEvents);
    for (size_t e = 0; e < streamEvents; ++e) {
        const double pick = rng.uniform() * total;
        const size_t user = std::min<size_t>(
            std::upper_bound(cdf.begin(), cdf.end(), pick) - cdf.begin(),
            users - 1);
        const SignalDataset &data = in.datasets[user];
        const size_t seg = rng.below(data.segments.size());
        const std::vector<double> &samples = data.segments[seg].samples;
        in.events.push_back({static_cast<uint32_t>(user), samples.data(),
                             samples.size()});
        in.segmentOf.push_back(seg);
        auto it = labels.find({user, seg});
        if (it == labels.end()) {
            it = labels
                     .emplace(std::make_pair(user, seg),
                              in.pipelines[user].classify(samples))
                     .first;
        }
        in.oracle.push_back(it->second);
    }
    return in;
}

/** Per-event layer probes over the serve stream (traced run). */
void
probeServeLayers(const ServeInputs &in, Result &res)
{
    ScopedSpan probeSpan("serve.layer_probes");
    const size_t n = in.events.size();
    const int reps = 3;
    Arena arena;
    DwtScratch dwt;
    std::vector<std::vector<double>> framed(n);
    for (size_t e = 0; e < n; ++e) {
        const ServingEvent &ev = in.events[e];
        framed[e].assign(dwtFrameLength, 0.0);
        std::copy_n(ev.segment, std::min(ev.length, dwtFrameLength),
                    framed[e].begin());
    }
    double sink = 0.0;
    {
        ScopedSpan span("dsp.DwtScratch::decompose");
        res.layer["dsp.dwt_ns"] = nsPerItem(n, reps, [&] {
            for (size_t e = 0; e < n; ++e) {
                const Wavelet w =
                    in.pipelines[in.events[e].user].extractor.wavelet();
                dwt.decompose(framed[e].data(), dwtFrameLength, w,
                              dwtLevels);
                sink += dwt.approxData()[0];
            }
        });
    }
    std::vector<double> rows(n * featurePoolSize);
    {
        ScopedSpan span("dsp.FeatureExtractor::extractAllInto");
        res.layer["dsp.features_ns"] = nsPerItem(n, reps, [&] {
            for (size_t e = 0; e < n; ++e) {
                const ServingEvent &ev = in.events[e];
                in.pipelines[ev.user].extractor.extractAllInto(
                    ev.segment, ev.length, &rows[e * featurePoolSize],
                    dwt);
            }
        });
    }
    {
        // Lane-packed extraction over runs of consecutive events of
        // equal length and wavelet (the grouping the server does).
        ScopedSpan span("dsp.FeatureExtractor::extractAllPackedInto");
        std::vector<double> packedOut(simdPackWidth * featurePoolSize);
        res.layer["dsp.features_packed_ns"] = nsPerItem(n, reps, [&] {
            size_t e = 0;
            while (e < n) {
                const ServingEvent &head = in.events[e];
                const FeatureExtractor &ex =
                    in.pipelines[head.user].extractor;
                const double *group[simdPackWidth];
                size_t count = 0;
                while (e < n && count < simdPackWidth &&
                       in.events[e].length == head.length &&
                       in.pipelines[in.events[e].user]
                               .extractor.wavelet() == ex.wavelet()) {
                    group[count++] = in.events[e].segment;
                    ++e;
                }
                ex.extractAllPackedInto(group, count, head.length,
                                        packedOut.data(), dwt, arena);
                sink += packedOut[0];
            }
        });
    }
    {
        ScopedSpan span("ml.FeatureScaler::transformInto");
        std::vector<double> scaled(featurePoolSize);
        res.layer["ml.scale_ns"] = nsPerItem(n, reps, [&] {
            for (size_t e = 0; e < n; ++e) {
                in.pipelines[in.events[e].user].scaler.transformInto(
                    &rows[e * featurePoolSize], scaled.data());
                sink += scaled[0];
            }
        });
    }
    size_t mismatches = 0;
    {
        ScopedSpan span("serve.HotPathPipeline::classify");
        res.layer["serve.classify_ns"] = nsPerItem(n, reps, [&] {
            mismatches = 0;
            for (size_t e = 0; e < n; ++e) {
                const ServingEvent &ev = in.events[e];
                mismatches += in.hot[ev.user].classify(
                                  ev.segment, ev.length, arena, dwt) !=
                              in.oracle[e];
            }
        });
    }
    res.check(mismatches == 0 && std::isfinite(sink),
              "HotPathPipeline::classify matches the oracle per event");
    res.layer["serve.decide_ns"] = std::max(
        0.0, res.layer["serve.classify_ns"] - res.layer["dsp.features_ns"] -
                 res.layer["ml.scale_ns"]);
}

void
runServe(const Options &opt, Result &res)
{
    ServeInputs in;
    res.setupS = setupSeconds(opt, [&] {
        in = {}; // one set-up alive at a time, for peak_rss_mb
        in = buildServe(opt);
    });
    std::vector<const HotPathPipeline *> users;
    for (const HotPathPipeline &hot : in.hot)
        users.push_back(&hot);
    BatchServer server(users, kServeBatch, 1);
    const size_t n = in.events.size();
    std::vector<int> out(n, 0);
    server.serveInto(in.events.data(), n, out.data()); // warm-up pass

    if (opt.trace)
        StatsRegistry::instance().reset();
    // Closed loop, one client: the next 64-event batch is sent only
    // after the previous one's labels came back.
    std::vector<double> batchS;
    uint64_t mismatches = 0;
    uint64_t served = 0;
    PassLoop loop(opt.seconds, 1);
    while (loop.more()) {
        ScopedSpan passSpan("serve.pass");
        double busy = 0.0;
        for (size_t off = 0; off < n; off += kServeBatch) {
            const size_t count = std::min(kServeBatch, n - off);
            ScopedSpan span("serve.BatchServer::serveInto");
            const double start = wallSeconds();
            server.serveInto(in.events.data() + off, count,
                             out.data() + off);
            const double took = wallSeconds() - start;
            busy += took;
            batchS.push_back(took);
        }
        loop.record(busy);
        for (size_t e = 0; e < n; ++e)
            mismatches += out[e] != in.oracle[e];
        served += n;
        spans.nextRun();
    }
    res.cpuOverWall = loop.cpuOverWall();
    res.attempted = served;
    res.failed = mismatches;
    res.passTimes(loop.passes(), static_cast<double>(n));
    const size_t beyond =
        batchS.size() - static_cast<size_t>(std::ceil(
                            0.99 * static_cast<double>(batchS.size())));
    std::printf("serve: %zu users, %zu-event stream, %zu passes, "
                "%zu batches of %zu events (%zu beyond p99)\n",
                users.size(), n, loop.passes().size(), batchS.size(),
                kServeBatch, beyond);
    res.digest = fnv1a(out.data(), n * sizeof(int));
    res.check(mismatches == 0,
              "every served label equals the TrainedPipeline::classify "
              "oracle (" + std::to_string(mismatches) + " mismatches)");
    res.check(opt.tiny || beyond >= 10,
              "at least 10 batches lie beyond serve.batch_p99_us");

    if (!opt.trace)
        return;
    size_t rightLabels = 0;
    for (size_t e = 0; e < n; ++e) {
        const Segment &seg =
            in.datasets[in.events[e].user].segments[in.segmentOf[e]];
        rightLabels += out[e] == seg.label;
    }
    res.layer["model.serve_accuracy"] =
        ratio(static_cast<double>(rightLabels), static_cast<double>(n));
    res.layer["ml.train_ms_per_node"] =
        in.trainSeconds * 1e3 / static_cast<double>(in.pipelines.size());
    res.layer["serve.batch_ns"] =
        median(batchS) * 1e9 / static_cast<double>(kServeBatch);
    res.layer["serve.batch_p99_us"] = quantile(batchS, 0.99) * 1e6;
    const StatsSnapshot snap = StatsRegistry::instance().snapshot();
    const double groups =
        static_cast<double>(snap.value("serve.lane_groups"));
    res.layer["serve.lane_fill"] =
        groups > 0.0
            ? 1.0 - static_cast<double>(snap.value("serve.lane_slots_idle")) /
                        (groups * static_cast<double>(simdPackWidth))
            : 0.0;
    probeServeLayers(in, res);
}

// --- population -------------------------------------------------------

PopulationFleetConfig
populationConfig(const Options &opt, uint64_t nodes)
{
    PopulationFleetConfig config;
    config.nodes = nodes;
    config.eventsPerNode = 4;
    config.shards = 16;
    config.workers = 1;
    // --seed staggers the nodes' phases; the crash schedule keeps the
    // profile's own seed, so every seed loses gateways alike.
    config.seed = opt.seed;
    config.chaos = ChaosConfig::profile("flaky");
    // Provisioned like bench_fleet_million: the CLI default cloud
    // quota throttles most of a million-node fleet's traffic.
    config.tiers.cloudEventsPerSec = 5000000;
    return config;
}

/** The timing wheel alone: a standalone 16-shard queue on the run's
 *  window drains the run's item count with no-op handlers, items
 *  spread uniformly over the run's windows and nodes. */
double
probeWheel(const Options &opt, const PopulationFleetConfig &config,
           uint64_t items, uint64_t windows, Result &res)
{
    ScopedSpan span("sim.ShardedEventQueue probe");
    windows = std::max<uint64_t>(windows, 1);
    const uint64_t perWindow = std::max<uint64_t>(items / windows, 1);
    const uint64_t window = config.windowUs;
    uint64_t drained = 0;
    const double ns = nsPerItem(perWindow * windows, 3, [&] {
        ShardedEventQueue queue(16, window);
        WorkerPool pool(1);
        Rng rng(opt.seed);
        const auto fill = [&](uint64_t w) {
            for (uint64_t i = 0; i < perWindow; ++i) {
                WheelItem item;
                item.node = static_cast<uint32_t>(rng.below(config.nodes));
                item.at = w * window + rng.below(window);
                item.kind = static_cast<uint32_t>(i % 3);
                queue.shard(item.node % 16).schedule(item);
            }
        };
        fill(0);
        drained = 0;
        queue.run(
            pool, [&](size_t, const WheelItem &) { ++drained; },
            [&](uint64_t w, uint64_t) {
                if (w + 1 < windows)
                    fill(w + 1);
            });
    });
    res.check(drained == perWindow * windows,
              "standalone wheel drained every scheduled item");
    return ns;
}

void
runPopulation(const Options &opt, Result &res)
{
    const uint64_t nodes = opt.tiny ? 20000 : 1000000;
    const PopulationFleetConfig config = populationConfig(opt, nodes);
    const auto warmUp = [&] {
        // Warm the allocator and code with a 1/16-size fleet.
        runPopulationFleet(populationConfig(opt, nodes / 16));
    };
    res.setupS = setupSeconds(opt, warmUp);
    const uint64_t offered = config.nodes * config.eventsPerNode;

    if (opt.trace)
        StatsRegistry::instance().reset();
    PopulationFleetResult result;
    std::string reference;
    bool repeatable = true;
    PassLoop loop(opt.seconds, kMinWholePasses);
    while (loop.more()) {
        ScopedSpan span("fleet.runPopulationFleet");
        const double start = wallSeconds();
        result = runPopulationFleet(config);
        loop.record(wallSeconds() - start);
        const std::string bytes = result.report.serialize();
        if (reference.empty())
            reference = bytes;
        repeatable = repeatable && bytes == reference;
        spans.nextRun();
    }
    res.cpuOverWall = loop.cpuOverWall();
    res.setupS = std::min(res.setupS, setupSeconds(opt, warmUp));
    const size_t passes = loop.passes().size();

    // Every offered node-event must end in exactly one accounted
    // outcome: completed, a sensor-local fallback (ARQ, defer cap or
    // blackout), duty-cycle suppression, or a churn drop. An event
    // the simulator loses track of is a failed operation; the
    // model's own shortfall (fallbacks) is reported as completeness.
    const FleetReport &r = result.report;
    const uint64_t completed = r.totalEvents;
    const uint64_t accounted = completed + r.tiers.localFallbacks +
                               r.tiers.dutySuppressed +
                               r.chaos.droppedEvents;
    const uint64_t unaccounted = offered > accounted
                                     ? offered - accounted
                                     : accounted - offered;
    res.attempted = offered * passes;
    res.failed = unaccounted * passes;
    res.passTimes(loop.passes(),
                  static_cast<double>(result.report.totalEvents));
    res.digest = fnv1a(reference);
    const double completeness = ratio(static_cast<double>(completed),
                                      static_cast<double>(offered));
    std::printf("population: %llu nodes x %llu events, %zu passes, "
                "completed %llu of %llu offered (%.4f%%), "
                "%llu wheel items\n",
                static_cast<unsigned long long>(config.nodes),
                static_cast<unsigned long long>(config.eventsPerNode),
                passes, static_cast<unsigned long long>(completed),
                static_cast<unsigned long long>(offered),
                100.0 * completeness,
                static_cast<unsigned long long>(result.simulatedEvents));
    res.check(unaccounted == 0,
              "completed + fallbacks + suppressed + dropped equal "
              "offered (" + std::to_string(accounted) + " vs " +
                  std::to_string(offered) + ")");
    res.check(repeatable, "FleetReport bytes repeat on every pass");
    res.check(r.chaos.enabled && r.chaos.gatewayCrashes > 0,
              "the flaky chaos schedule crashed gateways");

    if (!opt.trace)
        return;
    const StatsSnapshot snap = StatsRegistry::instance().snapshot();
    const double items = static_cast<double>(result.simulatedEvents);
    res.layer["model.pop_completeness"] = completeness;
    res.layer["fleet.pop_items_per_event"] =
        ratio(items, static_cast<double>(completed));
    res.layer["fleet.pop_deferred_per_event"] = ratio(
        static_cast<double>(snap.value("population.deferred_phone") +
                            snap.value("population.deferred_gateway")),
        static_cast<double>(offered * passes));
    res.layer["fleet.chaos_migrated_nodes"] =
        static_cast<double>(r.chaos.migratedNodes);
    res.layer["fleet.chaos_rekeyed_items"] =
        static_cast<double>(r.chaos.rekeyedItems);
    res.layer["fleet.chaos_retries"] = static_cast<double>(r.chaos.retries);
    res.layer["sim.wheel_cascades_per_item"] =
        ratio(static_cast<double>(snap.value("event_queue.cascades")),
              static_cast<double>(snap.value("event_queue.items_drained")));
    res.layer["sim.wheel_max_pending"] = static_cast<double>(
        snap.value("event_queue.wheel_pending_highwater"));
    res.layer["fleet.slab_bytes_per_node"] =
        static_cast<double>(NodeSlabs::bytesPerNode());
    const double wheelNs = probeWheel(opt, config, result.simulatedEvents,
                                      r.tiers.windows, res);
    res.layer["sim.wheel_ns_per_item"] = wheelNs;
    res.layer["fleet.pop_nonwheel_s"] =
        std::max(0.0, median(loop.passes()) - wheelNs * 1e-9 * items);
}

// --- adapt -------------------------------------------------------------

struct AdaptInputs
{
    EngineConfig config;
    EngineTopology topology;
};

AdaptInputs
buildAdapt(const Options &opt)
{
    AdaptInputs in;
    const SignalDataset dataset = makeTestCase(TestCase::C1, 2017);
    TrainingOptions options;
    options.maxTrainingSegments = opt.tiny ? 60 : 300;
    options.seed = 2017;
    options.mlWorkers = 1;
    if (opt.tiny)
        in.config.subspace.candidates = 8;
    const TrainedPipeline pipeline =
        trainPipeline(dataset, in.config, options);
    in.topology = buildEngineTopology(pipeline.ensemble,
                                      dataset.segmentLength, in.config,
                                      dataset.eventsPerSecond());
    return in;
}

/** One day of control windows driven from outside (traced run): the
 *  detailed stream simulation of each window, ideal or lossy, then
 *  the controller's observe() on that window's telemetry. */
void
probeControlLayers(const AdaptInputs &in, const WirelessLink &link,
                   const NonstationaryTrace &day,
                   const AdaptiveRunConfig &run, Result &res)
{
    ScopedSpan probeSpan("control.window_probe");
    const std::vector<ControlWindow> windows =
        day.discretize(run.control.repartitionPeriod);
    CrossEndController controller(in.topology, link, run.control);
    std::vector<double> idealUs, lossyUs, observeUs;
    Time at;
    for (size_t w = 0; w < windows.size(); ++w) {
        const ControlWindow &window = windows[w];
        const size_t events = std::clamp<size_t>(
            static_cast<size_t>(window.eventsPerSecond *
                                window.duration.sec()),
            1, run.sampleCap);
        StreamResult stream;
        double start = wallSeconds();
        if (window.idealChannel()) {
            ScopedSpan span("sim.simulateStream");
            stream = simulateStream(in.topology, controller.placement(),
                                    link, window.eventsPerSecond, events);
            idealUs.push_back((wallSeconds() - start) * 1e6);
        } else {
            ScopedSpan span("sim.simulateStream(faults)");
            stream = simulateStream(
                in.topology, controller.placement(), link,
                window.eventsPerSecond, events,
                windowFaultProfile(run.faults, window.channel, w));
            lossyUs.push_back((wallSeconds() - start) * 1e6);
        }
        at = at + window.duration;
        ControlTelemetry telemetry;
        telemetry.at = at;
        telemetry.eventsPerSecond = window.eventsPerSecond;
        telemetry.stateOfCharge =
            1.0 - 0.9 * static_cast<double>(w) /
                      static_cast<double>(windows.size());
        const RobustnessReport &rob = stream.robustness;
        telemetry.meanAttemptsPerPacket =
            rob.enabled && rob.packetsOffered > 0
                ? static_cast<double>(rob.attempts) /
                      static_cast<double>(rob.packetsOffered)
                : 1.0;
        ScopedSpan span("control.CrossEndController::observe");
        start = wallSeconds();
        controller.observe(telemetry);
        observeUs.push_back((wallSeconds() - start) * 1e6);
    }
    res.layer["sim.stream_us"] = median(idealUs);
    res.layer["sim.fault_stream_us"] = median(lossyUs);
    res.layer["control.observe_us"] = median(observeUs);

    // Warm cuts: re-price the transfer edges, then re-cut.
    ScopedSpan cutSpan("core.XProGenerator::cutAt (warm)");
    XProGenerator generator(in.topology, link);
    generator.generate();
    constexpr int kScales = 41;
    res.layer["core.cut_warm_us"] = 1e-3 * nsPerItem(kScales, 5, [&] {
        for (int step = 0; step < kScales; ++step) {
            generator.setTransferEnergyScale(1.0 + 0.05 * step);
            generator.cutAt(0.0);
        }
    });
    res.check(generator.coldSolves() == 1,
              "warm-cut probe stayed on one cold solve");
}

/**
 * The adaptive controller's layers, probed in fleet's traced run: one
 * adaptiveLifetime of C1 over day(2017) with the default
 * AdaptiveRunConfig, then probeControlLayers. No workload times
 * adaptiveLifetime end to end: on a shared host its ~4 s passes ran
 * up to 55% slower for whole runs (see README.md, "Dropped
 * workload").
 */
void
probeAdaptLayers(const Options &opt, Result &res)
{
    ScopedSpan probeSpan("control.adapt_probe");
    const AdaptInputs in = buildAdapt(opt);
    const WirelessLink link(transceiver(in.config.wireless));
    // --seed reseeds the lossy windows' packet-loss draws.
    const NonstationaryTrace day = NonstationaryTrace::day(2017);
    AdaptiveRunConfig run;
    run.sensor.process = in.config.process;
    run.faults.seed = opt.seed;
    if (opt.tiny) // a cell that dies within the first simulated day
        run.sensor.battery = Battery(0.05, 3.7);

    StatsRegistry::instance().reset();
    LifetimeResult result;
    {
        ScopedSpan span("control.adaptiveLifetime");
        const double start = wallSeconds();
        result = adaptiveLifetime(in.topology, link, day, run);
        res.layer["control.lifetime_pass_s"] = wallSeconds() - start;
    }
    const ControlReport &c = result.control;
    std::printf("adapt probe: %zu windows, lifetime %.1f h, %zu "
                "repartitions, %zu cold + %zu warm solves, ControlReport "
                "digest %016llx\n",
                c.windows, result.lifetime.hr(), c.repartitions,
                c.coldSolves, c.warmSolves,
                static_cast<unsigned long long>(fnv1a(c.serialize())));
    res.check(c.coldSolves == 1 && c.windows > 0,
              "adaptiveLifetime closed windows on one cold solve");
    const StatsSnapshot snap = StatsRegistry::instance().snapshot();
    res.layer["model.adapt_lifetime_h"] = result.lifetime.hr();
    res.layer["control.repartitions"] = static_cast<double>(c.repartitions);
    res.layer["control.resolves_per_window"] =
        ratio(static_cast<double>(snap.value("control.resolves")),
              static_cast<double>(snap.value("control.windows")));
    const SnapshotEntry *tries = snap.find("arq.tries_per_packet");
    res.layer["sim.arq_tries_per_packet"] =
        tries ? ratio(static_cast<double>(tries->hist.sum),
                      static_cast<double>(tries->hist.count))
              : 0.0;
    probeControlLayers(in, link, day, run, res);
}

// --- fleet -------------------------------------------------------------

FleetConfig
fleetConfig(const Options &opt, size_t nodes, size_t events)
{
    FleetConfig config;
    config.nodes = heterogeneousFleet(nodes, opt.seed);
    if (opt.tiny) {
        for (FleetNodeSpec &spec : config.nodes) {
            spec.subspaceCandidates = 8;
            spec.maxTrainingSegments = 60;
        }
    }
    config.policy = RadioPolicy::Fcfs;
    config.workers = 1;
    config.sweepWorkers = 1;
    config.servingWorkers = 1;
    config.eventsPerNode = events;
    return config;
}

/** The fleet flow again, phase by phase through public calls
 *  (traced run): training, topology and a cold generator solve per
 *  node, admission, then the detailed event simulation. */
void
probeFleetLayers(const FleetConfig &config, const FleetReport &report,
                 Result &res)
{
    ScopedSpan probeSpan("fleet.phase_probe");
    const size_t nodes = config.nodes.size();
    const WirelessLink link(transceiver(config.wireless));
    std::vector<XProDesign> designs(nodes);
    std::vector<double> rates(nodes);
    double trainS = 0.0, topoS = 0.0, cutS = 0.0;
    for (size_t i = 0; i < nodes; ++i) {
        const FleetNodeSpec &spec = config.nodes[i];
        const SignalDataset dataset =
            makeTestCase(spec.testCase, spec.seed);
        XProDesign &d = designs[i];
        d.config.process = spec.process;
        d.config.wireless = config.wireless;
        d.config.subspace.candidates = spec.subspaceCandidates;
        TrainingOptions options;
        options.maxTrainingSegments = spec.maxTrainingSegments;
        options.seed = spec.seed;
        options.mlWorkers = 1;
        double start = wallSeconds();
        {
            ScopedSpan span("ml.trainPipeline");
            d.pipeline = trainPipeline(dataset, d.config, options);
        }
        trainS += wallSeconds() - start;
        start = wallSeconds();
        {
            ScopedSpan span("core.buildEngineTopology");
            d.topology = buildEngineTopology(
                d.pipeline.ensemble, dataset.segmentLength, d.config,
                dataset.eventsPerSecond());
        }
        topoS += wallSeconds() - start;
        start = wallSeconds();
        {
            ScopedSpan span("core.XProGenerator::generate (cold)");
            d.partition = XProGenerator(d.topology, link).generate();
        }
        cutS += wallSeconds() - start;
        const TestCaseInfo &info = testCaseInfo(spec.testCase);
        rates[i] =
            info.sampleRateHz / static_cast<double>(info.segmentLength);
    }
    const double msPerNode = 1e3 / static_cast<double>(nodes);
    res.layer["ml.train_ms_per_node"] = trainS * msPerNode;
    res.layer["core.topology_ms_per_node"] = topoS * msPerNode;
    res.layer["core.cut_cold_ms"] = cutS * msPerNode;

    std::vector<AdmissionCandidate> candidates;
    for (size_t i = 0; i < nodes; ++i)
        candidates.push_back({&designs[i].topology,
                              &designs[i].partition.placement, rates[i]});
    AdmissionResult admission;
    {
        ScopedSpan span("fleet.admitFleet");
        res.layer["fleet.admission_ms"] = 1e3 * medianSeconds(5, [&] {
            admission = admitFleet(candidates, link, config.admission);
        });
    }
    std::vector<FleetMember> members;
    for (size_t i = 0; i < nodes; ++i)
        members.push_back({designs[i].topology,
                           admission.nodes[i].placement, rates[i]});
    const FcfsArbiter fcfs;
    FleetSimResult sim;
    {
        ScopedSpan span("fleet.simulateFleet");
        const double start = wallSeconds();
        sim = simulateFleet(members, link, fcfs, config.eventsPerNode);
        res.layer["fleet.sim_ns_per_event"] =
            (wallSeconds() - start) * 1e9 /
            static_cast<double>(nodes * config.eventsPerNode);
    }
    size_t events = 0, misses = 0;
    for (const MemberSimResult &m : sim.members) {
        events += m.events;
        misses += m.deadlineMisses;
    }
    res.check(events == report.totalEvents &&
                  misses == report.totalDeadlineMisses,
              "phase-by-phase replay reproduces runFleet's events and "
              "deadline misses");
}

void
runFleetWorkload(const Options &opt, Result &res)
{
    const size_t nodes = opt.tiny ? 2 : 16;
    const size_t events = opt.tiny ? 100 : 2000;
    const FleetConfig config = fleetConfig(opt, nodes, events);
    const auto warmUp = [&] {
        // A two-node fleet through every phase.
        runFleet(fleetConfig(opt, 2, 50));
    };
    res.setupS = setupSeconds(opt, warmUp);

    const CostCacheStats cache0 = CellCostCache::instance().stats();
    FleetResult result;
    std::string reference;
    bool repeatable = true;
    uint64_t simulated = 0, misses = 0;
    PassLoop loop(opt.seconds, kMinWholePasses);
    while (loop.more()) {
        ScopedSpan span("fleet.runFleet");
        const double start = wallSeconds();
        result = runFleet(config);
        loop.record(wallSeconds() - start);
        simulated += result.report.totalEvents;
        misses += result.report.totalDeadlineMisses;
        const std::string bytes = result.report.serialize();
        if (reference.empty())
            reference = bytes;
        repeatable = repeatable && bytes == reference;
        spans.nextRun();
    }
    const CostCacheStats cache1 = CellCostCache::instance().stats();
    res.cpuOverWall = loop.cpuOverWall();
    res.setupS = std::min(res.setupS, setupSeconds(opt, warmUp));
    res.attempted = simulated;
    res.failed = misses;
    res.passTimes(loop.passes(),
                  static_cast<double>(result.report.totalEvents));
    res.digest = fnv1a(reference);
    const FleetReport &r = result.report;
    double life = 0.0;
    for (const FleetNodeReportRow &row : r.rows)
        life += row.sensorLifetimeHours;
    life /= static_cast<double>(std::max<size_t>(r.rows.size(), 1));
    std::printf("fleet: %zu nodes x %zu events, %zu passes, design "
                "%.3f s, %zu deadline misses, mean sensor life %.1f h\n",
                nodes, events, loop.passes().size(),
                result.designWall.sec(), r.totalDeadlineMisses, life);
    res.check(repeatable, "FleetReport bytes repeat on every pass");
    res.check(r.totalEvents == nodes * events,
              "every node simulated every event");

    if (!opt.trace)
        return;
    res.layer["model.fleet_sensor_life_h"] = life;
    res.layer["fleet.design_s"] = result.designWall.sec();
    res.layer["sim.radio_occupancy"] = r.radioOccupancy;
    res.layer["hw.cost_cache_hit_rate"] =
        ratio(static_cast<double>(cache1.hits - cache0.hits),
              static_cast<double>(cache1.lookups() - cache0.lookups()));
    probeFleetLayers(config, r, res);
    probeAdaptLayers(opt, res);
}

// --- run metadata and main --------------------------------------------

/** Effective parallelism: CPU time / wall time while @p threads
 *  threads each run one calibrated ~20 ms spin. */
double
measuredParallelism(unsigned threads)
{
    const auto spin = [](uint64_t iters) {
        volatile uint64_t x = 0;
        for (uint64_t i = 0; i < iters; ++i)
            x = x + i;
    };
    uint64_t iters = 1 << 16;
    for (;;) {
        const double start = wallSeconds();
        spin(iters);
        if (wallSeconds() - start >= 0.02)
            break;
        iters *= 2;
    }
    const double cpu0 = cpuSeconds();
    const double wall0 = wallSeconds();
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back(spin, iters);
    for (std::thread &t : pool)
        t.join();
    return ratio(cpuSeconds() - cpu0, wallSeconds() - wall0);
}

/**
 * Pin the (single-threaded) workload to the CPU it is running on.
 * Unpinned, the scheduler migrates the thread between vCPUs and each
 * move starts on cold caches: on a 4-vCPU sandbox that cost serve
 * 10-30% of its rate, run to run. Returns the CPU, or -1 if pinning
 * failed (the run then proceeds unpinned).
 */
int
pinToCurrentCpu()
{
    const int cpu = sched_getcpu();
    if (cpu < 0)
        return -1;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string arg = argv[i];
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = value;
        } else if (arg == "--seed") {
            if (value.empty() || value[0] == '-')
                return false;
            opt.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end)
                return false;
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            if (*end || !(opt.seconds > 0.0 && opt.seconds <= 600.0))
                return false;
        } else if (arg == "--trace" && (value == "0" || value == "1")) {
            opt.trace = value == "1";
        } else if (arg == "--size" && (value == "full" || value == "tiny")) {
            opt.tiny = value == "tiny";
        } else if (arg == "--spans") {
            opt.spansPath = value;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !opt.workload.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    const std::map<std::string, void (*)(const Options &, Result &)>
        workloads = {{"serve", runServe},
                     {"population", runPopulation},
                     {"fleet", runFleetWorkload}};
    const bool parsed = parseArgs(argc, argv, opt);
    const auto workload = workloads.find(opt.workload);
    if (!parsed || workload == workloads.end()) {
        std::fprintf(stderr,
                     "usage: xpro_perfbench --workload "
                     "serve|population|fleet --seed N --seconds S "
                     "--trace 0|1 [--size full|tiny] [--spans FILE]\n");
        return 2;
    }

    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const double parallelism = measuredParallelism(std::min(hw, 16u));
    const int cpu = pinToCurrentCpu();
    std::printf("meta {\"git_sha\":\"%s\",\"build_type\":\"%s\","
                "\"simd_backend\":\"%s\",\"stats_compiled_in\":%s,"
                "\"hardware_concurrency\":%u,"
                "\"measured_parallelism\":%.3f,\"pinned_cpu\":%d,"
                "\"workload\":\"%s\","
                "\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
                "\"size\":\"%s\"}\n",
                XPRO_PERFBENCH_GIT_SHA, XPRO_PERFBENCH_BUILD_TYPE,
                simdBackendName(), statsCompiledIn() ? "true" : "false",
                hw, parallelism, cpu, opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, opt.tiny ? "tiny" : "full");

    if (opt.trace)
        spans.enable();
    Result res;
    {
        ScopedSpan span("workload");
        workload->second(opt, res);
    }
    std::printf("digest %s seed=%llu %016llx\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(res.digest));
    std::printf("host cpu_over_wall %.3f, pass p10 %.4f ms, p50 %.4f ms\n",
                res.cpuOverWall, res.passP10Ms, res.passP50Ms);
    if (opt.trace && !opt.spansPath.empty()) {
        const bool written = spans.write(opt.spansPath);
        std::printf("spans %zu recorded, %zu dropped, %s %s\n",
                    spans.size(), spans.dropped(),
                    written ? "written to" : "FAILED to write",
                    opt.spansPath.c_str());
        res.correct = res.correct && written;
    }

    std::string metrics;
    const auto add = [&](const std::string &name, double value,
                         const char *unit) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      metrics.empty() ? "" : ", ", name.c_str(),
                      std::isfinite(value) ? value : 0.0, unit);
        metrics += buf;
    };
    if (opt.trace) {
        res.layer["host.cpu_over_wall"] = res.cpuOverWall;
        res.layer["host.pass_p50_ms"] = res.passP50Ms;
        res.layer["host.traced_ops_per_s"] = res.opsPerS;
        for (const auto &[name, unit] : kLayerMetrics) {
            const auto found = res.layer.find(name);
            add(name, found == res.layer.end() ? 0.0 : found->second,
                unit);
        }
    } else {
        add("setup_s", res.setupS, "s");
        add("peak_rss_mb", peakRssMb(), "MiB");
        add("ops_per_s", res.opsPerS, "1/s");
        add("pass_p10_ms", res.passP10Ms, "ms");
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                res.correct ? "true" : "false",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed),
                metrics.c_str());
    return 0;
}
