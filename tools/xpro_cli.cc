/**
 * @file
 * Command-line front-end for the XPro design flow: pick a test case
 * and a hardware configuration, get the trained engine, the
 * generator's cut and the full evaluation — optionally exporting a
 * Chrome trace of one simulated event.
 *
 *   xpro_cli --case C1 --process 90 --wireless 2 [--ber 1e-4]
 *            [--engine C|A|S|trivial] [--trace event.json]
 *            [--candidates N] [--max-train N] [--ml-workers W]
 *
 * Fleet mode simulates N heterogeneous nodes on one shared
 * aggregator instead of evaluating a single node:
 *
 *   xpro_cli --fleet 6 [--workers W] [--sweep-workers W]
 *            [--policy fcfs|tdma] [--events N] [--wireless M]
 *            [--ber p] [--seed S] [--serve-events N]
 *            [--batch-events B] [--serve-workers W]
 *
 * Fault injection (single-node stream and fleet alike): a named
 * profile or explicit Gilbert-Elliott/outage parameters switch the
 * event simulators to the bursty channel with bounded ARQ and the
 * outage-fallback protocol:
 *
 *   xpro_cli --case C1 --fault-profile bursty [--max-retries N]
 *            [--loss-burst pGB:pBG] [--outage start:end]
 *
 * Adaptive mode runs the online cross-end controller over a seeded
 * nonstationary day trace (battery decay, channel episodes, rate
 * steps) and compares its lifetime against both static extremes:
 *
 *   xpro_cli --case C1 --adaptive [--repartition-period s]
 *            [--hysteresis frac] [--min-dwell s]
 *            [--control-trace decisions.json]
 *
 * Population mode simulates N nodes (up to millions) through the
 * sensor -> phone -> gateway -> cloud tier hierarchy on a sharded
 * event queue; the report is byte-identical at any shard or worker
 * count:
 *
 *   xpro_cli --nodes 1000000 [--shards S] [--workers W]
 *            [--tiers sensors:phones] [--events N] [--seed S]
 *
 * The population path takes a deterministic chaos schedule on top:
 * gateway crash/restart episodes, correlated regional outages,
 * cloud-unreachable windows and node churn, with self-healing
 * failover — the report stays byte-identical at any shard or
 * worker count, and identical to a chaos-free run when disabled:
 *
 *   xpro_cli --nodes 1000000 --chaos-profile harsh
 *            [--gateway-mtbf W] [--cloud-outage a:b] [--churn f]
 *            [--chaos-trace chaos.json]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "common/argparse.hh"
#include "common/logging.hh"
#include "control/adaptive_fleet.hh"
#include "core/pipeline.hh"
#include "data/testcases.hh"
#include "fleet/fleet.hh"
#include "obs/stats_export.hh"
#include "sim/trace_export.hh"
#include "wireless/fault.hh"

using namespace xpro;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --case C1|C2|E1|E2|M1|M2   test case (default C1)\n"
        "  --process 130|90|45        process node (default 90)\n"
        "  --wireless 1|2|3           transceiver model (default 2)\n"
        "  --ber <p>                  channel bit error rate "
        "(default 0)\n"
        "  --engine A|S|trivial|C     engine to evaluate "
        "(default C)\n"
        "  --candidates <n>           subspace candidates "
        "(default 100)\n"
        "  --max-train <n>            training segment cap "
        "(default 300)\n"
        "  --ml-workers <n>           ensemble training threads, "
        "0 = all cores (default 1)\n"
        "  --trace <file>             write a Chrome trace of one "
        "event\n"
        "  --seed <s>                 dataset/training RNG seed "
        "(default 2017)\n"
        "  --fleet <n>                simulate an n-node fleet on "
        "one aggregator (at most 1638 nodes)\n"
        "  --workers <n>              fleet design worker threads "
        "(default 1)\n"
        "  --sweep-workers <n>        generator sweep threads per "
        "node (default 1)\n"
        "  --policy fcfs|tdma         fleet radio arbitration "
        "(default fcfs)\n"
        "  --serve-events <n>         steady-state serving events "
        "classified after the fleet\n"
        "                             event simulation on the SIMD "
        "hot path (default 0 = off)\n"
        "  --batch-events <n>         cross-user serving batch "
        "size; one batch spans up to\n"
        "                             n events from any mix of "
        "nodes (default 0 = one batch)\n"
        "  --serve-workers <n>        serving worker threads, 0 = "
        "one per hardware thread\n"
        "                             (default 1; predictions "
        "identical at any value)\n"
        "  --events <n>               simulated events per fleet "
        "node or fault-injected stream (default 6;\n"
        "                             fleet nodes x events at most "
        "2^20)\n"
        "  --fault-profile <name>     fault injection preset: none, "
        "mild, bursty or harsh (default none)\n"
        "  --loss-burst <pGB>:<pBG>   Gilbert-Elliott good-to-bad / "
        "bad-to-good probabilities (enables fault injection)\n"
        "  --max-retries <n>          ARQ retries before a packet "
        "is abandoned (default 5)\n"
        "  --outage <a>:<b>           scripted outage window in ms, "
        "repeatable (enables fault injection)\n"
        "  --adaptive                 run the online cross-end "
        "controller over a seeded nonstationary day trace\n"
        "  --repartition-period <s>   control-window length in "
        "seconds (default 60)\n"
        "  --hysteresis <frac>        relative objective improvement "
        "a re-partition must beat (default 0.05)\n"
        "  --min-dwell <s>            minimum seconds between "
        "re-partitions (default 120)\n"
        "  --control-trace <file>     write a Chrome trace of the "
        "controller's decisions\n"
        "  --nodes <n>                population mode: simulate n "
        "nodes through the tier hierarchy\n"
        "  --shards <n>               population event-queue shards "
        "(default 1; report identical at any value)\n"
        "  --tiers <a>:<b>            sensors per phone : phones "
        "per gateway (default 32:64)\n"
        "  --chaos-profile <name>     population chaos preset: none, "
        "flaky, regional, churn or harsh\n"
        "  --gateway-mtbf <w>         mean windows between gateway "
        "crashes (enables chaos)\n"
        "  --cloud-outage <a>:<b>     cloud-unreachable window range "
        "[a, b), repeatable (enables chaos)\n"
        "  --churn <frac>             fraction of nodes that churn "
        "out and rejoin (enables chaos)\n"
        "  --chaos-trace <file>       write a Chrome trace of the "
        "chaos episodes\n"
        "  --stats                    print the stats-registry "
        "table after the run\n"
        "  --stats-out <file>         write the stats-registry "
        "snapshot as JSON\n",
        argv0);
    std::exit(2);
}

TestCase
parseCase(const std::string &value)
{
    for (TestCase tc : allTestCases) {
        if (value == testCaseInfo(tc).symbol)
            return tc;
    }
    fatal("unknown test case '%s'", value.c_str());
}

ProcessNode
parseProcess(const std::string &value)
{
    if (value == "130")
        return ProcessNode::Tsmc130;
    if (value == "90")
        return ProcessNode::Tsmc90;
    if (value == "45")
        return ProcessNode::Tsmc45;
    fatal("unknown process '%s' (expected 130, 90 or 45)",
          value.c_str());
}

WirelessModel
parseWireless(const std::string &value)
{
    if (value == "1")
        return WirelessModel::Model1;
    if (value == "2")
        return WirelessModel::Model2;
    if (value == "3")
        return WirelessModel::Model3;
    fatal("unknown wireless model '%s' (expected 1, 2 or 3)",
          value.c_str());
}

EngineKind
parseEngine(const std::string &value)
{
    if (value == "A")
        return EngineKind::InAggregator;
    if (value == "S")
        return EngineKind::InSensor;
    if (value == "trivial")
        return EngineKind::TrivialCut;
    if (value == "C")
        return EngineKind::CrossEnd;
    fatal("unknown engine '%s' (expected A, S, trivial or C)",
          value.c_str());
}

RadioPolicy
parsePolicy(const std::string &value)
{
    if (value == "fcfs")
        return RadioPolicy::Fcfs;
    if (value == "tdma")
        return RadioPolicy::Tdma;
    fatal("unknown radio policy '%s' (expected fcfs or tdma)",
          value.c_str());
}

/** Split "<a>:<b>" into its two halves. */
std::pair<std::string, std::string>
splitPair(const std::string &value, const char *what)
{
    const size_t colon = value.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= value.size()) {
        fatal("%s: expected '<a>:<b>', got '%s'", what,
              value.c_str());
    }
    return {value.substr(0, colon), value.substr(colon + 1)};
}

/**
 * Cap on every thread-count flag: far above any host's useful
 * parallelism, far below the process thread limit past which thread
 * creation throws std::system_error.
 */
constexpr size_t kMaxWorkerThreads = 256;

/** Cap on --candidates, 100x the paper's budget: one SVM trains per
 *  candidate, so larger values only exhaust memory. */
constexpr size_t kMaxCandidates = 10000;

/** Cap on --max-train: far above any synthetic dataset's training
 *  split, so larger values would cap nothing. */
constexpr size_t kMaxTrainingSegments = size_t{1} << 20;

/** Cap on --serve-events: the serving phase holds one ~28-byte
 *  record per event, so 2^22 events stay near 100 MiB. */
constexpr size_t kMaxServeEvents = size_t{1} << 22;

/** Cap on --batch-events: a batch past every served event is the
 *  same single batch. */
constexpr size_t kMaxBatchEvents = kMaxServeEvents;

/** Cap on --max-retries: the backoff doubles per retry by default,
 *  so 64 retries already wait longer than any simulated run. */
constexpr size_t kMaxArqRetries = 64;

/** Count flag where 0 is meaningful (off, auto or none), capped at
 *  @p max. */
size_t
parseCappedCountArg(const std::string &value, const char *what,
                    size_t max)
{
    if (parseCountArg(value, what) == 0)
        return 0;
    return parseBoundedArg(value, what, max);
}

/** Thread count for flags where 0 means one per hardware thread. */
size_t
parseAutoWorkersArg(const std::string &value, const char *what)
{
    return parseCappedCountArg(value, what, kMaxWorkerThreads);
}

/** Non-negative duration in milliseconds. */
double
parseMillisArg(const std::string &value, const char *what)
{
    char *end = nullptr;
    const double ms = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || !(ms >= 0.0)) {
        fatal("%s: expected a duration in ms, got '%s'", what,
              value.c_str());
    }
    return ms;
}

/**
 * Reject a --ber that makes the topology's largest payload (the
 * raw segment) practically undeliverable here, at argument-parse
 * time, instead of panicking deep inside expectedTransmissions()
 * mid-run.
 */
void
checkBerFeasible(double ber, size_t segment_length)
{
    if (ber == 0.0)
        return;
    ChannelModel channel;
    channel.bitErrorRate = ber;
    const size_t payload =
        segment_length * wordBits + packetHeaderBits;
    if (!channel.deliverable(payload)) {
        fatal("--ber %g: the %zu-bit raw-segment payload is "
              "practically undeliverable at this error rate "
              "(per-packet success below 1e-12); lower --ber",
              ber, payload);
    }
}

int
runFleetMode(size_t fleet_size, size_t workers,
             size_t sweep_workers, RadioPolicy policy, size_t events,
             size_t serve_events, size_t batch_events,
             size_t serve_workers, WirelessModel wireless, double ber,
             uint64_t seed, const FaultProfile &faults,
             const ControlConfig &control, ProcessNode process,
             const std::string &control_trace_path)
{
    FleetConfig config;
    config.nodes = heterogeneousFleet(fleet_size, seed);
    config.wireless = wireless;
    config.bitErrorRate = ber;
    config.policy = policy;
    config.workers = workers;
    config.sweepWorkers = sweep_workers;
    config.eventsPerNode = events;
    config.servingEvents = serve_events;
    config.batchEvents = batch_events;
    config.servingWorkers = serve_workers;
    config.faults = faults;

    std::printf("designing %zu-node fleet on %zu worker(s)...\n",
                fleet_size, workers);
    FleetResult result;
    if (control.enabled) {
        AdaptiveRunConfig run;
        run.control = control;
        run.faults = faults;
        run.sensor.process = process;
        const NonstationaryTrace trace = NonstationaryTrace::day(seed);
        result = runAdaptiveFleet(config, trace, run);
    } else {
        result = runFleet(config);
    }
    std::printf("design: %.2f s CPU over workers (busiest %.2f s), "
                "%.2f s wall\n\n",
                result.designWork.sec(),
                result.designMakespan.sec(),
                result.designWall.sec());
    result.report.writeText(std::cout);
    if (!control_trace_path.empty()) {
        writeControlTraceFile(result.report.control,
                              control_trace_path);
        std::printf("control trace: %s (%zu decisions)\n",
                    control_trace_path.c_str(),
                    result.report.control.decisions.size());
    }
    return 0;
}

int
runPopulationMode(uint64_t nodes, size_t shards, size_t workers,
                  uint64_t events, uint64_t seed,
                  const TierConfig &tiers, const ChaosConfig &chaos,
                  const FaultProfile &faults,
                  const std::string &chaos_trace_path)
{
    PopulationFleetConfig config;
    config.nodes = nodes;
    config.shards = shards;
    config.workers = workers;
    config.eventsPerNode = events;
    config.seed = seed;
    config.tiers = tiers;
    config.chaos = chaos;
    config.faults = faults;

    const PopulationFleetResult result = runPopulationFleet(config);
    // The effective count can be lower than requested: a shard owns
    // whole gateways, so tiny fleets cannot use many shards.
    std::printf("population: %llu nodes, %zu shard(s) effective "
                "(%zu requested), %zu worker(s), %llu wheel "
                "events\n\n",
                static_cast<unsigned long long>(nodes),
                result.effectiveShards, shards, workers,
                static_cast<unsigned long long>(
                    result.simulatedEvents));
    result.report.writeText(std::cout);
    if (!chaos_trace_path.empty()) {
        writeChaosTraceFile(result.report.chaos, chaos_trace_path);
        std::printf("chaos trace: %s (%zu episodes)\n",
                    chaos_trace_path.c_str(),
                    result.report.chaos.episodes.size());
    }
    return 0;
}

/**
 * End-of-run telemetry: print the human table (--stats) and/or the
 * JSON snapshot (--stats-out). The path was validated at parse time,
 * but the disk can still fill mid-write, so failures stay fatal.
 */
void
emitStats(bool table, const std::string &out_path)
{
    if (!table && out_path.empty())
        return;
    if (!statsCompiledIn()) {
        warn("stats are compiled out (-DXPRO_STATS=OFF); the "
             "snapshot is empty");
    }
    const StatsSnapshot snap = StatsRegistry::instance().snapshot();
    if (table)
        writeStatsTable(snap, std::cout);
    if (!out_path.empty()) {
        std::ofstream out(out_path);
        if (!out)
            fatal("cannot open '%s' for writing", out_path.c_str());
        writeStatsJson(snap, out);
        if (!out)
            fatal("write to '%s' failed", out_path.c_str());
        std::printf("stats snapshot: %s (%zu stats)\n",
                    out_path.c_str(), snap.size());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    TestCase test_case = TestCase::C1;
    ProcessNode process = ProcessNode::Tsmc90;
    WirelessModel wireless = WirelessModel::Model2;
    EngineKind engine = EngineKind::CrossEnd;
    double ber = 0.0;
    size_t candidates = 100;
    size_t max_train = 300;
    size_t ml_workers = 1;
    std::string trace_path;
    uint64_t seed = 2017;
    size_t fleet_size = 0;
    size_t population_nodes = 0;
    size_t shards = 1;
    TierConfig tiers;
    ChaosConfig chaos;
    std::string chaos_trace_path;
    size_t workers = 1;
    size_t sweep_workers = 1;
    RadioPolicy policy = RadioPolicy::Fcfs;
    size_t events = 6;
    size_t serve_events = 0;
    size_t batch_events = 0;
    size_t serve_workers = 1;
    FaultProfile faults;
    bool max_retries_set = false;
    size_t max_retries = 0;
    bool adaptive = false;
    bool engine_set = false;
    ControlConfig control;
    std::string control_trace_path;
    bool stats_table = false;
    std::string stats_out;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    fatal("missing value for %s", arg.c_str());
                return argv[++i];
            };
            if (arg == "--case")
                test_case = parseCase(value());
            else if (arg == "--process")
                process = parseProcess(value());
            else if (arg == "--wireless")
                wireless = parseWireless(value());
            else if (arg == "--engine") {
                engine = parseEngine(value());
                engine_set = true;
            }
            else if (arg == "--ber")
                ber = parseProbabilityArg(value(), "--ber");
            else if (arg == "--candidates")
                candidates = parseBoundedArg(value(), "--candidates",
                                             kMaxCandidates);
            else if (arg == "--max-train")
                max_train = parseBoundedArg(value(), "--max-train",
                                            kMaxTrainingSegments);
            else if (arg == "--ml-workers")
                ml_workers =
                    parseAutoWorkersArg(value(), "--ml-workers");
            else if (arg == "--trace")
                trace_path = value();
            else if (arg == "--seed")
                seed = parseSeedArg(value(), "--seed");
            else if (arg == "--fleet") {
                // The detailed path multiplies fleet size into
                // events * graph nodes; cap it well below any int
                // overflow (and any tractable run).
                fleet_size =
                    parseBoundedArg(value(), "--fleet", 100000);
            } else if (arg == "--nodes") {
                population_nodes = parseBoundedArg(
                    value(), "--nodes", 100000000);
            } else if (arg == "--shards")
                shards = parseBoundedArg(value(), "--shards", 4096);
            else if (arg == "--tiers") {
                const auto [sensors, phones] =
                    splitPair(value(), "--tiers");
                tiers.sensorsPerPhone =
                    static_cast<uint32_t>(parseBoundedArg(
                        sensors, "--tiers", 65536));
                tiers.phonesPerGateway =
                    static_cast<uint32_t>(parseBoundedArg(
                        phones, "--tiers", 65536));
            }
            else if (arg == "--chaos-profile")
                chaos = ChaosConfig::profile(value());
            else if (arg == "--gateway-mtbf") {
                chaos.gatewayMtbfWindows = parseBoundedArg(
                    value(), "--gateway-mtbf", 1000000);
                chaos.enabled = true;
            } else if (arg == "--cloud-outage") {
                const auto [begin, end] =
                    splitPair(value(), "--cloud-outage");
                ChaosWindowRange range;
                range.begin =
                    parseCountArg(begin, "--cloud-outage");
                range.end = parseBoundedArg(
                    end, "--cloud-outage", 1000000);
                if (range.end <= range.begin)
                    fatal("--cloud-outage: empty window '%s:%s'",
                          begin.c_str(), end.c_str());
                chaos.cloudOutages.push_back(range);
                chaos.enabled = true;
            } else if (arg == "--churn") {
                chaos.churnFraction =
                    parseProbabilityArg(value(), "--churn");
                chaos.enabled = true;
            } else if (arg == "--chaos-trace")
                chaos_trace_path = value();
            else if (arg == "--workers")
                workers = parseBoundedArg(value(), "--workers",
                                          kMaxWorkerThreads);
            else if (arg == "--sweep-workers")
                sweep_workers = parseBoundedArg(
                    value(), "--sweep-workers", kMaxWorkerThreads);
            else if (arg == "--policy")
                policy = parsePolicy(value());
            else if (arg == "--events")
                events = parseBoundedArg(value(), "--events",
                                         kMaxPopulationEventsPerNode);
            else if (arg == "--serve-events")
                serve_events = parseCappedCountArg(
                    value(), "--serve-events", kMaxServeEvents);
            else if (arg == "--batch-events")
                batch_events = parseCappedCountArg(
                    value(), "--batch-events", kMaxBatchEvents);
            else if (arg == "--serve-workers")
                serve_workers =
                    parseAutoWorkersArg(value(), "--serve-workers");
            else if (arg == "--fault-profile")
                faults = FaultProfile::preset(value());
            else if (arg == "--loss-burst") {
                const auto [good_to_bad, bad_to_good] =
                    splitPair(value(), "--loss-burst");
                faults.burst.pGoodToBad = parseProbabilityArg(
                    good_to_bad, "--loss-burst");
                faults.burst.pBadToGood = parseProbabilityArg(
                    bad_to_good, "--loss-burst");
                faults.enabled = true;
            } else if (arg == "--max-retries") {
                max_retries = parseCappedCountArg(
                    value(), "--max-retries", kMaxArqRetries);
                max_retries_set = true;
            } else if (arg == "--outage") {
                const auto [start, end] =
                    splitPair(value(), "--outage");
                OutageWindow window;
                window.start = Time::millis(
                    parseMillisArg(start, "--outage"));
                window.end = Time::millis(
                    parseMillisArg(end, "--outage"));
                if (window.end <= window.start)
                    fatal("--outage: empty window '%s:%s'",
                          start.c_str(), end.c_str());
                faults.outages.push_back(window);
                faults.enabled = true;
            } else if (arg == "--adaptive")
                adaptive = true;
            else if (arg == "--repartition-period")
                control.repartitionPeriod =
                    Time::seconds(parsePositiveRealArg(
                        value(), "--repartition-period"));
            else if (arg == "--hysteresis")
                control.hysteresis = parseNonNegativeRealArg(
                    value(), "--hysteresis");
            else if (arg == "--min-dwell")
                control.minDwell = Time::seconds(
                    parseNonNegativeRealArg(value(), "--min-dwell"));
            else if (arg == "--control-trace")
                control_trace_path = value();
            else if (arg == "--stats")
                stats_table = true;
            else if (arg == "--stats-out") {
                stats_out = value();
                // Reject an unwritable path now (the --ber
                // discipline: fail at parse time, not after a long
                // run). Append mode probes writability without
                // truncating whatever is there.
                std::ofstream probe(stats_out, std::ios::app);
                if (!probe)
                    fatal("--stats-out: cannot open '%s' for "
                          "writing",
                          stats_out.c_str());
            } else
                usage(argv[0]);
        }
        if (max_retries_set)
            faults.arq.maxRetries = max_retries;
        if (faults.enabled)
            faults.validate();
        if (adaptive && engine_set &&
            engine != EngineKind::CrossEnd) {
            fatal("--adaptive re-partitions at run time and cannot "
                  "honor a fixed placement; drop --engine %s",
                  engineKindName(engine).c_str());
        }
        if (!adaptive && !control_trace_path.empty())
            fatal("--control-trace requires --adaptive");
        if (fleet_size == 0 &&
            (serve_events != 0 || batch_events != 0 ||
             serve_workers != 1)) {
            fatal("--serve-events/--batch-events/--serve-workers "
                  "need --fleet");
        }
        control.enabled = adaptive;
        if (adaptive)
            control.validate();

        if (population_nodes > 0 && fleet_size > 0)
            fatal("--nodes and --fleet are mutually exclusive");
        if (population_nodes == 0 && shards != 1)
            fatal("--shards needs --nodes (population mode)");
        if (population_nodes > 0 && adaptive)
            fatal("--adaptive runs on the detailed --fleet path");
        if (chaos.enabled && population_nodes == 0)
            fatal("--chaos-profile/--gateway-mtbf/--cloud-outage/"
                  "--churn need --nodes (population mode)");
        if (!chaos.enabled && !chaos_trace_path.empty())
            fatal("--chaos-trace requires an enabled chaos "
                  "schedule");
        if (chaos.enabled)
            chaos.validate();
        // Every fleet node trains its subspace candidates first;
        // that design work bounds a big fleet's run time.
        const uint64_t design_candidates =
            static_cast<uint64_t>(fleet_size) *
            FleetNodeSpec{}.subspaceCandidates;
        if (design_candidates > kMaxFleetDesignCandidates) {
            fatal("--fleet: %zu node(s) x %zu subspace candidates "
                  "exceeds the design bound of %llu",
                  fleet_size, FleetNodeSpec{}.subspaceCandidates,
                  static_cast<unsigned long long>(
                      kMaxFleetDesignCandidates));
        }
        // The detailed simulator's offered work bounds its run time
        // (its state follows the events in flight); a single-node
        // fault-injected stream is one member.
        const uint64_t detailed_members =
            fleet_size > 0 ? fleet_size : (faults.enabled ? 1 : 0);
        if (population_nodes == 0 &&
            detailed_members * events > kMaxDetailedOfferedEvents) {
            fatal("--events: %llu node(s) x %zu events exceeds the "
                  "detailed simulator's bound of %llu",
                  static_cast<unsigned long long>(detailed_members),
                  events,
                  static_cast<unsigned long long>(
                      kMaxDetailedOfferedEvents));
        }
        if (population_nodes > 0) {
            const int rc = runPopulationMode(
                population_nodes, shards, workers, events, seed,
                tiers, chaos, faults, chaos_trace_path);
            emitStats(stats_table, stats_out);
            return rc;
        }

        if (fleet_size > 0) {
            size_t largest_segment = 0;
            for (const FleetNodeSpec &spec :
                 heterogeneousFleet(fleet_size, seed)) {
                largest_segment = std::max(
                    largest_segment,
                    testCaseInfo(spec.testCase).segmentLength);
            }
            checkBerFeasible(ber, largest_segment);
            const int rc = runFleetMode(
                fleet_size, workers, sweep_workers, policy, events,
                serve_events, batch_events, serve_workers, wireless,
                ber, seed, faults, control, process,
                control_trace_path);
            emitStats(stats_table, stats_out);
            return rc;
        }
        checkBerFeasible(ber,
                         testCaseInfo(test_case).segmentLength);

        const SignalDataset dataset = makeTestCase(test_case, seed);
        EngineConfig config;
        config.process = process;
        config.wireless = wireless;
        config.subspace.candidates = candidates;
        TrainingOptions options;
        options.maxTrainingSegments = max_train;
        options.seed = seed;
        options.mlWorkers = ml_workers;

        std::printf("case %s (%s): %zu segments x %zu samples, "
                    "%.2f events/s\n",
                    dataset.symbol.c_str(), dataset.name.c_str(),
                    dataset.size(), dataset.segmentLength,
                    dataset.eventsPerSecond());

        const TrainedPipeline pipeline =
            trainPipeline(dataset, config, options);
        std::printf("classifier: %.1f%% held-out accuracy, %zu base "
                    "SVMs over %zu features\n",
                    100.0 * pipeline.testAccuracy,
                    pipeline.ensemble.bases().size(),
                    pipeline.ensemble.usedFeatureIndices().size());

        const EngineTopology topology = buildEngineTopology(
            pipeline.ensemble, dataset.segmentLength, config,
            dataset.eventsPerSecond());
        ChannelModel channel;
        channel.bitErrorRate = ber;
        const WirelessLink link(transceiver(wireless), channel);
        SensorNodeConfig sensor_config;
        sensor_config.process = process;
        const SensorNode sensor(sensor_config);
        const Aggregator aggregator;
        const WorkloadContext workload{dataset.eventsPerSecond()};

        const EngineEvaluation eval = evaluateEngineKind(
            engine, topology, link, sensor, aggregator, workload);

        std::printf("\n%s @ %s, %s%s\n",
                    engineKindName(engine).c_str(),
                    processNodeName(process).c_str(),
                    wirelessModelName(wireless).c_str(),
                    ber > 0.0 ? " (lossy channel)" : "");
        std::printf("  placement : %s\n",
                    eval.placement.summary(topology).c_str());
        std::printf("  energy    : %.2f uJ/event (compute %.2f, "
                    "tx %.2f, rx %.2f)\n",
                    eval.sensorEnergy.total().uj(),
                    eval.sensorEnergy.compute.uj(),
                    eval.sensorEnergy.tx.uj(),
                    eval.sensorEnergy.rx.uj());
        std::printf("  delay     : %.3f ms (front %.3f, wireless "
                    "%.3f, back %.3f)\n",
                    eval.delay.total().ms(),
                    eval.delay.frontCompute.ms(),
                    eval.delay.wireless.ms(),
                    eval.delay.backCompute.ms());
        std::printf("  battery   : %.0f h sensor, %.0f h aggregator "
                    "overhead budget\n",
                    eval.sensorLifetime.hr(),
                    eval.aggregatorLifetime.hr());

        if (faults.enabled) {
            const StreamResult stream = simulateStream(
                topology, eval.placement, link,
                dataset.eventsPerSecond(), events, faults);
            std::printf("\nfault-injected stream (%zu events): "
                        "%zu deadline miss(es), mean %.3f ms, "
                        "worst %.3f ms, %zu degraded\n",
                        stream.events, stream.deadlineMisses,
                        stream.meanLatency.ms(),
                        stream.worstLatency.ms(),
                        stream.degradedEvents);
            stream.robustness.writeText(std::cout);
        }

        if (adaptive) {
            AdaptiveRunConfig run;
            run.control = control;
            run.faults = faults;
            run.sensor.process = process;
            const NonstationaryTrace day =
                NonstationaryTrace::day(seed);

            std::printf("\nadaptive controller over a seeded "
                        "nonstationary day (%zu spans, %.0f h)\n",
                        day.windows.size(), day.total().hr());
            const LifetimeResult adaptive_life =
                adaptiveLifetime(topology, link, day, run);
            const LifetimeResult sensor_life = staticLifetime(
                topology, Placement::allInSensor(topology), link,
                day, run);
            const LifetimeResult aggregator_life = staticLifetime(
                topology, Placement::allInAggregator(topology), link,
                day, run);
            std::printf("  adaptive  : %.1f h lifetime "
                        "(%zu passes, %zu events)\n",
                        adaptive_life.lifetime.hr(),
                        adaptive_life.tracePasses,
                        adaptive_life.events);
            std::printf("  static S  : %.1f h lifetime "
                        "(all-in-sensor)\n",
                        sensor_life.lifetime.hr());
            std::printf("  static A  : %.1f h lifetime "
                        "(all-in-aggregator)\n",
                        aggregator_life.lifetime.hr());
            adaptive_life.control.writeText(std::cout);
            if (!control_trace_path.empty()) {
                writeControlTraceFile(adaptive_life.control,
                                      control_trace_path);
                std::printf("  control trace: %s (%zu decisions)\n",
                            control_trace_path.c_str(),
                            adaptive_life.control.decisions.size());
            }
        }

        if (!trace_path.empty()) {
            const SimResult sim = simulateEvent(
                topology, eval.placement, link, faults);
            // When stats were requested alongside the trace, embed
            // the stable counters as flat Perfetto counter tracks.
            const bool with_stats =
                stats_table || !stats_out.empty();
            const StatsSnapshot snap =
                with_stats ? StatsRegistry::instance().snapshot()
                           : StatsSnapshot{};
            writeChromeTraceFile(sim, topology, eval.placement,
                                 trace_path,
                                 with_stats ? &snap : nullptr);
            std::printf("  trace     : %s (%zu transfers, "
                        "completion %.3f ms)\n",
                        trace_path.c_str(), sim.transfers,
                        sim.completion.ms());
        }
        emitStats(stats_table, stats_out);
        return 0;
    } catch (const FatalError &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
}
