/**
 * @file
 * Command-line front-end for the XPro design flow: pick a test case
 * and a hardware configuration, get the trained engine, the
 * generator's cut and the full evaluation — optionally exporting a
 * Chrome trace of one simulated event.
 *
 * A run is a single node (the default), a detailed fleet on one
 * aggregator (--fleet N) or a population through the sensor ->
 * phone -> gateway -> cloud tiers (--nodes N). One flag table
 * (kFlags) drives parsing, the check that the run's mode reads every
 * flag given, and `xpro_cli --help`, which is the flag reference.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

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

/** Cap on --fleet: the detailed path multiplies fleet size into
 *  events * graph nodes; cap it well below any int overflow (and any
 *  tractable run). */
constexpr size_t kMaxFleetNodes = 100000;

/** Cap on --nodes: the population slabs hold ~20 bytes per node, so
 *  10^8 nodes stay near 2 GiB. */
constexpr size_t kMaxPopulationNodes = 100000000;

/** Cap on --shards: a shard owns whole gateways, so shards past the
 *  gateway count go unused. */
constexpr size_t kMaxShards = 4096;

/** Cap on each --tiers fan-out (sensors per phone, phones per
 *  gateway), both held as 32-bit counts. */
constexpr size_t kMaxTierFanout = 65536;

/** Cap on the chaos window counts: --gateway-mtbf and the end of a
 *  --cloud-outage range. */
constexpr size_t kMaxChaosWindows = 1000000;

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

/** Everything the flags set; the runners read only this. */
struct CliOptions
{
    TestCase testCase = TestCase::C1;
    ProcessNode process = ProcessNode::Tsmc90;
    WirelessModel wireless = WirelessModel::Model2;
    EngineKind engine = EngineKind::CrossEnd;
    double ber = 0.0;
    size_t candidates = 100;
    size_t maxTrain = 300;
    size_t mlWorkers = 1;
    std::string tracePath;
    uint64_t seed = 2017;
    size_t fleetSize = 0;
    size_t populationNodes = 0;
    size_t shards = 1;
    TierConfig tiers;
    ChaosConfig chaos;
    std::string chaosTracePath;
    size_t workers = 1;
    size_t sweepWorkers = 1;
    RadioPolicy policy = RadioPolicy::Fcfs;
    size_t events = 6;
    size_t serveEvents = 0;
    size_t batchEvents = 0;
    size_t serveWorkers = 1;
    FaultProfile faults;
    /** Applied after parsing, past any later --fault-profile. */
    std::optional<size_t> maxRetries;
    bool adaptive = false;
    ControlConfig control;
    std::string controlTracePath;
    bool statsTable = false;
    std::string statsOut;
};

/** Run modes, as bits so that a flag row can name every mode that
 *  reads it. kAdaptiveOnly marks a flag that only --adaptive runs
 *  read. */
enum : unsigned { kSingle = 1, kFleet = 2, kPopulation = 4 };
constexpr unsigned kAllModes = kSingle | kFleet | kPopulation;
constexpr unsigned kAdaptiveOnly = 8;

unsigned
runMode(const CliOptions &o)
{
    if (o.populationNodes > 0)
        return kPopulation;
    return o.fleetSize > 0 ? kFleet : kSingle;
}

/** A flag's value as the setter sees it; empty for a switch. */
using Arg = const std::string &;

/** One command-line flag: its help line, the modes that read it and
 *  the setter that parses its value into CliOptions. */
struct Flag
{
    const char *name;
    const char *placeholder; ///< nullptr for a switch
    const char *help;        ///< each '\n' continues the help column
    unsigned modes;
    void (*set)(CliOptions &o, Arg value);
};

const Flag kFlags[] = {
    {"--case", "C1|C2|E1|E2|M1|M2", "test case (default C1)", kSingle,
     [](CliOptions &o, Arg v) { o.testCase = parseCase(v); }},
    {"--process", "130|90|45", "process node (default 90)",
     kSingle | kFleet,
     [](CliOptions &o, Arg v) { o.process = parseProcess(v); }},
    {"--wireless", "1|2|3", "transceiver model (default 2)",
     kSingle | kFleet,
     [](CliOptions &o, Arg v) { o.wireless = parseWireless(v); }},
    {"--ber", "<p>", "channel bit error rate (default 0)",
     kSingle | kFleet, [](CliOptions &o, Arg v) {
         o.ber = parseProbabilityArg(v, "--ber");
     }},
    {"--engine", "A|S|trivial|C", "engine to evaluate (default C)",
     kSingle, [](CliOptions &o, Arg v) { o.engine = parseEngine(v); }},
    {"--candidates", "<n>", "subspace candidates (default 100)",
     kSingle, [](CliOptions &o, Arg v) {
         o.candidates =
             parseBoundedArg(v, "--candidates", kMaxCandidates);
     }},
    {"--max-train", "<n>", "training segment cap (default 300)",
     kSingle, [](CliOptions &o, Arg v) {
         o.maxTrain =
             parseBoundedArg(v, "--max-train", kMaxTrainingSegments);
     }},
    {"--ml-workers", "<n>",
     "ensemble training threads, 0 = all cores (default 1)", kSingle,
     [](CliOptions &o, Arg v) {
         o.mlWorkers =
             parseCappedCountArg(v, "--ml-workers", kMaxWorkerThreads);
     }},
    {"--trace", "<file>", "write a Chrome trace of one event", kSingle,
     [](CliOptions &o, Arg v) { o.tracePath = v; }},
    {"--seed", "<s>", "dataset/training RNG seed (default 2017)",
     kAllModes,
     [](CliOptions &o, Arg v) { o.seed = parseSeedArg(v, "--seed"); }},
    {"--fleet", "<n>",
     "simulate an n-node fleet on one aggregator (at most 1638 nodes)",
     kFleet, [](CliOptions &o, Arg v) {
         o.fleetSize = parseBoundedArg(v, "--fleet", kMaxFleetNodes);
     }},
    {"--workers", "<n>", "fleet design worker threads (default 1)",
     kFleet | kPopulation, [](CliOptions &o, Arg v) {
         o.workers = parseBoundedArg(v, "--workers", kMaxWorkerThreads);
     }},
    {"--sweep-workers", "<n>",
     "generator sweep threads per node (default 1)", kFleet,
     [](CliOptions &o, Arg v) {
         o.sweepWorkers =
             parseBoundedArg(v, "--sweep-workers", kMaxWorkerThreads);
     }},
    {"--policy", "fcfs|tdma", "fleet radio arbitration (default fcfs)",
     kFleet, [](CliOptions &o, Arg v) { o.policy = parsePolicy(v); }},
    {"--serve-events", "<n>",
     "steady-state serving events classified after the fleet\n"
     "event simulation on the SIMD hot path (default 0 = off)",
     kFleet, [](CliOptions &o, Arg v) {
         o.serveEvents =
             parseCappedCountArg(v, "--serve-events", kMaxServeEvents);
     }},
    {"--batch-events", "<n>",
     "cross-user serving batch size; one batch spans up to\n"
     "n events from any mix of nodes (default 0 = one batch)",
     kFleet, [](CliOptions &o, Arg v) {
         o.batchEvents =
             parseCappedCountArg(v, "--batch-events", kMaxBatchEvents);
     }},
    {"--serve-workers", "<n>",
     "serving worker threads, 0 = one per hardware thread\n"
     "(default 1; predictions identical at any value)",
     kFleet, [](CliOptions &o, Arg v) {
         o.serveWorkers = parseCappedCountArg(v, "--serve-workers",
                                              kMaxWorkerThreads);
     }},
    {"--events", "<n>",
     "simulated events per fleet node or fault-injected stream "
     "(default 6;\nfleet nodes x events at most 2^20)",
     kAllModes, [](CliOptions &o, Arg v) {
         o.events = parseBoundedArg(v, "--events",
                                    kMaxPopulationEventsPerNode);
     }},
    {"--fault-profile", "<name>",
     "fault injection preset: none, mild, bursty or harsh "
     "(default none)",
     kAllModes,
     [](CliOptions &o, Arg v) { o.faults = FaultProfile::preset(v); }},
    {"--loss-burst", "<pGB>:<pBG>",
     "Gilbert-Elliott good-to-bad / bad-to-good probabilities "
     "(enables fault injection)",
     kAllModes, [](CliOptions &o, Arg v) {
         const auto [good_to_bad, bad_to_good] =
             splitPair(v, "--loss-burst");
         o.faults.burst.pGoodToBad =
             parseProbabilityArg(good_to_bad, "--loss-burst");
         o.faults.burst.pBadToGood =
             parseProbabilityArg(bad_to_good, "--loss-burst");
         o.faults.enabled = true;
     }},
    {"--max-retries", "<n>",
     "ARQ retries before a packet is abandoned (default 5)", kAllModes,
     [](CliOptions &o, Arg v) {
         o.maxRetries =
             parseCappedCountArg(v, "--max-retries", kMaxArqRetries);
     }},
    {"--outage", "<a>:<b>",
     "scripted outage window in ms, repeatable "
     "(enables fault injection)",
     kAllModes, [](CliOptions &o, Arg v) {
         const auto [start, end] = splitPair(v, "--outage");
         OutageWindow window;
         window.start =
             Time::millis(parseNonNegativeRealArg(start, "--outage"));
         window.end =
             Time::millis(parseNonNegativeRealArg(end, "--outage"));
         if (window.end <= window.start)
             fatal("--outage: empty window '%s:%s'", start.c_str(),
                   end.c_str());
         o.faults.outages.push_back(window);
         o.faults.enabled = true;
     }},
    {"--adaptive", nullptr,
     "run the online cross-end controller over a seeded "
     "nonstationary day trace",
     kSingle | kFleet, [](CliOptions &o, Arg) { o.adaptive = true; }},
    {"--repartition-period", "<s>",
     "control-window length in seconds (default 60)",
     kSingle | kFleet | kAdaptiveOnly, [](CliOptions &o, Arg v) {
         o.control.repartitionPeriod = Time::seconds(
             parsePositiveRealArg(v, "--repartition-period"));
     }},
    {"--hysteresis", "<frac>",
     "relative objective improvement a re-partition must beat "
     "(default 0.05)",
     kSingle | kFleet | kAdaptiveOnly, [](CliOptions &o, Arg v) {
         o.control.hysteresis =
             parseNonNegativeRealArg(v, "--hysteresis");
     }},
    {"--min-dwell", "<s>",
     "minimum seconds between re-partitions (default 120)",
     kSingle | kFleet | kAdaptiveOnly, [](CliOptions &o, Arg v) {
         o.control.minDwell =
             Time::seconds(parseNonNegativeRealArg(v, "--min-dwell"));
     }},
    {"--control-trace", "<file>",
     "write a Chrome trace of the controller's decisions",
     kSingle | kFleet | kAdaptiveOnly,
     [](CliOptions &o, Arg v) { o.controlTracePath = v; }},
    {"--nodes", "<n>",
     "population mode: simulate n nodes through the tier hierarchy",
     kPopulation, [](CliOptions &o, Arg v) {
         o.populationNodes =
             parseBoundedArg(v, "--nodes", kMaxPopulationNodes);
     }},
    {"--shards", "<n>",
     "population event-queue shards (default 1; report identical at "
     "any value)",
     kPopulation, [](CliOptions &o, Arg v) {
         o.shards = parseBoundedArg(v, "--shards", kMaxShards);
     }},
    {"--tiers", "<a>:<b>",
     "sensors per phone : phones per gateway (default 32:64)",
     kPopulation, [](CliOptions &o, Arg v) {
         const auto [sensors, phones] = splitPair(v, "--tiers");
         o.tiers.sensorsPerPhone = static_cast<uint32_t>(
             parseBoundedArg(sensors, "--tiers", kMaxTierFanout));
         o.tiers.phonesPerGateway = static_cast<uint32_t>(
             parseBoundedArg(phones, "--tiers", kMaxTierFanout));
     }},
    {"--chaos-profile", "<name>",
     "population chaos preset: none, flaky, regional, churn or harsh",
     kPopulation,
     [](CliOptions &o, Arg v) { o.chaos = ChaosConfig::profile(v); }},
    {"--gateway-mtbf", "<w>",
     "mean windows between gateway crashes (enables chaos)",
     kPopulation, [](CliOptions &o, Arg v) {
         o.chaos.gatewayMtbfWindows =
             parseBoundedArg(v, "--gateway-mtbf", kMaxChaosWindows);
         o.chaos.enabled = true;
     }},
    {"--cloud-outage", "<a>:<b>",
     "cloud-unreachable window range [a, b), repeatable "
     "(enables chaos)",
     kPopulation, [](CliOptions &o, Arg v) {
         const auto [begin, end] = splitPair(v, "--cloud-outage");
         ChaosWindowRange range;
         range.begin = parseCountArg(begin, "--cloud-outage");
         range.end =
             parseBoundedArg(end, "--cloud-outage", kMaxChaosWindows);
         if (range.end <= range.begin)
             fatal("--cloud-outage: empty window '%s:%s'",
                   begin.c_str(), end.c_str());
         o.chaos.cloudOutages.push_back(range);
         o.chaos.enabled = true;
     }},
    {"--churn", "<frac>",
     "fraction of nodes that churn out and rejoin (enables chaos)",
     kPopulation, [](CliOptions &o, Arg v) {
         o.chaos.churnFraction = parseProbabilityArg(v, "--churn");
         o.chaos.enabled = true;
     }},
    {"--chaos-trace", "<file>",
     "write a Chrome trace of the chaos episodes", kPopulation,
     [](CliOptions &o, Arg v) { o.chaosTracePath = v; }},
    {"--stats", nullptr, "print the stats-registry table after the run",
     kAllModes, [](CliOptions &o, Arg) { o.statsTable = true; }},
    {"--stats-out", "<file>",
     "write the stats-registry snapshot as JSON", kAllModes,
     [](CliOptions &o, Arg v) {
         o.statsOut = v;
         // Reject an unwritable path now (the --ber discipline: fail
         // at parse time, not after a long run). Append mode probes
         // writability without truncating whatever is there.
         if (!std::ofstream(v, std::ios::app))
             fatal("--stats-out: cannot open '%s' for writing",
                   v.c_str());
     }},
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr, "usage: %s [options]\n", argv0);
    for (const Flag &flag : kFlags) {
        std::string name = flag.name;
        if (flag.placeholder)
            name += std::string(" ") + flag.placeholder;
        std::fprintf(stderr, "  %-27s", name.c_str());
        for (const char *c = flag.help; *c != '\0'; ++c) {
            std::fputc(*c, stderr);
            if (*c == '\n')
                std::fprintf(stderr, "%29s", "");
        }
        std::fputc('\n', stderr);
    }
    std::exit(2);
}

/** Parse argv through kFlags and reject every flag the run's mode
 *  never reads. */
CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions o;
    std::vector<const Flag *> given;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const Flag *flag =
            std::find_if(std::begin(kFlags), std::end(kFlags),
                         [&](const Flag &f) { return f.name == arg; });
        if (flag == std::end(kFlags))
            usage(argv[0]);
        if (flag->placeholder && i + 1 >= argc)
            fatal("missing value for %s", flag->name);
        flag->set(o, flag->placeholder ? argv[++i] : "");
        given.push_back(flag);
    }
    if (o.populationNodes > 0 && o.fleetSize > 0)
        fatal("--nodes and --fleet are mutually exclusive");
    const unsigned mode = runMode(o);
    const char *mode_name = mode == kPopulation ? "--nodes"
                            : mode == kFleet    ? "--fleet"
                                                : "single-node";
    for (const Flag *flag : given) {
        if (!(flag->modes & mode))
            fatal("%s does not apply to a %s run", flag->name,
                  mode_name);
        if ((flag->modes & kAdaptiveOnly) && !o.adaptive)
            fatal("%s requires --adaptive", flag->name);
    }
    if (o.maxRetries)
        o.faults.arq.maxRetries = *o.maxRetries;
    return o;
}

/**
 * Reject a --ber that makes the topology's largest payload (the
 * longest raw segment any node of the run sends) practically
 * undeliverable here, at argument-parse time, instead of panicking
 * deep inside expectedTransmissions() mid-run.
 */
void
checkBerFeasible(const CliOptions &o)
{
    if (o.ber == 0.0)
        return;
    size_t segment_length = testCaseInfo(o.testCase).segmentLength;
    if (o.fleetSize > 0) {
        segment_length = 0;
        for (const FleetNodeSpec &spec :
             heterogeneousFleet(o.fleetSize, o.seed)) {
            segment_length =
                std::max(segment_length,
                         testCaseInfo(spec.testCase).segmentLength);
        }
    }
    ChannelModel channel;
    channel.bitErrorRate = o.ber;
    const size_t payload =
        segment_length * wordBits + packetHeaderBits;
    if (!channel.deliverable(payload)) {
        fatal("--ber %g: the %zu-bit raw-segment payload is "
              "practically undeliverable at this error rate "
              "(per-packet success below 1e-12); lower --ber",
              o.ber, payload);
    }
}

/** Cross-flag checks, all before any run starts. */
void
validateOptions(const CliOptions &o)
{
    if (o.faults.enabled)
        o.faults.validate();
    if (o.adaptive && o.engine != EngineKind::CrossEnd) {
        fatal("--adaptive re-partitions at run time and cannot "
              "honor a fixed placement; drop --engine %s",
              engineKindName(o.engine).c_str());
    }
    if (o.adaptive)
        o.control.validate();
    if (!o.chaos.enabled && !o.chaosTracePath.empty())
        fatal("--chaos-trace requires an enabled chaos schedule");
    if (o.chaos.enabled)
        o.chaos.validate();
    // Every fleet node trains its subspace candidates first; that
    // design work bounds a big fleet's run time.
    const uint64_t design_candidates =
        static_cast<uint64_t>(o.fleetSize) *
        FleetNodeSpec{}.subspaceCandidates;
    if (design_candidates > kMaxFleetDesignCandidates) {
        fatal("--fleet: %zu node(s) x %zu subspace candidates "
              "exceeds the design bound of %llu",
              o.fleetSize, FleetNodeSpec{}.subspaceCandidates,
              static_cast<unsigned long long>(
                  kMaxFleetDesignCandidates));
    }
    if (o.populationNodes > 0)
        return;
    // The detailed simulator's offered work bounds its run time (its
    // state follows the events in flight); a single-node
    // fault-injected stream is one member.
    const uint64_t detailed_members =
        o.fleetSize > 0 ? o.fleetSize : (o.faults.enabled ? 1 : 0);
    if (detailed_members * o.events > kMaxDetailedOfferedEvents) {
        fatal("--events: %llu node(s) x %zu events exceeds the "
              "detailed simulator's bound of %llu",
              static_cast<unsigned long long>(detailed_members),
              o.events,
              static_cast<unsigned long long>(
                  kMaxDetailedOfferedEvents));
    }
    checkBerFeasible(o);
}

AdaptiveRunConfig
adaptiveRunConfig(const CliOptions &o)
{
    AdaptiveRunConfig run;
    run.control = o.control;
    run.faults = o.faults;
    run.sensor.process = o.process;
    return run;
}

void
runFleetMode(const CliOptions &o)
{
    FleetConfig config;
    config.nodes = heterogeneousFleet(o.fleetSize, o.seed);
    config.wireless = o.wireless;
    config.bitErrorRate = o.ber;
    config.policy = o.policy;
    config.workers = o.workers;
    config.sweepWorkers = o.sweepWorkers;
    config.eventsPerNode = o.events;
    config.servingEvents = o.serveEvents;
    config.batchEvents = o.batchEvents;
    config.servingWorkers = o.serveWorkers;
    config.faults = o.faults;

    std::printf("designing %zu-node fleet on %zu worker(s)...\n",
                o.fleetSize, o.workers);
    const FleetResult result =
        o.adaptive ? runAdaptiveFleet(config,
                                      NonstationaryTrace::day(o.seed),
                                      adaptiveRunConfig(o))
                   : runFleet(config);
    std::printf("design: %.2f s CPU over workers (busiest %.2f s), "
                "%.2f s wall\n\n",
                result.designWork.sec(),
                result.designMakespan.sec(),
                result.designWall.sec());
    result.report.writeText(std::cout);
    if (!o.controlTracePath.empty()) {
        writeControlTraceFile(result.report.control,
                              o.controlTracePath);
        std::printf("control trace: %s (%zu decisions)\n",
                    o.controlTracePath.c_str(),
                    result.report.control.decisions.size());
    }
}

void
runPopulationMode(const CliOptions &o)
{
    PopulationFleetConfig config;
    config.nodes = o.populationNodes;
    config.shards = o.shards;
    config.workers = o.workers;
    config.eventsPerNode = o.events;
    config.seed = o.seed;
    config.tiers = o.tiers;
    config.chaos = o.chaos;
    config.faults = o.faults;

    const PopulationFleetResult result = runPopulationFleet(config);
    // The effective count can be lower than requested: a shard owns
    // whole gateways, so tiny fleets cannot use many shards.
    std::printf("population: %llu nodes, %zu shard(s) effective "
                "(%zu requested), %zu worker(s), %llu wheel "
                "events\n\n",
                static_cast<unsigned long long>(o.populationNodes),
                result.effectiveShards, o.shards, o.workers,
                static_cast<unsigned long long>(
                    result.simulatedEvents));
    result.report.writeText(std::cout);
    if (!o.chaosTracePath.empty()) {
        writeChaosTraceFile(result.report.chaos, o.chaosTracePath);
        std::printf("chaos trace: %s (%zu episodes)\n",
                    o.chaosTracePath.c_str(),
                    result.report.chaos.episodes.size());
    }
}

/** The single-node run's adaptive tail: the online controller's
 *  lifetime over a seeded nonstationary day against both static
 *  extremes. */
void
runAdaptiveTail(const CliOptions &o, const EngineTopology &topology,
                const WirelessLink &link)
{
    const AdaptiveRunConfig run = adaptiveRunConfig(o);
    const NonstationaryTrace day = NonstationaryTrace::day(o.seed);

    std::printf("\nadaptive controller over a seeded "
                "nonstationary day (%zu spans, %.0f h)\n",
                day.windows.size(), day.total().hr());
    const LifetimeResult adaptive_life =
        adaptiveLifetime(topology, link, day, run);
    const LifetimeResult sensor_life = staticLifetime(
        topology, Placement::allInSensor(topology), link, day, run);
    const LifetimeResult aggregator_life = staticLifetime(
        topology, Placement::allInAggregator(topology), link, day,
        run);
    std::printf("  adaptive  : %.1f h lifetime "
                "(%zu passes, %zu events)\n",
                adaptive_life.lifetime.hr(),
                adaptive_life.tracePasses, adaptive_life.events);
    std::printf("  static S  : %.1f h lifetime (all-in-sensor)\n",
                sensor_life.lifetime.hr());
    std::printf("  static A  : %.1f h lifetime (all-in-aggregator)\n",
                aggregator_life.lifetime.hr());
    adaptive_life.control.writeText(std::cout);
    if (!o.controlTracePath.empty()) {
        writeControlTraceFile(adaptive_life.control,
                              o.controlTracePath);
        std::printf("  control trace: %s (%zu decisions)\n",
                    o.controlTracePath.c_str(),
                    adaptive_life.control.decisions.size());
    }
}

/** --trace: a Chrome trace of one simulated event. */
void
writeEventTrace(const CliOptions &o, const EngineTopology &topology,
                const Placement &placement, const WirelessLink &link)
{
    const SimResult sim =
        simulateEvent(topology, placement, link, o.faults);
    // When stats were requested alongside the trace, embed the
    // stable counters as flat Perfetto counter tracks.
    const bool with_stats = o.statsTable || !o.statsOut.empty();
    const StatsSnapshot snap =
        with_stats ? StatsRegistry::instance().snapshot()
                   : StatsSnapshot{};
    writeChromeTraceFile(sim, topology, placement, o.tracePath,
                         with_stats ? &snap : nullptr);
    std::printf("  trace     : %s (%zu transfers, "
                "completion %.3f ms)\n",
                o.tracePath.c_str(), sim.transfers,
                sim.completion.ms());
}

void
runSingleNodeMode(const CliOptions &o)
{
    const SignalDataset dataset = makeTestCase(o.testCase, o.seed);
    EngineConfig config;
    config.process = o.process;
    config.wireless = o.wireless;
    config.subspace.candidates = o.candidates;
    TrainingOptions options;
    options.maxTrainingSegments = o.maxTrain;
    options.seed = o.seed;
    options.mlWorkers = o.mlWorkers;

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
    channel.bitErrorRate = o.ber;
    const WirelessLink link(transceiver(o.wireless), channel);
    SensorNodeConfig sensor_config;
    sensor_config.process = o.process;
    const SensorNode sensor(sensor_config);
    const Aggregator aggregator;
    const WorkloadContext workload{dataset.eventsPerSecond()};

    const EngineEvaluation eval = evaluateEngineKind(
        o.engine, topology, link, sensor, aggregator, workload);

    std::printf("\n%s @ %s, %s%s\n", engineKindName(o.engine).c_str(),
                processNodeName(o.process).c_str(),
                wirelessModelName(o.wireless).c_str(),
                o.ber > 0.0 ? " (lossy channel)" : "");
    std::printf("  placement : %s\n",
                eval.placement.summary(topology).c_str());
    std::printf("  energy    : %.2f uJ/event (compute %.2f, "
                "tx %.2f, rx %.2f)\n",
                eval.sensorEnergy.total().uj(),
                eval.sensorEnergy.compute.uj(),
                eval.sensorEnergy.tx.uj(), eval.sensorEnergy.rx.uj());
    std::printf("  delay     : %.3f ms (front %.3f, wireless "
                "%.3f, back %.3f)\n",
                eval.delay.total().ms(), eval.delay.frontCompute.ms(),
                eval.delay.wireless.ms(), eval.delay.backCompute.ms());
    std::printf("  battery   : %.0f h sensor, %.0f h aggregator "
                "overhead budget\n",
                eval.sensorLifetime.hr(), eval.aggregatorLifetime.hr());

    if (o.faults.enabled) {
        const StreamResult stream = simulateStream(
            topology, eval.placement, link, dataset.eventsPerSecond(),
            o.events, o.faults);
        std::printf("\nfault-injected stream (%zu events): "
                    "%zu deadline miss(es), mean %.3f ms, "
                    "worst %.3f ms, %zu degraded\n",
                    stream.events, stream.deadlineMisses,
                    stream.meanLatency.ms(), stream.worstLatency.ms(),
                    stream.degradedEvents);
        stream.robustness.writeText(std::cout);
    }
    if (o.adaptive)
        runAdaptiveTail(o, topology, link);
    if (!o.tracePath.empty())
        writeEventTrace(o, topology, eval.placement, link);
}

/**
 * End-of-run telemetry: print the human table (--stats) and/or the
 * JSON snapshot (--stats-out). The path was validated at parse time,
 * but the disk can still fill mid-write, so failures stay fatal.
 */
void
emitStats(const CliOptions &o)
{
    if (!o.statsTable && o.statsOut.empty())
        return;
    if (!statsCompiledIn()) {
        warn("stats are compiled out (-DXPRO_STATS=OFF); the "
             "snapshot is empty");
    }
    const StatsSnapshot snap = StatsRegistry::instance().snapshot();
    if (o.statsTable)
        writeStatsTable(snap, std::cout);
    if (!o.statsOut.empty()) {
        std::ofstream out(o.statsOut);
        if (!out)
            fatal("cannot open '%s' for writing", o.statsOut.c_str());
        writeStatsJson(snap, out);
        if (!out)
            fatal("write to '%s' failed", o.statsOut.c_str());
        std::printf("stats snapshot: %s (%zu stats)\n",
                    o.statsOut.c_str(), snap.size());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const CliOptions options = parseArgs(argc, argv);
        validateOptions(options);
        switch (runMode(options)) {
          case kPopulation:
            runPopulationMode(options);
            break;
          case kFleet:
            runFleetMode(options);
            break;
          default:
            runSingleNodeMode(options);
        }
        emitStats(options);
        return 0;
    } catch (const FatalError &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
}
