#include "fleet/fleet.hh"

#include <algorithm>
#include <memory>

#include "common/logging.hh"
#include "core/transfers.hh"
#include "platform/battery.hh"
#include "serve/batch_server.hh"
#include "serve/hot_path.hh"

namespace xpro
{

std::vector<FleetNodeSpec>
heterogeneousFleet(size_t count, uint64_t seed)
{
    // Cycle the six paper test cases and the three process nodes at
    // co-prime strides so neighbouring nodes differ in both; every
    // node gets its own seed (its own synthetic body).
    static constexpr std::array<ProcessNode, 3> processes = {
        ProcessNode::Tsmc90,
        ProcessNode::Tsmc45,
        ProcessNode::Tsmc130,
    };
    std::vector<FleetNodeSpec> specs;
    specs.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        FleetNodeSpec spec;
        spec.testCase = allTestCases[i % allTestCases.size()];
        spec.process = processes[i % processes.size()];
        spec.seed = seed + i;
        specs.push_back(spec);
    }
    return specs;
}

std::vector<XProDesign>
designFleet(const std::vector<FleetNodeSpec> &specs,
            WirelessModel wireless, double bit_error_rate,
            WorkerPool &pool, size_t sweep_workers)
{
    ChannelModel channel;
    channel.bitErrorRate = bit_error_rate;
    return pool.map<XProDesign>(specs.size(), [&](size_t i) {
        const FleetNodeSpec &spec = specs[i];
        EngineConfig config;
        config.process = spec.process;
        config.wireless = wireless;
        config.subspace.candidates = spec.subspaceCandidates;

        TrainingOptions options;
        options.maxTrainingSegments = spec.maxTrainingSegments;
        options.seed = spec.seed;

        // Synthesize only the segments training reads; the rest keep
        // their labels and draw their variates, so the kept ones are
        // the full dataset's bit for bit.
        const std::vector<int> labels = testCaseLabels(spec.testCase);
        const SignalDataset dataset = makeTestCase(
            spec.testCase, spec.seed,
            splitMask(trainingSplit(labels, options), labels.size()));

        XProDesign design;
        design.config = config;
        design.pipeline = trainPipeline(dataset, config, options);
        design.topology = buildEngineTopology(
            design.pipeline.ensemble, dataset.segmentLength, config,
            dataset.eventsPerSecond());
        const WirelessLink link(transceiver(wireless), channel);
        GeneratorOptions generator_options;
        generator_options.sweepWorkers = sweep_workers;
        design.partition =
            XProGenerator(design.topology, link, generator_options)
                .generate();
        return design;
    });
}

namespace
{

/** Longest single payload any member can put on the air. */
Time
largestAirTime(const std::vector<FleetMember> &members,
               const WirelessLink &link)
{
    Time largest = link.transfer(EngineTopology::resultBits).airTime;
    for (const FleetMember &member : members) {
        for (const BroadcastGroup &group :
             broadcastGroups(member.topology)) {
            largest = std::max(largest,
                               link.transfer(group.bits).airTime);
        }
    }
    return largest;
}

} // namespace

FleetResult
runFleet(const FleetConfig &config)
{
    xproAssert(!config.nodes.empty(),
               "fleet needs at least one node");
    xproAssert(config.eventRateScale > 0.0,
               "event rate scale must be positive");

    ChannelModel channel;
    channel.bitErrorRate = config.bitErrorRate;
    const WirelessLink link(transceiver(config.wireless), channel);

    FleetResult result;

    // Phase 1: per-node design, concurrently.
    WorkerPool pool(config.workers);
    std::vector<XProDesign> designs =
        designFleet(config.nodes, config.wireless,
                    config.bitErrorRate, pool, config.sweepWorkers);
    result.designWork = pool.lastWork();
    result.designMakespan = pool.lastMakespan();
    result.designWall = pool.lastWall();

    const auto eventRate = [&](size_t i) {
        const TestCaseInfo &info =
            testCaseInfo(config.nodes[i].testCase);
        return info.sampleRateHz /
               static_cast<double>(info.segmentLength);
    };

    // Phase 2: admission against the shared aggregator.
    std::vector<AdmissionCandidate> candidates;
    candidates.reserve(designs.size());
    for (size_t i = 0; i < designs.size(); ++i) {
        candidates.push_back({&designs[i].topology,
                              &designs[i].partition.placement,
                              eventRate(i)});
    }
    result.admission =
        admitFleet(candidates, link, config.admission);

    // Phase 3: event-level simulation on the shared channel.
    std::vector<FleetMember> members;
    members.reserve(designs.size());
    for (size_t i = 0; i < designs.size(); ++i) {
        members.push_back({designs[i].topology,
                           result.admission.nodes[i].placement,
                           eventRate(i) * config.eventRateScale});
    }

    const FcfsArbiter fcfs;
    std::unique_ptr<TdmaArbiter> tdma;
    const RadioArbiter *arbiter = &fcfs;
    if (config.policy == RadioPolicy::Tdma) {
        const Time slot = config.tdmaSlot > Time()
                              ? config.tdmaSlot
                              : largestAirTime(members, link);
        tdma = std::make_unique<TdmaArbiter>(members.size(), slot);
        arbiter = tdma.get();
    }
    result.sim = simulateFleet(members, link, *arbiter,
                               config.eventsPerNode, config.faults,
                               config.nodeOutages);

    // Per-node analytic evaluation of the admitted placements.
    const Aggregator aggregator;
    result.nodes.reserve(designs.size());
    for (size_t i = 0; i < designs.size(); ++i) {
        FleetNodeResult node;
        node.spec = config.nodes[i];
        node.design = std::move(designs[i]);
        node.admission = result.admission.nodes[i];
        SensorNodeConfig sensor_config;
        sensor_config.process = node.spec.process;
        node.evaluation = evaluateEngine(
            EngineKind::CrossEnd, node.design.topology,
            node.admission.placement, link,
            SensorNode(sensor_config), aggregator,
            WorkloadContext{eventRate(i)});
        result.nodes.push_back(std::move(node));
    }

    // Fleet report.
    FleetReport &report = result.report;
    report.robustness = result.sim.robustness;
    report.policy = arbiter->name();
    report.nodeCount = result.nodes.size();
    report.spanMs = result.sim.span.ms();
    report.radioBusyMs = result.sim.radioBusy.ms();
    report.radioOccupancy =
        result.sim.span > Time()
            ? result.sim.radioBusy / result.sim.span
            : 0.0;
    report.transfers = result.sim.transfers;
    report.aggregatorBusyMs = result.sim.aggregatorBusy.ms();
    report.aggregatorUtilization =
        result.sim.span > Time()
            ? result.sim.aggregatorBusy / result.sim.span
            : 0.0;
    report.aggregatorCpuShare = result.admission.cpuUtilization;
    report.aggregatorPowerUw = result.admission.power.uw();
    report.aggregatorLifetimeHours =
        aggregator.battery()
            .lifetime(result.admission.power +
                      aggregator.idlePower())
            .hr();

    for (size_t i = 0; i < result.nodes.size(); ++i) {
        const FleetNodeResult &node = result.nodes[i];
        const MemberSimResult &sim = result.sim.members[i];
        FleetNodeReportRow row;
        row.symbol = testCaseInfo(node.spec.testCase).symbol;
        row.process = processNodeName(node.spec.process);
        row.admission =
            admissionOutcomeName(node.admission.outcome);
        row.sensorCells =
            node.admission.placement.sensorCellCount();
        row.totalCells = node.design.topology.graph.cellCount();
        row.accuracy = node.design.pipeline.testAccuracy;
        row.eventsPerSecond = eventRate(i);
        row.sensorLifetimeHours =
            node.evaluation.sensorLifetime.hr();
        row.events = sim.events;
        row.deadlineMisses = sim.deadlineMisses;
        row.meanLatencyMs = sim.meanLatency.ms();
        row.worstLatencyMs = sim.worstLatency.ms();
        row.aggregatorPowerUw = node.admission.power.uw();
        row.degradedEvents = sim.degradedEvents;
        report.totalEvents += sim.events;
        report.totalDeadlineMisses += sim.deadlineMisses;
        report.rows.push_back(std::move(row));
    }

    // Phase 4: steady-state serving. Segments come round-robin
    // across the nodes' regenerated datasets (makeTestCase is a pure
    // function of (case, seed), so the stream is deterministic) and
    // are classified through the allocation-free SIMD hot path, one
    // cross-user batch at a time. Every event is classified by its
    // own user's pipeline independently, so the predictions — and
    // hence the report bytes — are identical at any batch size and
    // worker count.
    if (config.servingEvents > 0) {
        std::vector<SignalDataset> datasets;
        std::vector<HotPathPipeline> pipelines;
        datasets.reserve(result.nodes.size());
        pipelines.reserve(result.nodes.size());
        for (const FleetNodeResult &node : result.nodes) {
            datasets.push_back(
                makeTestCase(node.spec.testCase, node.spec.seed));
            pipelines.emplace_back(node.design.pipeline);
        }
        std::vector<const HotPathPipeline *> users;
        users.reserve(pipelines.size());
        for (const HotPathPipeline &pipeline : pipelines)
            users.push_back(&pipeline);

        std::vector<ServingEvent> events;
        events.reserve(config.servingEvents);
        for (size_t e = 0; e < config.servingEvents; ++e) {
            const size_t user = e % users.size();
            const SignalDataset &data = datasets[user];
            const Segment &segment =
                data.segments[(e / users.size()) %
                              data.segments.size()];
            events.push_back({static_cast<uint32_t>(user),
                              segment.samples.data(),
                              segment.samples.size()});
        }

        BatchServer server(std::move(users), config.batchEvents,
                           config.servingWorkers);
        const std::vector<int> labels = server.serve(events);

        ServingReport &serving = report.serving;
        serving.enabled = true;
        serving.events = labels.size();
        serving.users = result.nodes.size();
        serving.nodeEvents.assign(result.nodes.size(), 0);
        serving.nodePositives.assign(result.nodes.size(), 0);
        for (size_t e = 0; e < labels.size(); ++e) {
            const size_t user = events[e].user;
            ++serving.nodeEvents[user];
            if (labels[e] > 0) {
                ++serving.positives;
                ++serving.nodePositives[user];
            }
        }
    }
    return result;
}

} // namespace xpro
