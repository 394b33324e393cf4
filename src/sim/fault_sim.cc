#include "sim/fault_sim.hh"

#include <algorithm>

#include "common/logging.hh"
#include "graph/dataflow_graph.hh"
#include "obs/stats_registry.hh"

namespace xpro
{

namespace
{

// Stable scope: losses are drawn from the seeded channel in a
// deterministic single-threaded order, so attempt/retry/drop counts
// are a pure function of the configuration. Probes are excluded,
// mirroring RobustnessReport.
struct ArqStatIds
{
    StatId attempts, delivered, retries, drops, triesHist;
};

const ArqStatIds &
arqStatIds()
{
    static const ArqStatIds ids = [] {
        StatsRegistry &reg = StatsRegistry::instance();
        return ArqStatIds{
            reg.registerCounter("arq.attempts"),
            reg.registerCounter("arq.delivered"),
            reg.registerCounter("arq.retries"),
            reg.registerCounter("arq.drops"),
            reg.registerHistogram("arq.tries_per_packet")};
    }();
    return ids;
}

} // namespace

ArqPacket
openArqPacket(FaultState &faults, const WirelessLink &link,
              size_t payload_bits, bool sender_in_sensor, bool is_probe)
{
    xproAssert(faults.profile().enabled,
               "ARQ on a disabled fault profile");
    if (is_probe)
        ++faults.stats().probes;
    else
        ++faults.stats().packetsOffered;
    ArqPacket packet;
    packet.cost = link.attempt(payload_bits);
    packet.senderInSensor = sender_in_sensor;
    packet.isProbe = is_probe;
    return packet;
}

Time
startArqAttempt(FaultState &faults, ArqPacket &packet, Time now,
                bool forced_loss, SensorEnergyBreakdown &sensor)
{
    ++faults.stats().attempts;
    StatsRegistry::instance().add(arqStatIds().attempts);
    // The packet's fate is drawn when the attempt is initiated (a
    // deterministic single-threaded order), not when the
    // possibly-backlogged channel actually serializes it — a
    // documented simplification. Scripted losses (outage windows,
    // dead fleet nodes) consume no stochastic draw.
    packet.lost = forced_loss || faults.loss().dropPacket(now);

    // The receiver listens for the data frame on every attempt; the
    // ACK exchange happens only when the frame got through.
    const AttemptCost &cost = packet.cost;
    if (packet.senderInSensor) {
        sensor.tx += cost.dataTx;
        if (!packet.lost)
            sensor.rx += cost.ackRx;
    } else {
        sensor.rx += cost.dataRx;
        if (!packet.lost)
            sensor.tx += cost.ackTx;
    }
    return packet.lost ? cost.dataAirTime
                       : cost.dataAirTime + cost.ackAirTime;
}

ArqOutcome
finishArqAttempt(FaultState &faults, ArqPacket &packet, Time *backoff)
{
    RobustnessReport &stats = faults.stats();
    if (!packet.lost) {
        const size_t retries = packet.attempt;
        if (!packet.isProbe) {
            ++stats.packetsDelivered;
            if (stats.retryHistogram.size() <= retries)
                stats.retryHistogram.resize(retries + 1, 0);
            ++stats.retryHistogram[retries];
            StatsRegistry &reg = StatsRegistry::instance();
            const ArqStatIds &ids = arqStatIds();
            reg.add(ids.delivered);
            reg.add(ids.retries, retries);
            reg.observe(ids.triesHist, retries + 1);
        }
        return ArqOutcome::Delivered;
    }
    const ArqConfig &arq = faults.profile().arq;
    if (packet.attempt >= arq.maxRetries) {
        if (!packet.isProbe) {
            ++stats.packetsAbandoned;
            StatsRegistry &reg = StatsRegistry::instance();
            const ArqStatIds &ids = arqStatIds();
            reg.add(ids.drops);
            reg.add(ids.retries, packet.attempt);
            reg.observe(ids.triesHist, packet.attempt + 1);
        }
        return ArqOutcome::Abandoned;
    }
    *backoff = arq.backoff(packet.attempt);
    ++packet.attempt;
    return ArqOutcome::Retry;
}

LocalFallback
computeLocalFallback(const EngineTopology &topology,
                     const Placement &placement,
                     std::span<const std::optional<Time>>
                         sensor_finish_at,
                     Time at)
{
    const DataflowGraph &graph = topology.graph;
    xproAssert(sensor_finish_at.size() == graph.nodeCount(),
               "finish-time vector has %zu entries for %zu nodes",
               sensor_finish_at.size(), graph.nodeCount());
    xproAssert(sensor_finish_at[DataflowGraph::sourceId].has_value(),
               "raw segment not yet acquired at fallback time");

    LocalFallback plan;
    std::vector<Time> avail(graph.nodeCount());
    for (size_t v : graph.topologicalOrder()) {
        if (sensor_finish_at[v].has_value()) {
            // Output already produced (or in flight) in-sensor:
            // reuse it, charging nothing.
            xproAssert(v == DataflowGraph::sourceId ||
                           placement.inSensor(v),
                       "cell '%s' finished in-sensor but is placed "
                       "in the aggregator",
                       graph.node(v).name.c_str());
            avail[v] = std::max(*sensor_finish_at[v], at);
            continue;
        }
        Time ready = at;
        for (size_t u : graph.predecessors(v))
            ready = std::max(ready, avail[u]);
        const CellCosts &costs = graph.node(v).costs;
        avail[v] = ready + costs.sensorDelay;
        plan.compute += costs.sensorEnergy;
        ++plan.recomputedCells;
    }
    plan.completion = avail[topology.fusionNode];
    return plan;
}

} // namespace xpro
