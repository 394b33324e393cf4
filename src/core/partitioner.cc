#include "core/partitioner.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/worker_pool.hh"
#include "core/transfers.hh"

namespace xpro
{

namespace
{

/** Node layout inside the s-t graph. */
constexpr size_t nodeF = 0; ///< front-end (sensor) terminal
constexpr size_t nodeB = 1; ///< back-end (aggregator) terminal
constexpr size_t cellBase = 2;

} // namespace

/**
 * The generator's persistent s-t graph. Capacities are affine in the
 * sweep parameters — capacity = energy + lambda * delay, with the
 * F -> cell penalty edges' energy term scaling with the
 * aggregator-energy weight — so re-solving at another sweep point is
 * a batch of setCapacity() calls plus a minCut() from zero flow.
 */
struct XProGenerator::SweepNetwork
{
    /** One finite edge and its cost attributes. */
    struct SweepEdge
    {
        size_t id = 0;
        /** Energy term in joules (penalty edges: weighted). */
        double energyJ = 0.0;
        /** Delay term in seconds, scaled by lambda. */
        double delaySec = 0.0;
    };

    /** F -> cell penalty edge: index into edges + raw energy. */
    struct PenaltyEdge
    {
        size_t edgeIndex = 0;
        /** Unweighted aggregator software energy in joules. */
        double aggregatorEnergyJ = 0.0;
    };

    /** cell -> B edge: execution energy + standby share by rate. */
    struct CellEdge
    {
        size_t edgeIndex = 0;
        /** Execution-only energy in joules (standby stripped). */
        double executionJ = 0.0;
        /** Input-channel standby draw in watts. */
        double standbyW = 0.0;
    };

    FlowNetwork net{0};
    std::vector<SweepEdge> edges;
    std::vector<PenaltyEdge> penaltyEdges;
    /** Indices (into edges) of tx/rx/result transfer edges, whose
     *  energy terms scale with the observed channel cost. */
    std::vector<size_t> transferEdges;
    /** Nominal energy of each transfer edge (scale == 1). */
    std::vector<double> transferBaseJ;
    std::vector<CellEdge> cellEdges;
    size_t cells = 0;
};

XProGenerator::XProGenerator(const EngineTopology &topology,
                             const WirelessLink &link,
                             const GeneratorOptions &options)
    : _topology(topology), _link(link), _options(options)
{}

XProGenerator::~XProGenerator() = default;

XProGenerator::SweepNetwork &
XProGenerator::sweep()
{
    if (_sweep)
        return *_sweep;

    auto sweep = std::make_unique<SweepNetwork>();
    const DataflowGraph &graph = _topology.graph;
    sweep->cells = graph.nodeCount(); // includes source slot
    sweep->net = FlowNetwork(cellBase + sweep->cells);
    FlowNetwork &net = sweep->net;

    // Edges start at their lambda == 0 capacity; solves at other
    // sweep points update them before solving.
    const auto track = [&](size_t u, size_t v, Energy e, Time t) {
        SweepNetwork::SweepEdge edge;
        edge.id = net.addEdge(u, v, e.j());
        edge.energyJ = e.j();
        edge.delaySec = t.sec();
        sweep->edges.push_back(edge);
        return sweep->edges.size() - 1;
    };
    /** track() + register as a channel-scaled transfer edge. */
    const auto trackTransfer = [&](size_t u, size_t v, Energy e,
                                   Time t) {
        const size_t index = track(u, v, e, t);
        sweep->transferEdges.push_back(index);
        sweep->transferBaseJ.push_back(e.j());
        return index;
    };

    // The raw-data source is pinned to the sensor: it is terminal F.
    const auto mapped = [](size_t node) {
        return node == DataflowGraph::sourceId ? nodeF
                                               : cellBase + node;
    };

    const double design_rate = _topology.designEventsPerSecond;
    for (size_t u = 1; u < sweep->cells; ++u) {
        const DataflowNode &node = graph.node(u);
        // cell -> B: the cell's in-sensor execution cost. The
        // standby share baked into sensorEnergy is amortized at the
        // topology's design rate; recording it separately lets
        // setEventRate() re-amortize without a rebuild.
        SweepNetwork::CellEdge cell;
        cell.edgeIndex = track(cellBase + u, nodeB,
                               node.costs.sensorEnergy,
                               node.costs.sensorDelay);
        cell.standbyW = node.costs.sensorStandby.w();
        cell.executionJ = node.costs.sensorEnergy.j() -
                          cell.standbyW / design_rate;
        sweep->cellEdges.push_back(cell);
        // Placing the cell in the aggregator instead costs software
        // time and, under an admission-control penalty, weighted
        // software energy. Charge both on the F -> cell side so the
        // Lagrangian can trade both directions; with lambda == 0 and
        // no penalty this edge is zero and never cut.
        SweepNetwork::PenaltyEdge penalty;
        penalty.edgeIndex = track(
            nodeF, cellBase + u,
            node.costs.aggregatorEnergy *
                _options.aggregatorEnergyWeight,
            node.costs.aggregatorDelay);
        penalty.aggregatorEnergyJ =
            node.costs.aggregatorEnergy.j();
        sweep->penaltyEdges.push_back(penalty);
    }

    // Broadcast groups: one dummy node pair per producer payload,
    // generalizing the paper's dummy "D" node (for the raw source
    // data this construction *is* the paper's F -> D edge plus
    // infinite D -> consumer edges).
    for (const BroadcastGroup &group : broadcastGroups(_topology)) {
        const TransferCost transfer = _link.transfer(group.bits);

        // Transmit dummy: if any consumer is in the aggregator while
        // the producer is in the sensor, the payload crosses once.
        const size_t tx_node = net.addNode();
        trackTransfer(mapped(group.producer), tx_node,
                      transfer.txEnergy, transfer.airTime);
        for (size_t v : group.consumers) {
            net.addEdge(tx_node, mapped(v),
                        FlowNetwork::infiniteCapacity());
        }

        // Receive dummy: if any consumer is in the sensor while the
        // producer is in the aggregator, the sensor receives once.
        // The source is always in the sensor, so it needs none.
        if (group.producer != DataflowGraph::sourceId) {
            const size_t rx_node = net.addNode();
            trackTransfer(rx_node, mapped(group.producer),
                          transfer.rxEnergy, transfer.airTime);
            for (size_t v : group.consumers) {
                net.addEdge(mapped(v), rx_node,
                            FlowNetwork::infiniteCapacity());
            }
        }
    }

    // The result always ends at the aggregator: keeping the fusion
    // cell in the sensor costs one result transfer.
    const TransferCost result =
        _link.transfer(EngineTopology::resultBits);
    trackTransfer(cellBase + _topology.fusionNode, nodeB,
                  result.txEnergy, result.airTime);

    _sweep = std::move(sweep);
    ++_coldSolves;
    // Apply any runtime-adaptation state set before the first solve.
    if (_transferScale != 1.0)
        applyTransferScale();
    if (_eventsPerSecond > 0.0)
        applyEventRate();
    return *_sweep;
}

void
XProGenerator::applyTransferScale()
{
    SweepNetwork &sweep = *_sweep;
    for (size_t i = 0; i < sweep.transferEdges.size(); ++i) {
        sweep.edges[sweep.transferEdges[i]].energyJ =
            sweep.transferBaseJ[i] * _transferScale;
        // The capacity itself is refreshed by the next cutAt().
    }
}

void
XProGenerator::applyEventRate()
{
    SweepNetwork &sweep = *_sweep;
    const double rate = _eventsPerSecond > 0.0
                            ? _eventsPerSecond
                            : _topology.designEventsPerSecond;
    for (const SweepNetwork::CellEdge &cell : sweep.cellEdges) {
        sweep.edges[cell.edgeIndex].energyJ =
            cell.executionJ + cell.standbyW / rate;
    }
}

void
XProGenerator::setTransferEnergyScale(double scale)
{
    xproAssert(scale > 0.0, "non-positive transfer scale %f", scale);
    _transferScale = scale;
    if (_sweep)
        applyTransferScale();
}

void
XProGenerator::setEventRate(double events_per_second)
{
    xproAssert(events_per_second > 0.0,
               "event rate must be positive, got %f",
               events_per_second);
    _eventsPerSecond = events_per_second;
    if (_sweep)
        applyEventRate();
}

LambdaCut
XProGenerator::cutAt(double lambda)
{
    xproAssert(lambda >= 0.0, "negative lambda %f", lambda);
    SweepNetwork &sweep = this->sweep();
    for (const SweepNetwork::SweepEdge &edge : sweep.edges) {
        sweep.net.setCapacity(edge.id,
                              edge.energyJ + lambda * edge.delaySec);
    }
    ++_warmSolves;

    const MinCutResult cut = sweep.net.minCut(nodeF, nodeB);

    LambdaCut result;
    result.cutValue = cut.value;
    std::vector<bool> in_sensor(sweep.cells, false);
    in_sensor[DataflowGraph::sourceId] = true;
    for (size_t u = 1; u < sweep.cells; ++u)
        in_sensor[u] = cut.sourceSide[cellBase + u];
    result.placement =
        Placement::fromMask(_topology, std::move(in_sensor));
    return result;
}

void
XProGenerator::setAggregatorEnergyWeight(double weight)
{
    xproAssert(weight >= 0.0, "negative penalty weight %f", weight);
    _options.aggregatorEnergyWeight = weight;
    if (!_sweep)
        return; // next solve builds with the new weight
    for (const SweepNetwork::PenaltyEdge &penalty :
         _sweep->penaltyEdges) {
        SweepNetwork::SweepEdge &edge =
            _sweep->edges[penalty.edgeIndex];
        edge.energyJ = penalty.aggregatorEnergyJ * weight;
        // The capacity itself is refreshed by the next cutAt().
    }
}

Placement
XProGenerator::minimumEnergyPlacement()
{
    return cutAt(0.0).placement;
}

Energy
XProGenerator::objective(const Placement &placement) const
{
    // Price the candidate exactly as the adapted cut does, so the
    // sweep's candidate ranking agrees with the min-cut solves:
    // wireless crossings at the observed channel scale, in-sensor
    // standby re-amortized at the observed event rate.
    const SensorEnergyBreakdown breakdown =
        sensorEventEnergy(_topology, placement, _link);
    // At the nominal scale keep total()'s summation order so the
    // static path stays bit-identical to the pre-adaptive objective.
    Energy value =
        _transferScale == 1.0
            ? breakdown.total()
            : breakdown.compute +
                  breakdown.wireless() * _transferScale;
    if (_eventsPerSecond > 0.0) {
        const double design_rate = _topology.designEventsPerSecond;
        Power standby;
        for (size_t u = 1; u < _topology.graph.nodeCount(); ++u) {
            if (placement.inSensor(u))
                standby +=
                    _topology.graph.node(u).costs.sensorStandby;
        }
        value += standby * Time::seconds(1.0 / _eventsPerSecond -
                                         1.0 / design_rate);
    }
    if (_options.aggregatorEnergyWeight > 0.0) {
        Energy software;
        for (size_t u = 1; u < _topology.graph.nodeCount(); ++u) {
            if (!placement.inSensor(u))
                software +=
                    _topology.graph.node(u).costs.aggregatorEnergy;
        }
        value += software * _options.aggregatorEnergyWeight;
    }
    return value;
}

Time
XProGenerator::delayLimit() const
{
    const Time t_sensor =
        eventDelay(_topology, Placement::allInSensor(_topology),
                   _link)
            .total();
    const Time t_aggregator =
        eventDelay(_topology,
                   Placement::allInAggregator(_topology), _link)
            .total();
    return std::min(t_sensor, t_aggregator);
}

PartitionResult
XProGenerator::generate()
{
    const Time limit = delayLimit();

    // Unconstrained energy-optimal cut first.
    Placement best = minimumEnergyPlacement();
    SensorEnergyBreakdown best_energy =
        sensorEventEnergy(_topology, best, _link);
    Energy best_objective = objective(best);
    DelayBreakdown best_delay = eventDelay(_topology, best, _link);

    PartitionResult result;
    result.unconstrainedCutValue = best_energy.total();
    result.delayLimit = limit;
    result.unconstrainedFeasible = best_delay.total() <= limit;

    if (!result.unconstrainedFeasible) {
        // Lagrangian sweep: penalize delay with growing lambda
        // (joules per second) until feasible cuts appear; keep the
        // cheapest feasible placement found. The cut solves run
        // sequentially on the one persistent network, and the
        // per-candidate true-delay check and objective fan out over
        // the sweep worker pool.
        std::vector<Placement> candidates;
        for (double lambda = 1e-10; lambda <= 1e4; lambda *= 1.3)
            candidates.push_back(cutAt(lambda).placement);

        // The faster single end is always feasible by construction
        // (the limit is the minimum of the two); considering both
        // also guarantees the "not worse than either feasible
        // single-end design" property of Section 3.2.3.
        candidates.push_back(Placement::allInSensor(_topology));
        candidates.push_back(Placement::allInAggregator(_topology));
        candidates.push_back(Placement::trivialCut(_topology));

        struct Scored
        {
            bool feasible = false;
            Energy objective;
            DelayBreakdown delay;
        };
        WorkerPool pool(_options.sweepWorkers);
        const std::vector<Scored> scored = pool.map<Scored>(
            candidates.size(), [&](size_t i) {
                Scored entry;
                entry.delay =
                    eventDelay(_topology, candidates[i], _link);
                entry.feasible = entry.delay.total() <= limit;
                if (entry.feasible)
                    entry.objective = objective(candidates[i]);
                return entry;
            });

        // Deterministic reduction in candidate order: identical to
        // the sequential sweep for any worker count.
        bool found = false;
        for (size_t i = 0; i < candidates.size(); ++i) {
            if (!scored[i].feasible)
                continue;
            if (!found || scored[i].objective < best_objective) {
                best = candidates[i];
                best_objective = scored[i].objective;
                best_delay = scored[i].delay;
                found = true;
            }
        }
        xproAssert(found, "delay limit excludes every design");
        best_energy = sensorEventEnergy(_topology, best, _link);
    }

    result.placement = best;
    result.energy = best_energy;
    result.delay = best_delay;
    return result;
}

Placement
XProGenerator::exhaustiveOptimum(Time delay_limit,
                                 size_t max_cells) const
{
    const size_t cells = _topology.graph.cellCount();
    if (cells > max_cells) {
        fatal("exhaustive search over %zu cells exceeds the cap of "
              "%zu",
              cells, max_cells);
    }

    Placement best = Placement::allInSensor(_topology);
    bool found = false;
    Energy best_energy;
    for (size_t mask = 0; mask < (size_t{1} << cells); ++mask) {
        std::vector<bool> in_sensor(cells + 1, false);
        in_sensor[DataflowGraph::sourceId] = true;
        for (size_t c = 0; c < cells; ++c)
            in_sensor[1 + c] = (mask >> c) & 1;
        const Placement candidate =
            Placement::fromMask(_topology, std::move(in_sensor));
        if (eventDelay(_topology, candidate, _link).total() >
            delay_limit) {
            continue;
        }
        const Energy energy = objective(candidate);
        if (!found || energy < best_energy) {
            best = candidate;
            best_energy = energy;
            found = true;
        }
    }
    xproAssert(found, "no placement meets the delay limit");
    return best;
}

} // namespace xpro
