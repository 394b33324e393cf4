/**
 * @file
 * The Automatic XPro Generator (paper Section 3.2): formally finds
 * the functional-cell distribution that minimizes the sensor node's
 * per-event energy, under the delay constraint
 * T <= min(T_in-sensor, T_in-aggregator).
 *
 * The unconstrained problem reduces to a minimum s-t cut on a graph
 * with a front-end terminal F, a back-end terminal B and a dummy
 * node D for the raw source data (Fig. 7):
 *
 *  - F -> D, weight = energy to transmit the raw segment; infinite
 *    D -> cell edges for every cell reading raw data enforce the
 *    "grouped" lemma;
 *  - cell -> B, weight = the cell's in-sensor compute energy;
 *  - for each dataflow edge u -> v, a forward edge weighted with the
 *    tx energy of u's output and a reverse edge weighted with the rx
 *    energy;
 *  - fusion -> B carries an extra parallel edge with the result
 *    transmission energy (the classification always ends at the
 *    aggregator).
 *
 * A cut's capacity then equals the sensor-node energy of the induced
 * placement (tested invariant), and Dinic solves it in polynomial
 * time. The delay constraint is handled as in the paper's max-flow
 * min-cut reformulation by a Lagrangian sweep: edges carry a second
 * (delay) attribute, cuts of capacity E + lambda*D are enumerated
 * over lambda, every induced placement's true critical-path delay is
 * checked, and the cheapest feasible one wins; the faster single-end
 * design is the guaranteed-feasible fallback.
 */

#ifndef XPRO_CORE_PARTITIONER_HH
#define XPRO_CORE_PARTITIONER_HH

#include <memory>
#include <vector>

#include "core/energy_model.hh"
#include "core/delay_model.hh"
#include "core/placement.hh"
#include "graph/flow_network.hh"

namespace xpro
{

/** Optional adjustments to the generator's objective. */
struct GeneratorOptions
{
    /**
     * Weight on the aggregator-side software energy added to the
     * min-cut objective: the generator then minimizes
     * sensorEnergy + weight * (software energy of the
     * aggregator-placed cells). Zero, the default, reproduces the
     * paper's sensor-only objective. Fleet admission control raises
     * the weight to squeeze a node's offloaded load back into the
     * sensor when the shared aggregator is over budget; as the
     * weight grows the cut converges to the all-in-sensor design.
     */
    double aggregatorEnergyWeight = 0.0;

    /**
     * Worker threads evaluating the Lagrangian sweep's candidate
     * placements (true-delay feasibility + objective). The cut
     * solves themselves stay sequential — they share one flow
     * network — and the result is index-keyed, so the generated
     * design is identical for any worker count. 0 and 1 both run
     * inline on the calling thread.
     */
    size_t sweepWorkers = 1;
};

/** One lambda point of the generator's delay sweep. */
struct LambdaCut
{
    /** Placement induced by the min cut at this lambda. */
    Placement placement;
    /** Raw cut capacity: joules + lambda * seconds. */
    double cutValue = 0.0;
};

/** Result of one generator run. */
struct PartitionResult
{
    Placement placement;
    /** Sensor-node per-event energy of the chosen placement. */
    SensorEnergyBreakdown energy;
    /** End-to-end delay of the chosen placement. */
    DelayBreakdown delay;
    /** The delay limit that was enforced. */
    Time delayLimit;
    /** Min-cut value of the unconstrained solve (diagnostics). */
    Energy unconstrainedCutValue;
    /** True when the unconstrained min-cut already met the limit. */
    bool unconstrainedFeasible = false;
};

/**
 * The Automatic XPro Generator.
 *
 * A generator instance owns one persistent s-t flow network: the
 * first cut solve builds it, and every later solve (another lambda
 * of the delay sweep, or a tightened admission penalty via
 * setAggregatorEnergyWeight()) only re-prices edge capacities and
 * runs Dinic from zero flow on the same graph. Solves mutate the
 * instance and are NOT safe to run concurrently; use one generator
 * per thread (as the fleet design phase does).
 */
class XProGenerator
{
  public:
    XProGenerator(const EngineTopology &topology,
                  const WirelessLink &link,
                  const GeneratorOptions &options = {});

    ~XProGenerator();

    /**
     * Unconstrained minimum-energy placement via min s-t cut.
     */
    Placement minimumEnergyPlacement();

    /**
     * Min cut of the graph with capacities energy + lambda * delay.
     * Successive calls re-price the instance's flow network instead
     * of rebuilding it, returning results identical to a freshly
     * built network at every lambda (property-tested).
     */
    LambdaCut cutAt(double lambda);

    /**
     * Tighten (or relax) the aggregator-energy penalty without
     * rebuilding the flow network: only the penalty edges'
     * capacities change before the admission loop's next cut.
     */
    void setAggregatorEnergyWeight(double weight);

    /**
     * Scale every transfer edge's energy term (tx, rx and the
     * result transfer) by @p scale without rebuilding the flow
     * network. The online controller sets the scale to the observed
     * mean ARQ attempts per packet, so a degrading Gilbert-Elliott
     * channel prices wireless crossings at their effective (retried)
     * cost and the re-cut migrates cells back into the sensor.
     * 1.0 restores the nominal expectation-level link.
     */
    void setTransferEnergyScale(double scale);

    /**
     * Re-amortize every cell's standby share at a new observed
     * event rate (cell edges: execution energy + standby / rate)
     * without rebuilding the flow network. Rate drift changes the
     * execution-vs-standby balance the cut trades off; the next
     * cutAt()/generate() sees the re-amortized capacities. Cells whose
     * CellCosts carry no separate standby power (hand-built
     * fixtures) keep their built-in sensorEnergy.
     */
    void setEventRate(double events_per_second);

    /**
     * Solve accounting for the runtime-adaptive controller's
     * steady-state gate: coldSolves() counts networks built,
     * warmSolves() counts cuts on the built network. A controller
     * that keeps one generator alive sees coldSolves() == 1 forever.
     */
    size_t coldSolves() const { return _coldSolves; }
    size_t warmSolves() const { return _warmSolves; }

    /**
     * Full generation with the paper's delay constraint
     * T <= min(T_F, T_B).
     */
    PartitionResult generate();

    /**
     * Exhaustive oracle for small topologies (tests): enumerate all
     * placements, minimize energy subject to the delay limit.
     * Fatal for topologies with more than @p max_cells cells.
     */
    Placement exhaustiveOptimum(Time delay_limit,
                                size_t max_cells = 24) const;

    /** The delay limit min(T_in-sensor, T_in-aggregator). */
    Time delayLimit() const;

    /**
     * The value the generator minimizes for @p placement: sensor
     * energy plus the weighted aggregator software energy (equal to
     * plain sensor energy at the default options).
     */
    Energy objective(const Placement &placement) const;

  private:
    /** The persistent s-t graph (built on first use). */
    struct SweepNetwork;

    SweepNetwork &sweep();
    /** Re-price the sweep's transfer edges at _transferScale. */
    void applyTransferScale();
    /** Re-amortize the sweep's cell standby at _eventsPerSecond. */
    void applyEventRate();

    const EngineTopology &_topology;
    const WirelessLink &_link;
    GeneratorOptions _options;
    /** Runtime-adaptation state (applied to the sweep's edges). */
    double _transferScale = 1.0;
    double _eventsPerSecond = 0.0; ///< 0 = topology's design rate
    std::unique_ptr<SweepNetwork> _sweep;
    size_t _coldSolves = 0;
    size_t _warmSolves = 0;
};

} // namespace xpro

#endif // XPRO_CORE_PARTITIONER_HH
