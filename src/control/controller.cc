#include "control/controller.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "obs/stats_registry.hh"

namespace xpro
{

namespace
{

// Stable scope: controller decisions are a deterministic function
// of the telemetry stream (adaptive fleet runs are sequential per
// node), so these match the ControlReport totals at any worker
// count. handover_nj accumulates migration energy in integer
// nanojoules so the counter stays exact.
struct ControlStatIds
{
    StatId windows, repartitions, hysteresisHolds, dwellHolds;
    StatId resolves, handoverNj;
};

const ControlStatIds &
controlStatIds()
{
    static const ControlStatIds ids = [] {
        StatsRegistry &reg = StatsRegistry::instance();
        return ControlStatIds{
            reg.registerCounter("control.windows"),
            reg.registerCounter("control.repartitions"),
            reg.registerCounter("control.hysteresis_holds"),
            reg.registerCounter("control.dwell_holds"),
            reg.registerCounter("control.resolves"),
            reg.registerCounter("control.handover_nj")};
    }();
    return ids;
}

} // namespace

void
ControlConfig::validate() const
{
    xproAssert(repartitionPeriod.sec() > 0.0,
               "non-positive repartition period");
    xproAssert(hysteresis >= 0.0, "negative hysteresis %f",
               hysteresis);
    xproAssert(minDwell.sec() >= 0.0, "negative dwell time");
    xproAssert(scaleQuantum >= 0.0, "negative scale quantum");
    xproAssert(!dutyLevels.empty(), "no duty levels");
    xproAssert(socThresholds.size() + 1 == dutyLevels.size(),
               "%zu duty levels need %zu thresholds, got %zu",
               dutyLevels.size(), dutyLevels.size() - 1,
               socThresholds.size());
    for (size_t i = 0; i < dutyLevels.size(); ++i) {
        xproAssert(dutyLevels[i] > 0.0 && dutyLevels[i] <= 1.0,
                   "duty level %zu = %f out of (0, 1]", i,
                   dutyLevels[i]);
        if (i > 0) {
            xproAssert(dutyLevels[i] <= dutyLevels[i - 1],
                       "duty levels must not increase");
        }
    }
    for (size_t i = 0; i < socThresholds.size(); ++i) {
        xproAssert(socThresholds[i] > 0.0 && socThresholds[i] < 1.0,
                   "soc threshold %zu = %f out of (0, 1)", i,
                   socThresholds[i]);
        if (i > 0) {
            xproAssert(socThresholds[i] < socThresholds[i - 1],
                       "soc thresholds must decrease");
        }
    }
}

CrossEndController::CrossEndController(const EngineTopology &topology,
                                       const WirelessLink &link,
                                       const ControlConfig &config,
                                       const GeneratorOptions &options)
    : _topology(topology), _link(link), _config(config),
      _generator(topology, link, options)
{
    _config.validate();
    _placement = _generator.generate().placement;
    StatsRegistry::instance().add(controlStatIds().resolves);
    _report.enabled = true;
}

size_t
CrossEndController::dutyLevelFor(double soc) const
{
    size_t level = 0;
    for (size_t i = 0; i < _config.socThresholds.size(); ++i) {
        if (soc < _config.socThresholds[i])
            level = i + 1;
    }
    return level;
}

HandoverCost
CrossEndController::handoverCost(const Placement &next) const
{
    HandoverCost cost;
    for (size_t u = 1; u < _topology.graph.nodeCount(); ++u) {
        if (_placement.inSensor(u) == next.inSensor(u))
            continue;
        ++cost.movedCells;
        // Snapshot: the cell's output register crosses the link
        // once. Migrating out of the sensor transmits it; migrating
        // in receives it. Airtime is paid either way.
        const TransferCost snapshot =
            _link.transfer(_topology.graph.node(u).outputBits);
        cost.sensorEnergy += _placement.inSensor(u)
                                 ? snapshot.txEnergy
                                 : snapshot.rxEnergy;
        cost.airTime += snapshot.airTime;
    }
    if (cost.movedCells > 0) {
        // One cutover frame commits the new cell map on both ends.
        const TransferCost cutover =
            _link.transfer(packetHeaderBits);
        cost.sensorEnergy += cutover.txEnergy;
        cost.airTime += cutover.airTime;
    }
    return cost;
}

ControlDecision
CrossEndController::observe(const ControlTelemetry &telemetry)
{
    ControlDecision decision;
    decision.window = _report.windows;
    decision.atMs = telemetry.at.ms();
    // Quantize the channel observation: decisions become robust to
    // per-window sampling noise and the set of operating points the
    // generator ever prices stays small (see _proposals).
    const double raw_scale =
        std::max(1.0, telemetry.meanAttemptsPerPacket);
    decision.observedScale =
        _config.scaleQuantum > 0.0
            ? std::round(raw_scale / _config.scaleQuantum) *
                  _config.scaleQuantum
            : raw_scale;
    decision.observedScale = std::max(1.0, decision.observedScale);
    decision.observedRate = telemetry.eventsPerSecond;
    decision.stateOfCharge = telemetry.stateOfCharge;

    // Duty level is a pure function of the (monotone) state of
    // charge, so it cannot oscillate and needs no hysteresis.
    const size_t duty = dutyLevelFor(telemetry.stateOfCharge);
    const bool retuned = duty != _dutyLevel;
    _dutyLevel = duty;
    decision.dutyLevel = duty;

    // Re-price the persistent flow network at the observed
    // operating point and re-solve on it.
    const double effective_rate =
        telemetry.eventsPerSecond > 0.0
            ? telemetry.eventsPerSecond * _config.dutyLevels[duty]
            : _topology.designEventsPerSecond;
    _generator.setTransferEnergyScale(decision.observedScale);
    _generator.setEventRate(effective_rate);
    const auto key =
        std::make_pair(decision.observedScale, effective_rate);
    auto cached = _proposals.find(key);
    if (cached == _proposals.end()) {
        StatsRegistry::instance().add(controlStatIds().resolves);
        Placement best = _generator.generate().placement;
        const Energy price = _generator.objective(best);
        cached = _proposals
                     .emplace(key, CachedProposal{std::move(best),
                                                  price})
                     .first;
    }
    const Placement &proposal = cached->second.placement;
    const Energy proposed = cached->second.objective;

    auto priced = _currentObjectives.find(key);
    if (priced == _currentObjectives.end()) {
        priced = _currentObjectives
                     .emplace(key, _generator.objective(_placement))
                     .first;
    }
    const Energy current = priced->second;
    decision.improvement =
        current.j() > 0.0 ? (current - proposed) / current : 0.0;

    size_t moved = 0;
    for (size_t u = 1; u < _topology.graph.nodeCount(); ++u)
        moved += _placement.inSensor(u) != proposal.inSensor(u);

    StatsRegistry &sreg = StatsRegistry::instance();
    const ControlStatIds &sids = controlStatIds();
    if (moved == 0) {
        decision.action = retuned ? "retune" : "steady";
    } else if (decision.improvement <= _config.hysteresis) {
        decision.action = "hold";
        ++_report.hysteresisHolds;
        sreg.add(sids.hysteresisHolds);
    } else if (_everRepartitioned &&
               telemetry.at - _lastRepartition < _config.minDwell) {
        decision.action = "dwell";
        ++_report.dwellHolds;
        sreg.add(sids.dwellHolds);
    } else {
        const HandoverCost handover = handoverCost(proposal);
        // Bounded cost: the projected saving over the time the new
        // cut is guaranteed to stay in force (one dwell period, or
        // at least one control window when the dwell is shorter)
        // must cover the migration itself.
        const Time horizon =
            std::max(_config.minDwell, _config.repartitionPeriod);
        const Energy saving = (current - proposed) *
                              (effective_rate * horizon.sec());
        if (saving < handover.sensorEnergy) {
            decision.action = "hold";
            ++_report.hysteresisHolds;
            sreg.add(sids.hysteresisHolds);
        } else {
            decision.action = "repartition";
            decision.movedCells = handover.movedCells;
            decision.handoverUj = handover.sensorEnergy.uj();
            decision.handoverMs = handover.airTime.ms();
            _placement = proposal;
            _currentObjectives.clear();
            _everRepartitioned = true;
            _lastRepartition = telemetry.at;
            ++_report.repartitions;
            _report.handoverTotalUj += handover.sensorEnergy.uj();
            _report.handoverTotalMs += handover.airTime.ms();
            sreg.add(sids.repartitions);
            sreg.add(sids.handoverNj,
                     static_cast<uint64_t>(std::llround(
                         handover.sensorEnergy.nj())));
        }
    }

    decision.sensorCells = _placement.sensorCellCount();
    ++_report.windows;
    sreg.add(sids.windows);
    if (_config.decisionTraceCap == 0 ||
        _report.decisions.size() < _config.decisionTraceCap) {
        _report.decisions.push_back(decision);
    } else {
        ++_report.droppedDecisions;
    }
    return decision;
}

ControlReport
CrossEndController::report() const
{
    ControlReport report = _report;
    report.coldSolves = _generator.coldSolves();
    report.warmSolves = _generator.warmSolves();
    return report;
}

} // namespace xpro
