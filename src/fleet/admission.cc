#include "fleet/admission.hh"

#include "common/logging.hh"
#include "core/energy_model.hh"

namespace xpro
{

const std::string &
admissionOutcomeName(AdmissionOutcome outcome)
{
    static const std::string names[] = {"offload", "repartition",
                                        "in-sensor"};
    switch (outcome) {
      case AdmissionOutcome::Offloaded:
        return names[0];
      case AdmissionOutcome::Repartitioned:
        return names[1];
      case AdmissionOutcome::InSensor:
        return names[2];
    }
    panic("unknown admission outcome %d", static_cast<int>(outcome));
}

double
aggregatorCpuShare(const EngineTopology &topology,
                   const Placement &placement,
                   double events_per_second)
{
    xproAssert(events_per_second > 0.0,
               "event rate must be positive");
    Time software;
    for (size_t u = 1; u < topology.graph.nodeCount(); ++u) {
        if (!placement.inSensor(u))
            software += topology.graph.node(u).costs.aggregatorDelay;
    }
    return software.sec() * events_per_second;
}

Power
aggregatorAnalyticsPower(const EngineTopology &topology,
                         const Placement &placement,
                         const WirelessLink &link,
                         double events_per_second)
{
    xproAssert(events_per_second > 0.0,
               "event rate must be positive");
    const Energy per_event =
        aggregatorEventEnergy(topology, placement, link).total();
    return per_event.over(Time::seconds(1.0 / events_per_second));
}

namespace
{

/** A placement's demand on the shared aggregator. */
struct Demand
{
    double cpuShare = 0.0;
    Power power;
};

Demand
demandOf(const AdmissionCandidate &candidate,
         const Placement &placement, const WirelessLink &link)
{
    Demand demand;
    demand.cpuShare = aggregatorCpuShare(
        *candidate.topology, placement, candidate.eventsPerSecond);
    demand.power = aggregatorAnalyticsPower(
        *candidate.topology, placement, link,
        candidate.eventsPerSecond);
    return demand;
}

bool
fits(const Demand &demand, double used_cpu, Power used_power,
     const AdmissionConfig &config)
{
    return used_cpu + demand.cpuShare <=
               config.maxCpuUtilization + 1e-12 &&
           used_power + demand.power <=
               config.powerBudget + Power::micros(1e-6);
}

} // namespace

AdmissionResult
admitFleet(const std::vector<AdmissionCandidate> &candidates,
           const WirelessLink &link, const AdmissionConfig &config)
{
    xproAssert(config.maxCpuUtilization > 0.0,
               "CPU utilization cap must be positive");
    xproAssert(config.powerBudget > Power(),
               "power budget must be positive");

    AdmissionResult result;
    result.nodes.reserve(candidates.size());

    for (const AdmissionCandidate &candidate : candidates) {
        xproAssert(candidate.topology && candidate.placement,
                   "admission candidate is incomplete");

        NodeAdmission admission;
        admission.placement = *candidate.placement;
        Demand demand =
            demandOf(candidate, admission.placement, link);

        if (!fits(demand, result.cpuUtilization, result.power,
                  config)) {
            // The standalone cut does not fit: re-partition with a
            // growing aggregator-energy penalty, pulling cells back
            // into the sensor. One generator serves every round:
            // only the penalty edges' capacities change between
            // rounds, so each re-cut re-prices the same network.
            admission.outcome = AdmissionOutcome::InSensor;
            XProGenerator generator(*candidate.topology, link);
            double weight = config.initialPenalty;
            for (size_t round = 0; round < config.maxRounds;
                 ++round, weight *= config.penaltyGrowth) {
                generator.setAggregatorEnergyWeight(weight);
                Placement penalized =
                    generator.generate().placement;
                const Demand penalized_demand =
                    demandOf(candidate, penalized, link);
                if (fits(penalized_demand, result.cpuUtilization,
                         result.power, config)) {
                    admission.outcome =
                        AdmissionOutcome::Repartitioned;
                    admission.placement = std::move(penalized);
                    admission.penaltyWeight = weight;
                    demand = penalized_demand;
                    break;
                }
            }
            if (admission.outcome == AdmissionOutcome::InSensor) {
                admission.placement =
                    Placement::allInSensor(*candidate.topology);
                admission.penaltyWeight = weight;
                demand =
                    demandOf(candidate, admission.placement, link);
                if (!fits(demand, result.cpuUtilization,
                          result.power, config)) {
                    // Even result reception busts the budget: the
                    // configuration is too small for this fleet.
                    warn("admission: in-sensor fallback still "
                         "exceeds the aggregator budget "
                         "(%.3f + %.3f CPU, %.1f + %.1f uW)",
                         result.cpuUtilization, demand.cpuShare,
                         result.power.uw(), demand.power.uw());
                }
            }
        }

        admission.cpuShare = demand.cpuShare;
        admission.power = demand.power;
        result.cpuUtilization += demand.cpuShare;
        result.power += demand.power;
        result.nodes.push_back(std::move(admission));
    }
    return result;
}

} // namespace xpro
