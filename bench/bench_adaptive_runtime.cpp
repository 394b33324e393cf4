/**
 * @file
 * Runtime-adaptive controller bench: lifetime under a nonstationary
 * day on one static cut versus the online re-partitioning
 * controller.
 *
 * The scenario is the seeded 24-hour trace (control/trace): an
 * overnight event-rate lull, a daytime activity step, and a few
 * multi-hour bursty-channel episodes. A static design is stuck with
 * one answer for the whole day; the controller re-prices the cut at
 * every window boundary from observed telemetry and migrates cells
 * across the link when drift makes a different cut cheaper. The
 * gated claims:
 *
 *  - adaptive lifetime beats BOTH static extremes (all-in-sensor
 *    and all-in-aggregator) by >= 10% on the day trace;
 *  - the controller actually re-partitions (the trace's channel
 *    episodes flip the optimal cut), with a bounded handover bill;
 *  - every re-solve after the initial design reuses the
 *    generator's one flow network: coldSolves == 1,
 *    warmSolves >= 1;
 *  - the decision trace is deterministic: two runs serialize to
 *    identical bytes.
 */

#include <cstdio>
#include <string>

#include "bench_common.hh"
#include "control/adaptive_sim.hh"

using namespace xpro;
using namespace xpro::bench;

int
main()
{
    std::printf("XPro adaptive-runtime bench: static cuts vs the "
                "online controller\n");
    std::printf("(test case C1, seeded 24 h nonstationary trace, "
                "40 mAh sensor cell)\n\n");

    CaseLibrary library;
    const EngineConfig config = paperConfig();

    SteadyTimer design_timer;
    const EngineTopology topo = library.topology(TestCase::C1, config);
    const WirelessLink link(transceiver(config.wireless));
    const double design_s = design_timer.seconds();

    const NonstationaryTrace day = NonstationaryTrace::day(2017);
    AdaptiveRunConfig run;
    run.sensor.process = config.process;

    SteadyTimer adaptive_timer;
    const LifetimeResult adaptive =
        adaptiveLifetime(topo, link, day, run);
    const double adaptive_s = adaptive_timer.seconds();

    SteadyTimer static_timer;
    const LifetimeResult in_sensor = staticLifetime(
        topo, Placement::allInSensor(topo), link, day, run);
    const LifetimeResult in_aggregator = staticLifetime(
        topo, Placement::allInAggregator(topo), link, day, run);
    const double static_s = static_timer.seconds();

    const ControlReport &control = adaptive.control;
    std::printf("  %-24s %10.1f h  (%zu trace passes)\n",
                "static all-in-sensor", in_sensor.lifetime.hr(),
                in_sensor.tracePasses);
    std::printf("  %-24s %10.1f h  (%zu trace passes)\n",
                "static all-in-aggregator",
                in_aggregator.lifetime.hr(),
                in_aggregator.tracePasses);
    std::printf("  %-24s %10.1f h  (%zu trace passes)\n", "adaptive",
                adaptive.lifetime.hr(), adaptive.tracePasses);
    std::printf("\n  controller: %zu windows, %zu repartitions, "
                "%zu hysteresis holds, %zu dwell holds\n",
                control.windows, control.repartitions,
                control.hysteresisHolds, control.dwellHolds);
    std::printf("  solves: %zu cold + %zu warm; handover bill "
                "%.1f uJ / %.1f ms on air\n",
                control.coldSolves, control.warmSolves,
                control.handoverTotalUj, control.handoverTotalMs);
    std::printf("  host: design %.2f s, adaptive %.2f s, "
                "static pair %.2f s\n\n",
                design_s, adaptive_s, static_s);

    const double vs_sensor =
        adaptive.lifetime.hr() / in_sensor.lifetime.hr();
    const double vs_aggregator =
        adaptive.lifetime.hr() / in_aggregator.lifetime.hr();

    ShapeChecker checker;
    checker.check(vs_sensor >= 1.10,
                  "adaptive lifetime beats static all-in-sensor by "
                  ">= 10% (got " +
                      std::to_string(vs_sensor) + "x)");
    checker.check(vs_aggregator >= 1.10,
                  "adaptive lifetime beats static all-in-aggregator "
                  "by >= 10% (got " +
                      std::to_string(vs_aggregator) + "x)");
    checker.check(control.repartitions > 0,
                  "the channel episodes trigger re-partitions");
    checker.check(control.coldSolves == 1,
                  "exactly one cold solve; every re-partition "
                  "re-solves warm");
    checker.check(control.warmSolves >= 1,
                  "warm re-solves happened");

    // Decision-trace determinism: an identical run must reproduce
    // the trace byte for byte.
    const LifetimeResult again = adaptiveLifetime(topo, link, day, run);
    checker.check(again.control.serialize() == control.serialize(),
                  "decision trace is byte-identical across runs");

    checker.metric("adaptive_lifetime_h", adaptive.lifetime.hr());
    checker.metric("static_sensor_h", in_sensor.lifetime.hr());
    checker.metric("static_aggregator_h",
                   in_aggregator.lifetime.hr());
    checker.metric("gain_vs_sensor", vs_sensor);
    checker.metric("gain_vs_aggregator", vs_aggregator);
    checker.metric("repartitions",
                   static_cast<double>(control.repartitions));
    checker.metric("cold_solves",
                   static_cast<double>(control.coldSolves));
    checker.metric("warm_solves",
                   static_cast<double>(control.warmSolves));
    checker.metric("handover_total_uj", control.handoverTotalUj);
    checker.metric("design_s", design_s);
    checker.metric("adaptive_s", adaptive_s);
    checker.throughput(adaptive.events, adaptive_s);

    return checker.finish("bench_adaptive_runtime");
}
