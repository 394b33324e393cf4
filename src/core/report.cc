#include "core/report.hh"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace xpro
{

CsvTable::CsvTable(std::vector<std::string> columns)
    : _columns(std::move(columns))
{
    xproAssert(!_columns.empty(), "CSV table needs columns");
}

CsvTable &
CsvTable::beginRow()
{
    if (!_rows.empty()) {
        xproAssert(_rows.back().size() == _columns.size(),
                   "previous row has %zu of %zu cells",
                   _rows.back().size(), _columns.size());
    }
    _rows.emplace_back();
    return *this;
}

CsvTable &
CsvTable::add(const std::string &value)
{
    xproAssert(!_rows.empty(), "add() before beginRow()");
    xproAssert(_rows.back().size() < _columns.size(),
               "row already has %zu cells", _columns.size());
    _rows.back().push_back(value);
    return *this;
}

CsvTable &
CsvTable::add(double value)
{
    std::ostringstream out;
    if (std::isfinite(value) &&
        value == std::floor(value) && std::fabs(value) < 1e15) {
        out << static_cast<long long>(value);
    } else {
        out.precision(9);
        out << value;
    }
    return add(out.str());
}

CsvTable &
CsvTable::add(size_t value)
{
    return add(std::to_string(value));
}

std::string
CsvTable::escape(const std::string &value)
{
    if (value.find_first_of(",\"\n") == std::string::npos)
        return value;
    std::string out = "\"";
    for (char c : value) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

void
CsvTable::write(std::ostream &out) const
{
    for (size_t c = 0; c < _columns.size(); ++c)
        out << (c ? "," : "") << escape(_columns[c]);
    out << '\n';
    for (const auto &row : _rows) {
        xproAssert(row.size() == _columns.size(),
                   "ragged row with %zu of %zu cells", row.size(),
                   _columns.size());
        for (size_t c = 0; c < row.size(); ++c)
            out << (c ? "," : "") << escape(row[c]);
        out << '\n';
    }
}

void
CsvTable::writeFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open '%s' for writing", path.c_str());
    write(out);
    if (!out)
        fatal("write to '%s' failed", path.c_str());
}

namespace
{

/** Fixed-format double for the canonical serialization. */
std::string
canonical(double value)
{
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.9e", value);
    return buffer;
}

} // namespace

std::string
RobustnessReport::serialize() const
{
    std::ostringstream out;
    out << "robustness v1\n"
        << "packets " << packetsOffered << ' ' << packetsDelivered
        << ' ' << packetsAbandoned << '\n'
        << "attempts " << attempts << '\n'
        << "retries";
    if (retryHistogram.empty()) {
        out << " -";
    } else {
        for (size_t count : retryHistogram)
            out << ' ' << count;
    }
    out << '\n'
        << "probes " << probes << '\n'
        << "degraded_events " << degradedEvents << '\n'
        << "buffered " << bufferedResults << '\n'
        << "replayed " << replayedResults << '\n'
        << "outages " << outages << '\n'
        << "outage_ms " << canonical(outageTimeMs) << '\n'
        << "recovery_ms " << canonical(meanRecoveryMs) << '\n';
    return out.str();
}

void
RobustnessReport::writeText(std::ostream &out) const
{
    char line[256];
    std::snprintf(line, sizeof(line),
                  "faults: %zu/%zu packets delivered (%zu abandoned), "
                  "%zu attempts, %zu probes\n",
                  packetsDelivered, packetsOffered, packetsAbandoned,
                  attempts, probes);
    out << line;
    out << "retry histogram:";
    if (retryHistogram.empty()) {
        out << " (no deliveries)";
    } else {
        for (size_t r = 0; r < retryHistogram.size(); ++r) {
            std::snprintf(line, sizeof(line), " %zux%zu",
                          retryHistogram[r], r);
            out << line;
        }
        out << " (packets x retries)";
    }
    out << '\n';
    std::snprintf(line, sizeof(line),
                  "degraded: %zu events local-fallback, %zu results "
                  "replayed, %zu still buffered\n",
                  degradedEvents, replayedResults, bufferedResults);
    out << line;
    std::snprintf(line, sizeof(line),
                  "outages: %zu declared, %.3f ms down, mean "
                  "recovery %.3f ms\n",
                  outages, outageTimeMs, meanRecoveryMs);
    out << line;
}

std::string
ControlReport::serialize() const
{
    std::ostringstream out;
    out << "control v1\n"
        << "windows " << windows << '\n'
        << "repartitions " << repartitions << '\n'
        << "holds " << hysteresisHolds << ' ' << dwellHolds << '\n'
        << "solves " << coldSolves << ' ' << warmSolves << '\n'
        << "handover_uj " << canonical(handoverTotalUj) << '\n'
        << "handover_ms " << canonical(handoverTotalMs) << '\n';
    if (droppedDecisions > 0)
        out << "dropped " << droppedDecisions << '\n';
    for (const ControlDecision &d : decisions) {
        out << "decision " << d.window << ' ' << canonical(d.atMs)
            << ' ' << d.action << ' ' << canonical(d.observedScale)
            << ' ' << canonical(d.observedRate) << ' '
            << canonical(d.stateOfCharge) << ' ' << d.dutyLevel
            << ' ' << d.sensorCells << ' ' << d.movedCells << ' '
            << canonical(d.handoverUj) << ' '
            << canonical(d.handoverMs) << ' '
            << canonical(d.improvement) << '\n';
    }
    return out.str();
}

void
ControlReport::writeText(std::ostream &out) const
{
    char line[256];
    std::snprintf(line, sizeof(line),
                  "control: %zu windows, %zu repartitions "
                  "(%zu hysteresis holds, %zu dwell holds)\n",
                  windows, repartitions, hysteresisHolds,
                  dwellHolds);
    out << line;
    std::snprintf(line, sizeof(line),
                  "solves: %zu cold, %zu warm; handover %.3f uJ / "
                  "%.3f ms\n",
                  coldSolves, warmSolves, handoverTotalUj,
                  handoverTotalMs);
    out << line;
    // Long traces are elided for readability: adopted re-partitions
    // and level changes always print, runs of steady/hold windows
    // collapse into one summary line.
    size_t elided = 0;
    const auto flushElided = [&]() {
        if (elided == 0)
            return;
        std::snprintf(line, sizeof(line),
                      "  ... %zu steady/hold window(s) ...\n",
                      elided);
        out << line;
        elided = 0;
    };
    for (size_t i = 0; i < decisions.size(); ++i) {
        const ControlDecision &d = decisions[i];
        const bool landmark = d.action == "repartition" ||
                              d.action == "retune" || i == 0 ||
                              i + 1 == decisions.size();
        if (!landmark && decisions.size() > 48) {
            ++elided;
            continue;
        }
        flushElided();
        std::snprintf(line, sizeof(line),
                      "  w%-3zu %10.1f ms %-11s scale %5.2f rate "
                      "%5.2f/s soc %5.1f%% duty L%zu cut %zu",
                      d.window, d.atMs, d.action.c_str(),
                      d.observedScale, d.observedRate,
                      100.0 * d.stateOfCharge, d.dutyLevel,
                      d.sensorCells);
        out << line;
        if (d.movedCells > 0) {
            std::snprintf(line, sizeof(line),
                          " (moved %zu, %.3f uJ, %.3f ms)",
                          d.movedCells, d.handoverUj, d.handoverMs);
            out << line;
        }
        out << '\n';
    }
    flushElided();
    if (droppedDecisions > 0) {
        std::snprintf(line, sizeof(line),
                      "  (%zu later decisions counted but not "
                      "retained)\n",
                      droppedDecisions);
        out << line;
    }
}

std::string
ServingReport::serialize() const
{
    std::ostringstream out;
    out << "serving v1\n"
        << "events " << events << '\n'
        << "users " << users << '\n'
        << "positives " << positives << '\n'
        << "node_events";
    for (size_t count : nodeEvents)
        out << ' ' << count;
    out << '\n' << "node_positives";
    for (size_t count : nodePositives)
        out << ' ' << count;
    out << '\n';
    return out.str();
}

void
ServingReport::writeText(std::ostream &out) const
{
    char line[256];
    std::snprintf(line, sizeof(line),
                  "serving: %zu events over %zu users, "
                  "%zu classified positive\n",
                  events, users, positives);
    out << line;
}

std::string
TiersReport::serialize() const
{
    std::ostringstream out;
    out << "tiers v1\n"
        << "fanout " << sensorsPerPhone << ' ' << phonesPerGateway
        << '\n'
        << "phones " << phones << '\n'
        << "gateways " << gateways << '\n'
        << "windows " << windows << '\n'
        << "deferred " << deferredUplinks << '\n'
        << "local_fallbacks " << localFallbacks << '\n'
        << "duty_suppressed " << dutySuppressed << '\n'
        << "cloud_throttled " << cloudThrottled << '\n'
        << "phone_busy_ms " << canonical(phoneBusyMs) << '\n'
        << "gateway_busy_ms " << canonical(gatewayBusyMs) << '\n';
    return out.str();
}

void
TiersReport::writeText(std::ostream &out) const
{
    char line[256];
    std::snprintf(line, sizeof(line),
                  "tiers: %zu phones (x%zu sensors), %zu gateways "
                  "(x%zu phones), %zu windows\n",
                  phones, sensorsPerPhone, gateways,
                  phonesPerGateway, windows);
    out << line;
    std::snprintf(line, sizeof(line),
                  "backpressure: %zu deferred, %zu local fallbacks, "
                  "%zu duty-suppressed, %zu cloud-throttled\n",
                  deferredUplinks, localFallbacks, dutySuppressed,
                  cloudThrottled);
    out << line;
    std::snprintf(line, sizeof(line),
                  "tier busy: %.3f ms phone compute, %.3f ms "
                  "gateway airtime\n",
                  phoneBusyMs, gatewayBusyMs);
    out << line;
}

std::string
ChaosReport::serialize() const
{
    std::ostringstream out;
    out << "chaos v1\n"
        << "gateway_crashes " << gatewayCrashes << '\n'
        << "gateway_restarts " << gatewayRestarts << '\n'
        << "failovers " << failovers << '\n'
        << "migrated_nodes " << migratedNodes << '\n'
        << "failback_nodes " << failbackNodes << '\n'
        << "rekeyed_items " << rekeyedItems << '\n'
        << "retries " << retries << '\n'
        << "dropped_events " << droppedEvents << '\n'
        << "parked_injects " << parkedInjects << '\n'
        << "replayed_events " << replayedEvents << '\n'
        << "gateway_local_events " << gatewayLocalEvents << '\n'
        << "blackout_fallbacks " << blackoutFallbacks << '\n'
        << "churn " << churnLeaves << ' ' << churnJoins << '\n'
        << "gateway_down_windows " << gatewayDownWindows << '\n'
        << "cloud_down_windows " << cloudDownWindows << '\n'
        << "max_outage_streak " << maxOutageStreak << '\n'
        << "handover_ms " << canonical(handoverMs) << '\n';
    for (const ChaosEpisode &e : episodes)
        out << "episode " << canonical(e.atMs) << ' ' << e.kind << ' '
            << e.gateway << ' ' << e.nodes << '\n';
    if (droppedEpisodes > 0)
        out << "dropped_episodes " << droppedEpisodes << '\n';
    return out.str();
}

void
ChaosReport::writeText(std::ostream &out) const
{
    char line[256];
    std::snprintf(line, sizeof(line),
                  "chaos: %zu crashes / %zu restarts, %zu failovers "
                  "(%zu nodes migrated, %zu failed back, %zu items "
                  "re-keyed)\n",
                  gatewayCrashes, gatewayRestarts, failovers,
                  migratedNodes, failbackNodes, rekeyedItems);
    out << line;
    std::snprintf(line, sizeof(line),
                  "healing: %zu retries, %zu gateway-local, "
                  "%zu blackout fallbacks, %.3f ms handover, worst "
                  "outage streak %zu\n",
                  retries, gatewayLocalEvents, blackoutFallbacks,
                  handoverMs, maxOutageStreak);
    out << line;
    std::snprintf(line, sizeof(line),
                  "churn: %zu left / %zu rejoined, %zu in-flight "
                  "dropped, %zu injects parked, %zu replayed\n",
                  churnLeaves, churnJoins, droppedEvents,
                  parkedInjects, replayedEvents);
    out << line;
    std::snprintf(line, sizeof(line),
                  "downtime: %zu gateway-windows, %zu cloud-windows "
                  "(%zu transitions logged, %zu dropped)\n",
                  gatewayDownWindows, cloudDownWindows,
                  episodes.size(), droppedEpisodes);
    out << line;
}

std::string
FleetReport::serialize() const
{
    std::ostringstream out;
    out << "fleet-report v1\n"
        << "policy " << policy << '\n'
        << "nodes " << nodeCount << '\n'
        << "events " << totalEvents << '\n'
        << "misses " << totalDeadlineMisses << '\n'
        << "span_ms " << canonical(spanMs) << '\n'
        << "radio_busy_ms " << canonical(radioBusyMs) << '\n'
        << "radio_occupancy " << canonical(radioOccupancy) << '\n'
        << "transfers " << transfers << '\n'
        << "agg_busy_ms " << canonical(aggregatorBusyMs) << '\n'
        << "agg_utilization " << canonical(aggregatorUtilization)
        << '\n'
        << "agg_cpu_share " << canonical(aggregatorCpuShare) << '\n'
        << "agg_power_uw " << canonical(aggregatorPowerUw) << '\n'
        << "agg_lifetime_h " << canonical(aggregatorLifetimeHours)
        << '\n';
    for (const FleetNodeReportRow &row : rows) {
        out << "node " << row.symbol << ' ' << row.process << ' '
            << row.admission << ' ' << row.sensorCells << '/'
            << row.totalCells << ' ' << canonical(row.accuracy)
            << ' ' << canonical(row.eventsPerSecond) << ' '
            << canonical(row.sensorLifetimeHours) << ' '
            << row.events << ' ' << row.deadlineMisses << ' '
            << canonical(row.meanLatencyMs) << ' '
            << canonical(row.worstLatencyMs) << ' '
            << canonical(row.aggregatorPowerUw) << '\n';
    }
    // Fault-injection section only when the run injected faults, so
    // fault-free reports stay byte-identical to earlier versions.
    if (robustness.enabled) {
        out << robustness.serialize();
        out << "degraded";
        for (const FleetNodeReportRow &row : rows)
            out << ' ' << row.degradedEvents;
        out << '\n';
    }
    // Controller section only for adaptive runs, same reasoning.
    if (control.enabled)
        out << control.serialize();
    // Serving section only when events were served, same reasoning.
    // Its content is prediction-derived only, so the bytes are also
    // identical at any batch size and worker count.
    if (serving.enabled)
        out << serving.serialize();
    // Tier section only for population-scale runs. Its content is
    // simulation-derived only (no shard or worker counts), so the
    // bytes are identical at any --shards / --workers setting.
    if (tiers.enabled)
        out << tiers.serialize();
    // Chaos section only when a chaos schedule was active, so
    // chaos-free population reports keep their pre-chaos bytes.
    if (chaos.enabled)
        out << chaos.serialize();
    return out.str();
}

void
FleetReport::writeText(std::ostream &out) const
{
    char line[256];
    std::snprintf(line, sizeof(line),
                  "fleet: %zu nodes, %s radio, %zu events "
                  "(%zu deadline misses)\n",
                  nodeCount, policy.c_str(), totalEvents,
                  totalDeadlineMisses);
    out << line;
    std::snprintf(line, sizeof(line),
                  "radio: %.3f ms busy / %.3f ms span "
                  "(%.1f%% occupancy, %zu transfers)\n",
                  radioBusyMs, spanMs, 100.0 * radioOccupancy,
                  transfers);
    out << line;
    std::snprintf(line, sizeof(line),
                  "aggregator: %.1f%% CPU in-sim, %.1f%% admitted, "
                  "%.1f uW analytics -> %.0f h battery\n",
                  100.0 * aggregatorUtilization,
                  100.0 * aggregatorCpuShare, aggregatorPowerUw,
                  aggregatorLifetimeHours);
    out << line;
    std::snprintf(line, sizeof(line),
                  "%-5s %-7s %-11s %8s %9s %8s %11s %7s %10s %10s "
                  "%9s\n",
                  "node", "process", "admission", "cut", "accuracy",
                  "events/s", "sensor life", "misses", "mean lat",
                  "worst lat", "agg power");
    out << line;
    for (const FleetNodeReportRow &row : rows) {
        char cut[32];
        std::snprintf(cut, sizeof(cut), "%zu/%zu", row.sensorCells,
                      row.totalCells);
        std::snprintf(line, sizeof(line),
                      "%-5s %-7s %-11s %8s %8.1f%% %8.2f %9.0f h "
                      "%3zu/%-3zu %7.3f ms %7.3f ms %6.1f uW\n",
                      row.symbol.c_str(), row.process.c_str(),
                      row.admission.c_str(), cut,
                      100.0 * row.accuracy, row.eventsPerSecond,
                      row.sensorLifetimeHours, row.deadlineMisses,
                      row.events, row.meanLatencyMs,
                      row.worstLatencyMs, row.aggregatorPowerUw);
        out << line;
    }
    if (robustness.enabled)
        robustness.writeText(out);
    if (control.enabled)
        control.writeText(out);
    if (serving.enabled)
        serving.writeText(out);
    if (tiers.enabled)
        tiers.writeText(out);
    if (chaos.enabled)
        chaos.writeText(out);
}

} // namespace xpro
