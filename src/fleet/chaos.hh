/**
 * @file
 * Deterministic chaos layer for population-scale fleets (DESIGN.md
 * §18): gateway crash/restart episodes, correlated regional outages,
 * cloud-unreachable windows and node churn, all derived from a seed
 * so a chaos run is exactly reproducible.
 *
 * The schedule is quantized to the sharded event queue's
 * synchronization windows: every transition (a gateway dying, a
 * region going dark, a node leaving) happens at a window boundary,
 * where the run() barrier is single-threaded and may touch every
 * shard. Inside a window the chaos state is frozen, so shard drains
 * only ever *read* it — the same no-cross-shard-writes discipline
 * that makes the FleetReport byte-identical at any shards x workers
 * combination (§16) extends unchanged to chaos runs.
 *
 * Nothing here draws from a shared RNG stream: crash intervals are
 * splitmix64 hashes of (seed, gateway, episode), churn windows are
 * hashes of (seed, node). Two runs with the same configuration see
 * the same failures in the same order regardless of how gateways are
 * grouped into shards or how many workers drain them.
 */

#ifndef XPRO_FLEET_CHAOS_HH
#define XPRO_FLEET_CHAOS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace xpro
{

/** Half-open range [begin, end) of synchronization-window indices. */
struct ChaosWindowRange
{
    uint64_t begin = 0;
    uint64_t end = 0;
};

/** Configuration of the deterministic chaos schedule plus the
 *  self-healing knobs (failover handover cost, retry backoff). */
struct ChaosConfig
{
    /** Master switch; false = the population simulator runs the
     *  inert schedule (nothing fails, zero retry backoff) and its
     *  report carries no chaos section. The other knobs are then
     *  ignored. */
    bool enabled = false;
    /** Seed of the crash-interval and churn-assignment hashes.
     *  Independent of the fleet's phase-stagger seed. */
    uint64_t seed = 2017;

    /**
     * Mean windows between independent crashes of one gateway
     * (0 = gateways never crash on their own). Actual intervals are
     * hashed per (gateway, episode) into [max(1, mtbf/2),
     * mtbf/2 + mtbf), so crashes de-correlate across gateways while
     * keeping the configured mean.
     */
    uint64_t gatewayMtbfWindows = 0;
    /** Windows a crashed gateway stays down before restarting. */
    uint64_t gatewayMttrWindows = 4;

    /**
     * Correlated regional outage cadence: every this many windows,
     * one whole region (regionGateways consecutive gateways, cycled
     * round-robin) crashes for regionOutageWindows. 0 disables.
     */
    uint64_t regionPeriodWindows = 0;
    uint64_t regionOutageWindows = 4;
    uint32_t regionGateways = 8;

    /** Windows during which the cloud tier is unreachable; gateways
     *  then complete events locally (the degradation ladder's first
     *  rung) instead of consuming cloud ingest quota. */
    std::vector<ChaosWindowRange> cloudOutages;

    /** Fraction of nodes (hash-selected) that churn out once. */
    double churnFraction = 0.0;
    /** Leave windows are spread over [1, 1 + spread). */
    uint64_t churnSpreadWindows = 16;
    /** Windows a churned-out node stays away before rejoining. */
    uint64_t churnAbsenceWindows = 8;

    /** Per-item cost of re-keying a migrated node's in-flight
     *  transport events to its new gateway (priced like §14's
     *  cutover: a bounded, accounted handover penalty). */
    uint64_t handoverCostUs = 500;
    /** Tier-retry backoff: a deferred event retries after
     *  base << defers plus deterministic per-item jitter, but never
     *  before the next window boundary (where a disabled schedule's
     *  zero backoff parks it). */
    uint64_t retryBackoffBaseUs = 2000;
    uint64_t retryJitterUs = 1000;

    /** Panics on nonsense parameters (zero repair/absence times,
     *  fractions outside [0,1], zero backoff base). */
    void validate() const;

    /**
     * Named profile: "none" (disabled), "flaky" (independent gateway
     * crashes), "regional" (correlated regional outages), "churn"
     * (node join/leave) or "harsh" (all of the above plus a cloud
     * outage). Fatal on unknown names.
     */
    static ChaosConfig profile(const std::string &name);

    /** All profile names, for usage strings. */
    static const std::vector<std::string> &profileNames();
};

/**
 * The live schedule: per-gateway up/down state advanced one window
 * boundary at a time by step(), plus pure hash queries for cloud
 * outages and churn assignments. Owned by the barrier (single
 * thread); shard drains only read the down map between steps.
 */
class ChaosSchedule
{
  public:
    ChaosSchedule(const ChaosConfig &config, uint64_t gateways);

    /** Is @p gateway down during the current window? The down map
     *  is frozen inside a window, so shard drains may call this
     *  without synchronization. */
    bool
    gatewayDown(uint64_t gateway) const
    {
        return _down[static_cast<size_t>(gateway)] != 0;
    }

    /** Gateways currently down. */
    size_t downGateways() const { return _downCount; }

    /** Is the cloud tier unreachable during window @p window? */
    bool cloudDown(uint64_t window) const;

    /**
     * Next live gateway after @p gateway in ring order (the
     * configured neighbor policy), or the gateway count when every
     * gateway is down (total blackout: no failover target).
     */
    uint64_t failoverTarget(uint64_t gateway) const;

    /**
     * Churn assignment of @p node: returns true (and fills the
     * leave/rejoin window indices) for the hash-selected churners.
     * Pure function of (seed, node) — every shard grouping agrees.
     */
    bool churnWindows(uint64_t node, uint64_t &leave_window,
                      uint64_t &join_window) const;

    /**
     * Advance to the boundary entering window @p window (>= 1):
     * apply restarts due at it, then the regional outage (if the
     * cadence hits), then independent crashes. @p restarted and
     * @p crashed receive the transitioning gateway ids in increasing
     * order. Must be called for every boundary in sequence.
     */
    void step(uint64_t window, std::vector<uint32_t> &restarted,
              std::vector<uint32_t> &crashed);

  private:
    /** Hashed windows-to-next-crash for (gateway, episode). */
    uint64_t interval(uint64_t gateway, uint64_t episode) const;

    ChaosConfig _config;
    uint64_t _gateways = 0;
    std::vector<uint8_t> _down;
    std::vector<uint64_t> _nextCrash; ///< window index, ~0 = never
    std::vector<uint64_t> _restartAt;
    std::vector<uint32_t> _episode;
    size_t _downCount = 0;
};

} // namespace xpro

#endif // XPRO_FLEET_CHAOS_HH
