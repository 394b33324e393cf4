/**
 * @file
 * Arbitration policies for the shared half-duplex radio channel of
 * the detailed event simulator (sim/system_sim).
 *
 * Every sensor node of a body-sensor network talks to the same
 * aggregator; when several nodes have payloads ready, an arbiter
 * decides who transmits next and when. Two policies are provided:
 *
 *  - FCFS: requests are served strictly in submission order as soon
 *    as the channel is free. For a single node this is the plain
 *    FIFO radio, which is how simulateEvent/simulateStream run.
 *  - TDMA: time is divided into frames of one fixed-length slot per
 *    node; a node's transfer may only *start* inside one of its own
 *    slots. A transfer longer than a slot keeps the channel and
 *    delays later slots (no mid-payload preemption), which models
 *    the guard-band-free slotting of lightweight BSN MACs.
 *
 * Arbiters are pure policy: given the pending requests and the time
 * the channel frees up, pick one and say when it may start. They are
 * deterministic functions of their inputs, keyed by node order and
 * submission sequence, never by wall clock — the fleet report's
 * byte-exact reproducibility depends on it.
 */

#ifndef XPRO_SIM_RADIO_SCHED_HH
#define XPRO_SIM_RADIO_SCHED_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"

namespace xpro
{

/** One queued transfer awaiting the shared channel. */
struct RadioRequest
{
    /** Fleet node index of the transmitting pair. */
    size_t node = 0;
    /** Global submission order (FIFO tie-break). */
    uint64_t sequence = 0;
    /** When the payload became ready to transmit. */
    Time ready;
    /** Channel occupancy once the transfer starts. */
    Time airTime;
};

/** Policy choosing the next transfer on the shared channel. */
class RadioArbiter
{
  public:
    virtual ~RadioArbiter() = default;

    /** Policy tag, e.g. "fcfs". */
    virtual const std::string &name() const = 0;

    /**
     * Choose the next transfer once the channel is free at
     * @p free_at.
     *
     * @param pending Non-empty queued requests.
     * @param free_at Earliest time the channel can carry data.
     * @param start Out: when the chosen transfer begins
     *        (>= free_at).
     * @return Index into @p pending of the chosen request.
     */
    virtual size_t grant(const std::vector<RadioRequest> &pending,
                         Time free_at, Time *start) const = 0;
};

/** First come, first served: strict submission order. */
class FcfsArbiter : public RadioArbiter
{
  public:
    const std::string &name() const override;
    size_t grant(const std::vector<RadioRequest> &pending,
                 Time free_at, Time *start) const override;
};

/** Fixed round-robin slotting: node i owns slot i of every frame. */
class TdmaArbiter : public RadioArbiter
{
  public:
    /**
     * @param node_count Nodes sharing the frame (slot owners
     *        0..node_count-1).
     * @param slot Slot length; must be positive.
     */
    TdmaArbiter(size_t node_count, Time slot);

    const std::string &name() const override;
    size_t grant(const std::vector<RadioRequest> &pending,
                 Time free_at, Time *start) const override;

    /** Start of the first slot owned by @p node at or after @p t. */
    Time nextSlotStart(size_t node, Time t) const;

    /** True if @p t falls inside one of @p node's own slots. */
    bool inOwnSlot(size_t node, Time t) const;

    Time slot() const { return _slot; }
    Time frame() const { return _slot * double(_nodeCount); }

  private:
    size_t _nodeCount;
    Time _slot;
};

} // namespace xpro

#endif // XPRO_SIM_RADIO_SCHED_HH
