#include "sim/radio_sched.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace xpro
{

const std::string &
FcfsArbiter::name() const
{
    static const std::string tag = "fcfs";
    return tag;
}

size_t
FcfsArbiter::grant(const std::vector<RadioRequest> &pending,
                   Time free_at, Time *start) const
{
    xproAssert(!pending.empty(), "arbitrating an empty queue");
    size_t best = 0;
    for (size_t i = 1; i < pending.size(); ++i) {
        if (pending[i].sequence < pending[best].sequence)
            best = i;
    }
    *start = std::max(free_at, pending[best].ready);
    return best;
}

TdmaArbiter::TdmaArbiter(size_t node_count, Time slot)
    : _nodeCount(node_count), _slot(slot)
{
    xproAssert(node_count > 0, "TDMA frame needs at least one slot");
    xproAssert(slot > Time(), "TDMA slot length must be positive");
}

const std::string &
TdmaArbiter::name() const
{
    static const std::string tag = "tdma";
    return tag;
}

Time
TdmaArbiter::nextSlotStart(size_t node, Time t) const
{
    xproAssert(node < _nodeCount, "node %zu has no TDMA slot", node);
    const double frame_s = frame().sec();
    const double offset_s = _slot.sec() * static_cast<double>(node);
    // First frame index whose slot for this node starts at or after
    // t (tolerating representation noise just below a boundary).
    const double k =
        std::ceil((t.sec() - offset_s) / frame_s - 1e-12);
    const double frames = std::max(k, 0.0);
    return Time::seconds(offset_s + frames * frame_s);
}

bool
TdmaArbiter::inOwnSlot(size_t node, Time t) const
{
    xproAssert(node < _nodeCount, "node %zu has no TDMA slot", node);
    const double frame_s = frame().sec();
    const double offset_s = _slot.sec() * static_cast<double>(node);
    double pos = std::fmod(t.sec() - offset_s, frame_s);
    if (pos < 0.0)
        pos += frame_s;
    return pos < _slot.sec() - 1e-12 || pos > frame_s - 1e-12;
}

size_t
TdmaArbiter::grant(const std::vector<RadioRequest> &pending,
                   Time free_at, Time *start) const
{
    xproAssert(!pending.empty(), "arbitrating an empty queue");
    size_t best = 0;
    Time best_start;
    for (size_t i = 0; i < pending.size(); ++i) {
        const Time earliest =
            std::max(free_at, pending[i].ready);
        // A transfer may start any time within one of its node's
        // own slots; outside them it waits for the next slot start.
        const Time slot_start =
            inOwnSlot(pending[i].node, earliest)
                ? earliest
                : nextSlotStart(pending[i].node, earliest);
        const bool better =
            i == 0 || slot_start < best_start ||
            (slot_start == best_start &&
             pending[i].sequence < pending[best].sequence);
        if (better) {
            best = i;
            best_start = slot_start;
        }
    }
    *start = best_start;
    return best;
}

} // namespace xpro
