#include "serve/batch_server.hh"

#include <algorithm>

#include "common/logging.hh"

namespace xpro
{

namespace
{

// events_classified is Stable (the stream length is configuration-
// independent); lane-group shapes are Diag — a lane pack spans users
// but never a worker slice, so occupancy varies with the batch/worker
// configuration.
struct ServeStatIds
{
    StatId events, groups, laneIdle, groupSize;
};

const ServeStatIds &
serveStatIds()
{
    static const ServeStatIds ids = [] {
        StatsRegistry &reg = StatsRegistry::instance();
        const StatScope d = StatScope::Diag;
        return ServeStatIds{
            reg.registerCounter("serve.events_classified"),
            reg.registerCounter("serve.lane_groups", d),
            reg.registerCounter("serve.lane_slots_idle", d),
            reg.registerHistogram("serve.lane_group_size", d)};
    }();
    return ids;
}

} // namespace

BatchServer::BatchServer(std::vector<const HotPathPipeline *> users,
                         size_t batchEvents, size_t workers)
    : _users(std::move(users)), _batchEvents(batchEvents),
      _pool(resolveWorkerCount(workers)),
      _scratch(std::max<size_t>(1, _pool.workerCount()))
{
    xproAssert(!_users.empty(), "batch server needs users");
    for (const HotPathPipeline *user : _users)
        xproAssert(user != nullptr, "null user pipeline");
    // Register ids up front so the per-worker slabs grow (one
    // allocation each) on the first served event, never later.
    serveStatIds();
}

void
BatchServer::serveInto(const ServingEvent *events, size_t count,
                       int *out)
{
    const size_t batch = _batchEvents == 0 ? count : _batchEvents;
    for (size_t begin = 0; begin < count; begin += batch) {
        const size_t n = std::min(batch, count - begin);
        serveBatch(events + begin, n, out + begin);
    }
    if constexpr (kStatsEnabled) {
        StatsRegistry &reg = StatsRegistry::instance();
        for (WorkerScratch &scratch : _scratch)
            reg.absorb(scratch.stats);
    }
}

std::vector<int>
BatchServer::serve(const std::vector<ServingEvent> &events)
{
    std::vector<int> out(events.size());
    serveInto(events.data(), events.size(), out.data());
    return out;
}

void
BatchServer::serveBatch(const ServingEvent *events, size_t count,
                        int *out)
{
    const size_t workers = std::max<size_t>(1, _pool.workerCount());
    if (workers == 1 || count <= 1) {
        workerServe(0, events, count, out);
        return;
    }
    // Contiguous slices keyed by worker index: slice w always covers
    // the same events regardless of scheduling, and results land at
    // original positions, so output is worker-count-invariant.
    const size_t share = (count + workers - 1) / workers;
    _pool.run(workers, [&](size_t w) {
        const size_t begin = w * share;
        if (begin >= count)
            return;
        const size_t end = std::min(count, begin + share);
        workerServe(w, events + begin, end - begin, out + begin);
    });
}

void
BatchServer::workerServe(size_t worker, const ServingEvent *events,
                         size_t count, int *out)
{
    WorkerScratch &scratch = _scratch[worker];
    for (size_t i = 0; i < count; ++i)
        xproAssert(events[i].user < _users.size(),
                   "event user %u out of range", events[i].user);
    extractFeatures(scratch, events, count);
    decideByUser(scratch, events, count, out);
}

void
BatchServer::extractFeatures(WorkerScratch &scratch,
                             const ServingEvent *events, size_t count)
{
    // Features depend only on the wavelet and the segment length, so
    // events of any users pack together when those match. Each
    // (wavelet, length) keeps one open pack, extracted whenever it
    // fills and once more at the end of the slice if partly full.
    if (scratch.features.size() < count * featurePoolSize)
        scratch.features.resize(count * featurePoolSize);
    scratch.packs.clear();
    for (size_t i = 0; i < count; ++i) {
        const FeatureExtractor &extractor =
            _users[events[i].user]->extractor();
        LanePack *pack = nullptr;
        for (LanePack &open : scratch.packs) {
            if (open.extractor->wavelet() == extractor.wavelet() &&
                open.length == events[i].length) {
                pack = &open;
                break;
            }
        }
        if (pack == nullptr) {
            scratch.packs.push_back(
                {&extractor, events[i].length, 0, {}});
            pack = &scratch.packs.back();
        }
        pack->events[pack->count++] = i;
        if (pack->count == simdPackWidth) {
            extractPack(scratch, events, *pack);
            pack->count = 0;
        }
    }
    for (const LanePack &pack : scratch.packs) {
        if (pack.count > 0)
            extractPack(scratch, events, pack);
    }
}

void
BatchServer::extractPack(WorkerScratch &scratch,
                         const ServingEvent *events,
                         const LanePack &pack)
{
    const double *segments[simdPackWidth];
    for (size_t t = 0; t < pack.count; ++t)
        segments[t] = events[pack.events[t]].segment;
    scratch.arena.reset();
    double *rows =
        scratch.arena.alloc<double>(pack.count * featurePoolSize);
    pack.extractor->extractAllPackedInto(segments, pack.count,
                                         pack.length, rows,
                                         scratch.dwt, scratch.arena);
    for (size_t t = 0; t < pack.count; ++t)
        std::copy_n(rows + t * featurePoolSize, featurePoolSize,
                    scratch.features.data() +
                        pack.events[t] * featurePoolSize);
    if constexpr (kStatsEnabled) {
        const ServeStatIds &ids = serveStatIds();
        scratch.stats.add(ids.events, pack.count);
        scratch.stats.add(ids.groups);
        scratch.stats.add(ids.laneIdle, simdPackWidth - pack.count);
        scratch.stats.observe(ids.groupSize, pack.count);
    }
}

void
BatchServer::decideByUser(WorkerScratch &scratch,
                          const ServingEvent *events, size_t count,
                          int *out)
{
    // Counting sort by user: userEnd first holds each bucket's start,
    // and filling advances it to the bucket's end. Deciding a user's
    // events back to back keeps its packed SV tiles cache-hot.
    scratch.userEnd.assign(_users.size(), 0);
    for (size_t i = 0; i < count; ++i)
        ++scratch.userEnd[events[i].user];
    size_t start = 0;
    for (size_t &slot : scratch.userEnd) {
        const size_t size = slot;
        slot = start;
        start += size;
    }
    scratch.byUser.resize(count);
    for (size_t i = 0; i < count; ++i)
        scratch.byUser[scratch.userEnd[events[i].user]++] = i;

    size_t begin = 0;
    for (size_t u = 0; u < _users.size(); ++u) {
        const HotPathPipeline &pipeline = *_users[u];
        for (size_t k = begin; k < scratch.userEnd[u]; ++k) {
            const size_t i = scratch.byUser[k];
            scratch.arena.reset();
            out[i] = pipeline.classifyFeatures(
                scratch.features.data() + i * featurePoolSize,
                scratch.arena);
        }
        begin = scratch.userEnd[u];
    }
}

} // namespace xpro
