/**
 * @file
 * Cross-user batched inference server over compiled hot-path
 * pipelines.
 *
 * A fleet's nodes raise classification events concurrently; the
 * server drains them in arrival order, slicing the stream into
 * batches of `batchEvents` that may span many users' models, and
 * fans each batch out over a persistent worker pool. Every event is
 * classified by its user's HotPathPipeline with per-worker scratch
 * (Arena + DwtScratch), and predictions land at the event's original
 * index — so the output is bit-identical at ANY batch size and ANY
 * worker count to classifying each event alone (PR 3's
 * batch-vs-per-sample discipline, enforced by the `hotpath` tests).
 *
 * A worker serves its slice in two passes. Features do not depend on
 * the user's model, only on the wavelet and the segment length, so
 * the feature pass packs up to simdPackWidth events of equal
 * (wavelet, length) into one lane-packed extraction, whoever raised
 * them. The decision pass then buckets the slice by user and runs
 * each user's events back to back, so that user's packed
 * support-vector tiles stay cache-hot. Both passes only reorder
 * computation between independent events, never arithmetic inside
 * one.
 *
 * With workers == 1 the steady-state serve loop performs zero heap
 * allocations (counting-allocator test); multi-worker runs allocate
 * only in the pool fan-out, never per event.
 */

#ifndef XPRO_SERVE_BATCH_SERVER_HH
#define XPRO_SERVE_BATCH_SERVER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/arena.hh"
#include "common/simd.hh"
#include "common/worker_pool.hh"
#include "dsp/dwt.hh"
#include "dsp/feature_pool.hh"
#include "obs/stats_registry.hh"
#include "serve/hot_path.hh"

namespace xpro
{

/** One pending inference: which user raised it and the raw segment
 * samples (borrowed; must outlive the serve call). */
struct ServingEvent
{
    uint32_t user = 0;
    const double *segment = nullptr;
    size_t length = 0;
};

class BatchServer
{
  public:
    /**
     * @param users Compiled pipeline per user id (borrowed; must
     *        outlive the server).
     * @param batchEvents Events per cross-user batch; 0 serves the
     *        whole stream as one batch.
     * @param workers Worker threads per batch (0 = one per hardware
     *        thread, 1 = inline).
     */
    BatchServer(std::vector<const HotPathPipeline *> users,
                size_t batchEvents, size_t workers);

    /**
     * Classify events[0..count) into out[0..count), in original
     * event order. Allocation-free in steady state when running
     * inline (workers == 1).
     */
    void serveInto(const ServingEvent *events, size_t count,
                   int *out);

    /** Convenience wrapper allocating the result vector. */
    std::vector<int> serve(const std::vector<ServingEvent> &events);

    size_t userCount() const { return _users.size(); }
    size_t batchEvents() const { return _batchEvents; }
    size_t workerCount() const { return _pool.workerCount(); }

  private:
    /** Up to simdPackWidth slice events that share a wavelet and a
     * segment length. */
    struct LanePack
    {
        const FeatureExtractor *extractor = nullptr;
        size_t length = 0;
        size_t count = 0;
        size_t events[simdPackWidth] = {};
    };

    /** Per-worker scratch. Every buffer is grow-only, so the
     * steady-state loop stays allocation-free. */
    struct WorkerScratch
    {
        Arena arena;
        DwtScratch dwt;
        /** Lane packs still filling in the feature pass, at most
         * one per (wavelet, length). */
        std::vector<LanePack> packs;
        /** Raw feature row of each slice event, featurePoolSize
         * doubles apiece. */
        std::vector<double> features;
        /** Slice events bucketed by user (counting sort): after the
         * fill, userEnd[u] is where user u's bucket in byUser ends. */
        std::vector<size_t> userEnd;
        std::vector<size_t> byUser;
        /** serve.* telemetry, plain writes; grows once on the first
         * event and is absorbed per serveInto call, keeping the
         * steady-state loop allocation- and atomic-free. */
        StatsSlab stats;
    };

    void serveBatch(const ServingEvent *events, size_t count,
                    int *out);
    void workerServe(size_t worker, const ServingEvent *events,
                     size_t count, int *out);
    void extractFeatures(WorkerScratch &scratch,
                         const ServingEvent *events, size_t count);
    static void extractPack(WorkerScratch &scratch,
                            const ServingEvent *events,
                            const LanePack &pack);
    void decideByUser(WorkerScratch &scratch,
                      const ServingEvent *events, size_t count,
                      int *out);

    std::vector<const HotPathPipeline *> _users;
    size_t _batchEvents;
    WorkerPool _pool;
    std::vector<WorkerScratch> _scratch;
};

} // namespace xpro

#endif // XPRO_SERVE_BATCH_SERVER_HH
