/**
 * @file
 * Inter-request reuse cache: resident DittoState handed across
 * near-duplicate requests.
 *
 * Production diffusion traffic is heavily redundant — many requests
 * share (seed, conditioning, mode) and therefore share a bitwise-
 * identical timestep prefix. During rollout the server checkpoints a
 * slot's portable state (partial image + extracted DittoState
 * slab + step counter) into this cache every
 * `ReuseCacheConfig::checkpointEvery` steps; when a matching request
 * is admitted later, the deepest cached prefix with steps < the
 * request's own step count is installed into its slot and the request
 * starts at step k instead of 0.
 *
 * Correctness (docs/reuse_cache.md):
 *  - Exact modes: difference execution equals direct execution bit
 *    for bit, and a checkpoint after k steps is independent of the
 *    total step count, so a warm start is bitwise identical to the
 *    cold rollout — at every preset, batch shape and thread count
 *    (tests/test_reuse.cc).
 *  - ApproxDitto: the checkpoint carries the skip counters and cached
 *    codes/outputs, so the warm trajectory replays the cold
 *    ApproxDitto trajectory exactly (fidelity accounting unchanged).
 *
 * Lifecycle:
 *  - Entries are immutable once stored and shared as
 *    `shared_ptr<const ReuseEntry>`; installSlab copies the bytes
 *    into the slot (copy-on-install), so concurrent hits on one entry
 *    are safe and an eviction only drops the cache's reference —
 *    in-flight installs keep the entry alive through
 *    SlabState::backRef, and slot-recycle paths drop that reference
 *    (DittoState::resetSlab/removeSlab).
 *  - Eviction is LRU under a byte budget (DITTO_REUSE_CAP_BYTES);
 *    0 disables the cache entirely.
 *  - Invalidation on spec or calibration change is by construction:
 *    the key's model digest (src/serve/prefix_key.h) never matches
 *    across either, and clear() drops everything explicitly.
 *
 * Thread-safety: every method is safe to call concurrently; one
 * mutex guards the map/LRU, entries themselves are immutable.
 */
#ifndef DITTO_SERVE_REUSE_CACHE_H
#define DITTO_SERVE_REUSE_CACHE_H

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "runtime/compiled.h"
#include "serve/prefix_key.h"

namespace ditto {

/** Reuse-cache tuning; every field has an environment override. */
struct ReuseCacheConfig
{
    /**
     * Byte budget for resident entries (DITTO_REUSE_CAP_BYTES).
     * 0 — the default — disables inter-request reuse entirely: no
     * checkpoints are taken and no lookups run.
     */
    int64_t capBytes = 0;

    /**
     * Checkpoint cadence in steps (DITTO_REUSE_CHECKPOINT_EVERY): a
     * running slot's state is stored after steps N, 2N, ... Smaller
     * is more reusable prefix depth per hit, larger is less store
     * bandwidth and fewer resident bytes.
     */
    int checkpointEvery = 2;

    /** Defaults with the DITTO_REUSE_* environment overrides applied. */
    static ReuseCacheConfig fromEnv();

    bool enabled() const { return capBytes > 0; }
};

/** Monotonic counters + resident gauges (a snapshot when copied). */
struct ReuseCacheStats
{
    uint64_t hits = 0;       //!< lookups that returned an entry
    uint64_t misses = 0;     //!< lookups that returned nothing
    uint64_t stores = 0;     //!< entries accepted (dedup refreshes excluded)
    uint64_t evictions = 0;  //!< entries dropped by the byte budget
    uint64_t stepsSaved = 0; //!< steps skipped by installed prefixes
    uint64_t bytes = 0;      //!< resident bytes (gauge)
    uint64_t entries = 0;    //!< resident entries (gauge)

    /**
     * Bumped by every clear(). Counters survive a clear, so without
     * this a metrics consumer cannot tell a deliberately cleared cache
     * (generation advanced, counters monotonic) from a cold one in a
     * restarted worker (generation back to 0, counters reset) — and a
     * multi-worker merge that re-adds a restarted worker's counters
     * would double-count. The shard router keys its cross-worker
     * roll-up on (generation, counters) epochs (src/shard/router.cc).
     */
    uint64_t generation = 0;

    double
    hitRate() const
    {
        const uint64_t lookups = hits + misses;
        return lookups ? static_cast<double>(hits) /
                             static_cast<double>(lookups)
                       : 0.0;
    }
};

/** One immutable cached prefix. */
struct ReuseEntry
{
    PrefixKey key;
    FloatTensor image; //!< [1, C, H, W] state after key.steps steps
    CompiledModel::DittoState::SlabState state;
    bool hasState = false; //!< false: QuantDirect (no resident state)
    int64_t bytes = 0;     //!< accounted footprint of this entry
};

/** LRU + byte-budget cache of rollout prefixes. */
class ReuseCache
{
  public:
    using EntryPtr = std::shared_ptr<const ReuseEntry>;

    explicit ReuseCache(ReuseCacheConfig cfg);

    const ReuseCacheConfig &config() const { return cfg_; }

    /**
     * Store a checkpoint. The tensors are adopted; `state.backRef` is
     * cleared so entries never chain to one another. A key already
     * resident is refreshed (LRU) instead of duplicated. Eviction
     * runs immediately: least-recently-used entries are dropped until
     * the budget holds (an entry alone above the budget is dropped
     * outright — and counted — rather than pinned forever).
     */
    void store(const PrefixKey &key, FloatTensor image,
               CompiledModel::DittoState::SlabState state,
               bool has_state);

    /**
     * Deepest resident prefix of `base` with steps <= maxSteps, or
     * null. Pass the request's step count minus one so a warm slot
     * always has at least one step left to run. Counts a hit or miss
     * and refreshes the returned entry's LRU position.
     */
    EntryPtr lookup(const PrefixBase &base, int maxSteps);

    /** Account an actually-installed prefix of `steps` steps. */
    void recordInstalled(int steps);

    /** Drop every resident entry (counters survive; generation++). */
    void clear();

    ReuseCacheStats stats() const;

  private:
    using Lru = std::list<EntryPtr>; //!< most recently used at front

    /** Drop LRU-back entries until the byte budget holds. */
    void evictLocked();

    const ReuseCacheConfig cfg_;
    mutable std::mutex mu_;
    Lru lru_;
    /** base.hash() -> (steps -> LRU position). Full-equality checked. */
    std::unordered_map<uint64_t, std::map<int, Lru::iterator>> index_;
    ReuseCacheStats stats_;
};

} // namespace ditto

#endif // DITTO_SERVE_REUSE_CACHE_H
