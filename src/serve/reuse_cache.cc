/**
 * @file
 * LRU + byte-budget cache of rollout prefixes (see reuse_cache.h).
 */
#include "serve/reuse_cache.h"

#include <utility>

#include "common/env.h"

namespace ditto {

namespace {

int64_t
entryBytes(const ReuseEntry &e)
{
    // Accounted footprint: tensor payloads plus a fixed per-entry
    // overhead for the key/containers, so byte budgets behave sanely
    // even for degenerate tiny states. The state's share is the same
    // number the shard codec accounts (SlabState::payloadBytes), so
    // budgets mean the same thing for resident and relocated slabs.
    int64_t b = 256;
    b += e.image.numel() * static_cast<int64_t>(sizeof(float));
    b += e.state.payloadBytes();
    return b;
}

} // namespace

ReuseCacheConfig
ReuseCacheConfig::fromEnv()
{
    ReuseCacheConfig cfg;
    cfg.capBytes = env::readInt64("DITTO_REUSE_CAP_BYTES", cfg.capBytes,
                                  0, INT64_MAX);
    cfg.checkpointEvery = static_cast<int>(
        env::readInt64("DITTO_REUSE_CHECKPOINT_EVERY",
                       cfg.checkpointEvery, 1, 1 << 20));
    return cfg;
}

ReuseCache::ReuseCache(ReuseCacheConfig cfg) : cfg_(cfg) {}

void
ReuseCache::store(const PrefixKey &key, FloatTensor image,
                  CompiledModel::DittoState::SlabState state,
                  bool has_state)
{
    if (!cfg_.enabled() || key.steps <= 0)
        return;
    // Entries must never chain: the cached state is a root owner, not
    // a borrower of the entry it was itself warmed from.
    state.backRef.reset();

    auto entry = std::make_shared<ReuseEntry>();
    entry->key = key;
    entry->image = std::move(image);
    entry->state = std::move(state);
    entry->hasState = has_state;
    entry->bytes = entryBytes(*entry);

    std::lock_guard<std::mutex> lk(mu_);
    auto &depths = index_[key.base.hash()];
    auto it = depths.find(key.steps);
    if (it != depths.end() && (*it->second)->key == key) {
        // Same prefix already resident: refresh its LRU position
        // rather than storing a duplicate copy.
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    lru_.push_front(std::move(entry));
    depths[key.steps] = lru_.begin();
    stats_.bytes += static_cast<uint64_t>(lru_.front()->bytes);
    stats_.entries++;
    stats_.stores++;
    evictLocked();
}

ReuseCache::EntryPtr
ReuseCache::lookup(const PrefixBase &base, int maxSteps)
{
    if (!cfg_.enabled())
        return nullptr;
    std::lock_guard<std::mutex> lk(mu_);
    auto bucket = index_.find(base.hash());
    if (bucket != index_.end() && maxSteps > 0) {
        auto &depths = bucket->second;
        auto it = depths.upper_bound(maxSteps);
        // Deepest resident prefix first; full equality confirmed so a
        // 64-bit hash collision costs a miss, never a wrong prefix.
        while (it != depths.begin()) {
            --it;
            const EntryPtr &e = *it->second;
            if (e->key.base == base) {
                lru_.splice(lru_.begin(), lru_, it->second);
                stats_.hits++;
                return e;
            }
        }
    }
    stats_.misses++;
    return nullptr;
}

void
ReuseCache::recordInstalled(int steps)
{
    if (steps <= 0)
        return;
    std::lock_guard<std::mutex> lk(mu_);
    stats_.stepsSaved += static_cast<uint64_t>(steps);
}

void
ReuseCache::clear()
{
    std::lock_guard<std::mutex> lk(mu_);
    lru_.clear();
    index_.clear();
    stats_.bytes = 0;
    stats_.entries = 0;
    ++stats_.generation;
}

ReuseCacheStats
ReuseCache::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
}

void
ReuseCache::evictLocked()
{
    while (stats_.bytes > static_cast<uint64_t>(cfg_.capBytes) &&
           !lru_.empty()) {
        const EntryPtr &victim = lru_.back();
        auto bucket = index_.find(victim->key.base.hash());
        if (bucket != index_.end()) {
            bucket->second.erase(victim->key.steps);
            if (bucket->second.empty())
                index_.erase(bucket);
        }
        stats_.bytes -= static_cast<uint64_t>(victim->bytes);
        stats_.entries--;
        stats_.evictions++;
        lru_.pop_back();
    }
}

} // namespace ditto
