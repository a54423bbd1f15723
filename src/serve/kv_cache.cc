#include "serve/kv_cache.h"

#include "common/logging.h"
#include "obs/counters.h"

namespace vespera::serve {

PagedKvCache::PagedKvCache(std::int64_t total_blocks, int block_tokens)
    : totalBlocks_(total_blocks), blockTokens_(block_tokens),
      freeBlocks_(total_blocks)
{
    vassert(total_blocks > 0 && block_tokens > 0, "bad KV pool");
}

std::int64_t
PagedKvCache::blocksFor(std::int64_t tokens) const
{
    return (tokens + blockTokens_ - 1) / blockTokens_;
}

std::int64_t
PagedKvCache::held(std::int64_t seq_id) const
{
    vassert(seq_id >= 0, "KV sequence id %lld is negative",
            static_cast<long long>(seq_id));
    const auto i = static_cast<std::size_t>(seq_id);
    return i < held_.size() ? held_[i] : 0;
}

bool
PagedKvCache::canGrow(std::int64_t seq_id, std::int64_t want_tokens) const
{
    const std::int64_t need = blocksFor(want_tokens) - held(seq_id);
    return need <= freeBlocks_;
}

bool
PagedKvCache::grow(std::int64_t seq_id, std::int64_t tokens)
{
    // One indexed load; the common decode-step case (the sequence
    // still fits its blocks) returns before touching the counter
    // registry.
    const std::int64_t have = held(seq_id);
    const std::int64_t want = blocksFor(tokens);
    const std::int64_t need = want - have;
    if (need <= 0)
        return true;
    auto &registry = obs::CounterRegistry::instance();
    if (need > freeBlocks_) {
        static obs::Counter &failures =
            registry.counter("kv.grow_failures");
        failures.add();
        return false;
    }
    freeBlocks_ -= need;
    const auto i = static_cast<std::size_t>(seq_id);
    if (i >= held_.size())
        held_.resize(i + 1, 0);
    if (have == 0)
        active_++;
    held_[i] = want;
    static obs::Counter &grown = registry.counter("kv.blocks_allocated");
    static obs::Counter &high = registry.counter("kv.blocks_high_water");
    grown.add(static_cast<double>(need));
    // Gauge: peak() is the pool-wide high-water mark.
    high.set(static_cast<double>(totalBlocks_ - freeBlocks_));
    return true;
}

void
PagedKvCache::release(std::int64_t seq_id)
{
    const std::int64_t have = held(seq_id);
    if (have == 0)
        return;
    freeBlocks_ += have;
    held_[static_cast<std::size_t>(seq_id)] = 0;
    active_--;
    vassert(freeBlocks_ <= totalBlocks_, "double release");
}

ContiguousKvCache::ContiguousKvCache(std::int64_t total_tokens,
                                     std::int64_t max_seq_tokens)
    : totalTokens_(total_tokens), maxSeqTokens_(max_seq_tokens),
      freeTokens_(total_tokens)
{
    vassert(total_tokens > 0 && max_seq_tokens > 0, "bad KV pool");
}

bool
ContiguousKvCache::admit(std::int64_t seq_id)
{
    if (maxSeqTokens_ > freeTokens_)
        return false;
    vassert(!held_.count(seq_id), "sequence admitted twice");
    freeTokens_ -= maxSeqTokens_;
    held_[seq_id] = maxSeqTokens_;
    return true;
}

void
ContiguousKvCache::release(std::int64_t seq_id)
{
    auto it = held_.find(seq_id);
    if (it == held_.end())
        return;
    freeTokens_ += it->second;
    held_.erase(it);
    vassert(freeTokens_ <= totalTokens_, "double release");
}

std::int64_t
ContiguousKvCache::capacitySequences() const
{
    return totalTokens_ / maxSeqTokens_;
}

Bytes
kvBytesPerToken(int layers, int kv_heads, int head_dim, DataType dt)
{
    return static_cast<Bytes>(layers) * 2 * kv_heads * head_dim *
           dtypeSize(dt);
}

} // namespace vespera::serve
