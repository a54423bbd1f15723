/**
 * @file
 * KV-cache allocators for LLM serving.
 *
 * PagedKvCache implements vLLM's block-based on-demand allocation
 * (Section 4.2): the cache is carved into fixed-size token blocks
 * handed out as sequences grow, eliminating the fragmentation that a
 * contiguous reserve-max-length allocator suffers. The contiguous
 * allocator is provided as the comparison baseline.
 */

#ifndef VESPERA_SERVE_KV_CACHE_H
#define VESPERA_SERVE_KV_CACHE_H

#include <cstdint>
#include <map>
#include <vector>

#include "common/types.h"

namespace vespera::serve {

/**
 * vLLM-style paged allocator (block granularity, on demand).
 *
 * Sequence ids index a flat per-sequence table that grows to the
 * largest id seen, so ids should be dense small integers: the engine
 * passes each request's index in its trace, not Request::id. A
 * negative id is a fatal error that names it.
 */
class PagedKvCache
{
  public:
    /**
     * @param total_blocks Blocks in the pool.
     * @param block_tokens Tokens per block.
     */
    PagedKvCache(std::int64_t total_blocks, int block_tokens);

    /** Blocks needed to hold `tokens` tokens. */
    std::int64_t blocksFor(std::int64_t tokens) const;

    /** Can a sequence currently holding `have` tokens grow to `want`? */
    bool canGrow(std::int64_t seq_id, std::int64_t want_tokens) const;

    /**
     * Reserve blocks so sequence `seq_id` holds `tokens` tokens.
     * Returns false (no change) if the pool lacks blocks.
     */
    bool grow(std::int64_t seq_id, std::int64_t tokens);

    /** Release all blocks of a finished sequence. */
    void release(std::int64_t seq_id);

    std::int64_t freeBlocks() const { return freeBlocks_; }
    std::int64_t totalBlocks() const { return totalBlocks_; }
    int blockTokens() const { return blockTokens_; }
    /** Sequences currently holding at least one block. */
    std::int64_t activeSequences() const { return active_; }

  private:
    /** Blocks `seq_id` holds (0 past the table's end). */
    std::int64_t held(std::int64_t seq_id) const;

    std::int64_t totalBlocks_;
    int blockTokens_;
    std::int64_t freeBlocks_;
    std::int64_t active_ = 0;
    /// Blocks held, indexed by sequence id (0: none).
    std::vector<std::int64_t> held_;
};

/**
 * Baseline contiguous allocator: every admitted sequence reserves
 * max-length tokens up front (the fragmentation-prone strategy
 * PagedAttention replaces).
 */
class ContiguousKvCache
{
  public:
    ContiguousKvCache(std::int64_t total_tokens,
                      std::int64_t max_seq_tokens);

    bool admit(std::int64_t seq_id);
    void release(std::int64_t seq_id);
    std::int64_t freeTokens() const { return freeTokens_; }
    /** Max concurrently admitted sequences. */
    std::int64_t capacitySequences() const;

  private:
    std::int64_t totalTokens_;
    std::int64_t maxSeqTokens_;
    std::int64_t freeTokens_;
    std::map<std::int64_t, std::int64_t> held_;
};

/** KV bytes per token for a model shard (all layers, K and V). */
Bytes kvBytesPerToken(int layers, int kv_heads, int head_dim,
                      DataType dt);

} // namespace vespera::serve

#endif // VESPERA_SERVE_KV_CACHE_H
