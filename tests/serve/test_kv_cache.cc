#include <gtest/gtest.h>

#include "serve/kv_cache.h"

namespace vespera::serve {
namespace {

TEST(PagedKvCache, BlocksForRoundsUp)
{
    PagedKvCache kv(100, 128);
    EXPECT_EQ(kv.blocksFor(1), 1);
    EXPECT_EQ(kv.blocksFor(128), 1);
    EXPECT_EQ(kv.blocksFor(129), 2);
    EXPECT_EQ(kv.blocksFor(0), 0);
}

TEST(PagedKvCache, GrowAndRelease)
{
    PagedKvCache kv(10, 128);
    EXPECT_TRUE(kv.grow(1, 300)); // 3 blocks.
    EXPECT_EQ(kv.freeBlocks(), 7);
    EXPECT_TRUE(kv.grow(1, 400)); // 4 blocks total (+1).
    EXPECT_EQ(kv.freeBlocks(), 6);
    kv.release(1);
    EXPECT_EQ(kv.freeBlocks(), 10);
    EXPECT_EQ(kv.activeSequences(), 0);
}

TEST(PagedKvCache, GrowIsIncrementalNotDouble)
{
    PagedKvCache kv(4, 128);
    EXPECT_TRUE(kv.grow(1, 128));
    EXPECT_TRUE(kv.grow(1, 129)); // Needs only 1 more block.
    EXPECT_EQ(kv.freeBlocks(), 2);
}

TEST(PagedKvCache, RefusesWhenExhausted)
{
    PagedKvCache kv(2, 128);
    EXPECT_TRUE(kv.grow(1, 256));
    EXPECT_FALSE(kv.grow(2, 128));
    EXPECT_FALSE(kv.canGrow(2, 128));
    kv.release(1);
    EXPECT_TRUE(kv.canGrow(2, 128));
}

TEST(PagedKvCache, GrowFailureLeavesStateUnchanged)
{
    PagedKvCache kv(3, 128);
    EXPECT_TRUE(kv.grow(1, 128));
    EXPECT_FALSE(kv.grow(1, 128 * 4));
    EXPECT_EQ(kv.freeBlocks(), 2); // Unchanged by the failed grow.
    EXPECT_TRUE(kv.grow(1, 128 * 3));
}

// Sequence ids index a flat table: sparse ids leave holes that hold
// nothing, and each sequence keeps its own count.
TEST(PagedKvCache, SparseIdsHoldIndependently)
{
    PagedKvCache kv(10, 128);
    EXPECT_TRUE(kv.grow(0, 128));
    EXPECT_TRUE(kv.grow(7, 256));
    EXPECT_TRUE(kv.grow(1000, 384));
    EXPECT_EQ(kv.freeBlocks(), 4);
    EXPECT_EQ(kv.activeSequences(), 3);
    // Ids inside the table's holes and past its end hold nothing.
    EXPECT_TRUE(kv.canGrow(3, 128 * 4));
    EXPECT_FALSE(kv.canGrow(3, 128 * 5));
    EXPECT_TRUE(kv.canGrow(5000, 128 * 4));
    // Growth is incremental per sequence: id 7 already holds 2.
    EXPECT_TRUE(kv.canGrow(7, 128 * 6));
    EXPECT_FALSE(kv.canGrow(7, 128 * 7));
    kv.release(7);
    EXPECT_EQ(kv.freeBlocks(), 6);
    EXPECT_EQ(kv.activeSequences(), 2);
    kv.release(1000);
    kv.release(0);
    EXPECT_EQ(kv.freeBlocks(), 10);
    EXPECT_EQ(kv.activeSequences(), 0);
}

TEST(PagedKvCache, ReleaseThenRegrowStartsFromZero)
{
    PagedKvCache kv(8, 128);
    EXPECT_TRUE(kv.grow(2, 128 * 3));
    kv.release(2);
    EXPECT_EQ(kv.freeBlocks(), 8);
    EXPECT_EQ(kv.activeSequences(), 0);
    // A regrown sequence holds what it now asks for, not the sum.
    EXPECT_TRUE(kv.grow(2, 128));
    EXPECT_EQ(kv.freeBlocks(), 7);
    EXPECT_EQ(kv.activeSequences(), 1);
    EXPECT_TRUE(kv.grow(2, 128 * 2));
    EXPECT_EQ(kv.freeBlocks(), 6);
    EXPECT_EQ(kv.activeSequences(), 1);
}

TEST(PagedKvCache, ReleaseOfUngrownIdIsANoOp)
{
    PagedKvCache kv(4, 128);
    kv.release(0);   // Empty table.
    EXPECT_TRUE(kv.grow(1, 128));
    kv.release(0);   // Inside the table, never grown.
    kv.release(999); // Past the table's end.
    EXPECT_EQ(kv.freeBlocks(), 3);
    EXPECT_EQ(kv.activeSequences(), 1);
    kv.release(1);
    kv.release(1); // Released twice: the second is a no-op.
    EXPECT_EQ(kv.freeBlocks(), 4);
    EXPECT_EQ(kv.activeSequences(), 0);
}

// A grow that adds no block (zero tokens, or a sequence that already
// fits) does not make a sequence active.
TEST(PagedKvCache, ActiveSequencesCountsHolders)
{
    PagedKvCache kv(4, 128);
    EXPECT_TRUE(kv.grow(0, 0));
    EXPECT_EQ(kv.activeSequences(), 0);
    EXPECT_TRUE(kv.grow(0, 1));
    EXPECT_TRUE(kv.grow(0, 128));
    EXPECT_EQ(kv.activeSequences(), 1);
    EXPECT_FALSE(kv.grow(1, 128 * 4)); // Failed grows change nothing.
    EXPECT_EQ(kv.activeSequences(), 1);
    EXPECT_TRUE(kv.grow(1, 128 * 3));
    EXPECT_EQ(kv.activeSequences(), 2);
}

TEST(PagedKvCacheDeath, NegativeIdIsNamed)
{
    PagedKvCache kv(4, 128);
    EXPECT_DEATH(kv.grow(-3, 128), "KV sequence id -3 is negative");
    EXPECT_DEATH((void)kv.canGrow(-1, 128),
                 "KV sequence id -1 is negative");
    EXPECT_DEATH(kv.release(-42), "KV sequence id -42 is negative");
}

TEST(ContiguousKvCache, ReservesMaxLength)
{
    ContiguousKvCache kv(10000, 2048);
    EXPECT_EQ(kv.capacitySequences(), 4);
    EXPECT_TRUE(kv.admit(1));
    EXPECT_TRUE(kv.admit(2));
    EXPECT_TRUE(kv.admit(3));
    EXPECT_TRUE(kv.admit(4));
    EXPECT_FALSE(kv.admit(5)); // Fragmented away.
    kv.release(2);
    EXPECT_TRUE(kv.admit(5));
}

// The PagedAttention motivation: paging admits far more concurrent
// short sequences than max-length reservation.
TEST(KvCache, PagingBeatsContiguousForShortSequences)
{
    const std::int64_t pool_tokens = 1 << 16;
    const std::int64_t max_len = 4096;
    const std::int64_t actual_len = 512;

    ContiguousKvCache contiguous(pool_tokens, max_len);
    PagedKvCache paged(pool_tokens / 128, 128);

    int contiguous_admitted = 0, paged_admitted = 0;
    for (int i = 0; i < 1000; i++) {
        if (contiguous.admit(i))
            contiguous_admitted++;
        if (paged.grow(i, actual_len))
            paged_admitted++;
    }
    EXPECT_EQ(contiguous_admitted, 16);
    EXPECT_EQ(paged_admitted, 128);
}

TEST(KvCache, BytesPerToken)
{
    // Llama-8B BF16: 32 layers x 2 x 8 heads x 128 dim x 2 B = 131072.
    EXPECT_EQ(kvBytesPerToken(32, 8, 128, DataType::BF16), 131072u);
}

} // namespace
} // namespace vespera::serve
