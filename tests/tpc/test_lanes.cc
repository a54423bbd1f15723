#include <algorithm>
#include <cstddef>
#include <utility>

#include <gtest/gtest.h>

#include "tpc/lanes.h"

namespace vespera::tpc {
namespace {

/// Lane i of a pattern buffer holds base + i.
LaneBuffer
pattern(std::size_t n, float base)
{
    LaneBuffer b;
    b.resize(n);
    for (std::size_t i = 0; i < n; i++)
        b[i] = base + static_cast<float>(i);
    return b;
}

void
expectPattern(const LaneBuffer &b, std::size_t n, float base)
{
    ASSERT_EQ(b.size(), n);
    for (std::size_t i = 0; i < n; i++)
        EXPECT_EQ(b[i], base + static_cast<float>(i)) << "lane " << i;
}

/// Buffer sizes straddling the inline capacity.
constexpr std::size_t kSizes[] = {LaneBuffer::kInlineLanes - 1,
                                  LaneBuffer::kInlineLanes,
                                  LaneBuffer::kInlineLanes + 1};

bool
fitsInline(std::size_t n)
{
    return n <= LaneBuffer::kInlineLanes;
}

TEST(LaneBuffer, StorageSwitchesToHeapPastSixteenLanes)
{
    EXPECT_EQ(LaneBuffer::kInlineLanes, 16u);
    for (const std::size_t n : kSizes) {
        const LaneBuffer b = pattern(n, 1.0f);
        EXPECT_EQ(b.isInline(), fitsInline(n)) << n;
        expectPattern(b, n, 1.0f);
    }
}

TEST(LaneBuffer, CopyKeepsSourceAndStorageFollowsSize)
{
    for (const std::size_t n : kSizes) {
        SCOPED_TRACE(n);
        const LaneBuffer src = pattern(n, 3.0f);
        LaneBuffer copy(src);
        expectPattern(copy, n, 3.0f);
        expectPattern(src, n, 3.0f);
        EXPECT_EQ(copy.isInline(), fitsInline(n));
        EXPECT_NE(copy.data(), src.data());

        // Copy-assign over every size of destination: inline <-> heap.
        for (const std::size_t m : kSizes) {
            LaneBuffer dst = pattern(m, 100.0f);
            dst = src;
            expectPattern(dst, n, 3.0f);
            expectPattern(src, n, 3.0f);
        }
    }
}

TEST(LaneBuffer, MoveStealsHeapAndCopiesInline)
{
    for (const std::size_t n : kSizes) {
        SCOPED_TRACE(n);
        LaneBuffer src = pattern(n, 5.0f);
        const float *heap = src.data();
        LaneBuffer moved(std::move(src));
        expectPattern(moved, n, 5.0f);
        // Wide vectors move by pointer; narrow ones are copied.
        EXPECT_EQ(moved.data() == heap, !fitsInline(n));
        EXPECT_EQ(moved.isInline(), fitsInline(n));
        EXPECT_TRUE(src.empty());
        EXPECT_TRUE(src.isInline());

        // Move-assign over every size of destination: inline <-> heap.
        for (const std::size_t m : kSizes) {
            LaneBuffer from = pattern(n, 7.0f);
            LaneBuffer dst = pattern(m, 100.0f);
            dst = std::move(from);
            expectPattern(dst, n, 7.0f);
            EXPECT_EQ(dst.isInline(), fitsInline(n));
            EXPECT_TRUE(from.empty());
            // The moved-from buffer is reusable.
            from = {1.0f, 2.0f};
            expectPattern(from, 2, 1.0f);
        }
    }
}

TEST(LaneBuffer, ResizeKeepsLanesAndFillsNewOnes)
{
    for (const std::size_t n : kSizes) {
        for (const std::size_t m : kSizes) {
            SCOPED_TRACE(testing::Message() << n << " -> " << m);
            LaneBuffer b = pattern(n, 9.0f);
            b.resize(m, -1.0f);
            ASSERT_EQ(b.size(), m);
            for (std::size_t i = 0; i < m; i++)
                EXPECT_EQ(b[i], i < n ? 9.0f + static_cast<float>(i)
                                      : -1.0f);
            // Shrinking keeps the storage it has; growing past the
            // inline lanes moves to the heap.
            EXPECT_EQ(b.isInline(), fitsInline(std::max(n, m)));
        }
    }
    LaneBuffer zeros;
    zeros.resize(LaneBuffer::kInlineLanes + 1);
    for (const float lane : zeros)
        EXPECT_EQ(lane, 0.0f);
}

TEST(LaneBuffer, AssignReplacesLanes)
{
    for (const std::size_t n : kSizes) {
        for (const std::size_t m : kSizes) {
            SCOPED_TRACE(testing::Message() << n << " -> " << m);
            LaneBuffer b = pattern(n, 2.0f);
            b.assign(m, 4.5f);
            ASSERT_EQ(b.size(), m);
            for (const float lane : b)
                EXPECT_EQ(lane, 4.5f);

            const LaneBuffer src = pattern(m, 8.0f);
            LaneBuffer c = pattern(n, 2.0f);
            c.reserve(m);
            c.assign(src.begin(), src.end());
            expectPattern(c, m, 8.0f);
            EXPECT_EQ(c.isInline(), fitsInline(std::max(n, m)));
        }
    }
    LaneBuffer one = pattern(LaneBuffer::kInlineLanes + 1, 0.0f);
    one = {42.0f};
    expectPattern(one, 1, 42.0f);
}

} // namespace
} // namespace vespera::tpc
