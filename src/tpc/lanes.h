/**
 * @file
 * Lane storage of a TPC vector value.
 *
 * Every intrinsic returns a fresh Vec, so lane storage is allocated
 * once per recorded instruction. Narrow vectors (a 16 B STREAM access,
 * the port lowering's 1-lane shatter values) fit in the buffer itself
 * and never touch the heap; wider ones live on the heap and move by
 * pointer, so moving a 512-lane vector copies no lanes.
 */

#ifndef VESPERA_TPC_LANES_H
#define VESPERA_TPC_LANES_H

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <initializer_list>

namespace vespera::tpc {

/** float lanes: up to kInlineLanes inline, on the heap beyond that. */
class LaneBuffer
{
  public:
    static constexpr std::size_t kInlineLanes = 16;

    LaneBuffer() = default;
    LaneBuffer(const LaneBuffer &other) { assign(other.begin(), other.end()); }
    LaneBuffer(LaneBuffer &&other) noexcept { take(other); }
    ~LaneBuffer() { freeHeap(); }

    LaneBuffer &
    operator=(const LaneBuffer &other)
    {
        if (this != &other)
            assign(other.begin(), other.end());
        return *this;
    }

    LaneBuffer &
    operator=(LaneBuffer &&other) noexcept
    {
        if (this != &other) {
            freeHeap();
            take(other);
        }
        return *this;
    }

    LaneBuffer &
    operator=(std::initializer_list<float> lanes)
    {
        assign(lanes.begin(), lanes.end());
        return *this;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /** Whether the lanes live in the buffer itself. */
    bool isInline() const { return data_ == inline_; }

    float *data() { return data_; }
    const float *data() const { return data_; }
    float &operator[](std::size_t i) { return data_[i]; }
    const float &operator[](std::size_t i) const { return data_[i]; }
    float *begin() { return data_; }
    float *end() { return data_ + size_; }
    const float *begin() const { return data_; }
    const float *end() const { return data_ + size_; }

    /** Make room for `n` lanes, keeping the current ones. */
    void
    reserve(std::size_t n)
    {
        if (n > capacity_)
            grow(n, true);
    }

    /** Resize to `n` lanes; new lanes hold `value`. */
    void
    resize(std::size_t n, float value = 0.0f)
    {
        reserve(n);
        if (n > size_)
            std::fill(data_ + size_, data_ + n, value);
        size_ = n;
    }

    /** Replace the lanes with `n` copies of `value`. */
    void
    assign(std::size_t n, float value)
    {
        if (n > capacity_)
            grow(n, false);
        std::fill(data_, data_ + n, value);
        size_ = n;
    }

    /** Replace the lanes with [first, last), which must not alias them. */
    void
    assign(const float *first, const float *last)
    {
        const auto n = static_cast<std::size_t>(last - first);
        if (n > capacity_)
            grow(n, false);
        if (n > 0)
            std::memcpy(data_, first, n * sizeof(float));
        size_ = n;
    }

  private:
    /** Move to a heap block of exactly `n` lanes. */
    void
    grow(std::size_t n, bool keep)
    {
        float *heap = new float[n];
        if (keep && size_ > 0)
            std::memcpy(heap, data_, size_ * sizeof(float));
        freeHeap();
        data_ = heap;
        capacity_ = n;
    }

    void
    freeHeap()
    {
        if (!isInline())
            delete[] data_;
    }

    /** Take `other`'s lanes (its heap block, or a copy of its inline
     *  lanes) and leave it empty and inline. */
    void
    take(LaneBuffer &other) noexcept
    {
        if (other.isInline()) {
            data_ = inline_;
            capacity_ = kInlineLanes;
            std::memcpy(inline_, other.inline_, other.size_ * sizeof(float));
        } else {
            data_ = other.data_;
            capacity_ = other.capacity_;
            other.data_ = other.inline_;
            other.capacity_ = kInlineLanes;
        }
        size_ = other.size_;
        other.size_ = 0;
    }

    float *data_ = inline_;
    std::size_t size_ = 0;
    std::size_t capacity_ = kInlineLanes;
    float inline_[kInlineLanes] = {};
};

} // namespace vespera::tpc

#endif // VESPERA_TPC_LANES_H
