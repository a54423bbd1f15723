/**
 * @file
 * Simulated global-memory tensor for TPC-C kernel execution.
 *
 * Tensors live in simulated device global memory (HBM or on-chip shared
 * memory) and are accessed by TPC programs through the load/store
 * intrinsics in tpc::TpcContext. Storage is FP32 regardless of the
 * declared data type; the declared type drives sizing and timing only
 * (BF16 numerics are irrelevant to the paper's performance analysis).
 *
 * Dimension 0 is the fastest-varying (contiguous) dimension, matching
 * the TPC-C convention where the "depth" dimension determines memory
 * access granularity (Figure 3 of the paper).
 *
 * Storage comes zeroed, and its cost follows what is touched:
 *  - A tensor of at least kMappedTensorBytes (4 MiB) gets a private
 *    anonymous mapping of its own, unmapped at free. Its pages are
 *    zero until first touched, so a launch that simulates a few slices
 *    of a large tensor faults in those slices' pages and nothing else.
 *  - A smaller tensor comes from calloc, which may recycle a heap
 *    chunk and zero all of it. Small tensors are mostly touched in
 *    full, where fresh pages cost more: with a 1 MiB cutoff, perfbench
 *    `lint` ran 3% slower in 6 of 6 run pairs on a 4-vCPU x86 host.
 * ASan does not track the mapped storage (it is not heap memory), but
 * at() and range() still bound every element access to the tensor.
 */

#ifndef VESPERA_TPC_TENSOR_H
#define VESPERA_TPC_TENSOR_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/types.h"

namespace vespera::tpc {

/** Up-to-5-dimensional coordinate, matching TPC-C's int5. */
using Int5 = std::array<std::int64_t, 5>;

/** Storage at or above this size is mapped, not taken from the heap. */
inline constexpr std::size_t kMappedTensorBytes = std::size_t{4} << 20;

/** Zeroed storage of `bytes`: mapped at or above kMappedTensorBytes,
 *  calloc'd below. Throws std::bad_alloc when none is left. */
void *allocateZeroed(std::size_t bytes);

/** Release storage from allocateZeroed(`bytes`). */
void freeZeroed(void *p, std::size_t bytes) noexcept;

/**
 * Allocator handing out allocateZeroed storage. Value-initialisation
 * (the element constructor called without arguments) is a no-op, since
 * the memory is already zero; copies construct normally. That holds
 * only for storage fresh from allocate(), so a vector using it must
 * not shrink and then regrow in place (Tensor sizes it once).
 */
template <typename T>
struct ZeroedAllocator
{
    using value_type = T;

    ZeroedAllocator() = default;
    template <typename U>
    ZeroedAllocator(const ZeroedAllocator<U> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(allocateZeroed(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        freeZeroed(p, n * sizeof(T));
    }

    template <typename U>
    void
    construct(U *) noexcept
    {
    }

    template <typename U, typename... Args>
    void
    construct(U *p, Args &&...args)
    {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }

    template <typename U>
    bool
    operator==(const ZeroedAllocator<U> &) const noexcept
    {
        return true;
    }
};

/** A tensor resident in simulated device global memory. */
class Tensor
{
  public:
    /** Construct a zero-filled tensor. Trailing dims default to 1. */
    Tensor(std::vector<std::int64_t> shape, DataType dt);

    std::int64_t dim(int d) const { return shape_.at(d); }
    int rank() const { return static_cast<int>(shape_.size()); }
    std::int64_t numElements() const { return numElements_; }
    DataType dtype() const { return dtype_; }
    Bytes bytes() const { return numElements_ * dtypeSize(dtype_); }

    /** Flatten a coordinate (dim 0 fastest) to an element offset. */
    std::int64_t flatten(const Int5 &coord) const;

    /** Element access by flat offset, bounds-checked. */
    float &
    at(std::int64_t flat)
    {
        checkIndex(flat);
        return data_[static_cast<std::size_t>(flat)];
    }

    float
    at(std::int64_t flat) const
    {
        checkIndex(flat);
        return data_[static_cast<std::size_t>(flat)];
    }

    /**
     * Elements [flat, flat + count) as one contiguous run, bounds-checked
     * once for the whole run (the bulk form of at()).
     */
    float *
    range(std::int64_t flat, std::int64_t count)
    {
        checkRange(flat, count);
        return data_.data() + flat;
    }

    const float *
    range(std::int64_t flat, std::int64_t count) const
    {
        checkRange(flat, count);
        return data_.data() + flat;
    }

    /** Element access by coordinate. */
    float &at(const Int5 &coord) { return at(flatten(coord)); }
    float at(const Int5 &coord) const { return at(flatten(coord)); }

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    /** Fill with values from a callable f(flat_index) -> float. */
    template <typename F>
    void
    fill(F &&f)
    {
        for (std::int64_t i = 0; i < numElements_; i++)
            data_[static_cast<std::size_t>(i)] = f(i);
    }

  private:
    void
    checkIndex(std::int64_t flat) const
    {
        vassert(flat >= 0 && flat < numElements_,
                "flat index %lld out of bounds (%lld elements)",
                static_cast<long long>(flat),
                static_cast<long long>(numElements_));
    }

    void
    checkRange(std::int64_t flat, std::int64_t count) const
    {
        vassert(flat >= 0 && count >= 0 && count <= numElements_ - flat,
                "flat range [%lld, %lld) out of bounds (%lld elements)",
                static_cast<long long>(flat),
                static_cast<long long>(flat + count),
                static_cast<long long>(numElements_));
    }

    std::vector<std::int64_t> shape_;
    std::vector<std::int64_t> strides_; ///< In elements; stride[0] == 1.
    std::int64_t numElements_;
    DataType dtype_;
    std::vector<float, ZeroedAllocator<float>> data_;
};

} // namespace vespera::tpc

#endif // VESPERA_TPC_TENSOR_H
