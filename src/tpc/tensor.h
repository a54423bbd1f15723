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
 * Storage comes zeroed from calloc, whose cost depends on glibc's
 * dynamic mmap threshold (raised, up to 32 MiB, to the size of each
 * mmap'd chunk freed):
 *  - At or above the threshold a tensor gets fresh anonymous pages, so
 *    untouched elements cost nothing, but free() unmaps them and every
 *    launch faults its touched pages in again.
 *  - Below it calloc recycles a heap chunk and zeroes all of it: a
 *    20 MiB chunk takes about 1.4-2.3 ms on a 4-vCPU x86 host, so a
 *    STREAM job's three tensors pay several ms whatever they touch.
 */

#ifndef VESPERA_TPC_TENSOR_H
#define VESPERA_TPC_TENSOR_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/types.h"

namespace vespera::tpc {

/** Up-to-5-dimensional coordinate, matching TPC-C's int5. */
using Int5 = std::array<std::int64_t, 5>;

/**
 * Allocator handing out calloc-zeroed storage. Value-initialisation
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
        if (void *p = std::calloc(n, sizeof(T)))
            return static_cast<T *>(p);
        throw std::bad_alloc();
    }

    void deallocate(T *p, std::size_t) noexcept { std::free(p); }

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

    /**
     * Fill each dim-0 row (dim(0) contiguous elements) with one value
     * from a callable f(row) -> float, where row = flat / dim(0).
     */
    template <typename F>
    void
    fillRows(F &&f)
    {
        const auto row_len = static_cast<std::size_t>(shape_[0]);
        float *p = data_.data();
        for (std::int64_t r = 0; r < numElements_ / shape_[0]; r++) {
            const float v = f(r);
            std::fill(p, p + row_len, v);
            p += row_len;
        }
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
