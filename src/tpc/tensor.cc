#include "tpc/tensor.h"

#include <sys/mman.h>

#include <cstdlib>
#include <new>

#include "common/logging.h"

namespace vespera::tpc {

void *
allocateZeroed(std::size_t bytes)
{
    if (bytes >= kMappedTensorBytes) {
        void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        return p;
    }
    if (void *p = std::calloc(bytes, 1))
        return p;
    throw std::bad_alloc();
}

void
freeZeroed(void *p, std::size_t bytes) noexcept
{
    if (bytes >= kMappedTensorBytes)
        ::munmap(p, bytes);
    else
        std::free(p);
}

Tensor::Tensor(std::vector<std::int64_t> shape, DataType dt)
    : shape_(std::move(shape)), dtype_(dt)
{
    vassert(!shape_.empty() && shape_.size() <= 5,
            "tensor rank must be 1..5, got %zu", shape_.size());
    numElements_ = 1;
    strides_.resize(shape_.size());
    for (std::size_t d = 0; d < shape_.size(); d++) {
        vassert(shape_[d] > 0, "non-positive tensor dim %zu", d);
        strides_[d] = numElements_;
        numElements_ *= shape_[d];
    }
    data_.resize(static_cast<std::size_t>(numElements_));
}

std::int64_t
Tensor::flatten(const Int5 &coord) const
{
    std::int64_t flat = 0;
    for (std::size_t d = 0; d < shape_.size(); d++) {
        vassert(coord[d] >= 0 && coord[d] < shape_[d],
                "coordinate %lld out of bounds for dim %zu (size %lld)",
                static_cast<long long>(coord[d]), d,
                static_cast<long long>(shape_[d]));
        flat += coord[d] * strides_[d];
    }
    for (std::size_t d = shape_.size(); d < 5; d++) {
        vassert(coord[d] == 0, "nonzero coordinate beyond tensor rank");
    }
    return flat;
}

} // namespace vespera::tpc
