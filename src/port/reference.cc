#include "port/reference.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace vespera::port {

namespace {

/** Interpreter state, reused block after block. */
struct BlockState
{
    const CudaKernelDesc &desc;
    std::vector<std::vector<float>> &buffers;
    std::vector<float> shared;
    /// regs[thread * numRegs + r]
    std::vector<float> regs;
    /// Thread 0's address context; the walkers step it to each tid.
    LaneCtx first;

    /// Start `block`: zero shared memory and registers, and point
    /// thread 0's context at the block with trip index 0.
    void
    enter(std::int64_t block)
    {
        shared.assign(static_cast<std::size_t>(desc.sharedElems), 0.0f);
        regs.assign(static_cast<std::size_t>(desc.blockThreads *
                                             desc.numRegs),
                    0.0f);
        first.block = block;
        first.blockX = block % desc.gridX;
        first.blockY = block / desc.gridX;
        first.globalTid = block * desc.blockThreads;
        first.iter = 0;
    }

    float *
    regsOf(std::int64_t tid)
    {
        return regs.data() + tid * desc.numRegs;
    }
};

/**
 * Run `f(regs, addr)` for every thread whose predicate holds, in
 * ascending tid: the single sweep one op takes over the block. `addr`
 * walks the op's address along the threads.
 */
template <typename F>
void
forActive(BlockState &st, const CudaInstr &i, F &&f)
{
    const std::int64_t threads = st.desc.blockThreads;
    AddrWalk addr(i.addr, st.first);
    if (!i.pred.active) {
        for (std::int64_t t = 0; t < threads; t++, addr.next())
            f(st.regsOf(t), addr);
        return;
    }
    const Pred &p = i.pred;
    if (p.onRegs) {
        for (std::int64_t t = 0; t < threads; t++, addr.next()) {
            float *r = st.regsOf(t);
            if (evalCmp(p.op, r[p.lhsReg], r[p.rhsReg]))
                f(r, addr);
        }
        return;
    }
    AddrWalk lhs(p.lhs, st.first), rhs(p.rhs, st.first);
    for (std::int64_t t = 0; t < threads;
         t++, addr.next(), lhs.next(), rhs.next()) {
        float *r = st.regsOf(t);
        if (evalCmp(p.op, static_cast<double>(lhs.at(r)),
                    static_cast<double>(rhs.at(r))))
            f(r, addr);
    }
}

/** reg[dst] = f(regs) for every active thread. */
template <typename F>
void
aluOp(BlockState &st, const CudaInstr &i, F &&f)
{
    forActive(st, i,
              [&](float *r, const AddrWalk &) { r[i.dst] = f(r); });
}

/**
 * Execute one op for all threads of the block, in one ascending-tid
 * sweep. That equals per-op lockstep because no thread reads, within
 * one op, what another thread writes in it: loads and ALU ops write
 * only the thread's own registers, stores read only them, and
 * same-address stores and shared atomics land in ascending tid order,
 * as a write phase run in ascending tid would leave them. Warp
 * reductions read the whole warp, so they keep a gather pass before
 * the broadcast.
 */
void
stepInstr(BlockState &st, const CudaInstr &i)
{
    switch (i.op) {
      case CudaOp::Sync:
        return; // Lockstep interpretation is already barrier-strong.
      case CudaOp::WarpReduceSum:
      case CudaOp::WarpReduceMax: {
        // Warp-wide reduction over all lanes of each (possibly
        // partial) warp; every lane receives the result.
        const std::int64_t threads = st.desc.blockThreads;
        for (std::int64_t wbase = 0; wbase < threads;
             wbase += warpSize) {
            const std::int64_t wend =
                std::min<std::int64_t>(wbase + warpSize, threads);
            double sum = 0;
            float mx = st.regsOf(wbase)[i.src0];
            for (std::int64_t t = wbase; t < wend; t++) {
                const float v = st.regsOf(t)[i.src0];
                sum += v;
                mx = std::max(mx, v);
            }
            const float r = i.op == CudaOp::WarpReduceSum
                                ? static_cast<float>(sum)
                                : mx;
            for (std::int64_t t = wbase; t < wend; t++)
                st.regsOf(t)[i.dst] = r;
        }
        return;
      }
      case CudaOp::LoadGlobal: {
        const float *buf =
            st.buffers[static_cast<std::size_t>(i.buf)].data();
        return forActive(st, i, [&](float *r, const AddrWalk &addr) {
            const std::int64_t idx = addr.at(r);
            checkGlobalIndex(st.desc, i, idx);
            r[i.dst] = buf[idx];
        });
      }
      case CudaOp::StoreGlobal: {
        float *buf = st.buffers[static_cast<std::size_t>(i.buf)].data();
        return forActive(st, i, [&](float *r, const AddrWalk &addr) {
            const std::int64_t idx = addr.at(r);
            checkGlobalIndex(st.desc, i, idx);
            buf[idx] = r[i.src0];
        });
      }
      case CudaOp::LoadShared:
        return forActive(st, i, [&](float *r, const AddrWalk &addr) {
            const std::int64_t idx = addr.at(r);
            checkSharedIndex(st.desc, i, idx);
            r[i.dst] = st.shared[static_cast<std::size_t>(idx)];
        });
      case CudaOp::StoreShared:
        return forActive(st, i, [&](float *r, const AddrWalk &addr) {
            const std::int64_t idx = addr.at(r);
            checkSharedIndex(st.desc, i, idx);
            st.shared[static_cast<std::size_t>(idx)] = r[i.src0];
        });
      case CudaOp::AtomicAddShared:
        // Serialized in ascending tid (the lowering serializes lanes
        // the same way).
        return forActive(st, i, [&](float *r, const AddrWalk &addr) {
            const std::int64_t idx = addr.at(r);
            checkSharedIndex(st.desc, i, idx);
            st.shared[static_cast<std::size_t>(idx)] += r[i.src0];
        });
      case CudaOp::MovImm:
        return aluOp(st, i, [&](const float *) { return i.imm; });
      case CudaOp::Mov:
        return aluOp(st, i, [&](const float *r) { return r[i.src0]; });
      case CudaOp::Add:
        return aluOp(st, i, [&](const float *r) {
            return r[i.src0] + r[i.src1];
        });
      case CudaOp::Sub:
        return aluOp(st, i, [&](const float *r) {
            return r[i.src0] - r[i.src1];
        });
      case CudaOp::Mul:
        return aluOp(st, i, [&](const float *r) {
            return r[i.src0] * r[i.src1];
        });
      case CudaOp::Max:
        return aluOp(st, i, [&](const float *r) {
            return std::max(r[i.src0], r[i.src1]);
        });
      case CudaOp::Fma:
        return aluOp(st, i, [&](const float *r) {
            return r[i.src0] * r[i.src1] + r[i.src2];
        });
      case CudaOp::AddImm:
        return aluOp(st, i,
                     [&](const float *r) { return r[i.src0] + i.imm; });
      case CudaOp::MulImm:
        return aluOp(st, i,
                     [&](const float *r) { return r[i.src0] * i.imm; });
      case CudaOp::Exp:
        return aluOp(st, i,
                     [&](const float *r) { return std::exp(r[i.src0]); });
      case CudaOp::Rsqrt:
        return aluOp(st, i, [&](const float *r) {
            return 1.0f / std::sqrt(r[i.src0]);
        });
      case CudaOp::Recip:
        return aluOp(st, i,
                     [&](const float *r) { return 1.0f / r[i.src0]; });
    }
    vpanic("unhandled op %s", cudaOpName(i.op));
}

} // namespace

ReferenceResult
runReference(const CudaKernelDesc &desc)
{
    validateDesc(desc);

    ReferenceResult out;
    out.buffers.reserve(desc.buffers.size());
    for (const BufferDesc &b : desc.buffers) {
        std::vector<float> &data = out.buffers.emplace_back(
            static_cast<std::size_t>(b.elems));
        fillBufferInit(b, data.data());
    }

    BlockState st{desc, out.buffers};
    for (std::int64_t block = 0; block < desc.gridBlocks; block++) {
        st.enter(block);
        for (const CudaStmt &s : desc.body) {
            if (s.kind == CudaStmt::Kind::Instr) {
                stepInstr(st, s.instr);
                continue;
            }
            for (std::int64_t trip = 0; trip < s.loop.trips; trip++) {
                st.first.iter = trip;
                for (const CudaInstr &i : s.loop.body)
                    stepInstr(st, i);
            }
            st.first.iter = 0;
        }
    }
    return out;
}

} // namespace vespera::port
