/**
 * @file
 * Compact CUDA-style kernel description, the input language of the
 * migration layer (ROADMAP item 5, the paper's Section 4
 * programmability study).
 *
 * A CudaKernelDesc captures the shape of a small CUDA kernel the way a
 * porting tool sees it: a grid of thread blocks, a per-thread body over
 * a fixed op vocabulary (global/shared loads and stores with
 * thread-indexed affine addressing, ALU/FMA arithmetic on per-thread
 * registers, warp-wide reductions, `__syncthreads()` barriers, counted
 * loops, and predicated execution). The description is explicitly
 * *not* Turing-complete — it covers the CUDABench-style corpus in
 * port/corpus.h and nothing more, which is what keeps the lowering in
 * port/lower.h total and auditable.
 *
 * Two independent executors consume a desc:
 *  - port/reference.h interprets it thread-by-thread in lockstep
 *    (barrier-correct CUDA semantics) — the functional oracle;
 *  - port/lower.h lowers it onto tpc::Program through the TPC-C
 *    intrinsics — the migrated kernel whose parity and performance the
 *    scorecard measures.
 */

#ifndef VESPERA_PORT_CUDA_DESC_H
#define VESPERA_PORT_CUDA_DESC_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"

namespace vespera::port {

/** CUDA warp width; also the lane width of one lowered strip. */
inline constexpr int warpSize = 32;

/**
 * Per-thread affine address (in elements):
 *   base + cTid*tid + cLane*lane + cWarp*warp + cBlock*block
 *        + cBlockX*blockX + cBlockY*blockY + cGlobal*globalTid
 *        + cIter*iter + cPow2Iter*(1 << iter) [+ trunc(reg[indexReg])]
 * where lane = tid % 32, warp = tid / 32, blockX/Y decompose a 2D
 * grid (blockX = block % gridX), and iter is the innermost enclosing
 * loop's trip index. The pow2 term expresses Hillis-Steele scan
 * offsets; indexReg expresses data-dependent (gather/histogram)
 * addressing.
 */
struct AddrExpr
{
    std::int64_t base = 0;
    std::int64_t cTid = 0;
    std::int64_t cLane = 0;
    std::int64_t cWarp = 0;
    std::int64_t cBlock = 0;
    std::int64_t cBlockX = 0;
    std::int64_t cBlockY = 0;
    std::int64_t cGlobal = 0;
    std::int64_t cIter = 0;
    std::int64_t cPow2Iter = 0;
    /// Register whose (truncated) value is added; -1 = none.
    std::int32_t indexReg = -1;

    bool dataDependent() const { return indexReg >= 0; }
    bool
    iterDependent() const
    {
        return cIter != 0 || cPow2Iter != 0;
    }
};

/** Everything an AddrExpr may reference for one thread. */
struct LaneCtx
{
    std::int64_t tid = 0;
    std::int64_t lane = 0;
    std::int64_t warp = 0;
    std::int64_t block = 0;
    std::int64_t blockX = 0;
    std::int64_t blockY = 0;
    std::int64_t globalTid = 0;
    std::int64_t iter = 0;
};

/**
 * Evaluate `a` for one thread (`regs` = its register file). The
 * executors evaluate whole sweeps of threads with AddrWalk below.
 */
inline std::int64_t
evalAddr(const AddrExpr &a, const LaneCtx &c, const float *regs)
{
    std::int64_t v = a.base + a.cTid * c.tid + a.cLane * c.lane +
                     a.cWarp * c.warp + a.cBlock * c.block +
                     a.cBlockX * c.blockX + a.cBlockY * c.blockY +
                     a.cGlobal * c.globalTid + a.cIter * c.iter +
                     a.cPow2Iter * (std::int64_t{1} << c.iter);
    if (a.indexReg >= 0)
        v += static_cast<std::int64_t>(regs[a.indexReg]);
    return v;
}

/**
 * `a` evaluated along consecutive threads of one block, from `first`
 * on: the thread-invariant terms are summed once, and each step to the
 * next tid adds the affine increment (lane and warp carry at the warp
 * boundary). Equal to evalAddr at every thread; both executors sweep
 * threads in ascending tid, so a memory op costs one add per thread.
 */
class AddrWalk
{
  public:
    AddrWalk(const AddrExpr &a, const LaneCtx &first)
        : lane_(first.lane), indexReg_(a.indexReg),
          step_(a.cTid + a.cGlobal + a.cLane),
          warpStep_(a.cTid + a.cGlobal + a.cWarp -
                    (warpSize - 1) * a.cLane)
    {
        AddrExpr affine = a;
        affine.indexReg = -1;
        value_ = evalAddr(affine, first, nullptr);
    }

    /// The current thread's address (`regs` = its register file).
    std::int64_t
    at(const float *regs) const
    {
        return indexReg_ < 0
                   ? value_
                   : value_ + static_cast<std::int64_t>(regs[indexReg_]);
    }

    /// The current thread's address without the index register.
    std::int64_t affine() const { return value_; }

    /// Advance to the next tid.
    void
    next()
    {
        if (++lane_ == warpSize) {
            lane_ = 0;
            value_ += warpStep_;
        } else {
            value_ += step_;
        }
    }

  private:
    std::int64_t value_ = 0;
    std::int64_t lane_;
    std::int32_t indexReg_;
    std::int64_t step_;
    std::int64_t warpStep_;
};

/** Predicate comparison operator. */
enum class CmpOp : std::uint8_t {
    Lt,
    Ge,
    Eq,
    Ne,
};

/**
 * Per-thread predicate. Address-form predicates compare two affine
 * expressions (guarding edges: `tid < n`, `tid >= (1 << iter)`);
 * register-form predicates compare two register values (data-dependent
 * divergence: `x == max`).
 */
struct Pred
{
    bool active = false;
    bool onRegs = false;
    CmpOp op = CmpOp::Lt;
    AddrExpr lhs, rhs;                      ///< Address form.
    std::int32_t lhsReg = -1, rhsReg = -1;  ///< Register form.
};

/** Compare two predicate operands under `op`. */
inline bool
evalCmp(CmpOp op, double lhs, double rhs)
{
    switch (op) {
      case CmpOp::Lt: return lhs < rhs;
      case CmpOp::Ge: return lhs >= rhs;
      case CmpOp::Eq: return lhs == rhs;
      case CmpOp::Ne: return lhs != rhs;
    }
    return false;
}

/** Evaluate `p` for one thread (true = thread executes the op). */
inline bool
evalPred(const Pred &p, const LaneCtx &c, const float *regs)
{
    if (!p.active)
        return true;
    if (p.onRegs)
        return evalCmp(p.op, regs[p.lhsReg], regs[p.rhsReg]);
    return evalCmp(p.op, static_cast<double>(evalAddr(p.lhs, c, regs)),
                   static_cast<double>(evalAddr(p.rhs, c, regs)));
}

/** The op vocabulary. */
enum class CudaOp : std::uint8_t {
    LoadGlobal,      ///< reg[dst] = buf[addr]
    StoreGlobal,     ///< buf[addr] = reg[src0]
    LoadShared,      ///< reg[dst] = shared[addr]
    StoreShared,     ///< shared[addr] = reg[src0]
    AtomicAddShared, ///< shared[addr] += reg[src0] (serialized)
    MovImm,          ///< reg[dst] = imm
    Mov,             ///< reg[dst] = reg[src0]
    Add,             ///< reg[dst] = reg[src0] + reg[src1]
    Sub,             ///< reg[dst] = reg[src0] - reg[src1]
    Mul,             ///< reg[dst] = reg[src0] * reg[src1]
    Max,             ///< reg[dst] = max(reg[src0], reg[src1])
    Fma,             ///< reg[dst] = reg[src0]*reg[src1] + reg[src2]
    AddImm,          ///< reg[dst] = reg[src0] + imm
    MulImm,          ///< reg[dst] = reg[src0] * imm
    Exp,             ///< reg[dst] = exp(reg[src0])
    Rsqrt,           ///< reg[dst] = 1/sqrt(reg[src0])
    Recip,           ///< reg[dst] = 1/reg[src0]
    WarpReduceSum,   ///< reg[dst] = sum over warp of reg[src0]
    WarpReduceMax,   ///< reg[dst] = max over warp of reg[src0]
    Sync,            ///< __syncthreads()
};

const char *cudaOpName(CudaOp op);

/** One per-thread operation. */
struct CudaInstr
{
    CudaOp op = CudaOp::Sync;
    std::int32_t dst = -1;
    std::int32_t src0 = -1, src1 = -1, src2 = -1;
    float imm = 0;
    /// Buffer index (global ops only).
    std::int32_t buf = -1;
    /// Address (memory ops only).
    AddrExpr addr;
    Pred pred;
};

/** A counted per-thread loop (all threads run all trips). */
struct CudaLoop
{
    std::int64_t trips = 0;
    std::vector<CudaInstr> body;
};

/** Body statement: a single op or a counted loop (one nesting level). */
struct CudaStmt
{
    enum class Kind : std::uint8_t { Instr, Loop } kind = Kind::Instr;
    CudaInstr instr;
    CudaLoop loop;

    static CudaStmt
    of(CudaInstr i)
    {
        CudaStmt s;
        s.kind = Kind::Instr;
        s.instr = i;
        return s;
    }
    static CudaStmt
    of(CudaLoop l)
    {
        CudaStmt s;
        s.kind = Kind::Loop;
        s.loop = std::move(l);
        return s;
    }
};

/** Deterministic initialization pattern for a global buffer. */
enum class BufferInit : std::uint8_t {
    Zero,    ///< 0
    Linear,  ///< ((i * 37 + 11) % 113) * 0.01 * scale
    Wave,    ///< sin-free wave: hash-folded values in [-scale, scale]
    Mod,     ///< float(i % mod)  (exact small integers)
    Indices, ///< float((i * 73 + 5) % mod)  (in-range gather indices)
};

/** One global buffer (CUDA __global__ array of fp32). */
struct BufferDesc
{
    std::string name;
    std::int64_t elems = 0;
    bool output = false;
    BufferInit init = BufferInit::Zero;
    double initScale = 1.0;
    std::int64_t initMod = 1;
};

/** Deterministic init value for element `i` of `buf`. */
float bufferInitValue(const BufferDesc &buf, std::int64_t i);

/**
 * Write bufferInitValue(buf, i) to out[i] for every element, choosing
 * the pattern once per buffer rather than once per element. `out`
 * must arrive zeroed (a value-initialised vector or a calloc-backed
 * tpc::Tensor): a Zero buffer is left untouched.
 */
void fillBufferInit(const BufferDesc &buf, float *out);

/** The kernel description. */
struct CudaKernelDesc
{
    std::string name;
    std::string shape; ///< Human-readable tag for reports.
    /// Grid geometry: `gridBlocks` linear blocks; 2D kernels set
    /// `gridX` so blockX = block % gridX, blockY = block / gridX.
    std::int64_t gridBlocks = 0;
    std::int64_t gridX = 1;
    std::int64_t blockThreads = 0;
    /// Per-thread register file size.
    std::int32_t numRegs = 0;
    /// Per-block shared memory, in fp32 elements.
    std::int64_t sharedElems = 0;
    std::vector<BufferDesc> buffers;
    std::vector<CudaStmt> body;

    std::int64_t
    totalThreads() const
    {
        return gridBlocks * blockThreads;
    }
};

/**
 * Panic unless `idx` lies inside global buffer `i.buf`. Both executors
 * check every active thread's (lane's) access, so a bad address dies
 * naming the kernel, the op and the buffer.
 */
inline void
checkGlobalIndex(const CudaKernelDesc &desc, const CudaInstr &i,
                 std::int64_t idx)
{
    const BufferDesc &buf = desc.buffers[static_cast<std::size_t>(i.buf)];
    vassert(idx >= 0 && idx < buf.elems,
            "%s: %s address %lld out of buffer '%s' [0, %lld)",
            desc.name.c_str(), cudaOpName(i.op),
            static_cast<long long>(idx), buf.name.c_str(),
            static_cast<long long>(buf.elems));
}

/** Panic unless `idx` lies inside the block's shared memory. */
inline void
checkSharedIndex(const CudaKernelDesc &desc, const CudaInstr &i,
                 std::int64_t idx)
{
    vassert(idx >= 0 && idx < desc.sharedElems,
            "%s: %s address %lld out of shared memory [0, %lld)",
            desc.name.c_str(), cudaOpName(i.op),
            static_cast<long long>(idx),
            static_cast<long long>(desc.sharedElems));
}

/**
 * Panics (vassert) on malformed descs: degenerate geometry (zero
 * blocks / zero threads / zero-element buffers / zero-trip loops),
 * out-of-range register or buffer references, nested loops, and warp
 * ops under predication.
 */
void validateDesc(const CudaKernelDesc &desc);

} // namespace vespera::port

#endif // VESPERA_PORT_CUDA_DESC_H
