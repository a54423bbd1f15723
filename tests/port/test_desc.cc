/**
 * @file
 * Tests of the CUDA kernel description language (port/cuda_desc.h):
 * affine address / predicate evaluation, deterministic buffer
 * initialization, desc validation (malformed descs die loudly), and
 * the lockstep reference interpreter on hand-computable kernels.
 */

#include <gtest/gtest.h>

#include <vector>

#include "port/cuda_desc.h"
#include "port/reference.h"

namespace vespera::port {
namespace {

TEST(AddrExpr, EvaluatesAffineTerms)
{
    AddrExpr a;
    a.base = 7;
    a.cTid = 2;
    a.cWarp = 100;
    a.cIter = 3;
    LaneCtx ctx;
    ctx.tid = 5;
    ctx.warp = 1;
    ctx.iter = 4;
    EXPECT_EQ(evalAddr(a, ctx, nullptr), 7 + 2 * 5 + 100 + 3 * 4);
}

TEST(AddrExpr, Pow2IterTermIsShift)
{
    AddrExpr a;
    a.cPow2Iter = 1;
    LaneCtx ctx;
    ctx.iter = 5;
    EXPECT_EQ(evalAddr(a, ctx, nullptr), 32);
}

TEST(AddrExpr, IndexRegisterTruncates)
{
    AddrExpr a;
    a.base = 10;
    a.indexReg = 0;
    const float regs[1] = {3.9f};
    EXPECT_EQ(evalAddr(a, LaneCtx{}, regs), 13);
}

// The incremental walk both executors use equals a fresh evalAddr at
// every thread, across warp boundaries and a partial last warp, for
// every coefficient at once.
TEST(AddrExpr, WalkMatchesEvalAtEveryThread)
{
    AddrExpr a;
    a.base = 5;
    a.cTid = 3;
    a.cLane = -7;
    a.cWarp = 11;
    a.cBlock = 13;
    a.cBlockX = 17;
    a.cBlockY = 19;
    a.cGlobal = 2;
    a.cIter = 23;
    a.cPow2Iter = 29;
    a.indexReg = 1;

    const std::int64_t block = 7, gridX = 3, blockThreads = 100;
    LaneCtx first;
    first.block = block;
    first.blockX = block % gridX;
    first.blockY = block / gridX;
    first.globalTid = block * blockThreads;
    first.iter = 3;
    AddrWalk walk(a, first);
    for (std::int64_t t = 0; t < blockThreads; t++, walk.next()) {
        LaneCtx c = first;
        c.tid = t;
        c.lane = t % warpSize;
        c.warp = t / warpSize;
        c.globalTid = block * blockThreads + t;
        const float regs[2] = {0.0f, static_cast<float>(t % 5) + 0.5f};
        ASSERT_EQ(walk.at(regs), evalAddr(a, c, regs)) << "tid " << t;
    }
}

TEST(Pred, AddressFormComparesAffineExprs)
{
    Pred p;
    p.active = true;
    p.op = CmpOp::Lt;
    p.lhs.cLane = 1;
    p.rhs.base = 16;
    LaneCtx ctx;
    ctx.lane = 15;
    EXPECT_TRUE(evalPred(p, ctx, nullptr));
    ctx.lane = 16;
    EXPECT_FALSE(evalPred(p, ctx, nullptr));
}

TEST(Pred, RegisterFormComparesValues)
{
    Pred p;
    p.active = true;
    p.onRegs = true;
    p.op = CmpOp::Eq;
    p.lhsReg = 0;
    p.rhsReg = 1;
    const float eq[2] = {2.5f, 2.5f};
    const float ne[2] = {2.5f, 2.0f};
    EXPECT_TRUE(evalPred(p, LaneCtx{}, eq));
    EXPECT_FALSE(evalPred(p, LaneCtx{}, ne));
}

TEST(Pred, InactivePredicateAlwaysPasses)
{
    EXPECT_TRUE(evalPred(Pred{}, LaneCtx{}, nullptr));
}

TEST(BufferInit, PatternsAreDeterministicAndInRange)
{
    BufferDesc idx;
    idx.elems = 256;
    idx.init = BufferInit::Indices;
    idx.initMod = 64;
    for (std::int64_t i = 0; i < idx.elems; i++) {
        const float v = bufferInitValue(idx, i);
        EXPECT_EQ(v, bufferInitValue(idx, i));
        EXPECT_GE(v, 0.0f);
        EXPECT_LT(v, 64.0f);
        EXPECT_EQ(v, static_cast<float>(static_cast<int>(v)));
    }
    BufferDesc wave;
    wave.elems = 256;
    wave.init = BufferInit::Wave;
    wave.initScale = 2.0;
    for (std::int64_t i = 0; i < wave.elems; i++) {
        const float v = bufferInitValue(wave, i);
        EXPECT_GE(v, -2.0f);
        EXPECT_LE(v, 2.0f);
    }
}

// The bulk fill writes exactly bufferInitValue for every element:
// periodic patterns at lengths below, at and past whole periods.
TEST(BufferInit, FillMatchesPerElementValue)
{
    for (const BufferInit init :
         {BufferInit::Zero, BufferInit::Linear, BufferInit::Wave,
          BufferInit::Mod, BufferInit::Indices}) {
        for (const std::int64_t elems : {1, 7, 113, 114, 1000, 4099}) {
            BufferDesc b;
            b.elems = elems;
            b.init = init;
            b.initScale = 1.5;
            b.initMod = 7;
            std::vector<float> got(static_cast<std::size_t>(elems));
            fillBufferInit(b, got.data());
            for (std::int64_t i = 0; i < elems; i++) {
                ASSERT_EQ(got[static_cast<std::size_t>(i)],
                          bufferInitValue(b, i))
                    << "init " << static_cast<int>(init) << " elems "
                    << elems << " element " << i;
            }
        }
    }
}

/** Minimal well-formed desc: out[i] = 2 * x[i] over 2 blocks x 64. */
CudaKernelDesc
tinyScaleDesc()
{
    CudaKernelDesc d;
    d.name = "tiny_scale";
    d.shape = "n=128";
    d.gridBlocks = 2;
    d.blockThreads = 64;
    d.numRegs = 2;

    BufferDesc x;
    x.name = "x";
    x.elems = 128;
    x.init = BufferInit::Linear;
    BufferDesc out;
    out.name = "out";
    out.elems = 128;
    out.output = true;
    d.buffers = {x, out};

    CudaInstr ld;
    ld.op = CudaOp::LoadGlobal;
    ld.dst = 0;
    ld.buf = 0;
    ld.addr.cGlobal = 1;
    CudaInstr mul;
    mul.op = CudaOp::MulImm;
    mul.dst = 1;
    mul.src0 = 0;
    mul.imm = 2.0f;
    CudaInstr st;
    st.op = CudaOp::StoreGlobal;
    st.src0 = 1;
    st.buf = 1;
    st.addr.cGlobal = 1;
    d.body = {CudaStmt::of(ld), CudaStmt::of(mul), CudaStmt::of(st)};
    return d;
}

TEST(ValidateDesc, AcceptsWellFormedDesc)
{
    validateDesc(tinyScaleDesc()); // Must not die.
}

TEST(ValidateDescDeath, ZeroBlocksDies)
{
    CudaKernelDesc d = tinyScaleDesc();
    d.gridBlocks = 0;
    EXPECT_DEATH(validateDesc(d), "");
}

TEST(ValidateDescDeath, ZeroThreadsDies)
{
    CudaKernelDesc d = tinyScaleDesc();
    d.blockThreads = 0;
    EXPECT_DEATH(validateDesc(d), "");
}

TEST(ValidateDescDeath, ZeroElementBufferDies)
{
    CudaKernelDesc d = tinyScaleDesc();
    d.buffers[0].elems = 0;
    EXPECT_DEATH(validateDesc(d), "");
}

TEST(ValidateDescDeath, ZeroTripLoopDies)
{
    CudaKernelDesc d = tinyScaleDesc();
    CudaLoop loop;
    loop.trips = 0;
    d.body.push_back(CudaStmt::of(loop));
    EXPECT_DEATH(validateDesc(d), "");
}

TEST(ValidateDescDeath, OutOfRangeRegisterDies)
{
    CudaKernelDesc d = tinyScaleDesc();
    d.body[1].instr.dst = 5; // numRegs = 2.
    EXPECT_DEATH(validateDesc(d), "");
}

TEST(ValidateDescDeath, OutOfRangeBufferDies)
{
    CudaKernelDesc d = tinyScaleDesc();
    d.body[0].instr.buf = 7;
    EXPECT_DEATH(validateDesc(d), "");
}

TEST(ValidateDescDeath, SharedOpWithoutSharedMemoryDies)
{
    CudaKernelDesc d = tinyScaleDesc();
    CudaInstr st;
    st.op = CudaOp::StoreShared;
    st.src0 = 0;
    st.addr.cTid = 1;
    d.body.push_back(CudaStmt::of(st));
    EXPECT_DEATH(validateDesc(d), "");
}

TEST(ValidateDescDeath, PredicatedWarpReduceDies)
{
    CudaKernelDesc d = tinyScaleDesc();
    CudaInstr red;
    red.op = CudaOp::WarpReduceSum;
    red.dst = 1;
    red.src0 = 0;
    red.pred.active = true;
    red.pred.lhs.cLane = 1;
    red.pred.rhs.base = 16;
    d.body.push_back(CudaStmt::of(red));
    EXPECT_DEATH(validateDesc(d), "");
}

TEST(Reference, ScaleKernelMatchesHandComputation)
{
    const CudaKernelDesc d = tinyScaleDesc();
    const ReferenceResult r = runReference(d);
    ASSERT_EQ(r.buffers.size(), 2u);
    ASSERT_EQ(r.buffers[1].size(), 128u);
    for (std::int64_t i = 0; i < 128; i++) {
        EXPECT_EQ(r.buffers[1][static_cast<std::size_t>(i)],
                  2.0f * bufferInitValue(d.buffers[0], i))
            << "element " << i;
    }
}

TEST(Reference, PredicateMasksInactiveThreads)
{
    CudaKernelDesc d = tinyScaleDesc();
    // Only lanes < 16 write; others leave the output at its init (0).
    d.body[2].instr.pred.active = true;
    d.body[2].instr.pred.op = CmpOp::Lt;
    d.body[2].instr.pred.lhs.cLane = 1;
    d.body[2].instr.pred.rhs.base = 16;
    const ReferenceResult r = runReference(d);
    for (std::int64_t i = 0; i < 128; i++) {
        const float want = (i % 32) < 16
                               ? 2.0f * bufferInitValue(d.buffers[0], i)
                               : 0.0f;
        EXPECT_EQ(r.buffers[1][static_cast<std::size_t>(i)], want)
            << "element " << i;
    }
}

TEST(Reference, WarpReduceSumBroadcastsWarpTotal)
{
    CudaKernelDesc d = tinyScaleDesc();
    d.buffers[0].init = BufferInit::Mod;
    d.buffers[0].initMod = 4; // x[i] = i % 4, warp sum = 8 * (0+1+2+3).
    CudaInstr red;
    red.op = CudaOp::WarpReduceSum;
    red.dst = 1;
    red.src0 = 0;
    d.body[1] = CudaStmt::of(red);
    const ReferenceResult r = runReference(d);
    for (std::size_t i = 0; i < 128; i++)
        EXPECT_EQ(r.buffers[1][i], 48.0f) << "element " << i;
}

// Two threads store to one global address in the same op: the
// higher tid's value lands, as after a lockstep read phase whose
// write phase runs in ascending tid.
TEST(Reference, StoreToSameAddressLastTidWins)
{
    CudaKernelDesc d = tinyScaleDesc();
    d.gridBlocks = 1;
    d.blockThreads = 2;
    d.body[2].instr.addr = AddrExpr{}; // Every thread stores out[0].
    const ReferenceResult r = runReference(d);
    EXPECT_EQ(r.buffers[1][0], 2.0f * bufferInitValue(d.buffers[0], 1));
    EXPECT_NE(r.buffers[1][0], 2.0f * bufferInitValue(d.buffers[0], 0));
}

// Thread t stores shared[t]; the next op loads shared[t + 1] with no
// Sync between. Per-op lockstep guarantees every store of one op is
// visible to every load of the next.
TEST(Reference, OpSeesPreviousOpsStores)
{
    CudaKernelDesc d = tinyScaleDesc();
    d.sharedElems = d.blockThreads + 1; // shared[64] stays 0.
    CudaInstr st;
    st.op = CudaOp::StoreShared;
    st.src0 = 0;
    st.addr.cTid = 1;
    CudaInstr ld;
    ld.op = CudaOp::LoadShared;
    ld.dst = 1;
    ld.addr.cTid = 1;
    ld.addr.base = 1;
    CudaInstr out;
    out.op = CudaOp::StoreGlobal;
    out.src0 = 1;
    out.buf = 1;
    out.addr.cGlobal = 1;
    d.body = {d.body[0], CudaStmt::of(st), CudaStmt::of(ld),
              CudaStmt::of(out)};
    const ReferenceResult r = runReference(d);
    for (std::int64_t i = 0; i < 128; i++) {
        const float want = i % 64 == 63
                               ? 0.0f
                               : bufferInitValue(d.buffers[0], i + 1);
        EXPECT_EQ(r.buffers[1][static_cast<std::size_t>(i)], want)
            << "element " << i;
    }
}

// Every active thread's access is bounds-checked, and the panic names
// the kernel, the op and the buffer.
TEST(ReferenceDeath, OutOfRangeGlobalAddressDies)
{
    CudaKernelDesc d = tinyScaleDesc();
    d.body[0].instr.addr.base = 1; // Thread 127 loads x[128].
    EXPECT_DEATH(runReference(d), "tiny_scale: ld\\.global address 128 "
                                  "out of buffer 'x' \\[0, 128\\)");
}

TEST(ReferenceDeath, OutOfRangeSharedAddressDies)
{
    CudaKernelDesc d = tinyScaleDesc();
    d.sharedElems = 64;
    CudaInstr st;
    st.op = CudaOp::StoreShared;
    st.src0 = 0;
    st.addr.cGlobal = 1; // Block 1 stores shared[64..127].
    d.body.push_back(CudaStmt::of(st));
    EXPECT_DEATH(runReference(d), "tiny_scale: st\\.shared address 64 "
                                  "out of shared memory \\[0, 64\\)");
}

} // namespace
} // namespace vespera::port
