#include "port/cuda_desc.h"

#include <algorithm>

#include "common/logging.h"

namespace vespera::port {

const char *
cudaOpName(CudaOp op)
{
    switch (op) {
      case CudaOp::LoadGlobal: return "ld.global";
      case CudaOp::StoreGlobal: return "st.global";
      case CudaOp::LoadShared: return "ld.shared";
      case CudaOp::StoreShared: return "st.shared";
      case CudaOp::AtomicAddShared: return "atom.shared.add";
      case CudaOp::MovImm: return "mov.imm";
      case CudaOp::Mov: return "mov";
      case CudaOp::Add: return "add";
      case CudaOp::Sub: return "sub";
      case CudaOp::Mul: return "mul";
      case CudaOp::Max: return "max";
      case CudaOp::Fma: return "fma";
      case CudaOp::AddImm: return "add.imm";
      case CudaOp::MulImm: return "mul.imm";
      case CudaOp::Exp: return "exp";
      case CudaOp::Rsqrt: return "rsqrt";
      case CudaOp::Recip: return "recip";
      case CudaOp::WarpReduceSum: return "warp.reduce.sum";
      case CudaOp::WarpReduceMax: return "warp.reduce.max";
      case CudaOp::Sync: return "syncthreads";
    }
    return "?";
}

namespace {

/// BufferInit::Wave's hash multiplier.
constexpr std::uint64_t waveMul = 0x9e3779b97f4a7c15ull;

/// BufferInit::Wave from the hash product i * waveMul: a deterministic
/// fold into [-scale, scale]; avoids libm so reference and lowered
/// paths agree bit-for-bit.
float
waveValue(std::uint64_t product, double scale)
{
    // The fold is below 2048, so the int32 hop is exact (and converts
    // faster than an unsigned 64-bit value).
    const auto h = static_cast<std::int32_t>((product >> 33) % 2048);
    const double unit = static_cast<double>(h) / 1024.0 - 1.0;
    return static_cast<float>(unit * scale);
}

} // namespace

float
bufferInitValue(const BufferDesc &buf, std::int64_t i)
{
    switch (buf.init) {
      case BufferInit::Zero:
        return 0.0f;
      case BufferInit::Linear:
        return static_cast<float>(((i * 37 + 11) % 113) * 0.01 *
                                  buf.initScale);
      case BufferInit::Wave:
        return waveValue(static_cast<std::uint64_t>(i) * waveMul,
                         buf.initScale);
      case BufferInit::Mod:
        return static_cast<float>(i % buf.initMod);
      case BufferInit::Indices:
        return static_cast<float>((i * 73 + 5) % buf.initMod);
    }
    return 0.0f;
}

void
fillBufferInit(const BufferDesc &buf, float *out)
{
    const std::int64_t n = buf.elems;
    // Linear, Mod and Indices depend only on i modulo a period: write
    // one period, then copy it forward.
    std::int64_t period = n;
    switch (buf.init) {
      case BufferInit::Zero:
        return;
      case BufferInit::Wave: {
        // Step the hash product instead of multiplying per element.
        std::uint64_t product = 0;
        for (std::int64_t i = 0; i < n; i++, product += waveMul)
            out[i] = waveValue(product, buf.initScale);
        return;
      }
      case BufferInit::Linear:
        period = 113;
        break;
      case BufferInit::Mod:
      case BufferInit::Indices:
        period = buf.initMod;
        break;
    }
    period = std::min(period, n);
    for (std::int64_t i = 0; i < period; i++)
        out[i] = bufferInitValue(buf, i);
    // Each copy doubles the filled prefix, which stays a whole number
    // of periods.
    for (std::int64_t done = period; done < n;) {
        const std::int64_t chunk = std::min(done, n - done);
        std::copy_n(out, chunk, out + done);
        done += chunk;
    }
}

namespace {

bool
isMemOp(CudaOp op)
{
    return op == CudaOp::LoadGlobal || op == CudaOp::StoreGlobal ||
           op == CudaOp::LoadShared || op == CudaOp::StoreShared ||
           op == CudaOp::AtomicAddShared;
}

bool
isGlobalOp(CudaOp op)
{
    return op == CudaOp::LoadGlobal || op == CudaOp::StoreGlobal;
}

bool
isWarpOp(CudaOp op)
{
    return op == CudaOp::WarpReduceSum || op == CudaOp::WarpReduceMax;
}

void
validateReg(const CudaKernelDesc &desc, std::int32_t reg,
            const char *what)
{
    vassert(reg >= 0 && reg < desc.numRegs,
            "%s: %s register r%d out of range (numRegs=%d)",
            desc.name.c_str(), what, static_cast<int>(reg),
            static_cast<int>(desc.numRegs));
}

void
validateAddr(const CudaKernelDesc &desc, const AddrExpr &addr)
{
    if (addr.indexReg >= 0)
        validateReg(desc, addr.indexReg, "address index");
}

void
validateInstr(const CudaKernelDesc &desc, const CudaInstr &i,
              bool inLoop)
{
    const CudaOp op = i.op;
    if (isGlobalOp(op)) {
        vassert(i.buf >= 0 &&
                static_cast<std::size_t>(i.buf) < desc.buffers.size(),
                "%s: %s references buffer %d of %zu",
                desc.name.c_str(), cudaOpName(op),
                static_cast<int>(i.buf), desc.buffers.size());
    }
    if (isMemOp(op))
        validateAddr(desc, i.addr);
    if (!isGlobalOp(op) && isMemOp(op)) {
        vassert(desc.sharedElems > 0,
                "%s: %s without shared memory", desc.name.c_str(),
                cudaOpName(op));
    }
    if (i.addr.iterDependent() && isMemOp(op)) {
        vassert(inLoop, "%s: iter-dependent address outside a loop",
                desc.name.c_str());
    }

    // Register operands, per-op.
    const bool reads0 =
        op == CudaOp::StoreGlobal || op == CudaOp::StoreShared ||
        op == CudaOp::AtomicAddShared || op == CudaOp::Mov ||
        op == CudaOp::Add || op == CudaOp::Sub || op == CudaOp::Mul ||
        op == CudaOp::Max || op == CudaOp::Fma || op == CudaOp::AddImm ||
        op == CudaOp::MulImm || op == CudaOp::Exp ||
        op == CudaOp::Rsqrt || op == CudaOp::Recip || isWarpOp(op);
    const bool reads1 = op == CudaOp::Add || op == CudaOp::Sub ||
                        op == CudaOp::Mul || op == CudaOp::Max ||
                        op == CudaOp::Fma;
    const bool writes =
        op == CudaOp::LoadGlobal || op == CudaOp::LoadShared ||
        op == CudaOp::MovImm || op == CudaOp::Mov || op == CudaOp::Add ||
        op == CudaOp::Sub || op == CudaOp::Mul || op == CudaOp::Max ||
        op == CudaOp::Fma || op == CudaOp::AddImm ||
        op == CudaOp::MulImm || op == CudaOp::Exp ||
        op == CudaOp::Rsqrt || op == CudaOp::Recip || isWarpOp(op);
    if (reads0)
        validateReg(desc, i.src0, "source");
    if (reads1)
        validateReg(desc, i.src1, "source");
    if (op == CudaOp::Fma)
        validateReg(desc, i.src2, "source");
    if (writes)
        validateReg(desc, i.dst, "destination");

    if (i.pred.active) {
        vassert(!isWarpOp(op),
                "%s: warp reduction under predication",
                desc.name.c_str());
        vassert(op != CudaOp::Sync, "%s: predicated syncthreads",
                desc.name.c_str());
        if (i.pred.onRegs) {
            validateReg(desc, i.pred.lhsReg, "predicate");
            validateReg(desc, i.pred.rhsReg, "predicate");
        } else {
            validateAddr(desc, i.pred.lhs);
            validateAddr(desc, i.pred.rhs);
        }
    }
}

} // namespace

void
validateDesc(const CudaKernelDesc &desc)
{
    vassert(!desc.name.empty(), "unnamed kernel desc");
    // Degenerate-geometry guards: a zero-block grid, zero-thread
    // block, or zero-element buffer describes no work and would
    // otherwise surface as silent empty traces or OOB addressing.
    vassert(desc.gridBlocks > 0, "%s: zero-block grid",
            desc.name.c_str());
    vassert(desc.blockThreads > 0, "%s: zero-thread block",
            desc.name.c_str());
    vassert(desc.gridX > 0 && desc.gridBlocks % desc.gridX == 0,
            "%s: grid (%lld blocks) not divisible into gridX=%lld",
            desc.name.c_str(),
            static_cast<long long>(desc.gridBlocks),
            static_cast<long long>(desc.gridX));
    vassert(desc.numRegs > 0, "%s: empty register file",
            desc.name.c_str());
    vassert(desc.sharedElems >= 0, "%s: negative shared size",
            desc.name.c_str());
    vassert(!desc.body.empty(), "%s: empty body", desc.name.c_str());
    for (const BufferDesc &b : desc.buffers) {
        vassert(b.elems > 0, "%s: zero-element buffer '%s'",
                desc.name.c_str(), b.name.c_str());
        vassert(b.initMod > 0, "%s: buffer '%s' initMod must be > 0",
                desc.name.c_str(), b.name.c_str());
    }
    for (const CudaStmt &s : desc.body) {
        if (s.kind == CudaStmt::Kind::Instr) {
            validateInstr(desc, s.instr, /*inLoop=*/false);
        } else {
            vassert(s.loop.trips > 0, "%s: zero-trip loop",
                    desc.name.c_str());
            vassert(!s.loop.body.empty(), "%s: empty loop body",
                    desc.name.c_str());
            for (const CudaInstr &i : s.loop.body)
                validateInstr(desc, i, /*inLoop=*/true);
        }
    }
}

} // namespace vespera::port
