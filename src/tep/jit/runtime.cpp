#include "tep/jit/runtime.hpp"

#include "support/bits.hpp"
#include "support/diag.hpp"
#include "tep/isa.hpp"

namespace pscp::tep::jit {

namespace {

JitEnv* envOf(JitContext* ctx) { return ctx->env; }

/// Run `body`, trapping pscp::Error (and any other exception) into
/// JitEnv::error so nothing unwinds through the emitted frame.
template <typename Fn>
int32_t guarded(JitContext* ctx, Fn&& body) noexcept {
  JitEnv* env = envOf(ctx);
  try {
    body(env);
    return 0;
  } catch (const Error& e) {
    env->error = e.what();
    return 1;
  } catch (const std::exception& e) {
    env->error = e.what();
    return 1;
  }
}

/// One data-memory access: the byte transfers in order, then the wait
/// states. External accesses pay one wait state per chunk micro-op;
/// externality is decided by the base address, like needsExternalBus(mar).
/// A traced run also records the access's bus cycles (wait state and
/// transfer of every chunk) and, on a fault, the cycle of the failing
/// chunk's data micro-op, where the interpreter raises it.
template <typename Fn>
int32_t memoryAccess(JitContext* ctx, int32_t addr, int32_t packed,
                     Fn&& transferByte) noexcept {
  const int bytes = packed & 0xFF;
  const int chunks = (packed >> 8) & 0xFF;
  const int64_t firstData = ctx->cycles - ((packed >> 16) & 0xFF);
  const bool external = isExternalAddress(addr);
  LaneTrace* const trace = ctx->trace;
  int i = 0;
  const int32_t status = guarded(ctx, [&](JitEnv* env) {
    if (trace != nullptr && external)
      trace->entries.push_back({firstData, LaneTrace::Kind::kBus, 2 * chunks, 0});
    for (; i < bytes; ++i) transferByte(env, i);
    if (external) ctx->cycles += chunks;
  });
  if (status != 0 && trace != nullptr) {
    const int64_t chunk = i / ctx->env->config->bytesPerWord();
    trace->faultAt = external ? firstData + 2 * chunk + 1 : firstData + chunk;
  }
  return status;
}

}  // namespace

extern "C" {

int32_t pscpJitLoad(JitContext* ctx, int32_t addr, int32_t packed) noexcept {
  uint32_t v = 0;
  const int32_t status = memoryAccess(ctx, addr, packed, [&](JitEnv* env, int i) {
    v |= static_cast<uint32_t>(env->host->readByte(addr + i)) << (8 * i);
  });
  ctx->hvalue = v;
  return status;
}

int32_t pscpJitStore(JitContext* ctx, int32_t addr, uint32_t value,
                     int32_t packed) noexcept {
  return memoryAccess(ctx, addr, packed, [&](JitEnv* env, int i) {
    env->host->writeByte(addr + i, static_cast<uint8_t>((value >> (8 * i)) & 0xFF));
  });
}

int32_t pscpJitRegGet(JitContext* ctx, int32_t index) noexcept {
  return guarded(ctx, [&](JitEnv* env) { ctx->hvalue = env->host->readReg(index); });
}

int32_t pscpJitRegSet(JitContext* ctx, int32_t index, uint32_t value) noexcept {
  return guarded(ctx, [&](JitEnv* env) { env->host->writeReg(index, value); });
}

int32_t pscpJitPortRead(JitContext* ctx, int32_t port) noexcept {
  return guarded(ctx, [&](JitEnv* env) { ctx->hvalue = env->host->readPort(port); });
}

int32_t pscpJitPortWrite(JitContext* ctx, int32_t port, uint32_t value,
                         int32_t timeSkew) noexcept {
  return guarded(ctx, [&](JitEnv* env) {
    // The PortWrite micro-op runs `timeSkew` cycles from the running total
    // (the instruction's full cost is already charged, hence negative).
    if (ctx->trace != nullptr) {
      // Store now, so the routine reads its own write back; the embedder
      // logs the write at its cycle.
      env->host->storePort(port, value);
      ctx->trace->entries.push_back(
          {ctx->cycles + timeSkew, LaneTrace::Kind::kPortWrite, port, value});
      return;
    }
    // The embedder's machine clock must read exactly as it would at the
    // micro-op so logged port writes carry identical timestamps in both
    // tiers.
    if (ctx->machineTime != nullptr)
      *ctx->machineTime = ctx->timeBase + ctx->cycles + timeSkew;
    env->host->writePort(port, value);
  });
}

int32_t pscpJitEvSet(JitContext* ctx, int32_t index, int32_t timeSkew) noexcept {
  return guarded(ctx, [&](JitEnv* env) {
    if (ctx->trace != nullptr) {
      // Pending-event order is machine-wide: the embedder raises it at
      // its cycle.
      ctx->trace->entries.push_back(
          {ctx->cycles + timeSkew, LaneTrace::Kind::kRaise, index, 0});
      return;
    }
    env->host->raiseEvent(index);
  });
}

int32_t pscpJitCondSet(JitContext* ctx, int32_t index, int32_t value) noexcept {
  return guarded(ctx, [&](JitEnv* env) { env->host->setCondition(index, value != 0); });
}

int32_t pscpJitCondTest(JitContext* ctx, int32_t index) noexcept {
  return guarded(ctx,
                 [&](JitEnv* env) { ctx->hvalue = env->host->testCondition(index) ? 1u : 0u; });
}

int32_t pscpJitStateTest(JitContext* ctx, int32_t index) noexcept {
  return guarded(ctx,
                 [&](JitEnv* env) { ctx->hvalue = env->host->testState(index) ? 1u : 0u; });
}

int32_t pscpJitDivMod(JitContext* ctx, uint32_t a, uint32_t b, int32_t packed,
                      int32_t pc) noexcept {
  return guarded(ctx, [&](JitEnv* env) {
    const int w = packed & 0xFF;
    const bool isSigned = (packed & (1 << 8)) != 0;
    const bool isDiv = (packed & (1 << 9)) != 0;
    const uint32_t mask = maskBits(w);
    if ((b & mask) == 0)
      // The interpreter reports pc_ - 1, i.e. the ISA index of the
      // dividing instruction (pc was advanced at fetch).
      fail("TEP%d: division by zero at PC %d", env->tepId, pc);
    uint32_t result = 0;
    if (isSigned) {
      const int32_t sa = signExtend(a & mask, w);
      const int32_t sb = signExtend(b & mask, w);
      result = static_cast<uint32_t>(isDiv ? sa / sb : sa % sb);
    } else {
      const uint32_t ua = a & mask;
      const uint32_t ub = b & mask;
      result = isDiv ? ua / ub : ua % ub;
    }
    ctx->hvalue = truncBits(result, w);
  });
}

int32_t pscpJitCustom(JitContext* ctx, int32_t index, uint32_t a, uint32_t b) noexcept {
  return guarded(ctx, [&](JitEnv* env) {
    PSCP_ASSERT(index >= 0 &&
                static_cast<size_t>(index) < env->config->customInstructions.size());
    const hwlib::CustomInstr& ci =
        env->config->customInstructions[static_cast<size_t>(index)];
    const uint32_t cmask = maskBits(ci.width);
    uint32_t v = a & cmask;
    for (const hwlib::CustomStep& step : ci.steps) {
      const uint32_t rhs =
          step.useConst ? static_cast<uint32_t>(step.konst) & cmask : b & cmask;
      switch (step.op) {
        case hwlib::CustomOp::Add: v = v + rhs; break;
        case hwlib::CustomOp::Sub: v = v - rhs; break;
        case hwlib::CustomOp::And: v = v & rhs; break;
        case hwlib::CustomOp::Or: v = v | rhs; break;
        case hwlib::CustomOp::Xor: v = v ^ rhs; break;
        case hwlib::CustomOp::Shl: v = v << (rhs & 31); break;
        case hwlib::CustomOp::Shr: v = (v & cmask) >> (rhs & 31); break;
        case hwlib::CustomOp::Sar:
          v = static_cast<uint32_t>(signExtend(v & cmask, ci.width) >> (rhs & 31));
          break;
        case hwlib::CustomOp::Neg: v = 0 - v; break;
        case hwlib::CustomOp::Not: v = ~v; break;
      }
      v &= cmask;
    }
    ctx->hvalue = v;
  });
}

int32_t pscpJitErrRunOff(JitContext* ctx, int32_t pc) noexcept {
  guarded(ctx, [&](JitEnv* env) {
    fail("TEP%d: PC %d ran off the program (size %zu)", env->tepId, pc,
         env->programSize);
  });
  return 1;
}

int32_t pscpJitErrStackOver(JitContext* ctx) noexcept {
  guarded(ctx, [&](JitEnv* env) { fail("TEP%d: call stack overflow", env->tepId); });
  return 1;
}

int32_t pscpJitErrStackUnder(JitContext* ctx) noexcept {
  guarded(ctx,
          [&](JitEnv* env) { fail("TEP%d: RET with empty call stack", env->tepId); });
  return 1;
}

int32_t pscpJitErrBudget(JitContext* ctx) noexcept {
  guarded(ctx, [&](JitEnv* env) {
    fail("PSCP configuration cycle exceeded %lld machine cycles",
         static_cast<long long>(env->budgetLimit));
  });
  return 1;
}

}  // extern "C"

}  // namespace pscp::tep::jit
