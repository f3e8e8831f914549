// Native-tier runtime contract: the JitContext block shared between
// emitted x86-64 code and the embedder, and the extern "C" helper bridge
// the emitted code calls for everything that touches the host (memory,
// ports, register bank, CR) or can fail.
//
// Error discipline: emitted code has no unwind tables, so C++ exceptions
// must never cross a JIT frame. Every helper catches pscp::Error, stores
// the exact message in JitEnv::error and returns nonzero; the emitted
// code checks the status and exits through its error epilogue, after
// which the embedder rethrows the stored message. Interpreter and native
// tier therefore fail with byte-identical diagnostics.
//
// Traced runs: with JitContext::trace set, a run also records its timeline
// (LaneTrace) so an embedder that steps several TEPs in lockstep can run a
// routine ahead of time and replay, cycle by cycle, what the interpreter
// would have done on the shared machine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "hwlib/arch_config.hpp"
#include "tep/machine.hpp"

namespace pscp::tep::jit {

/// Everything the helpers need from C++ land. Referenced (not owned) by
/// JitContext::env; never read by emitted code directly.
struct JitEnv {
  TepHost* host = nullptr;
  const hwlib::ArchConfig* config = nullptr;
  int tepId = 0;
  size_t programSize = 0;
  int64_t budgetLimit = 0;  ///< configuration-cycle guard (machine cycles)
  std::string error;        ///< helper-captured diagnostic
};

/// The timeline of one traced routine run, in routine-local cycles: cycle 0
/// is the routine's first micro-cycle and bus stalls are not counted (the
/// replay adds them). A traced run performs its private effects at once
/// (TEP-local memory and registers, condition cache, port stores) and
/// leaves to the embedder only what other TEPs can observe or contend for.
struct LaneTrace {
  enum class Kind : uint8_t {
    kBus,        ///< `arg` consecutive cycles that must win the external bus
    kPortWrite,  ///< port `arg` written with `value` (logged at this cycle)
    kRaise,      ///< event `arg` raised
  };
  struct Entry {
    int64_t at = 0;  ///< local cycle
    Kind kind = Kind::kBus;
    int32_t arg = 0;
    uint32_t value = 0;

    [[nodiscard]] bool operator==(const Entry&) const = default;
  };
  std::vector<Entry> entries;  ///< ascending `at`
  /// Local cycle of a fault a memory helper placed; -1 otherwise.
  int64_t faultAt = -1;

  void reset() {
    entries.clear();
    faultAt = -1;
  }
  /// Local cycle of the fault of a run that returned an error with
  /// `cyclesAtExit` in JitContext::cycles: where a memory helper placed
  /// it, else the last cycle of the instruction that raised it.
  [[nodiscard]] int64_t faultCycle(int64_t cyclesAtExit) const {
    return faultAt >= 0 ? faultAt : cyclesAtExit - 1;
  }
};

/// The block emitted code addresses with fixed offsets (asserted below).
/// Seeded by the embedder before a routine runs; read back afterwards.
struct JitContext {
  uint32_t acc = 0;          // +0
  uint32_t op = 0;           // +4
  uint8_t flagZ = 0;         // +8
  uint8_t flagN = 0;         // +9
  uint8_t flagC = 0;         // +10
  uint8_t pad0 = 0;          // +11
  uint32_t hvalue = 0;       // +12  helper value-return slot
  int64_t cycles = 0;        // +16  machine cycles consumed (running total)
  int64_t cycleBudget = 0;   // +24  error when a backward edge exceeds this
  int64_t timeBase = 0;      // +32  machine time of cycle 0
  int64_t* machineTime = nullptr;  // +40  embedder clock to update on port writes
  JitEnv* env = nullptr;     // +48
  int32_t callDepth = 0;     // +56
  int32_t pad1 = 0;          // +60
  uint64_t callStack[32] = {};  // +64  native return addresses
  LaneTrace* trace = nullptr;  // +320 timeline to record (helpers only)
};

inline constexpr int32_t kCtxAcc = 0;
inline constexpr int32_t kCtxOp = 4;
inline constexpr int32_t kCtxFlagZ = 8;
inline constexpr int32_t kCtxFlagN = 9;
inline constexpr int32_t kCtxFlagC = 10;
inline constexpr int32_t kCtxHvalue = 12;
inline constexpr int32_t kCtxCycles = 16;
inline constexpr int32_t kCtxBudget = 24;
inline constexpr int32_t kCtxCallDepth = 56;
inline constexpr int32_t kCtxCallStack = 64;

static_assert(offsetof(JitContext, acc) == kCtxAcc);
static_assert(offsetof(JitContext, op) == kCtxOp);
static_assert(offsetof(JitContext, flagZ) == kCtxFlagZ);
static_assert(offsetof(JitContext, flagN) == kCtxFlagN);
static_assert(offsetof(JitContext, flagC) == kCtxFlagC);
static_assert(offsetof(JitContext, hvalue) == kCtxHvalue);
static_assert(offsetof(JitContext, cycles) == kCtxCycles);
static_assert(offsetof(JitContext, cycleBudget) == kCtxBudget);
static_assert(offsetof(JitContext, callDepth) == kCtxCallDepth);
static_assert(offsetof(JitContext, callStack) == kCtxCallStack);

/// Signature of an emitted routine: run to TRET or error. Returns 0 on
/// TRET, nonzero after an error epilogue (JitEnv::error holds the text).
using CompiledFn = int32_t (*)(JitContext*);

// --------------------------------------------------------------- helpers
//
// SysV x86-64: ctx in rdi, scalar args in esi/edx/ecx/r8d. Status in eax
// (0 ok); value results land in ctx->hvalue. `packed` for memory ops is
// totalBytes | chunks<<8 | dataOffset<<16 — chunks wait cycles are charged
// onto ctx->cycles when the base address is external, exactly the
// interpreter's per-chunk wait states; dataOffset is how many cycles
// before the end of the instruction's static cost its first data micro-op
// runs (traced runs place bus cycles and faults with it). `timeSkew` is
// the same kind of offset for the single-cycle port write and event raise.

extern "C" {
int32_t pscpJitLoad(JitContext* ctx, int32_t addr, int32_t packed) noexcept;
int32_t pscpJitStore(JitContext* ctx, int32_t addr, uint32_t value,
                     int32_t packed) noexcept;
int32_t pscpJitRegGet(JitContext* ctx, int32_t index) noexcept;
int32_t pscpJitRegSet(JitContext* ctx, int32_t index, uint32_t value) noexcept;
int32_t pscpJitPortRead(JitContext* ctx, int32_t port) noexcept;
int32_t pscpJitPortWrite(JitContext* ctx, int32_t port, uint32_t value,
                         int32_t timeSkew) noexcept;
int32_t pscpJitEvSet(JitContext* ctx, int32_t index, int32_t timeSkew) noexcept;
int32_t pscpJitCondSet(JitContext* ctx, int32_t index, int32_t value) noexcept;
int32_t pscpJitCondTest(JitContext* ctx, int32_t index) noexcept;
int32_t pscpJitStateTest(JitContext* ctx, int32_t index) noexcept;
/// packed = width | signed<<8 | isDiv<<9; pc = ISA index for diagnostics.
int32_t pscpJitDivMod(JitContext* ctx, uint32_t a, uint32_t b, int32_t packed,
                      int32_t pc) noexcept;
int32_t pscpJitCustom(JitContext* ctx, int32_t index, uint32_t a,
                      uint32_t b) noexcept;
// Error formatters (always return nonzero).
int32_t pscpJitErrRunOff(JitContext* ctx, int32_t pc) noexcept;
int32_t pscpJitErrStackOver(JitContext* ctx) noexcept;
int32_t pscpJitErrStackUnder(JitContext* ctx) noexcept;
int32_t pscpJitErrBudget(JitContext* ctx) noexcept;
}

}  // namespace pscp::tep::jit
