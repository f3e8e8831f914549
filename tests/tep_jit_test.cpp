// Native-tier differential tests: the headline bit-identity contract.
//
// Three levels, each diffing the compiled tier against the microcode
// interpreter (the reference semantics):
//   1. Routine level — handwritten edge cases (microcode jumps, indirect
//      array writes, width-boundary arithmetic, division by zero, call
//      stack overflow/underflow, running off the program) plus seeded
//      random-program fuzz over several architecture shapes. Compares
//      ACC/OP/flags, exact cycle counts, every host side effect in order,
//      and error messages byte for byte.
//   2. Machine level — the SMD workload stepped with PSCP_JIT off vs
//      always: fired transitions, cycle counts, port-write logs (values
//      and timestamps) and active states must match on every cycle.
//   3. Fleet/journal level — a journal recorded under the interpreter
//      must verify (CR digest checkpoints) when replayed with the native
//      tier forced on, at 1 and 8 workers, SoA batching on and off.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fleet/fleet.hpp"
#include "obs/journal/journal.hpp"
#include "obs/journal/replay.hpp"
#include "pscp/machine.hpp"
#include "tep/ir.hpp"
#include "tep/jit/codebuf.hpp"
#include "tep/jit/emit_x64.hpp"
#include "tep/jit/runtime.hpp"
#include "tep/jit/tier.hpp"
#include "tep/machine.hpp"
#include "workloads/smd_fleet.hpp"

namespace pscp::tep {
namespace {

// Same LCG as property_test.cpp: deterministic across platforms.
class Rng {
 public:
  explicit Rng(uint32_t seed) : state_(seed) {}
  uint32_t next() {
    state_ = state_ * 1664525u + 1013904223u;
    return state_ >> 8;
  }
  int below(int n) { return static_cast<int>(next() % static_cast<uint32_t>(n)); }
  bool chance(int percent) { return below(100) < percent; }

 private:
  uint32_t state_;
};

// ------------------------------------------------------ routine harness

struct TierRun {
  bool completed = false;
  std::string error;
  uint32_t acc = 0, op = 0;
  bool z = false, n = false, c = false;
  int64_t cycles = 0;
};

TierRun runInterp(const AsmProgram& prog, int entry,
                  const hwlib::ArchConfig& config, SimpleHost& host,
                  int64_t maxCycles) {
  Tep tep(config, host, 0);
  tep.setProgram(&prog);
  TierRun r;
  try {
    tep.startRoutine(entry);
    while (tep.busy() && tep.cyclesExecuted() < maxCycles) tep.stepCycle();
    if (tep.busy()) {
      r.error = "interpreter cycle cap";
    } else {
      r.completed = true;
    }
  } catch (const Error& e) {
    r.error = e.what();
  }
  r.acc = tep.acc();
  r.op = tep.op();
  r.z = tep.flagZ();
  r.n = tep.flagN();
  r.c = tep.flagC();
  r.cycles = tep.cyclesExecuted();
  return r;
}

/// Compile and run natively. Returns false (with `reject` set) when the
/// routine is rejected by lowering/emission — never an error, the caller
/// just can't diff this case.
bool runNative(const AsmProgram& prog, int entry,
               const hwlib::ArchConfig& config, SimpleHost& host,
               int64_t budget, TierRun* out, std::string* reject) {
  const ir::LowerResult low = ir::lowerRoutine(prog, entry, config);
  if (!low.ok) {
    *reject = "lowering: " + low.reason;
    return false;
  }
  const jit::EmitResult em = jit::emitX64(low.routine);
  if (!em.ok) {
    *reject = "emit: " + em.error;
    return false;
  }
  jit::CodeBuf buf;
  std::string err;
  if (!buf.install(em.code, &err)) {
    *reject = "install: " + err;
    return false;
  }
  jit::JitEnv env;
  env.host = &host;
  env.config = &config;
  env.tepId = 0;
  env.programSize = prog.code.size();
  env.budgetLimit = budget;
  jit::JitContext ctx;
  int64_t timeSink = 0;
  ctx.machineTime = &timeSink;
  ctx.cycleBudget = budget;
  ctx.env = &env;
  const auto fn =
      reinterpret_cast<jit::CompiledFn>(const_cast<void*>(buf.entry()));
  const int32_t status = fn(&ctx);
  TierRun r;
  if (status == 0) {
    r.completed = true;
  } else {
    r.error = env.error;
  }
  r.acc = ctx.acc;
  r.op = ctx.op;
  r.z = ctx.flagZ != 0;
  r.n = ctx.flagN != 0;
  r.c = ctx.flagC != 0;
  r.cycles = ctx.cycles;
  *out = r;
  return true;
}

// Addresses the generated programs may touch; the diff compares exactly
// these bytes on both hosts.
const int32_t kAddrPool[] = {0x10, 0x40, 0x100, 0x3F0, 0x4000, 0x4010, 0x4100};

void seedHost(SimpleHost& host, Rng& rng) {
  for (const int32_t addr : kAddrPool)
    host.writeWord(addr, rng.next(), 4);
  for (int i = 0; i < 8; ++i) host.writeReg(i, rng.next());
  for (int p = 0; p < 4; ++p) host.ports[p] = rng.next() & 0xFFFF;
  for (int c = 0; c < 4; ++c) host.conditions[c] = rng.chance(50);
  for (int s = 0; s < 4; ++s) host.states[s] = rng.chance(50);
}

/// Run `prog` on both tiers over identically seeded hosts and require
/// bit-identical outcomes. Returns false when the native tier rejected
/// the routine (callers assert how often that may happen).
bool diffRoutine(const AsmProgram& prog, int entry,
                 const hwlib::ArchConfig& config, uint32_t hostSeed,
                 const std::string& label) {
  SimpleHost interpHost;
  SimpleHost nativeHost;
  {
    Rng a(hostSeed);
    seedHost(interpHost, a);
    Rng b(hostSeed);
    seedHost(nativeHost, b);
  }
  TierRun native;
  std::string reject;
  if (!runNative(prog, entry, config, nativeHost, 4'000'000, &native, &reject))
    return false;
  const TierRun interp = runInterp(prog, entry, config, interpHost, 4'000'000);

  EXPECT_EQ(interp.completed, native.completed) << label;
  EXPECT_EQ(interp.error, native.error) << label;
  if (interp.completed && native.completed) {
    EXPECT_EQ(interp.acc, native.acc) << label;
    EXPECT_EQ(interp.op, native.op) << label;
    EXPECT_EQ(interp.z, native.z) << label;
    EXPECT_EQ(interp.n, native.n) << label;
    EXPECT_EQ(interp.c, native.c) << label;
    EXPECT_EQ(interp.cycles, native.cycles) << label;
    for (const int32_t addr : kAddrPool)
      EXPECT_EQ(interpHost.readWord(addr, 4), nativeHost.readWord(addr, 4))
          << label << " mem@0x" << std::hex << addr;
    for (int i = 0; i < 8; ++i)
      EXPECT_EQ(interpHost.readReg(i), nativeHost.readReg(i)) << label << " r" << i;
    EXPECT_EQ(interpHost.ports, nativeHost.ports) << label;
    EXPECT_EQ(interpHost.raisedEvents, nativeHost.raisedEvents) << label;
    EXPECT_EQ(interpHost.conditions, nativeHost.conditions) << label;
  }
  return true;
}

hwlib::ArchConfig archPlain8() {
  hwlib::ArchConfig c;
  c.dataWidth = 8;
  c.registerFileSize = 8;
  return c;
}

hwlib::ArchConfig archFull16() {
  hwlib::ArchConfig c;
  c.dataWidth = 16;
  c.hasMulDiv = true;
  c.hasComparator = true;
  c.hasTwosComplement = true;
  c.registerFileSize = 8;
  return c;
}

hwlib::ArchConfig archWide32() {
  hwlib::ArchConfig c;
  c.dataWidth = 32;
  c.hasMulDiv = true;
  c.hasBarrelShifter = true;
  c.registerFileSize = 8;
  return c;
}

std::vector<hwlib::ArchConfig> allArchs() {
  return {archPlain8(), archFull16(), archWide32()};
}

#define SKIP_WITHOUT_BACKEND()                                        \
  do {                                                                \
    if (!jit::jitBackendAvailable())                                  \
      GTEST_SKIP() << "native tier unavailable on this build/host";   \
  } while (0)

// ----------------------------------------------------- handwritten cases

AsmProgram progOf(std::vector<Instr> code) {
  AsmProgram p;
  p.code = std::move(code);
  return p;
}

TEST(TepJitDiff, WidthBoundaryArithmetic) {
  SKIP_WITHOUT_BACKEND();
  // Carries, borrows and sign bits at 1/8/16/31/32-bit widths, including
  // values whose raw 32-bit form has bits above the operation width.
  const int32_t values[] = {0, 1, -1, 0x7F, 0x80, 0xFF, 0x7FFF, 0x8000,
                            static_cast<int32_t>(0xFFFF),
                            0x7FFFFFFF, static_cast<int32_t>(0x80000000)};
  const Opcode ops[] = {Opcode::Add, Opcode::Sub, Opcode::Cmp, Opcode::And,
                        Opcode::Xor, Opcode::Mul};
  const int widths[] = {1, 8, 16, 31, 32};
  for (const auto& config : allArchs()) {
    for (const int w : widths) {
      for (const Opcode op : ops) {
        for (const int32_t a : values) {
          for (const int32_t b : values) {
            const auto prog = progOf({
                {Opcode::LdaImm, w, a},
                {Opcode::LdoImm, w, b},
                {op, w, 0},
                {Opcode::Tret, 8, 0},
            });
            ASSERT_TRUE(diffRoutine(prog, 0, config, 7, "alu"))
                << opcodeMnemonic(op) << " w" << w << " a=" << a << " b=" << b;
          }
        }
      }
    }
  }
}

TEST(TepJitDiff, UnaryAndShiftSemantics) {
  SKIP_WITHOUT_BACKEND();
  const int32_t values[] = {0, 1, -1, 0x80, 0xFFFF, 0x12345678,
                            static_cast<int32_t>(0x80000000)};
  for (const auto& config : allArchs()) {
    for (const int w : {1, 8, 16, 17, 32}) {
      for (const Opcode op : {Opcode::Not, Opcode::Neg}) {
        for (const int32_t a : values) {
          const auto prog = progOf({
              {Opcode::LdaImm, w, a},
              {op, w, 0},
              {Opcode::Tret, 8, 0},
          });
          ASSERT_TRUE(diffRoutine(prog, 0, config, 9, "unary"))
              << opcodeMnemonic(op) << " w" << w << " a=" << a;
        }
      }
      for (const Opcode op : {Opcode::Shl, Opcode::Shr, Opcode::Sar}) {
        for (const int count : {0, 1, 7, 15, 31, 33}) {  // 33 wraps to 1
          for (const int32_t a : values) {
            const auto prog = progOf({
                {Opcode::LdaImm, w, a},
                {op, w, count},
                {Opcode::Tret, 8, 0},
            });
            ASSERT_TRUE(diffRoutine(prog, 0, config, 11, "shift"))
                << opcodeMnemonic(op) << " w" << w << " a=" << a << " n=" << count;
          }
        }
      }
    }
  }
}

TEST(TepJitDiff, DivisionIncludingByZero) {
  SKIP_WITHOUT_BACKEND();
  const int32_t values[] = {0, 1, -1, 7, -7, 255, 0x8000, -32768};
  for (const auto& config : allArchs()) {
    for (const int w : {8, 16, 32}) {
      for (const Opcode op :
           {Opcode::Div, Opcode::Mod, Opcode::Divu, Opcode::Modu}) {
        for (const int32_t a : values) {
          for (const int32_t b : values) {
            const auto prog = progOf({
                {Opcode::LdaImm, w, a},
                {Opcode::LdoImm, w, b},
                {op, w, 0},
                {Opcode::Tret, 8, 0},
            });
            ASSERT_TRUE(diffRoutine(prog, 0, config, 13, "div"))
                << opcodeMnemonic(op) << " w" << w << " a=" << a << " b=" << b;
          }
        }
      }
    }
  }
}

TEST(TepJitDiff, MicrocodeJumpsAndLoops) {
  SKIP_WITHOUT_BACKEND();
  for (const auto& config : allArchs()) {
    // Backward loop: count 5 down to 0 through a register.
    ASSERT_TRUE(diffRoutine(progOf({
                                {Opcode::LdaImm, 8, 5},
                                {Opcode::StaReg, 8, 0},
                                {Opcode::LdaReg, 8, 0},   // loop head (2)
                                {Opcode::LdoImm, 8, 1},
                                {Opcode::Sub, 8, 0},
                                {Opcode::StaReg, 8, 0},
                                {Opcode::Jnz, 8, 2},
                                {Opcode::Tret, 8, 0},
                            }),
                            0, config, 17, "loop"));
    // All four conditional jumps, taken and not taken.
    for (const Opcode jcc : {Opcode::Jz, Opcode::Jnz, Opcode::Jn, Opcode::Jc}) {
      for (const int32_t a : {0, 1, -1, 0x80}) {
        ASSERT_TRUE(diffRoutine(progOf({
                                    {Opcode::LdaImm, 8, a},
                                    {Opcode::LdoImm, 8, 1},
                                    {Opcode::Sub, 8, 0},
                                    {jcc, 8, 6},
                                    {Opcode::LdaImm, 8, 0x33},
                                    {Opcode::Outp, 8, 1},
                                    {Opcode::Outp, 8, 0},  // target (6)
                                    {Opcode::Tret, 8, 0},
                                }),
                                0, config, 19, "jcc"))
            << opcodeMnemonic(jcc) << " a=" << a;
      }
    }
    // Calls: nested subroutines sharing the accumulator.
    ASSERT_TRUE(diffRoutine(progOf({
                                {Opcode::LdaImm, 16, 100},
                                {Opcode::Call, 8, 4},
                                {Opcode::Outp, 16, 0},
                                {Opcode::Tret, 8, 0},
                                {Opcode::LdoImm, 16, 11},  // sub1 (4)
                                {Opcode::Add, 16, 0},
                                {Opcode::Call, 8, 8},
                                {Opcode::Ret, 8, 0},
                                {Opcode::LdoImm, 16, 3},   // sub2 (8)
                                {Opcode::Mul, 16, 0},
                                {Opcode::Ret, 8, 0},
                            }),
                            0, config, 23, "call"));
  }
}

TEST(TepJitDiff, IndirectAndIndexedArrayWrites) {
  SKIP_WITHOUT_BACKEND();
  for (const auto& config : allArchs()) {
    // OP-relative addressing with the interpreter's 16-bit MAR wrap,
    // internal and external targets, plus a displaced record field.
    for (const int32_t base : {0x100, 0x4000}) {
      ASSERT_TRUE(diffRoutine(progOf({
                                  {Opcode::LdoImm, 16, base},
                                  {Opcode::LdaImm, 16, 0x1234},
                                  {Opcode::StaInd, 16, 0},
                                  {Opcode::LdaInd, 16, 0},
                                  {Opcode::LdaIdx, 16, 2},
                                  {Opcode::StaIdx, 16, 4},
                                  {Opcode::Tret, 8, 0},
                              }),
                              0, config, 29, "indirect"))
          << "base=0x" << std::hex << base;
    }
    // External pointer walk: pointer value itself loaded from memory.
    ASSERT_TRUE(diffRoutine(progOf({
                                {Opcode::LdoMem, 16, 0x40},   // OP = mem[0x40]
                                {Opcode::LdaImm, 8, 0x5A},
                                {Opcode::StaInd, 8, 0},       // may fault: both
                                {Opcode::Tret, 8, 0},         // tiers must agree
                            }),
                            0, config, 31, "pointer-walk"));
  }
}

TEST(TepJitDiff, ErrorPathsMatchByteForByte) {
  SKIP_WITHOUT_BACKEND();
  const auto config = archFull16();
  // Running off the program (no Tret).
  ASSERT_TRUE(diffRoutine(progOf({{Opcode::LdaImm, 8, 1}}), 0, config, 1, "runoff"));
  // Jump to an out-of-range target.
  ASSERT_TRUE(diffRoutine(progOf({
                              {Opcode::Jmp, 8, 99},
                              {Opcode::Tret, 8, 0},
                          }),
                          0, config, 1, "jump-runoff"));
  // Call stack overflow (self-recursion blows the 32-deep stack).
  ASSERT_TRUE(diffRoutine(progOf({
                              {Opcode::Call, 8, 0},
                              {Opcode::Tret, 8, 0},
                          }),
                          0, config, 1, "stack-overflow"));
  // RET with an empty call stack.
  ASSERT_TRUE(diffRoutine(progOf({
                              {Opcode::Ret, 8, 0},
                              {Opcode::Tret, 8, 0},
                          }),
                          0, config, 1, "stack-underflow"));
  // Unmapped memory access.
  ASSERT_TRUE(diffRoutine(progOf({
                              {Opcode::LdaMem, 16, 0x7FFF},
                              {Opcode::Tret, 8, 0},
                          }),
                          0, config, 1, "unmapped"));
}

TEST(TepJitDiff, BudgetExhaustionUsesInterpreterMessage) {
  SKIP_WITHOUT_BACKEND();
  // An infinite loop must hit the configuration-cycle budget with the
  // interpreter's exact message. (At routine level the interpreter has no
  // budget guard — the machine-level loop owns it — so only the native
  // side is run here and its message checked against the known text.)
  const auto prog = progOf({{Opcode::Jmp, 8, 0}});
  SimpleHost host;
  TierRun native;
  std::string reject;
  ASSERT_TRUE(
      runNative(prog, 0, archPlain8(), host, 10'000, &native, &reject))
      << reject;
  EXPECT_FALSE(native.completed);
  EXPECT_EQ(native.error,
            "PSCP configuration cycle exceeded 10000 machine cycles");
}

// -------------------------------------------------------------- fuzzing

/// Generate a random terminating routine: straight-line body with forward
/// branches, register/memory/port traffic and CR ops, then Tret, then a
/// few straight-line subroutines for Call targets.
AsmProgram genProgram(Rng& rng) {
  const int widths[] = {1, 3, 8, 12, 16, 21, 31, 32};
  const int32_t imms[] = {0, 1, -1, 0x7F, 0x80, 0xFF, 0x7FFF, 0x8000,
                          static_cast<int32_t>(0xFFFF), 0x7FFFFFFF,
                          static_cast<int32_t>(0x80000000)};
  const int bodyLen = 4 + rng.below(28);
  const int tretAt = bodyLen;  // body occupies [0, bodyLen)
  const int subCount = 1 + rng.below(3);

  // Lay out subroutine entries after the Tret so Call operands are known
  // while the body is generated.
  std::vector<int> subEntry(static_cast<size_t>(subCount));
  int at = tretAt + 1;
  std::vector<std::vector<Instr>> subs;
  Rng subRng(rng.next());
  for (int s = 0; s < subCount; ++s) {
    subEntry[static_cast<size_t>(s)] = at;
    std::vector<Instr> body;
    const int len = 1 + subRng.below(3);
    for (int i = 0; i < len; ++i) {
      const int w = widths[subRng.below(8)];
      switch (subRng.below(4)) {
        case 0: body.push_back({Opcode::LdoImm, w, imms[subRng.below(11)]}); break;
        case 1: body.push_back({Opcode::Add, w, 0}); break;
        case 2: body.push_back({Opcode::Xor, w, 0}); break;
        default: body.push_back({Opcode::Tao, w, 0}); break;
      }
    }
    body.push_back({Opcode::Ret, 8, 0});
    at += static_cast<int>(body.size());
    subs.push_back(std::move(body));
  }

  AsmProgram prog;
  for (int i = 0; i < bodyLen; ++i) {
    const int w = widths[rng.below(8)];
    const int32_t imm = imms[rng.below(11)];
    Instr in{Opcode::Nop, w, 0};
    switch (rng.below(24)) {
      case 0: in = {Opcode::LdaImm, w, imm}; break;
      case 1: in = {Opcode::LdoImm, w, imm}; break;
      case 2: in = {Opcode::LdaMem, w, kAddrPool[rng.below(7)]}; break;
      case 3: in = {Opcode::LdoMem, w, kAddrPool[rng.below(7)]}; break;
      case 4: in = {Opcode::StaMem, w, kAddrPool[rng.below(7)]}; break;
      case 5: in = {Opcode::LdaReg, w, rng.below(8)}; break;
      case 6: in = {Opcode::StaReg, w, rng.below(8)}; break;
      case 7: in = {Opcode::LdoReg, w, rng.below(8)}; break;
      case 8: in = {Opcode::Tao, w, 0}; break;
      case 9: {
        const Opcode alu[] = {Opcode::Add, Opcode::Sub, Opcode::And,
                              Opcode::Or, Opcode::Xor, Opcode::Not,
                              Opcode::Neg, Opcode::Mul, Opcode::Cmp};
        in = {alu[rng.below(9)], w, 0};
        break;
      }
      case 10: {
        const Opcode dv[] = {Opcode::Div, Opcode::Mod, Opcode::Divu,
                             Opcode::Modu};
        in = {dv[rng.below(4)], w, 0};
        break;
      }
      case 11: {
        const Opcode sh[] = {Opcode::Shl, Opcode::Shr, Opcode::Sar};
        in = {sh[rng.below(3)], w, rng.below(34)};
        break;
      }
      case 12:
      case 13: {
        // Forward branch into the remaining body (or straight to Tret).
        const Opcode br[] = {Opcode::Jmp, Opcode::Jz, Opcode::Jnz,
                             Opcode::Jn, Opcode::Jc};
        const int target = i + 1 + rng.below(tretAt - i);
        in = {br[rng.below(5)], 8, target};
        break;
      }
      case 14:
        in = {Opcode::Call, 8, subEntry[static_cast<size_t>(rng.below(subCount))]};
        break;
      case 15: in = {Opcode::Inp, w, rng.below(4)}; break;
      case 16: in = {Opcode::Outp, w, rng.below(4)}; break;
      case 17: in = {Opcode::EvSet, 8, rng.below(4)}; break;
      case 18: in = {Opcode::CSet, 8, rng.below(4)}; break;
      case 19: in = {Opcode::CClr, 8, rng.below(4)}; break;
      case 20: in = {Opcode::CTst, 8, rng.below(4)}; break;
      case 21: in = {Opcode::STst, 8, rng.below(4)}; break;
      case 22: {
        // Indirect/indexed over a safe pointer: OP is loaded just before.
        prog.code.push_back({Opcode::LdoImm, 16, kAddrPool[rng.below(7)]});
        const Opcode ind[] = {Opcode::LdaInd, Opcode::StaInd, Opcode::LdaIdx,
                              Opcode::StaIdx};
        const Opcode pick = ind[rng.below(4)];
        const int32_t disp =
            (pick == Opcode::LdaIdx || pick == Opcode::StaIdx) ? rng.below(8) : 0;
        in = {pick, w, disp};
        break;
      }
      default: in = {Opcode::Nop, 8, 0}; break;
    }
    prog.code.push_back(in);
  }
  // The branch targets were chosen against pre-growth indices; indirect
  // setup pushes extra LdoImm words, so re-target anything now stale to
  // the Tret (still a valid forward branch).
  const int realTret = static_cast<int>(prog.code.size());
  for (int idx = 0; idx < realTret; ++idx) {
    Instr& in = prog.code[static_cast<size_t>(idx)];
    switch (in.op) {
      case Opcode::Jmp: case Opcode::Jz: case Opcode::Jnz:
      case Opcode::Jn: case Opcode::Jc:
        // Strictly forward, in range: the body always terminates.
        if (in.operand <= idx || in.operand > realTret) in.operand = realTret;
        break;
      default: break;
    }
  }
  prog.code.push_back({Opcode::Tret, 8, 0});
  const int shift = realTret - tretAt;
  for (auto& sub : subs)
    for (const Instr& in : sub) prog.code.push_back(in);
  // Call operands were laid out against the pre-growth Tret position.
  for (Instr& in : prog.code)
    if (in.op == Opcode::Call) in.operand += shift;
  return prog;
}

TEST(TepJitDiff, RandomProgramFuzz) {
  SKIP_WITHOUT_BACKEND();
  int rejected = 0;
  int diffed = 0;
  const auto archs = allArchs();
  for (uint32_t seed = 1; seed <= 120; ++seed) {
    Rng rng(seed * 2654435761u);
    const AsmProgram prog = genProgram(rng);
    const auto& config = archs[seed % archs.size()];
    if (diffRoutine(prog, 0, config, seed, "fuzz seed " + std::to_string(seed)))
      ++diffed;
    else
      ++rejected;
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing seed: " << seed << "\n"
                    << prog.listing();
      break;
    }
  }
  // The generator only emits supported shapes; nothing may be rejected.
  EXPECT_EQ(rejected, 0);
  EXPECT_GE(diffed, 100);
}

// A second seed lane pinned to the richest arch shape (16-bit with
// mul/div/comparator/two's complement) so chunked-width paths get extra
// coverage beyond the round-robin in RandomProgramFuzz.
TEST(TepJitDiff, FuzzWithCrossingBranches) {
  SKIP_WITHOUT_BACKEND();
  for (uint32_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 40503u + 7u);
    AsmProgram prog = genProgram(rng);
    const auto config = archFull16();
    (void)diffRoutine(prog, 0, config, seed ^ 0x55u,
                      "crossing seed " + std::to_string(seed));
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing seed: " << seed << "\n" << prog.listing();
      break;
    }
  }
}

// ----------------------------------------------------- tier-cache policy

TEST(TepJitTier, AutoPromotesAtThresholdAlwaysCompilesFirstRun) {
  SKIP_WITHOUT_BACKEND();
  const auto prog = progOf({
      {Opcode::LdaImm, 8, 1},
      {Opcode::Tret, 8, 0},
  });
  const auto config = archPlain8();
  jit::TierCache cache(&prog, &config, 1);
  // kAuto: below the threshold nothing compiles.
  for (int i = 0; i < 9; ++i)
    EXPECT_EQ(cache.dispatch(0, 0, jit::JitMode::kAuto, 10), nullptr);
  EXPECT_EQ(cache.stateOf(0), jit::RoutineState::kNotCompiled);
  EXPECT_NE(cache.dispatch(0, 0, jit::JitMode::kAuto, 10), nullptr);
  EXPECT_EQ(cache.stateOf(0), jit::RoutineState::kNative);
  EXPECT_EQ(cache.execCount(0), 10);

  jit::TierCache always(&prog, &config, 1);
  EXPECT_NE(always.dispatch(0, 0, jit::JitMode::kAlways, 1 << 20), nullptr);
  jit::TierCache off(&prog, &config, 1);
  EXPECT_EQ(off.dispatch(0, 0, jit::JitMode::kOff, 0), nullptr);
  EXPECT_EQ(off.stateOf(0), jit::RoutineState::kNotCompiled);
}

TEST(TepJitTier, CountersSumOverDispatchingThreads) {
  SKIP_WITHOUT_BACKEND();
  const auto prog = progOf({
      {Opcode::LdaImm, 8, 1},
      {Opcode::Tret, 8, 0},
  });
  const auto config = archPlain8();
  jit::TierCache cache(&prog, &config, 1);
  // More threads than stripes, so some of them share one.
  constexpr int kThreads = 12;
  constexpr int kRuns = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache] {
      for (int i = 0; i < kRuns; ++i) {
        if (cache.dispatch(0, 0, jit::JitMode::kAuto, 100) != nullptr)
          cache.recordNativeRun(0);
        else
          cache.recordInterpRun(0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(cache.stateOf(0), jit::RoutineState::kNative);
  EXPECT_EQ(cache.execCount(0), kThreads * kRuns);
  const jit::TierResidency r = cache.residency();
  EXPECT_EQ(r.nativeRuns + r.interpRuns, kThreads * kRuns);
  EXPECT_GT(r.interpRuns, 0);  // the cold dispatches below the threshold
  EXPECT_EQ(r.nativeRoutines, 1);
}

TEST(TepJitTier, RejectedRoutineStaysInterpreted) {
  const auto prog = progOf({
      {Opcode::Add, 33, 0},  // invalid width: lowering rejects
      {Opcode::Tret, 8, 0},
  });
  const auto config = archPlain8();
  jit::TierCache cache(&prog, &config, 1);
  std::string reason;
  EXPECT_FALSE(cache.precompile(0, 0, &reason));
  EXPECT_FALSE(reason.empty());
  if (jit::jitBackendAvailable()) {
    EXPECT_EQ(cache.stateOf(0), jit::RoutineState::kRejected);
  }
  EXPECT_EQ(cache.dispatch(0, 0, jit::JitMode::kAlways, 0), nullptr);
}

// ------------------------------------------------- machine-level diffing

using machine::CycleStats;
using machine::PscpMachine;

/// Step `a` (reference tier) and `b` (tier under test) with the same
/// pseudo-random event script and require identical observable behaviour
/// every cycle.
void diffMachines(PscpMachine& a, PscpMachine& b, uint32_t seed, int cycles) {
  std::vector<int> eventIds;
  for (const char* name : {"POWER", "DATA_VALID", "X_PULSE", "Y_PULSE"})
    eventIds.push_back(a.eventId(name));
  Rng rng(seed);
  CycleStats sa, sb;
  for (int cyc = 0; cyc < cycles; ++cyc) {
    std::vector<int> events;
    for (const int id : eventIds)
      if (rng.chance(35)) events.push_back(id);
    a.configurationCycleIds(events, &sa);
    b.configurationCycleIds(events, &sb);
    ASSERT_EQ(sa.fired, sb.fired) << "cycle " << cyc;
    ASSERT_EQ(sa.cycles, sb.cycles) << "cycle " << cyc;
    ASSERT_EQ(sa.busStallCycles, sb.busStallCycles) << "cycle " << cyc;
    ASSERT_EQ(sa.quiescent, sb.quiescent) << "cycle " << cyc;
  }
  EXPECT_EQ(a.totalCycles(), b.totalCycles());
  EXPECT_EQ(a.activeNames(), b.activeNames());
  ASSERT_EQ(a.portWrites().size(), b.portWrites().size());
  for (size_t i = 0; i < a.portWrites().size(); ++i)
    EXPECT_EQ(a.portWrites()[i], b.portWrites()[i]) << "port write " << i;
}

TEST(TepJitMachine, SmdSingleTepJitMatchesInterpreter) {
  const auto image = workloads::makeSmdFleetImage(/*numTeps=*/1);
  PscpMachine interp(image);
  interp.setJitMode(jit::JitMode::kOff);
  PscpMachine native(image);
  native.setJitMode(jit::JitMode::kAlways);
  diffMachines(interp, native, 0xC0FFEE, 300);
  if (jit::jitBackendAvailable()) {
    // The native tier must actually have run — this test is vacuous
    // otherwise.
    EXPECT_GT(native.jitNativeRuns(), 0);
    EXPECT_EQ(interp.jitNativeRuns(), 0);
    const jit::TierResidency res = native.tierResidency();
    EXPECT_GT(res.nativeRoutines, 0);
  }
}

TEST(TepJitMachine, SmdTwoTepMixedServiceMatchesInterpreter) {
  // With two TEPs only single-transition cycles are serial-equivalent;
  // the machine must interleave native and lockstep cycles and still
  // match the pure interpreter exactly.
  const auto image = workloads::makeSmdFleetImage(/*numTeps=*/2);
  PscpMachine interp(image);
  interp.setJitMode(jit::JitMode::kOff);
  PscpMachine native(image);
  native.setJitMode(jit::JitMode::kAlways);
  diffMachines(interp, native, 0xBEEF, 300);
}

TEST(TepJitMachine, AutoThresholdPromotesHotRoutines) {
  SKIP_WITHOUT_BACKEND();
  const auto image = workloads::makeSmdFleetImage(/*numTeps=*/1);
  PscpMachine m(image);
  m.setJitMode(jit::JitMode::kAuto);
  m.setJitThreshold(8);
  const std::vector<int> power{m.eventId("POWER")};
  const std::vector<int> none;
  CycleStats stats;
  m.configurationCycleIds(power, &stats);
  // Drive the same routines repeatedly; past the threshold they go native.
  const std::vector<int> data{m.eventId("DATA_VALID")};
  for (int i = 0; i < 200; ++i)
    m.configurationCycleIds(i % 2 == 0 ? data : none, &stats);
  EXPECT_GT(m.jitInterpRuns(), 0);  // the cold runs before promotion
  EXPECT_GT(m.jitNativeRuns(), 0);  // the hot steady state
}

// --------------------------------------------------- fleet-level diffing

TEST(TepJitFleet, FleetJitMatchesInterpAcrossWorkersAndSoa) {
  const auto image = workloads::makeSmdFleetImage(/*numTeps=*/1);
  constexpr size_t kInstances = 12;
  constexpr int kEpochs = 20;

  auto runFleet = [&](jit::JitMode mode, int workers, bool soa) {
    fleet::FleetConfig config;
    config.workerThreads = workers;
    config.soaBatching = soa;
    config.jitMode = mode;
    config.jitThreshold = 4;
    fleet::Fleet fleet(image, config);
    const workloads::SmdPulseIds ids = workloads::resolveSmdPulseIds(fleet);
    EXPECT_TRUE(workloads::warmUpSmdFleet(fleet, kInstances, ids));
    for (int e = 0; e < kEpochs; ++e) {
      fleet.step(2);
      workloads::injectSmdPulses(fleet, ids);
    }
    fleet.step(2);
    std::vector<fleet::InstanceSnapshot> snaps;
    for (size_t i = 0; i < kInstances; ++i)
      snaps.push_back(fleet.snapshot(static_cast<fleet::InstanceId>(i)));
    return snaps;
  };

  const auto reference = runFleet(jit::JitMode::kOff, 1, false);
  for (const int workers : {1, 8}) {
    for (const bool soa : {false, true}) {
      const auto got = runFleet(jit::JitMode::kAlways, workers, soa);
      ASSERT_EQ(got.size(), reference.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].machineCycles, reference[i].machineCycles)
            << "instance " << i << " workers=" << workers << " soa=" << soa;
        EXPECT_EQ(got[i].configCycles, reference[i].configCycles) << i;
        EXPECT_EQ(got[i].firedTransitions, reference[i].firedTransitions) << i;
        EXPECT_EQ(got[i].quiescentCycles, reference[i].quiescentCycles) << i;
        EXPECT_EQ(got[i].activeStates, reference[i].activeStates) << i;
      }
    }
  }
}

TEST(TepJitFleet, TierMetricsSurfaceInMergedMetrics) {
  SKIP_WITHOUT_BACKEND();
  const auto image = workloads::makeSmdFleetImage(/*numTeps=*/1);
  fleet::FleetConfig config;
  config.jitMode = jit::JitMode::kAlways;
  fleet::Fleet fleet(image, config);
  const workloads::SmdPulseIds ids = workloads::resolveSmdPulseIds(fleet);
  ASSERT_TRUE(workloads::warmUpSmdFleet(fleet, 4, ids));
  for (int e = 0; e < 6; ++e) {
    fleet.step(2);
    workloads::injectSmdPulses(fleet, ids);
  }
  const obs::MetricsRegistry metrics = fleet.mergedMetrics();
  EXPECT_GT(metrics.value("fleet.jit_native_routines"), 0);
  EXPECT_GT(metrics.value("fleet.jit_compiled_routines"), 0);
}

// ------------------------------------------------ journal replay diffing

TEST(TepJitJournal, InterpreterRecordingVerifiesUnderJit) {
  // Record the SMD duty cycle under the interpreter, then verify the CR
  // digest checkpoints replaying with the native tier forced on — across
  // worker counts and batching modes (the PR-8 acceptance matrix).
  const auto image = workloads::makeSmdFleetImage(/*numTeps=*/1);
  fleet::FleetConfig config;
  config.journal = true;
  config.journalConfig.checkpointInterval = 4;
  config.jitMode = jit::JitMode::kOff;
  fleet::Fleet fleet(image, config);
  const workloads::SmdPulseIds ids = workloads::resolveSmdPulseIds(fleet);
  ASSERT_TRUE(workloads::warmUpSmdFleet(fleet, 8, ids));
  for (int e = 0; e < 16; ++e) {
    fleet.step(2);
    workloads::injectSmdPulses(fleet, ids);
  }
  fleet.step(2);

  obs::journal::Journal journal;
  std::string error;
  ASSERT_TRUE(
      obs::journal::Journal::parse(fleet.journal()->dumpJson(), &journal, &error))
      << error;

  const obs::journal::Replayer replayer(&journal, image);
  for (const int workers : {1, 8}) {
    for (const bool soa : {false, true}) {
      obs::journal::ReplayOptions options;
      options.workerThreads = workers;
      options.soaBatching = soa;
      options.jitMode = jit::JitMode::kAlways;
      options.jitThreshold = 1;
      const obs::journal::ReplayResult result = replayer.run(options);
      ASSERT_TRUE(result.ok) << result.error;
      EXPECT_TRUE(result.verified)
          << "workers=" << workers << " soa=" << soa << " first mismatch at epoch "
          << result.firstMismatch.epoch;
      EXPECT_GT(result.checkpointsChecked, 0);
    }
  }
}

}  // namespace
}  // namespace pscp::tep
