#include "tep/jit/tier.hpp"

#include <chrono>
#include <cstdlib>

#include "support/diag.hpp"
#include "tep/jit/emit_x64.hpp"

namespace pscp::tep::jit {

const char* jitModeName(JitMode mode) {
  switch (mode) {
    case JitMode::kOff: return "off";
    case JitMode::kAuto: return "auto";
    case JitMode::kAlways: return "always";
  }
  return "?";
}

const char* routineStateName(RoutineState state) {
  switch (state) {
    case RoutineState::kNotCompiled: return "interp";
    case RoutineState::kCompiling: return "compiling";
    case RoutineState::kNative: return "native";
    case RoutineState::kRejected: return "rejected";
  }
  return "?";
}

bool parseJitMode(const std::string& text, JitMode* out) {
  if (text == "off") {
    *out = JitMode::kOff;
  } else if (text == "auto") {
    *out = JitMode::kAuto;
  } else if (text == "always") {
    *out = JitMode::kAlways;
  } else {
    return false;
  }
  return true;
}

JitMode jitModeFromEnv() {
  static const JitMode cached = [] {
    JitMode mode = JitMode::kAuto;
    if (const char* env = std::getenv("PSCP_JIT")) {
      if (!parseJitMode(env, &mode)) mode = JitMode::kAuto;
    }
    return mode;
  }();
  return cached;
}

TierCache::TierCache(const AsmProgram* program, const hwlib::ArchConfig* config,
                     int transitionCount)
    : program_(program), config_(config), count_(transitionCount) {
  PSCP_ASSERT(transitionCount >= 0);
  if (count_ > 0) slots_ = std::make_unique<Slot[]>(static_cast<size_t>(count_));
}

TierCache::Counters& TierCache::stripeOf(Slot& slot) {
  static std::atomic<size_t> nextStripe{0};
  thread_local const size_t stripe =
      nextStripe.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return slot.stripes[stripe];
}

int64_t TierCache::sum(const Slot& slot, std::atomic<int64_t> Counters::*counter) {
  int64_t total = 0;
  for (const Counters& c : slot.stripes)
    total += (c.*counter).load(std::memory_order_relaxed);
  return total;
}

CompiledFn TierCache::dispatch(int transition, int entry, JitMode mode,
                               int64_t threshold) {
  if (mode == JitMode::kOff || !jitBackendAvailable()) return nullptr;
  if (transition < 0 || transition >= count_) return nullptr;
  Slot& slot = slots_[transition];
  stripeOf(slot).execs.fetch_add(1, std::memory_order_relaxed);
  const auto state = static_cast<RoutineState>(slot.state.load(std::memory_order_acquire));
  switch (state) {
    case RoutineState::kNative:
      return slot.fn.load(std::memory_order_acquire);
    case RoutineState::kRejected:
    case RoutineState::kCompiling:
      return nullptr;
    case RoutineState::kNotCompiled:
      break;
  }
  // Only a cold routine reads the other threads' stripes.
  if (mode == JitMode::kAuto && sum(slot, &Counters::execs) < threshold) return nullptr;
  if (compileSlot(slot, entry, nullptr)) {
    return slot.fn.load(std::memory_order_acquire);
  }
  return nullptr;
}

bool TierCache::precompile(int transition, int entry, std::string* reason) {
  if (!jitBackendAvailable()) {
    if (reason != nullptr) *reason = "native tier unavailable on this build";
    return false;
  }
  if (transition < 0 || transition >= count_) {
    if (reason != nullptr) *reason = "transition id out of range";
    return false;
  }
  Slot& slot = slots_[transition];
  if (static_cast<RoutineState>(slot.state.load(std::memory_order_acquire)) ==
      RoutineState::kNative) {
    return true;
  }
  return compileSlot(slot, entry, reason);
}

bool TierCache::compileSlot(Slot& slot, int entry, std::string* reason) {
  std::lock_guard<std::mutex> lock(compileMutex_);
  const auto state = static_cast<RoutineState>(slot.state.load(std::memory_order_acquire));
  if (state == RoutineState::kNative) return true;
  if (state == RoutineState::kRejected) {
    if (reason != nullptr) *reason = "previously rejected";
    return false;
  }
  slot.state.store(static_cast<uint8_t>(RoutineState::kCompiling),
                   std::memory_order_release);
  const auto t0 = std::chrono::steady_clock::now();
  bool ok = false;
  std::string why;
  ir::LowerResult lowered = ir::lowerRoutine(*program_, entry, *config_);
  if (!lowered.ok) {
    why = "lowering: " + lowered.reason;
  } else {
    EmitResult emitted = emitX64(lowered.routine);
    if (!emitted.ok) {
      why = "emit: " + emitted.error;
    } else if (!slot.buf.install(emitted.code, &why)) {
      // why already set by install()
    } else {
      slot.fn.store(reinterpret_cast<CompiledFn>(const_cast<void*>(slot.buf.entry())),
                    std::memory_order_release);
      ok = true;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  compileMicros_.fetch_add(
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count(),
      std::memory_order_relaxed);
  slot.state.store(static_cast<uint8_t>(ok ? RoutineState::kNative
                                           : RoutineState::kRejected),
                   std::memory_order_release);
  if (!ok && reason != nullptr) *reason = why;
  return ok;
}

void TierCache::recordNativeRun(int transition) {
  if (transition < 0 || transition >= count_) return;
  stripeOf(slots_[transition]).nativeRuns.fetch_add(1, std::memory_order_relaxed);
}

void TierCache::recordInterpRun(int transition) {
  if (transition < 0 || transition >= count_) return;
  stripeOf(slots_[transition]).interpRuns.fetch_add(1, std::memory_order_relaxed);
}

TierResidency TierCache::residency() const {
  TierResidency r;
  r.compileMicros = compileMicros_.load(std::memory_order_relaxed);
  for (int i = 0; i < count_; ++i) {
    const Slot& slot = slots_[i];
    r.nativeRuns += sum(slot, &Counters::nativeRuns);
    r.interpRuns += sum(slot, &Counters::interpRuns);
    switch (static_cast<RoutineState>(slot.state.load(std::memory_order_acquire))) {
      case RoutineState::kNative:
        ++r.nativeRoutines;
        break;
      case RoutineState::kRejected:
        ++r.rejectedRoutines;
        break;
      case RoutineState::kNotCompiled:
      case RoutineState::kCompiling:
        if (sum(slot, &Counters::execs) > 0) ++r.interpretedRoutines;
        break;
    }
  }
  return r;
}

RoutineState TierCache::stateOf(int transition) const {
  if (transition < 0 || transition >= count_) return RoutineState::kNotCompiled;
  return static_cast<RoutineState>(
      slots_[transition].state.load(std::memory_order_acquire));
}

int64_t TierCache::execCount(int transition) const {
  if (transition < 0 || transition >= count_) return 0;
  return sum(slots_[transition], &Counters::execs);
}

}  // namespace pscp::tep::jit
