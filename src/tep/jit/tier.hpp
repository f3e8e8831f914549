// Tier selection for TEP routines: interpreter (reference, always
// available) vs compiled native code.
//
// Promotion policy: with mode kAlways every routine is compiled on its
// first dispatch; with kAuto a routine is compiled once its execution
// count crosses the threshold (hotness, fed by the same per-transition
// counters the profiler attributes cycles to); kOff never compiles. A
// routine that fails lowering or emission is marked Rejected and stays on
// the interpreter forever — rejection is a performance decision, never a
// correctness one, because the interpreter is the semantics.
//
// The cache lives per ChartImage, so a fleet of thousands of instances
// compiles each routine once and shares the read-execute pages; per-run
// state (JitContext) is per machine, which keeps multi-worker stepping
// race-free without locks on the hot path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "hwlib/arch_config.hpp"
#include "tep/isa.hpp"
#include "tep/jit/codebuf.hpp"
#include "tep/jit/runtime.hpp"

namespace pscp::tep::jit {

enum class JitMode : uint8_t {
  kOff,     ///< interpreter only
  kAuto,    ///< compile when a routine crosses the hotness threshold
  kAlways,  ///< compile every routine on first dispatch
};

[[nodiscard]] const char* jitModeName(JitMode mode);

/// Parse "off" / "auto" / "always" (case-sensitive, like PSCP_SIMD).
/// Returns false on unknown values.
[[nodiscard]] bool parseJitMode(const std::string& text, JitMode* out);

/// Process-wide mode from PSCP_JIT (cached on first use). Unset or
/// unparsable -> kAuto.
[[nodiscard]] JitMode jitModeFromEnv();

/// True when this build/host can emit and run native code (x86-64 Linux
/// with the emitter compiled in). When false every mode degrades to the
/// interpreter — kAuto/kAlways are safe to request anywhere.
[[nodiscard]] constexpr bool jitBackendAvailable() { return PSCP_JIT_BACKEND != 0; }

/// Default hotness threshold (routine executions before compilation) for
/// kAuto. Low enough that steady-state fleet workloads promote within the
/// first epochs, high enough that one-shot configuration routines don't
/// pay compile time.
inline constexpr int64_t kDefaultJitThreshold = 64;

enum class RoutineState : uint8_t { kNotCompiled, kCompiling, kNative, kRejected };

/// Stable display name ("interp", "compiling", "native", "rejected").
[[nodiscard]] const char* routineStateName(RoutineState state);

/// Tier residency summary (pscp_prof / pscp_top / fleet metrics).
struct TierResidency {
  int nativeRoutines = 0;
  int rejectedRoutines = 0;
  int interpretedRoutines = 0;  ///< seen at least once, still interpreted
  int64_t compileMicros = 0;
  int64_t nativeRuns = 0;
  int64_t interpRuns = 0;
};

/// Per-image compile cache, keyed by transition id. Thread-safe: the hot
/// path is one relaxed counter bump plus an acquire load; compilation is
/// serialized behind a mutex and publishes with release ordering. The
/// counters are striped per thread: every worker bumps a cacheline of its
/// own and readers sum the stripes, so workers stepping instances over one
/// image never bounce a shared line between cores on each dispatch.
class TierCache {
 public:
  TierCache(const AsmProgram* program, const hwlib::ArchConfig* config,
            int transitionCount);

  /// Called per dispatch. Bumps the routine's execution counter, applies
  /// the promotion policy, and returns the native entry point when the
  /// routine is (now) compiled — nullptr means "interpret this run".
  [[nodiscard]] CompiledFn dispatch(int transition, int entry, JitMode mode,
                                    int64_t threshold);

  /// Force-compile a routine (profiler-seeded AOT). Returns false with
  /// `reason` when lowering/emission rejects it.
  bool precompile(int transition, int entry, std::string* reason = nullptr);

  void recordNativeRun(int transition);
  void recordInterpRun(int transition);

  [[nodiscard]] TierResidency residency() const;
  [[nodiscard]] RoutineState stateOf(int transition) const;
  [[nodiscard]] int64_t execCount(int transition) const;

 private:
  static constexpr size_t kStripes = 8;
  struct alignas(64) Counters {
    std::atomic<int64_t> execs{0};
    std::atomic<int64_t> nativeRuns{0};
    std::atomic<int64_t> interpRuns{0};
  };
  struct Slot {
    std::atomic<uint8_t> state{static_cast<uint8_t>(RoutineState::kNotCompiled)};
    CodeBuf buf;
    std::atomic<CompiledFn> fn{nullptr};
    Counters stripes[kStripes];
  };

  /// The calling thread's stripe, fixed on its first dispatch.
  static Counters& stripeOf(Slot& slot);
  /// Sum of one counter over a slot's stripes.
  static int64_t sum(const Slot& slot, std::atomic<int64_t> Counters::*counter);
  bool compileSlot(Slot& slot, int entry, std::string* reason);

  const AsmProgram* program_;
  const hwlib::ArchConfig* config_;
  std::unique_ptr<Slot[]> slots_;
  int count_ = 0;
  std::mutex compileMutex_;
  std::atomic<int64_t> compileMicros_{0};
};

}  // namespace pscp::tep::jit
