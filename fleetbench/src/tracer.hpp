// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark itself, around its calls into each
// layer's public functions; nothing inside the library is instrumented.
// Every span keeps running totals (count, duration, self time = duration
// minus the time its child spans cover), so the per-layer self times of a
// traced run add up to the root span's wall time exactly. Individual spans
// are also kept (all but the per-cycle ones, up to a cap) and written out as
// a Chrome trace at exit.
//
// A disabled tracer records nothing: begin()/end() return immediately.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace fleetbench {

enum class Span : uint8_t {
  kRun,       ///< root: the whole traced run
  kRound,     ///< one fleet set-up + measurement window + checks
  kCompile,   ///< parse + machine::ChartImage
  kSpawn,     ///< fleet::Fleet::spawnMany
  kWarm,      ///< fleet::Fleet::setInputPort + warmCycle warm-up
  kEpoch,     ///< one closed-loop epoch (gen + inject + step)
  kGen,       ///< the benchmark's own stimulus generation
  kInject,    ///< fleet::Fleet::setInputPort + inject
  kStep,      ///< fleet::Fleet::step
  kCheck,     ///< output checks against the generator's predictions
  kVerify,    ///< interpreter-tier replay of the sample
  kReplay,    ///< machine-direct replay of the sample (timed)
  kCycle,     ///< machine::PscpMachine::configurationCycleIds
  kSelect,    ///< sla::Sla::selectInto over crBits()
  kObs,       ///< armed vs disarmed sub-fleet epochs
  kJit,       ///< tep::jit::TierCache::precompile of every routine
  kTeardown,  ///< fleet destruction
  kCount
};

[[nodiscard]] const char* spanName(Span span);

/// Spans whose self time is not attributed to any layer: the structural
/// containers. Their self time is the trace's unattributed remainder.
[[nodiscard]] bool isStructural(Span span);

[[nodiscard]] int64_t nowNs();

class Tracer {
 public:
  struct Totals {
    int64_t count = 0;
    int64_t totalNs = 0;
    int64_t selfNs = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  void begin(Span span) {
    if (enabled_) open_.push_back({span, nowNs(), 0});
  }
  /// Close the innermost open span; returns its duration (0 when disabled).
  int64_t end();

  [[nodiscard]] const Totals& totals(Span span) const {
    return totals_[static_cast<size_t>(span)];
  }
  /// Chrome trace-event JSON of the kept spans plus the per-span totals.
  bool writeChromeTrace(const std::string& path) const;

 private:
  struct Open {
    Span span;
    int64_t start;
    int64_t childNs;
  };
  struct Record {
    Span span;
    int64_t start;
    int64_t durNs;
  };
  static constexpr size_t kMaxRecords = size_t{1} << 18;

  bool enabled_;
  std::vector<Open> open_;
  std::vector<Record> records_;
  int64_t droppedRecords_ = 0;
  std::array<Totals, static_cast<size_t>(Span::kCount)> totals_{};
};

/// RAII span.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, Span span) : tracer_(tracer) { tracer_.begin(span); }
  ~SpanScope() { tracer_.end(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
};

}  // namespace fleetbench
