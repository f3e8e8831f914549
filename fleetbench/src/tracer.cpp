#include "tracer.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace fleetbench {
namespace {

/// Per-cycle spans: counted in the totals but not kept one by one, so the
/// written trace holds every coarser span of the run.
bool isPerCycle(Span span) { return span == Span::kCycle || span == Span::kSelect; }

}  // namespace

const char* spanName(Span span) {
  switch (span) {
    case Span::kRun: return "run";
    case Span::kRound: return "round";
    case Span::kCompile: return "compile";
    case Span::kSpawn: return "spawn";
    case Span::kWarm: return "warm";
    case Span::kEpoch: return "epoch";
    case Span::kGen: return "bench.gen";
    case Span::kInject: return "inject";
    case Span::kStep: return "step";
    case Span::kCheck: return "bench.check";
    case Span::kVerify: return "bench.verify";
    case Span::kReplay: return "replay";
    case Span::kCycle: return "pscp.cycle";
    case Span::kSelect: return "sla.select";
    case Span::kObs: return "obs.replay";
    case Span::kJit: return "tep.jit";
    case Span::kTeardown: return "bench.teardown";
    case Span::kCount: break;
  }
  return "?";
}

bool isStructural(Span span) {
  return span == Span::kRun || span == Span::kRound || span == Span::kEpoch ||
         span == Span::kReplay;
}

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t Tracer::end() {
  if (!enabled_ || open_.empty()) return 0;
  const Open span = open_.back();
  open_.pop_back();
  const int64_t dur = nowNs() - span.start;
  Totals& t = totals_[static_cast<size_t>(span.span)];
  ++t.count;
  t.totalNs += dur;
  t.selfNs += dur - span.childNs;
  if (!open_.empty()) open_.back().childNs += dur;
  if (isPerCycle(span.span)) return dur;
  if (records_.size() < kMaxRecords)
    records_.push_back({span.span, span.start, dur});
  else
    ++droppedRecords_;
  return dur;
}

bool Tracer::writeChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // Records are appended as spans close, so the earliest start is not first.
  int64_t first = records_.empty() ? 0 : records_.front().start;
  for (const Record& r : records_) first = std::min(first, r.start);
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f}%s\n",
                 spanName(r.span), static_cast<double>(r.start - first) / 1e3,
                 static_cast<double>(r.durNs) / 1e3,
                 i + 1 < records_.size() ? "," : "");
  }
  std::fprintf(f, "],\n\"droppedSpans\":%lld,\n\"totals\":{",
               static_cast<long long>(droppedRecords_));
  for (size_t s = 0; s < totals_.size(); ++s) {
    const Totals& t = totals_[s];
    std::fprintf(f, "%s\"%s\":{\"count\":%lld,\"total_ns\":%lld,\"self_ns\":%lld}",
                 s == 0 ? "" : ",", spanName(static_cast<Span>(s)),
                 static_cast<long long>(t.count),
                 static_cast<long long>(t.totalNs),
                 static_cast<long long>(t.selfNs));
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

}  // namespace fleetbench
