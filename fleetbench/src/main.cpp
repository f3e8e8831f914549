// fleetbench: the repository's end-to-end and per-layer benchmark.
//
//   fleetbench --workload <smd_sparse|smd_dense|proto_stream> --seed <n>
//              --seconds <s> --trace <0|1> [--charts <dir>] [--trace-out <file>]
//
// One run builds the workload's fleet kRounds times. Each round is a set-up
// (parse + ChartImage + spawn + warm-up, timed as setup_s), a closed-loop
// measurement window of seconds/kRounds (generate one epoch's stimulus,
// inject it, Fleet::step, then the next epoch), output checks on every
// instance, and an interpreter-tier (JitMode::kOff) replay of a sample of
// instances on standalone machines that must reproduce the fleet's
// simulated counts and CR digests exactly. All FleetConfig knobs stay at
// their defaults except workerThreads = min(kMaxWorkers, nproc) and, on
// proto_stream, the armed telemetry plane and journal.
//
// With --trace 0 the last stdout line reports the end-to-end metrics; with
// --trace 1 the run also records spans around every call into a layer
// (see tracer.hpp), times the sample on standalone machines at the fleet's
// own tier, replays it armed vs disarmed and compiles the chart's routines
// natively, and reports the per-layer metrics. Each layer is measured from
// outside only, by timing calls into its public functions. README.md in
// this directory states which end-to-end metric each layer metric should
// move on which workload.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "fleet/fleet.hpp"
#include "obs/journal/journal.hpp"
#include "pscp/machine.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace fleetbench {
namespace {

using pscp::fleet::Fleet;
using pscp::fleet::FleetConfig;
using pscp::fleet::InstanceId;
using pscp::machine::ChartImage;
using pscp::machine::PscpMachine;
using ImagePtr = std::shared_ptr<const ChartImage>;

constexpr int kRounds = 3;
/// Fleet worker threads. Two pool workers plus the control thread leave
/// a core of a small shared host free; with a worker on every core each
/// epoch's barrier waits on whichever core the host is busy with, and the
/// epoch-time quantiles follow the host's load rather than the fleet.
constexpr unsigned kMaxWorkers = 2;
/// Every round runs at least this many epochs and snapshots its simulated
/// counts there: the deterministic prefix that must repeat exactly.
constexpr int64_t kCheckEpochs = 32;
/// Instances replayed on standalone machines (evenly spread over the fleet).
constexpr size_t kSampleSize = 128;
/// Armed/disarmed sub-fleet size and time budget per round (traced runs).
constexpr size_t kObsInstances = 1024;
constexpr double kObsSeconds = 0.3;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string chartDir = "examples/charts";
  std::string traceOut;
};

double seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

int64_t rssBytes() {
  std::ifstream statm("/proc/self/statm");
  int64_t sizePages = 0;
  int64_t residentPages = 0;
  statm >> sizePages >> residentPages;
  return residentPages * static_cast<int64_t>(sysconf(_SC_PAGESIZE));
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Fleet-wide counters, from Fleet::mergedMetrics.
struct FleetCounts {
  SimCounts sim;
  int64_t stealChunks = 0;
  int64_t dropped = 0;
  int64_t nativeRuns = 0;
  int64_t interpRuns = 0;
};

FleetCounts readCounts(const Fleet& fleet) {
  const pscp::obs::MetricsRegistry m = fleet.mergedMetrics();
  FleetCounts c;
  c.sim.configCycles = m.value("fleet.config_cycles");
  c.sim.machineCycles = m.value("fleet.machine_cycles");
  c.sim.quiescentCycles = m.value("fleet.quiescent_cycles");
  c.sim.fired = m.value("fleet.fired_transitions");
  c.sim.busStalls = m.value("fleet.bus_stall_cycles");
  c.sim.eventsDelivered = m.value("fleet.events_delivered");
  c.stealChunks = m.value("fleet.steal_chunks");
  c.dropped = m.value("fleet.events_dropped");
  c.nativeRuns = m.value("fleet.jit_native_routines");
  c.interpRuns = m.value("fleet.jit_interp_routines");
  return c;
}

FleetCounts minus(const FleetCounts& a, const FleetCounts& b) {
  FleetCounts d;
  d.sim.configCycles = a.sim.configCycles - b.sim.configCycles;
  d.sim.machineCycles = a.sim.machineCycles - b.sim.machineCycles;
  d.sim.quiescentCycles = a.sim.quiescentCycles - b.sim.quiescentCycles;
  d.sim.fired = a.sim.fired - b.sim.fired;
  d.sim.busStalls = a.sim.busStalls - b.sim.busStalls;
  d.sim.eventsDelivered = a.sim.eventsDelivered - b.sim.eventsDelivered;
  d.stealChunks = a.stealChunks - b.stealChunks;
  d.dropped = a.dropped - b.dropped;
  d.nativeRuns = a.nativeRuns - b.nativeRuns;
  d.interpRuns = a.interpRuns - b.interpRuns;
  return d;
}

SimCounts instanceCounts(const pscp::fleet::InstanceSnapshot& s,
                         const PscpMachine& machine) {
  SimCounts c;
  c.configCycles = s.configCycles;
  c.machineCycles = s.machineCycles;
  c.quiescentCycles = s.quiescentCycles;
  c.fired = s.firedTransitions;
  c.busStalls = s.busStallCycles;
  c.eventsDelivered = s.eventsDelivered;
  c.digest = pscp::obs::journal::crDigest(machine.crBits());
  return c;
}

uint64_t foldDigests(const std::vector<size_t>& indices,
                     const std::vector<SimCounts>& counts) {
  uint64_t acc = pscp::obs::journal::kFleetDigestSeed;
  for (size_t j = 0; j < indices.size(); ++j)
    acc = pscp::obs::journal::foldInstanceDigest(acc, indices[j], counts[j].digest);
  return acc;
}

/// `count` indices spread evenly over [0, total), offset by the seed.
std::vector<size_t> spreadIndices(size_t total, size_t count, uint64_t seed) {
  count = std::min(count, total);
  std::vector<size_t> out(count);
  const size_t stride = total / count;
  for (size_t j = 0; j < count; ++j) out[j] = j * stride + seed % stride;
  return out;
}

/// Deliver one stimulus through the fleet's producer surface; false when
/// the fleet refused an event.
bool deliver(Fleet& fleet, InstanceId id, const Stimulus& s, int64_t* ops) {
  if (s.port >= 0) {
    fleet.setInputPort(id, s.port, s.value);
    ++*ops;
  }
  bool ok = true;
  for (int e = 0; e < s.eventCount; ++e) {
    ok = fleet.inject(id, s.events[static_cast<size_t>(e)]) && ok;
    ++*ops;
  }
  return ok;
}

struct SpawnedFleet {
  std::unique_ptr<Fleet> fleet;
  std::vector<InstanceId> ids;  ///< ids[k] runs the script of indices[k]
  int64_t spawnNs = 0;          ///< Fleet construction + spawnMany
  int64_t warmNs = 0;
};

/// A fleet over `image` with one instance per index, each warmed up.
SpawnedFleet spawnFleet(const ImagePtr& image, const FleetConfig& config,
                        const Workload& workload, const std::vector<size_t>& indices,
                        Tracer& tracer) {
  SpawnedFleet out;
  const int64_t t0 = nowNs();
  tracer.begin(Span::kSpawn);
  out.fleet = std::make_unique<Fleet>(image, config);
  out.ids = out.fleet->spawnMany(indices.size());
  tracer.end();
  const int64_t t1 = nowNs();
  tracer.begin(Span::kWarm);
  std::vector<WarmStep> steps;
  for (size_t k = 0; k < out.ids.size(); ++k) {
    workload.warmSteps(indices[k], steps);
    for (const WarmStep& step : steps) {
      if (step.port >= 0) out.fleet->setInputPort(out.ids[k], step.port, step.value);
      out.fleet->warmCycle(out.ids[k], *step.events);
    }
  }
  tracer.end();
  out.spawnNs = t1 - t0;
  out.warmNs = nowNs() - t1;
  return out;
}

// ------------------------------------------------- standalone replay

/// Layer times of a machine-direct replay.
struct ReplayTimes {
  int64_t wallNs = 0;  ///< all epochs of all sampled instances
  int64_t quiescentNs = 0;
  int64_t quiescentCycles = 0;
  int64_t firedNs = 0;
  int64_t firedCycles = 0;
  int64_t selectNs = 0;
  int64_t selects = 0;
  int64_t routineNs = 0;  ///< fired cycle minus its select
  int64_t firedTransitions = 0;
};

/// Replay the sample on standalone PscpMachines over `image`, one instance
/// after another on this thread: warm-up, then `stimuli[j]` epochs.
/// Records each instance's counts after kCheckEpochs epochs and at the end.
/// With an enabled tracer every cycle gets a sla.select + pscp.cycle span
/// pair; otherwise only the whole replay is timed.
void replaySample(const ImagePtr& image, const Workload& workload,
                  const std::vector<size_t>& indices,
                  const std::vector<std::vector<Stimulus>>& stimuli,
                  pscp::tep::jit::JitMode mode, Tracer& tracer,
                  std::vector<SimCounts>* atCheck, std::vector<SimCounts>* atEnd,
                  ReplayTimes* times) {
  const int cycles = workload.cyclesPerEpoch();
  std::vector<WarmStep> steps;
  std::vector<int> events;
  const std::vector<int> none;
  std::vector<pscp::statechart::TransitionId> selected;
  pscp::machine::CycleStats stats;
  atCheck->assign(indices.size(), {});
  atEnd->assign(indices.size(), {});
  for (size_t j = 0; j < indices.size(); ++j) {
    PscpMachine m(image);
    m.setJitMode(mode);
    workload.warmSteps(indices[j], steps);
    for (const WarmStep& step : steps) {
      if (step.port >= 0) m.setInputPort(step.port, step.value);
      m.configurationCycleIds(*step.events, &stats);
    }
    SimCounts c;
    const int64_t start = nowNs();
    for (size_t e = 0; e < stimuli[j].size(); ++e) {
      const Stimulus& s = stimuli[j][e];
      if (s.port >= 0) m.setInputPort(s.port, s.value);
      events.assign(s.events.begin(), s.events.begin() + s.eventCount);
      for (int cycle = 0; cycle < cycles; ++cycle) {
        const std::vector<int>& in = cycle == 0 ? events : none;
        if (tracer.enabled()) {
          tracer.begin(Span::kSelect);
          image->sla().selectInto(m.crBits(), selected);
          const int64_t selectNs = tracer.end();
          tracer.begin(Span::kCycle);
          m.configurationCycleIds(in, &stats);
          const int64_t cycleNs = tracer.end();
          times->selectNs += selectNs;
          ++times->selects;
          if (stats.quiescent) {
            times->quiescentNs += cycleNs;
            ++times->quiescentCycles;
          } else {
            times->firedNs += cycleNs;
            ++times->firedCycles;
            times->routineNs += cycleNs - selectNs;
            times->firedTransitions += static_cast<int64_t>(stats.fired.size());
          }
        } else {
          m.configurationCycleIds(in, &stats);
        }
        ++c.configCycles;
        c.machineCycles += stats.cycles;
        c.quiescentCycles += stats.quiescent ? 1 : 0;
        c.fired += static_cast<int64_t>(stats.fired.size());
        c.busStalls += stats.busStallCycles;
      }
      c.eventsDelivered += s.eventCount;
      if (static_cast<int64_t>(e) + 1 == kCheckEpochs) {
        (*atCheck)[j] = c;
        (*atCheck)[j].digest = pscp::obs::journal::crDigest(m.crBits());
      }
    }
    times->wallNs += nowNs() - start;
    (*atEnd)[j] = c;
    (*atEnd)[j].digest = pscp::obs::journal::crDigest(m.crBits());
  }
}

// ----------------------------------------------------------- one round

/// Per-layer numbers only a traced round measures.
struct LayerProbe {
  ReplayTimes direct;       ///< untraced machine-direct replay
  ReplayTimes traced;       ///< same replay with per-cycle spans
  double armedCostShare = 0;
  double journalBytesPerEpoch = 0;
  double jitCompileMs = 0;
};

struct Round {
  double setupS = 0;
  double compileMs = 0;
  double spawnUsPerInstance = 0;
  double warmUsPerInstance = 0;
  double bytesPerInstance = 0;

  std::vector<double> epochMs;
  int64_t epochNs = 0;  ///< sum over the window's epochs
  int64_t injectNs = 0;
  int64_t stepNs = 0;
  int64_t injectOps = 0;
  int64_t epochs = 0;
  FleetCounts window;  ///< counter deltas over the window

  SimCounts fleetAtCheck;  ///< fleet-wide, after kCheckEpochs epochs
  std::vector<SimCounts> sampleAtCheck;
  std::vector<SimCounts> sampleAtEnd;

  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> problems;

  LayerProbe probe;
};

class RoundRunner {
 public:
  RoundRunner(const Options& options, Workload& workload, FleetConfig config,
              Tracer& tracer)
      : options_(options),
        workload_(workload),
        config_(std::move(config)),
        tracer_(tracer),
        all_(workload.instances()),
        sample_(spreadIndices(workload.instances(), kSampleSize, options.seed)) {
    for (size_t i = 0; i < all_.size(); ++i) all_[i] = i;
  }

  [[nodiscard]] const std::vector<size_t>& sample() const { return sample_; }

  Round run(double windowSeconds) {
    SpanScope roundSpan(tracer_, Span::kRound);
    Round r;
    const int64_t rss0 = rssBytes();
    const int64_t t0 = nowNs();
    tracer_.begin(Span::kCompile);
    const ImagePtr image = workload_.compile();
    tracer_.end();
    const int64_t t1 = nowNs();
    workload_.bind(*image);
    SpawnedFleet spawned = spawnFleet(image, config_, workload_, all_, tracer_);
    const int64_t t2 = nowNs();
    const auto n = static_cast<double>(all_.size());
    r.setupS = seconds(t2 - t0);
    r.compileMs = static_cast<double>(t1 - t0) * 1e-6;
    r.spawnUsPerInstance = static_cast<double>(spawned.spawnNs) * 1e-3 / n;
    r.warmUsPerInstance = static_cast<double>(spawned.warmNs) * 1e-3 / n;
    r.bytesPerInstance = static_cast<double>(rssBytes() - rss0) / n;

    measure(*spawned.fleet, spawned.ids, windowSeconds, r);
    checkOutputs(*spawned.fleet, spawned.ids, r);
    verifySample(image, *spawned.fleet, spawned.ids, r);
    if (tracer_.enabled()) probeLayers(image, r);
    tracer_.begin(Span::kTeardown);
    spawned.fleet.reset();
    malloc_trim(0);  // hand the fleet back to the OS: the next RSS baseline
    tracer_.end();
    return r;
  }

 private:
  /// The closed-loop window: generate, inject, step; repeat until the
  /// window's time is up (and at least kCheckEpochs epochs ran).
  void measure(Fleet& fleet, const std::vector<InstanceId>& ids,
               double windowSeconds, Round& r) {
    scripts_ = workload_.scripts(all_);
    std::vector<std::pair<size_t, Stimulus>> pending;  // non-empty stimuli
    pending.reserve(ids.size());
    Stimulus s;
    const int cycles = workload_.cyclesPerEpoch();
    const FleetCounts before = readCounts(fleet);
    const int64_t windowNs = static_cast<int64_t>(windowSeconds * 1e9);
    const int64_t start = nowNs();
    for (int64_t e = 0; e < kCheckEpochs || nowNs() - start < windowNs; ++e) {
      const int64_t t0 = nowNs();
      tracer_.begin(Span::kEpoch);
      tracer_.begin(Span::kGen);
      pending.clear();
      for (size_t k = 0; k < ids.size(); ++k) {
        scripts_->next(k, s);
        if (s.port >= 0 || s.eventCount > 0) pending.emplace_back(k, s);
      }
      tracer_.end();
      const int64_t t1 = nowNs();
      tracer_.begin(Span::kInject);
      for (const auto& [k, stimulus] : pending)
        if (!deliver(fleet, ids[k], stimulus, &r.injectOps)) ++r.failed;
      tracer_.end();
      const int64_t t2 = nowNs();
      tracer_.begin(Span::kStep);
      fleet.step(cycles);
      tracer_.end();
      tracer_.end();
      const int64_t t3 = nowNs();
      r.epochMs.push_back(static_cast<double>(t3 - t0) * 1e-6);
      r.epochNs += t3 - t0;
      r.injectNs += t2 - t1;
      r.stepNs += t3 - t2;
      ++r.epochs;
      if (e + 1 == kCheckEpochs) {
        r.fleetAtCheck = minus(readCounts(fleet), before).sim;
        for (size_t j = 0; j < sample_.size(); ++j) {
          const InstanceId id = ids[sample_[j]];
          r.sampleAtCheck.push_back(instanceCounts(fleet.snapshot(id), fleet.machine(id)));
        }
      }
    }
    r.window = minus(readCounts(fleet), before);
    r.attempted += r.injectOps;
  }

  /// Every instance against its script's prediction.
  void checkOutputs(const Fleet& fleet, const std::vector<InstanceId>& ids,
                    Round& r) {
    SpanScope span(tracer_, Span::kCheck);
    for (size_t k = 0; k < ids.size(); ++k) {
      const pscp::fleet::InstanceSnapshot s = fleet.snapshot(ids[k]);
      const PscpMachine& m = fleet.machine(ids[k]);
      const std::string why =
          scripts_->check(k, m, instanceCounts(s, m), s.eventsDropped);
      ++r.attempted;
      if (why.empty()) continue;
      ++r.failed;
      if (r.problems.size() < 8)
        r.problems.push_back("instance " + std::to_string(k) + ": " + why);
    }
    if (r.window.dropped != 0)
      r.problems.push_back(std::to_string(r.window.dropped) + " injections dropped");
  }

  /// The sample's stimuli, regenerated from the seed alone.
  std::vector<std::vector<Stimulus>> sampleStimuli(int64_t epochs) const {
    std::unique_ptr<Scripts> scripts = workload_.scripts(sample_);
    std::vector<std::vector<Stimulus>> out(sample_.size(),
                                           std::vector<Stimulus>(static_cast<size_t>(epochs)));
    for (int64_t e = 0; e < epochs; ++e)
      for (size_t j = 0; j < sample_.size(); ++j)
        scripts->next(j, out[j][static_cast<size_t>(e)]);
    return out;
  }

  /// The fleet's sample against an interpreter-tier standalone replay.
  void verifySample(const ImagePtr& image, const Fleet& fleet,
                    const std::vector<InstanceId>& ids, Round& r) {
    SpanScope span(tracer_, Span::kVerify);
    for (size_t j = 0; j < sample_.size(); ++j) {
      const InstanceId id = ids[sample_[j]];
      r.sampleAtEnd.push_back(instanceCounts(fleet.snapshot(id), fleet.machine(id)));
    }
    stimuli_ = sampleStimuli(r.epochs);
    std::vector<SimCounts> atCheck;
    std::vector<SimCounts> atEnd;
    ReplayTimes ignored;
    Tracer off(false);
    replaySample(image, workload_, sample_, stimuli_, pscp::tep::jit::JitMode::kOff,
                 off, &atCheck, &atEnd, &ignored);
    for (size_t j = 0; j < sample_.size(); ++j) {
      ++r.attempted;
      if (atCheck[j] == r.sampleAtCheck[j] && atEnd[j] == r.sampleAtEnd[j]) continue;
      ++r.failed;
      r.problems.push_back("instance " + std::to_string(sample_[j]) +
                           ": fleet differs from the interpreter-tier replay");
    }
  }

  /// Traced rounds only: machine-direct timing, observation cost, JIT.
  void probeLayers(const ImagePtr& image, Round& r) {
    std::vector<SimCounts> atCheck;
    std::vector<SimCounts> atEnd;
    Tracer off(false);
    replaySample(image, workload_, sample_, stimuli_, config_.jitMode, off, &atCheck,
                 &atEnd, &r.probe.direct);
    {
      SpanScope span(tracer_, Span::kReplay);
      replaySample(image, workload_, sample_, stimuli_, config_.jitMode, tracer_,
                   &atCheck, &atEnd, &r.probe.traced);
    }
    probeObservation(image, r);
    probeJit(r);
  }

  /// The same script on an armed (telemetry + journal) and a disarmed
  /// sub-fleet, epochs interleaved, alternating which goes first.
  void probeObservation(const ImagePtr& image, Round& r) {
    SpanScope span(tracer_, Span::kObs);
    const std::vector<size_t> indices =
        spreadIndices(workload_.instances(), kObsInstances, options_.seed);
    FleetConfig armedConfig = config_;
    armedConfig.telemetry = true;
    armedConfig.journal = true;
    FleetConfig plainConfig = config_;
    plainConfig.telemetry = false;
    plainConfig.journal = false;
    Tracer off(false);
    SpawnedFleet armed = spawnFleet(image, armedConfig, workload_, indices, off);
    SpawnedFleet plain = spawnFleet(image, plainConfig, workload_, indices, off);
    std::unique_ptr<Scripts> armedScripts = workload_.scripts(indices);
    std::unique_ptr<Scripts> plainScripts = workload_.scripts(indices);
    const pscp::obs::journal::Journal& journal = *armed.fleet->journal();
    const size_t journalStart = journal.dumpBinary().size();
    Stimulus s;
    int64_t ops = 0;
    auto epoch = [&](SpawnedFleet& f, Scripts& scripts) {
      const int64_t t0 = nowNs();
      for (size_t k = 0; k < f.ids.size(); ++k) {
        scripts.next(k, s);
        deliver(*f.fleet, f.ids[k], s, &ops);
      }
      f.fleet->step(workload_.cyclesPerEpoch());
      return nowNs() - t0;
    };
    int64_t armedNs = 0;
    int64_t plainNs = 0;
    int64_t epochs = 0;
    const int64_t start = nowNs();
    while (epochs < kCheckEpochs || seconds(nowNs() - start) < kObsSeconds) {
      if (epochs % 2 == 0) {
        armedNs += epoch(armed, *armedScripts);
        plainNs += epoch(plain, *plainScripts);
      } else {
        plainNs += epoch(plain, *plainScripts);
        armedNs += epoch(armed, *armedScripts);
      }
      ++epochs;
    }
    r.probe.armedCostShare = ratio(static_cast<double>(armedNs),
                                   static_cast<double>(plainNs)) - 1;
    const auto journalBytes =
        static_cast<double>(journal.dumpBinary().size() - journalStart);
    r.probe.journalBytesPerEpoch = journalBytes / static_cast<double>(epochs) *
                                   static_cast<double>(workload_.instances()) /
                                   static_cast<double>(indices.size());
  }

  /// Native compile time of every routine of the chart, on a fresh image.
  void probeJit(Round& r) {
    tracer_.begin(Span::kCompile);
    const ImagePtr image = workload_.compile();
    tracer_.end();
    const int transitions = static_cast<int>(image->chart().transitions().size());
    const int64_t t0 = nowNs();
    tracer_.begin(Span::kJit);
    for (int t = 0; t < transitions; ++t)
      (void)image->tierCache().precompile(t, image->routineEntry(t));
    tracer_.end();
    r.probe.jitCompileMs = static_cast<double>(nowNs() - t0) * 1e-6;
  }

  const Options& options_;
  Workload& workload_;
  FleetConfig config_;
  Tracer& tracer_;
  std::vector<size_t> all_;
  std::vector<size_t> sample_;
  std::unique_ptr<Scripts> scripts_;
  std::vector<std::vector<Stimulus>> stimuli_;
};

// -------------------------------------------------------------- report

class MetricsJson {
 public:
  void add(const char* name, double value, const char* unit) {
    if (!std::isfinite(value)) value = 0;
    char digits[64];
    const auto res = std::to_chars(digits, digits + sizeof digits, value);
    out_ += out_.empty() ? "" : ", ";
    out_ += "\"" + std::string(name) + "\": {\"value\": " +
            std::string(digits, res.ptr) + ", \"unit\": \"" + unit + "\"}";
    std::printf("  %-32s %16.6g %s\n", name, value, unit);
  }
  [[nodiscard]] const std::string& body() const { return out_; }

 private:
  std::string out_;
};

template <typename F>
std::vector<double> collect(const std::vector<Round>& rounds, F f) {
  std::vector<double> v;
  for (const Round& r : rounds) v.push_back(f(r));
  return v;
}

void reportEndToEnd(const std::vector<Round>& rounds, MetricsJson& json,
                    int64_t attempted, int64_t failed) {
  double epochSeconds = 0;
  double configCycles = 0;
  double machineCycles = 0;
  std::vector<double> epochMs;
  for (const Round& r : rounds) {
    epochSeconds += seconds(r.epochNs);
    configCycles += static_cast<double>(r.window.sim.configCycles);
    machineCycles += static_cast<double>(r.window.sim.machineCycles);
    epochMs.insert(epochMs.end(), r.epochMs.begin(), r.epochMs.end());
  }
  json.add("config_cycles_per_s", configCycles / epochSeconds, "1/s");
  json.add("machine_cycles_per_s", machineCycles / epochSeconds, "1/s");
  json.add("epoch_p50_ms", quantile(epochMs, 0.5), "ms");
  json.add("epoch_p90_ms", quantile(epochMs, 0.9), "ms");
  json.add("setup_s", median(collect(rounds, [](const Round& r) { return r.setupS; })),
           "s");
  json.add("bytes_per_instance",
           median(collect(rounds, [](const Round& r) { return r.bytesPerInstance; })),
           "B");
  json.add("sim_cycles_per_config_cycle", machineCycles / configCycles, "cycles");
  json.add("ops_ok_ratio",
           1 - ratio(static_cast<double>(failed), static_cast<double>(attempted)),
           "ratio");
}

void reportLayers(const std::vector<Round>& rounds, const Workload& workload,
                  int workers, const Tracer& tracer, MetricsJson& json) {
  const auto n = static_cast<double>(workload.instances());
  auto med = [&](auto f) { return median(collect(rounds, f)); };
  json.add("compiler.image_ms", med([](const Round& r) { return r.compileMs; }), "ms");
  json.add("fleet.spawn_us_per_instance",
           med([](const Round& r) { return r.spawnUsPerInstance; }), "us");
  json.add("fleet.warm_us_per_instance",
           med([](const Round& r) { return r.warmUsPerInstance; }), "us");
  json.add("fleet.inject_ns_per_op", med([](const Round& r) {
             return ratio(static_cast<double>(r.injectNs), static_cast<double>(r.injectOps));
           }), "ns");
  json.add("fleet.inject_share", med([](const Round& r) {
             return ratio(static_cast<double>(r.injectNs), static_cast<double>(r.epochNs));
           }), "ratio");
  // 1 - (machine-direct time for the whole window / workers) / step wall:
  // the barrier, stealing, imbalance and batching bookkeeping share.
  json.add("fleet.step_overhead_share", med([&](const Round& r) {
             const double direct = static_cast<double>(r.probe.direct.wallNs) * n /
                                   static_cast<double>(kSampleSize);
             return 1 - ratio(direct / workers, static_cast<double>(r.stepNs));
           }), "ratio");
  json.add("fleet.steal_chunks_per_epoch", med([](const Round& r) {
             return ratio(static_cast<double>(r.window.stealChunks),
                          static_cast<double>(r.epochs));
           }), "count");
  double dropped = 0;
  for (const Round& r : rounds) dropped += static_cast<double>(r.window.dropped);
  json.add("fleet.events_dropped", dropped, "count");

  auto perCycle = [&](auto num, auto den) {
    return med([&](const Round& r) {
      return ratio(static_cast<double>(num(r.probe.traced)),
                   static_cast<double>(den(r.probe.traced)));
    });
  };
  json.add("pscp.quiescent_cycle_ns",
           perCycle([](const ReplayTimes& t) { return t.quiescentNs; },
                    [](const ReplayTimes& t) { return t.quiescentCycles; }), "ns");
  json.add("pscp.quiescent_share",
           perCycle([](const ReplayTimes& t) { return t.quiescentNs; },
                    [](const ReplayTimes& t) { return t.quiescentNs + t.firedNs; }),
           "ratio");
  json.add("pscp.fired_cycle_ns",
           perCycle([](const ReplayTimes& t) { return t.firedNs; },
                    [](const ReplayTimes& t) { return t.firedCycles; }), "ns");
  json.add("pscp.fired_per_config_cycle", med([](const Round& r) {
             return ratio(static_cast<double>(r.window.sim.fired),
                          static_cast<double>(r.window.sim.configCycles));
           }), "ratio");
  // Over the deterministic prefix, so the count repeats exactly per seed.
  json.add("pscp.bus_stall_cycles",
           static_cast<double>(rounds.front().fleetAtCheck.busStalls), "count");
  json.add("sla.select_ns",
           perCycle([](const ReplayTimes& t) { return t.selectNs; },
                    [](const ReplayTimes& t) { return t.selects; }), "ns");
  json.add("tep.routine_ns",
           perCycle([](const ReplayTimes& t) { return t.routineNs; },
                    [](const ReplayTimes& t) { return t.firedTransitions; }), "ns");
  json.add("tep.native_share", med([](const Round& r) {
             return ratio(static_cast<double>(r.window.nativeRuns),
                          static_cast<double>(r.window.nativeRuns + r.window.interpRuns));
           }), "ratio");
  json.add("tep.jit_compile_ms", med([](const Round& r) { return r.probe.jitCompileMs; }),
           "ms");
  json.add("obs.armed_cost_share",
           med([](const Round& r) { return r.probe.armedCostShare; }), "ratio");
  json.add("obs.journal_bytes_per_epoch",
           med([](const Round& r) { return r.probe.journalBytesPerEpoch; }), "B");

  const Tracer::Totals& run = tracer.totals(Span::kRun);
  int64_t unattributed = 0;
  for (size_t s = 0; s < static_cast<size_t>(Span::kCount); ++s)
    if (isStructural(static_cast<Span>(s)))
      unattributed += tracer.totals(static_cast<Span>(s)).selfNs;
  json.add("trace.unattributed_share",
           ratio(static_cast<double>(unattributed), static_cast<double>(run.totalNs)),
           "ratio");
  json.add("trace.overhead_share", med([](const Round& r) {
             return ratio(static_cast<double>(r.probe.traced.wallNs),
                          static_cast<double>(r.probe.direct.wallNs)) - 1;
           }), "ratio");
}

/// Layer self times of the traced run; they add up to the run's wall time.
void printSelfTimes(const Tracer& tracer) {
  const double wall = static_cast<double>(tracer.totals(Span::kRun).totalNs);
  std::printf("self time by span (traced wall %.3f s):\n", wall * 1e-9);
  for (size_t s = 0; s < static_cast<size_t>(Span::kCount); ++s) {
    const Tracer::Totals& t = tracer.totals(static_cast<Span>(s));
    if (t.count == 0) continue;
    std::printf("  %-16s %10lld spans %10.3f s self %6.2f%%%s\n",
                spanName(static_cast<Span>(s)), static_cast<long long>(t.count),
                static_cast<double>(t.selfNs) * 1e-9,
                100.0 * static_cast<double>(t.selfNs) / wall,
                isStructural(static_cast<Span>(s)) ? "  (unattributed)" : "");
  }
}

void printCounts(const char* label, const SimCounts& c) {
  std::printf("%s config_cycles=%lld machine_cycles=%lld quiescent_cycles=%lld "
              "fired=%lld bus_stalls=%lld events_delivered=%lld",
              label, static_cast<long long>(c.configCycles),
              static_cast<long long>(c.machineCycles),
              static_cast<long long>(c.quiescentCycles),
              static_cast<long long>(c.fired), static_cast<long long>(c.busStalls),
              static_cast<long long>(c.eventsDelivered));
}

bool parseOptions(int argc, char** argv, Options* out) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      out->workload = value;
    } else if (key == "--seed") {
      out->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      out->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(out->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      out->trace = value == "1";
    } else if (key == "--charts") {
      out->chartDir = value;
    } else if (key == "--trace-out") {
      out->traceOut = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !out->workload.empty();
}

int run(const Options& options) {
  std::unique_ptr<Workload> workload =
      makeWorkload(options.workload, options.seed, options.chartDir);
  if (workload == nullptr) {
    std::fprintf(stderr, "fleetbench: unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  FleetConfig config;
  const int workers =
      static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, kMaxWorkers));
  config.workerThreads = workers;
  config.telemetry = workload->observed();
  config.journal = workload->observed();

  std::printf("fleetbench workload=%s seed=%llu seconds=%g trace=%d workers=%d "
              "instances=%zu cycles_per_epoch=%d rounds=%d\n",
              workload->name().c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0, workers, workload->instances(),
              workload->cyclesPerEpoch(), kRounds);

  Tracer tracer(options.trace);
  RoundRunner runner(options, *workload, config, tracer);
  std::vector<Round> rounds;
  tracer.begin(Span::kRun);
  for (int i = 0; i < kRounds; ++i) {
    rounds.push_back(runner.run(options.seconds / kRounds));
    const Round& r = rounds.back();
    std::printf("round %d: setup %.3f s, %lld epochs in %.3f s, %lld cfg cycles, "
                "%lld failed of %lld\n",
                i + 1, r.setupS, static_cast<long long>(r.epochs), seconds(r.epochNs),
                static_cast<long long>(r.window.sim.configCycles),
                static_cast<long long>(r.failed), static_cast<long long>(r.attempted));
    for (const std::string& p : r.problems) std::printf("  problem: %s\n", p.c_str());
  }
  tracer.end();

  // Simulated statistics of the deterministic prefix: identical in every
  // round (fresh fleets, same seed) and in every run with this seed.
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  for (const Round& r : rounds) {
    attempted += r.attempted;
    failed += r.failed;
    const bool same = r.fleetAtCheck == rounds.front().fleetAtCheck &&
                      r.sampleAtCheck == rounds.front().sampleAtCheck;
    if (!same) std::printf("  problem: rounds disagree on the first %lld epochs\n",
                           static_cast<long long>(kCheckEpochs));
    correct = correct && same;
  }
  correct = correct && failed == 0;
  char label[96];
  std::snprintf(label, sizeof label, "sim seed=%llu epochs=%lld",
                static_cast<unsigned long long>(options.seed),
                static_cast<long long>(kCheckEpochs));
  printCounts(label, rounds.front().fleetAtCheck);
  std::printf(" sample_digest=%016llx\n",
              static_cast<unsigned long long>(
                  foldDigests(runner.sample(), rounds.front().sampleAtCheck)));

  MetricsJson json;
  if (options.trace) {
    printSelfTimes(tracer);
    reportLayers(rounds, *workload, workers, tracer, json);
    if (!options.traceOut.empty() && !tracer.writeChromeTrace(options.traceOut))
      std::fprintf(stderr, "fleetbench: cannot write %s\n", options.traceOut.c_str());
  } else {
    reportEndToEnd(rounds, json, attempted, failed);
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), json.body().c_str());
  return 0;
}

}  // namespace
}  // namespace fleetbench

int main(int argc, char** argv) {
  fleetbench::Options options;
  if (!fleetbench::parseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: fleetbench --workload <smd_sparse|smd_dense|proto_stream> "
                 "--seed <n> --seconds <s> --trace <0|1> [--charts <dir>] "
                 "[--trace-out <file>]\n");
    return 2;
  }
  try {
    return fleetbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetbench: %s\n", e.what());
    return 1;
  }
}
