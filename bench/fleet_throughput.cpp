// Fleet throughput bench: aggregate configuration-cycles/sec for N SMD
// pickup-head instances stepped by a worker pool, swept over instance
// count x thread count. Every instance is driven into its Moving
// AND-state (both X and Y axes running a long trapezoidal move) with
// hardware timers firing the Table-2 pulse streams, so steady state mixes
// real TEP work (DeltaT on two TEPs per cycle) with quiescent decode
// cycles — the reactive-system duty cycle the fleet exists to scale.
//
// The main sweep runs the SoA/SIMD batched stepping path (the fleet
// default); a per-instance-count single-thread AoS reference run measures
// the batched SLA's layout win directly (soa_speedup_vs_aos). Flags:
//   --quick          shrink the sweep for CI smoke runs
//   --no-soa         run the main sweep through the scalar AoS path
//   --batch-width N  lanes per batched decode group (FleetConfig)
//   --pin            pin the main thread to CPU 0 and pool worker w to
//                    CPU w (stops scheduler migration mid-measurement)
//   --journal        arm the record/replay journal for every sweep (its
//                    cost is gated separately by bench/telemetry_overhead;
//                    here it marks the run's numbers as journal-inclusive)
//   --seed N         workload seed, recorded verbatim for provenance
//
// Prints a markdown table (cycles/sec, speedup vs 1 thread, scaling
// efficiency, bytes per instance: RSS growth over spawn + warm-up divided
// by the instance count) and writes BENCH_fleet_throughput.json; the host block
// records the effective SIMD dispatch level (scalar/sse2/avx2) plus the
// seed and journal arming, so any BENCH json can be tied back to a
// reproducible configuration. In full
// mode on a machine with >= 4 hardware threads, the run fails unless the
// >= 256-instance sweep reaches >= 3x aggregate throughput at 4 threads.
#include <benchmark/benchmark.h>
#include <malloc.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fleet/fleet.hpp"
#include "pscp/machine.hpp"
#include "support/hostinfo.hpp"
#include "support/simd.hpp"
#include "support/text.hpp"
#include "workloads/smd_fleet.hpp"

using namespace pscp;

namespace {

struct BenchOptions {
  bool quick = false;
  bool soa = true;
  int batchWidth = 0;  ///< 0 = FleetConfig auto
  bool pin = false;
  /// Run every sweep with the record/replay journal armed — measures the
  /// recording overhead under the same duty cycle bench_compare gates.
  bool journal = false;
  /// Run provenance: recorded in the BENCH json host block so a journal
  /// captured alongside a bench run can be correlated with its numbers
  /// (host.* fields never gate in bench_compare). The SMD duty cycle
  /// itself is deterministic; the seed tags the run, it does not vary it.
  int64_t seed = 0;
  /// Run the native-tier A/B arm (interpreter vs JIT over the 1-TEP SMD
  /// image). Defaults on; forced off when the backend is unavailable or
  /// PSCP_JIT=off, so interpreter-only hosts still produce a valid json.
  bool jit = true;
};

struct SweepResult {
  size_t instances = 0;
  int threads = 0;
  int64_t configCycles = 0;
  int64_t machineCycles = 0;
  int64_t firedTransitions = 0;
  double seconds = 0.0;
  double configCyclesPerSec = 0.0;
  double machineCyclesPerSec = 0.0;
  double speedup = 1.0;     ///< vs the 1-thread run at the same instance count
  double efficiency = 1.0;  ///< speedup / threads
  double bytesPerInstance = 0.0;  ///< RSS growth over spawn + warm-up / instances
};

int64_t rssBytes() {
  std::ifstream statm("/proc/self/statm");
  int64_t sizePages = 0;
  int64_t residentPages = 0;
  statm >> sizePages >> residentPages;
  return residentPages * static_cast<int64_t>(sysconf(_SC_PAGESIZE));
}

/// Single-thread AoS reference at one instance count: the denominator of
/// the batched-stepping layout win.
struct AosReference {
  size_t instances = 0;
  double configCyclesPerSec = 0.0;
  double soaSpeedup = 0.0;  ///< SoA 1-thread rate / AoS 1-thread rate
};

/// Native-tier A/B at one instance count: the same routine-dense duty
/// cycle stepped once with the interpreter and once with the JIT forced
/// on. Rates are machine (simulated) cycles per wall second — both arms
/// simulate the identical cycle stream (bit-identity is enforced by the
/// tier tests), so the ratio isolates the execution-tier win.
struct JitReference {
  size_t instances = 0;
  double interpMachRate = 0.0;
  double jitMachRate = 0.0;
  double jitSpeedup = 0.0;  ///< jit rate / interp rate
  int64_t compiledRoutines = 0;
  double compileMs = 0.0;
};

SweepResult runSweep(const fleet::Fleet::ChartImagePtr& image, size_t instances,
                     int threads, int epochs, int cyclesPerEpoch,
                     const BenchOptions& opts, bool soa, bool* ok) {
  malloc_trim(0);  // return the previous sweep's fleet: a clean RSS baseline
  const int64_t rss0 = rssBytes();
  fleet::FleetConfig config;
  config.workerThreads = threads;
  config.soaBatching = soa;
  config.batchWidth = opts.batchWidth;
  config.pinWorkers = opts.pin;
  config.journal = opts.journal;
  fleet::Fleet fleet(image, config);
  // Per epoch every instance receives one X and one Y step pulse through
  // its SPSC queue (delivered at the epoch's first cycle: both DeltaT
  // routines run in parallel on the two TEPs, the remaining cycles are
  // quiescent decode — the reactive duty cycle). 4080 commanded steps per
  // axis outlast any bench window, so the move never completes.
  const workloads::SmdPulseIds pulses = workloads::resolveSmdPulseIds(fleet);
  if (!workloads::warmUpSmdFleet(fleet, instances, pulses)) {
    std::fprintf(stderr, "FAIL: sweep i=%zu t=%d instance(s) did not reach Moving\n",
                 instances, threads);
    *ok = false;
  }
  const double bytesPerInstance =
      static_cast<double>(rssBytes() - rss0) / static_cast<double>(instances);
  fleet.step(cyclesPerEpoch);  // one untimed epoch settles worker wake-up

  const auto start = std::chrono::steady_clock::now();
  for (int e = 0; e < epochs; ++e) {
    workloads::injectSmdPulses(fleet, pulses);
    fleet.step(cyclesPerEpoch);
  }
  const auto end = std::chrono::steady_clock::now();

  const obs::MetricsRegistry metrics = fleet.mergedMetrics();
  SweepResult r;
  r.instances = instances;
  r.threads = threads;
  r.bytesPerInstance = bytesPerInstance;
  // Subtract nothing for the settle epoch: counters cover it too, so scale
  // by the timed share of epochs instead.
  const double timedShare =
      static_cast<double>(epochs) / static_cast<double>(epochs + 1);
  r.configCycles = static_cast<int64_t>(
      static_cast<double>(metrics.value("fleet.config_cycles")) * timedShare);
  r.machineCycles = static_cast<int64_t>(
      static_cast<double>(metrics.value("fleet.machine_cycles")) * timedShare);
  r.firedTransitions = metrics.value("fleet.fired_transitions");
  r.seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - start).count();
  if (r.seconds > 0.0) {
    r.configCyclesPerSec = static_cast<double>(r.configCycles) / r.seconds;
    r.machineCyclesPerSec = static_cast<double>(r.machineCycles) / r.seconds;
  }
  if (r.firedTransitions <= 0) {
    std::fprintf(stderr, "FAIL: sweep i=%zu t=%d fired no transitions\n",
                 instances, threads);
    *ok = false;
  }
  return r;
}

/// One arm of the JIT A/B: machine cycles per wall second over the
/// single-TEP SMD image (every configuration cycle is serial-equivalent,
/// so kAlways runs each routine natively). Two simulated cycles per
/// epoch with a pulse pair injected every epoch keeps the duty cycle
/// routine-dense — the tier being measured, not quiescent decode.
double runJitArm(const fleet::Fleet::ChartImagePtr& image, size_t instances,
                 int epochs, tep::jit::JitMode mode, bool* ok,
                 JitReference* residencyOut) {
  fleet::FleetConfig config;
  config.workerThreads = 1;
  config.jitMode = mode;
  config.jitThreshold = 1;
  fleet::Fleet fleet(image, config);
  const workloads::SmdPulseIds pulses = workloads::resolveSmdPulseIds(fleet);
  if (!workloads::warmUpSmdFleet(fleet, instances, pulses)) {
    std::fprintf(stderr, "FAIL: jit arm i=%zu instance(s) did not reach Moving\n",
                 instances);
    *ok = false;
  }
  fleet.step(2);  // settle + compile warm-up outside the timed window
  const int64_t cyclesBefore = fleet.mergedMetrics().value("fleet.machine_cycles");

  const auto start = std::chrono::steady_clock::now();
  for (int e = 0; e < epochs; ++e) {
    workloads::injectSmdPulses(fleet, pulses);
    fleet.step(2);
  }
  const auto end = std::chrono::steady_clock::now();
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - start).count();

  const obs::MetricsRegistry metrics = fleet.mergedMetrics();
  const int64_t timedCycles = metrics.value("fleet.machine_cycles") - cyclesBefore;
  if (mode == tep::jit::JitMode::kAlways && residencyOut != nullptr) {
    const tep::jit::TierResidency tier = fleet.tierResidency();
    residencyOut->compiledRoutines = tier.nativeRoutines;
    residencyOut->compileMs = static_cast<double>(tier.compileMicros) / 1000.0;
    if (tep::jit::jitBackendAvailable() &&
        metrics.value("fleet.jit_native_routines") <= 0) {
      std::fprintf(stderr, "FAIL: jit arm i=%zu executed no native routines\n",
                   instances);
      *ok = false;
    }
  }
  if (seconds <= 0.0) return 0.0;
  return static_cast<double>(timedCycles) / seconds;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      opts.quick = true;
    } else if (std::strcmp(argv[i], "--no-soa") == 0) {
      opts.soa = false;
    } else if (std::strcmp(argv[i], "--pin") == 0) {
      opts.pin = true;
    } else if (std::strcmp(argv[i], "--batch-width") == 0 && i + 1 < argc) {
      opts.batchWidth = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--journal") == 0) {
      opts.journal = true;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      opts.seed = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--jit") == 0) {
      opts.jit = true;
    } else if (std::strcmp(argv[i], "--no-jit") == 0) {
      opts.jit = false;
    } else {
      std::fprintf(stderr,
                   "usage: fleet_throughput [--quick] [--no-soa] "
                   "[--batch-width N] [--pin] [--journal] [--seed N] "
                   "[--jit | --no-jit]\n");
      return 2;
    }
  }
  // The JIT A/B needs the native tier: skip it (emitting no jit metrics,
  // which bench_compare reports as informational notes, not gate
  // failures) when the backend is unavailable or PSCP_JIT=off.
  if (!tep::jit::jitBackendAvailable() ||
      tep::jit::jitModeFromEnv() == tep::jit::JitMode::kOff)
    opts.jit = false;
  if (opts.pin) pinCurrentThreadToCpu(0);

  const std::vector<size_t> instanceCounts =
      opts.quick ? std::vector<size_t>{32, 128} : std::vector<size_t>{64, 256, 1024};
  const std::vector<int> threadCounts =
      opts.quick ? std::vector<int>{1, 2, 4} : std::vector<int>{1, 2, 4, 8};
  // Quick mode still needs a timed window of tens of milliseconds per
  // sweep: a 4-epoch window is single-digit ms and its derived ratios
  // (speedup, SoA-vs-AoS) swing 2x run to run, which no gate tolerance
  // survives.
  const int epochs = opts.quick ? 16 : 12;
  const int cyclesPerEpoch = opts.quick ? 8 : 16;
  const unsigned hwThreads = std::thread::hardware_concurrency();

  std::printf("=== Fleet throughput: SMD instances x worker threads ===\n");
  std::printf("(%s mode, %s stepping, simd dispatch %s, %d epochs x %d cycles, "
              "%u hardware threads%s)\n\n",
              opts.quick ? "quick" : "full", opts.soa ? "SoA batched" : "AoS scalar",
              simdLevelName(activeSimdLevel()), epochs, cyclesPerEpoch, hwThreads,
              opts.pin ? ", pinned" : "");

  const auto image = workloads::makeSmdFleetImage();

  bool ok = true;
  std::vector<SweepResult> results;
  std::vector<AosReference> aosRefs;
  for (size_t instances : instanceCounts) {
    double oneThreadRate = 0.0;
    for (int threads : threadCounts) {
      SweepResult r = runSweep(image, instances, threads, epochs, cyclesPerEpoch,
                               opts, opts.soa, &ok);
      if (threads == 1) oneThreadRate = r.configCyclesPerSec;
      if (oneThreadRate > 0.0 && r.configCyclesPerSec > 0.0) {
        r.speedup = r.configCyclesPerSec / oneThreadRate;
        r.efficiency = r.speedup / threads;
      }
      results.push_back(r);
    }
    if (opts.soa) {
      // Layout A/B at one thread: same workload through the scalar AoS
      // path; the ratio isolates the batched-SLA + arena win from thread
      // scaling.
      const SweepResult aos = runSweep(image, instances, 1, epochs,
                                       cyclesPerEpoch, opts, false, &ok);
      AosReference ref;
      ref.instances = instances;
      ref.configCyclesPerSec = aos.configCyclesPerSec;
      if (aos.configCyclesPerSec > 0.0 && oneThreadRate > 0.0)
        ref.soaSpeedup = oneThreadRate / aos.configCyclesPerSec;
      aosRefs.push_back(ref);
    }
  }

  // Native-tier A/B: separate sweep over the single-TEP image so every
  // configuration cycle is serial-equivalent and the kAlways arm runs
  // each routine natively. Epoch count is its own knob — the arm's cost
  // is per-routine wall time, not the main sweep's pool scaling.
  std::vector<JitReference> jitRefs;
  if (opts.jit) {
    const auto jitImage = workloads::makeSmdFleetImage(/*numTeps=*/1);
    const std::vector<size_t> jitInstances =
        opts.quick ? std::vector<size_t>{32} : std::vector<size_t>{64, 256};
    const int jitEpochs = opts.quick ? 200 : 400;
    for (size_t instances : jitInstances) {
      JitReference ref;
      ref.instances = instances;
      ref.interpMachRate = runJitArm(jitImage, instances, jitEpochs,
                                     tep::jit::JitMode::kOff, &ok, nullptr);
      ref.jitMachRate = runJitArm(jitImage, instances, jitEpochs,
                                  tep::jit::JitMode::kAlways, &ok, &ref);
      if (ref.interpMachRate > 0.0 && ref.jitMachRate > 0.0)
        ref.jitSpeedup = ref.jitMachRate / ref.interpMachRate;
      jitRefs.push_back(ref);
    }
  }

  std::printf("| instances | threads | cfg cycles/s | mach cycles/s | speedup | efficiency | B/instance |\n");
  std::printf("|-----------|---------|--------------|---------------|---------|------------|------------|\n");
  for (const SweepResult& r : results)
    std::printf("| %9zu | %7d | %12.0f | %13.0f | %6.2fx | %9.2f%% | %10.0f |\n",
                r.instances, r.threads, r.configCyclesPerSec, r.machineCyclesPerSec,
                r.speedup, 100.0 * r.efficiency, r.bytesPerInstance);
  if (!aosRefs.empty()) {
    std::printf("\n| instances | AoS 1t cycles/s | SoA-vs-AoS speedup |\n");
    std::printf("|-----------|-----------------|--------------------|\n");
    for (const AosReference& ref : aosRefs)
      std::printf("| %9zu | %15.0f | %17.2fx |\n", ref.instances,
                  ref.configCyclesPerSec, ref.soaSpeedup);
  }
  if (!jitRefs.empty()) {
    std::printf("\n| instances | interp mach/s | jit mach/s | jit speedup | compiled | compile ms |\n");
    std::printf("|-----------|---------------|------------|-------------|----------|------------|\n");
    for (const JitReference& ref : jitRefs)
      std::printf("| %9zu | %13.0f | %10.0f | %10.2fx | %8lld | %10.2f |\n",
                  ref.instances, ref.interpMachRate, ref.jitMachRate,
                  ref.jitSpeedup, static_cast<long long>(ref.compiledRoutines),
                  ref.compileMs);
  }

  std::string json = "{\n  \"benchmark\": \"fleet_throughput\",\n";
  json += strfmt("  \"mode\": \"%s\",\n  \"stepping\": \"%s\",\n"
                 "  \"hardware_threads\": %u,\n",
                 opts.quick ? "quick" : "full", opts.soa ? "soa" : "aos", hwThreads);
  // Provenance rides in the host block: host.* is informational in
  // bench_compare, so changing the seed or arming the journal never trips
  // a numeric gate by itself.
  JsonValue host = hostInfoJson();
  host.set("seed", JsonValue::makeNumber(static_cast<double>(opts.seed)));
  host.set("journal", JsonValue::makeBool(opts.journal));
  json += "  \"host\": " + host.dump() + ",\n  \"sweeps\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const SweepResult& r = results[i];
    json += strfmt(
        "    {\"instances\": %zu, \"threads\": %d, "
        "\"config_cycles_per_sec\": %.0f, \"machine_cycles_per_sec\": %.0f, "
        "\"speedup_vs_1t\": %.3f, \"efficiency\": %.3f, "
        "\"bytes_per_instance\": %.0f}%s\n",
        r.instances, r.threads, r.configCyclesPerSec, r.machineCyclesPerSec,
        r.speedup, r.efficiency, r.bytesPerInstance,
        i + 1 < results.size() ? "," : "");
  }
  json += "  ],\n  \"aos_reference\": [\n";
  for (size_t i = 0; i < aosRefs.size(); ++i) {
    const AosReference& ref = aosRefs[i];
    json += strfmt(
        "    {\"instances\": %zu, \"threads\": 1, "
        "\"config_cycles_per_sec\": %.0f, \"soa_speedup_vs_aos\": %.3f}%s\n",
        ref.instances, ref.configCyclesPerSec, ref.soaSpeedup,
        i + 1 < aosRefs.size() ? "," : "");
  }
  json += "  ],\n  \"jit_reference\": [\n";
  for (size_t i = 0; i < jitRefs.size(); ++i) {
    const JitReference& ref = jitRefs[i];
    json += strfmt(
        "    {\"instances\": %zu, \"threads\": 1, "
        "\"interp_machine_cycles_per_sec\": %.0f, "
        "\"jit_machine_cycles_per_sec\": %.0f, "
        "\"jit_speedup_vs_interp\": %.3f, \"jit_compiled_routines\": %lld, "
        "\"jit_compile_ms\": %.3f}%s\n",
        ref.instances, ref.interpMachRate, ref.jitMachRate, ref.jitSpeedup,
        static_cast<long long>(ref.compiledRoutines), ref.compileMs,
        i + 1 < jitRefs.size() ? "," : "");
  }
  json += "  ]\n}\n";
  std::FILE* f = std::fopen("BENCH_fleet_throughput.json", "wb");
  if (f != nullptr) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("\nwrote BENCH_fleet_throughput.json\n");
  } else {
    std::fprintf(stderr, "cannot write BENCH_fleet_throughput.json\n");
    ok = false;
  }
  if (!ok) return 1;

  // Acceptance (full runs on parallel hardware only): >= 3x aggregate
  // throughput at 4 threads for a >= 256-instance fleet.
  if (!opts.quick && hwThreads >= 4) {
    double best = 0.0;
    for (const SweepResult& r : results)
      if (r.instances >= 256 && r.threads == 4) best = std::max(best, r.speedup);
    if (best < 3.0) {
      std::fprintf(stderr, "FAIL: 4-thread speedup %.2fx < 3x (>=256 instances)\n",
                   best);
      return 1;
    }
    std::printf("4-thread speedup (>=256 instances): %.2fx (target >= 3x)\n", best);
  } else if (!opts.quick) {
    std::printf("note: %u hardware thread(s) — 4-thread acceptance check skipped\n",
                hwThreads);
  }
  return 0;
}
