// The benchmark's three fleet workloads and their seeded stimulus scripts.
//
// Every input of a run is a pure function of (seed, instance index): the
// warm-up bytes, which instances are pulsed in which epoch, every protocol
// frame. So any one instance's script can be regenerated on its own — the
// standalone replays of a sample of instances rely on this — and each
// script predicts the outputs the instance must end with.
//
//   smd_sparse    The paper's 2-TEP SMD pickup head, 20 000 instances warmed
//                 into Moving (the warm-up ends with one X/Y pulse pair, so
//                 no timed epoch pays an instance's costlier first pulse);
//                 each 16-cycle epoch pulses a seeded 1/64 of them. >99%
//                 of cycles are quiescent: SLA decode, the SoA
//                 quiescent path, streaming instance state and the epoch
//                 barrier carry the cost.
//   smd_dense     The same image, 4 000 instances, every instance pulsed in
//                 every 2-cycle epoch: half of all cycles run two parallel
//                 DeltaT routines on two TEPs, so TEP execution dominates.
//   proto_stream  examples/charts/protocol_burst on the default 1-TEP arch,
//                 10 000 instances with telemetry and the journal armed;
//                 one seeded Rx byte per instance per 2-cycle epoch. The
//                 producer path, internal events, condition write-back, the
//                 serial native tier and the observation plane carry it.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "pscp/machine.hpp"

namespace fleetbench {

/// One instance's input for one epoch, delivered at the epoch's first
/// cycle: an optional input-port write, then up to two events in order.
struct Stimulus {
  int port = -1;
  uint32_t value = 0;
  int eventCount = 0;
  std::array<int, 2> events{};
};

/// One warm-up configuration cycle: an optional input-port write, then a
/// cycle with the given events.
struct WarmStep {
  int port = -1;
  uint32_t value = 0;
  const std::vector<int>* events = nullptr;
};

/// The deterministic simulated statistics of one instance (or a sum).
struct SimCounts {
  int64_t configCycles = 0;
  int64_t machineCycles = 0;
  int64_t quiescentCycles = 0;
  int64_t fired = 0;
  int64_t busStalls = 0;
  int64_t eventsDelivered = 0;
  uint64_t digest = 0;  ///< obs::journal::crDigest of the CR (0 for sums)

  [[nodiscard]] bool operator==(const SimCounts&) const = default;
};

/// Stimulus generators for a set of instances, one slot per instance, plus
/// the outputs each slot predicts. next() is called once per epoch per slot,
/// in epoch order.
class Scripts {
 public:
  Scripts() = default;
  virtual ~Scripts() = default;
  Scripts(const Scripts&) = delete;
  Scripts& operator=(const Scripts&) = delete;

  virtual void next(size_t slot, Stimulus& out) = 0;
  /// Empty when the instance's outputs match the prediction, else why not.
  [[nodiscard]] virtual std::string check(
      size_t slot, const pscp::machine::PscpMachine& machine,
      const SimCounts& counts, int64_t dropped) const = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] size_t instances() const { return instances_; }
  [[nodiscard]] int cyclesPerEpoch() const { return cyclesPerEpoch_; }
  /// Telemetry and the record/replay journal armed on the measured fleet.
  [[nodiscard]] bool observed() const { return observed_; }

  /// Parse the chart and build its image (the `compile` layer).
  [[nodiscard]] virtual std::shared_ptr<const pscp::machine::ChartImage>
  compile() const = 0;
  /// Resolve event bits and port addresses against an image of the chart.
  virtual void bind(const pscp::machine::ChartImage& image) = 0;
  /// The warm-up cycles of instance `index` (bind() first).
  virtual void warmSteps(size_t index, std::vector<WarmStep>& out) const = 0;
  /// Fresh scripts for the given instance indices (bind() first).
  [[nodiscard]] virtual std::unique_ptr<Scripts> scripts(
      const std::vector<size_t>& indices) const = 0;

 protected:
  Workload(std::string name, size_t instances, int cyclesPerEpoch, bool observed)
      : name_(std::move(name)),
        instances_(instances),
        cyclesPerEpoch_(cyclesPerEpoch),
        observed_(observed) {}

 private:
  std::string name_;
  size_t instances_;
  int cyclesPerEpoch_;
  bool observed_;
};

/// The workload named `name` ("smd_sparse", "smd_dense", "proto_stream"),
/// or nullptr. `chartDir` holds protocol_burst.{chart,act}; throws
/// std::runtime_error when those cannot be read.
[[nodiscard]] std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                                     uint64_t seed,
                                                     const std::string& chartDir);

}  // namespace fleetbench
