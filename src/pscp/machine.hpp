// The PSCP machine simulator (paper Fig. 1 and Sec. 3.1).
//
// "The execution of the PSCP is controlled by the scheduler, which enables
//  the SLA at the beginning of a configuration cycle. The SLA generates
//  the addresses of the transitions to be executed... The scheduler copies
//  the contents of the condition part of the CR into the local condition
//  caches, and assigns the execution of the individual transitions to the
//  available TEPs employing a round-robin protocol. ... At the end of a
//  transition execution, the scheduler copies the condition cache back to
//  the CR. Transitions are scheduled until the Transition Address Table is
//  empty. The TEPs may generate new events in the CR, and alter the
//  contents of their condition caches, thus generating a new
//  configuration. The scheduler then enables the SLA to begin the next
//  configuration cycle, at which time the new external events are sampled
//  into the CR."
//
// This class is the executable model of that machine: N cycle-accurate
// TEPs stepped in lockstep with single-owner external-bus arbitration,
// per-TEP condition caches with end-of-routine write-back, a Transition
// Address Table, mutual-exclusion decode logic, and the CR. Its observable
// behaviour (configurations, conditions, raised events, fired transitions)
// must agree with the specification-level statechart::Interpreter +
// actionlang::Interp pair; property tests enforce this.
//
// Hot-path organisation: the CR is a packed BitVec maintained
// *incrementally* — condition writes, configuration updates and event
// sampling each touch only their own bits, so a configuration cycle never
// rebuilds the register from the active-state set. Exit/enter sets and
// scope depths are precomputed per transition as bitsets at construction
// (resolveConflicts allocates nothing per call), condition caches are flat
// byte arrays with dirty bitmasks, and the string-keyed API has interned
// integer-ID twins (eventId()/portId() + the int overloads) for callers
// that drive millions of cycles.
//
// Multi-instance organisation: everything a machine needs that depends
// only on the chart — the CR layout, the synthesized SLA, the compiled
// program, the per-transition exit/enter bitsets, the microprogram decoder
// table every TEP interprets from — lives in a ChartImage, an immutable
// compile product that any number of machines share via shared_ptr. An
// instance's mutable state is one contiguous blob sized from the compiled
// application: per-TEP internal RAM banks exactly as large as the layout
// uses, the used prefix of external RAM, the register file, the declared
// ports, the CR condition part and the per-TEP condition caches. The image
// holds an initialised template of that blob (data image broadcast to
// every bank, initial registers and configuration), so spawning an
// instance is one allocation and one memcpy. Addresses the layout does not
// cover keep their architectural meaning: they read 0, and the first
// write into a window materialises a full-size spill bank for it.
// Steady-state stepping through configurationCycleIds(events, &stats) is
// allocation-free: every per-cycle temporary is a member scratch buffer,
// so thousands of instances stepped by a worker pool never serialize on
// the allocator.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "compiler/codegen.hpp"
#include "obs/sink.hpp"
#include "sla/batch.hpp"
#include "sla/sla.hpp"
#include "statechart/semantics.hpp"
#include "support/bits.hpp"
#include "tep/jit/tier.hpp"
#include "tep/machine.hpp"

namespace pscp::machine {

/// One entry of the machine's port-write log, ordered and timestamped so
/// the observability layer (and environment models) can correlate writes
/// with configuration cycles and machine time.
struct PortWrite {
  int port = 0;             ///< bus address
  uint32_t value = 0;
  int64_t configCycle = 0;  ///< 0-based configuration-cycle index
  int64_t time = 0;         ///< absolute machine time (reference cycles)
  /// Which TEP issued the write and which transition routine it was
  /// executing (-1 for writes from outside a routine, e.g. the loader).
  /// The static race analysis (src/analysis) cross-checks its verdict
  /// against these fields: two same-cycle writes to one port from
  /// *different* transitions are an observed dispatch-order race.
  int tep = -1;
  statechart::TransitionId transition = -1;

  [[nodiscard]] bool operator==(const PortWrite&) const = default;
};

struct CycleStats {
  std::vector<statechart::TransitionId> fired;  ///< in dispatch order
  int64_t cycles = 0;          ///< reference-clock cycles consumed
  int64_t busStallCycles = 0;  ///< external-bus arbitration losses
  bool quiescent = false;      ///< SLA selected nothing
};

/// The immutable per-chart compile product: CR layout, synthesized SLA,
/// hardware binding, compiled TEP program, and the per-transition
/// structural data (exit/enter bitsets, scope depths, interned exclusion
/// groups, routine entry points) the scheduler needs each cycle. Build it
/// once and hand the same shared_ptr to every PscpMachine over the chart —
/// construction cost (SLA synthesis + compilation) is paid once per chart,
/// and the image is safe to read from any number of threads concurrently.
/// The chart and actions must outlive the image.
class ChartImage {
 public:
  ChartImage(const statechart::Chart& chart, const actionlang::Program& actions,
             const hwlib::ArchConfig& arch, compiler::CompileOptions options = {});

  [[nodiscard]] const statechart::Chart& chart() const { return chart_; }
  [[nodiscard]] const actionlang::Program& actions() const { return actions_; }
  [[nodiscard]] const hwlib::ArchConfig& arch() const { return arch_; }
  [[nodiscard]] const sla::CrLayout& layout() const { return layout_; }
  [[nodiscard]] const sla::Sla& sla() const { return sla_; }
  /// SoA/SIMD compilation of the same array (fleet batched stepping);
  /// kernel level latched from support/simd at image build.
  [[nodiscard]] const sla::BatchedSla& batchedSla() const { return batched_; }
  [[nodiscard]] const compiler::HardwareBinding& binding() const { return binding_; }
  [[nodiscard]] const compiler::CompiledApp& app() const { return app_; }

  /// The native-tier compile cache for this image's routines. Like the
  /// image it is shared by every instance over the chart: each routine is
  /// lowered/emitted once and the read-execute pages serve the whole
  /// fleet. The cache is internally synchronized, so handing it out from a
  /// const image is safe.
  [[nodiscard]] tep::jit::TierCache& tierCache() const { return *tier_; }

  /// Program entry index of the transition's TEP routine (what the
  /// dispatcher jumps to, and what TierCache::precompile needs for
  /// profiler-seeded ahead-of-time compilation).
  [[nodiscard]] int routineEntry(int transition) const {
    return routineEntry_[static_cast<size_t>(transition)];
  }

  /// The program's microprogram decoder for this arch, shared read-only
  /// by every TEP of every instance over the image.
  [[nodiscard]] const tep::MicrocodeTable& microcode() const { return microcode_; }

 private:
  friend class PscpMachine;

  /// Where each part of an instance's mutable state sits in its blob.
  /// Offsets are in bytes; 8-byte parts come first, then 4-byte parts,
  /// then bytes, so every part is aligned for its element type.
  struct BlobLayout {
    int conditionCount = 0;
    int dirtyWords = 0;     ///< condition-dirty mask words per TEP
    int regCount = 0;       ///< registers per TEP
    int internalBytes = 0;  ///< compact internal RAM bank per TEP
    int externalBytes = 0;  ///< compact external RAM prefix
    size_t dispatchStats = 0;  ///< int64 [3][TEP]: cycles, instrs, stalls
    size_t condDirty = 0;      ///< uint64 [TEP][dirtyWords]
    size_t fieldCode = 0;      ///< int per CR state field
    size_t running = 0;        ///< int per TEP: transition in flight
    size_t regs = 0;           ///< uint32 [TEP][regCount]
    size_t ports = 0;          ///< uint32 per declared port slot
    size_t conditions = 0;     ///< CR condition part, byte per bit
    size_t condCache = 0;      ///< [TEP][conditionCount]
    size_t groupInFlight = 0;  ///< byte per exclusion group
    size_t internal = 0;       ///< [TEP][internalBytes]
    size_t external = 0;       ///< [externalBytes]
    size_t bytes = 0;
  };
  void buildInstanceTemplate();

  const statechart::Chart& chart_;
  const actionlang::Program& actions_;
  hwlib::ArchConfig arch_;
  sla::CrLayout layout_;
  sla::Sla sla_;
  sla::BatchedSla batched_;
  compiler::HardwareBinding binding_;
  compiler::CompiledApp app_;

  // Precomputed per transition (the scheduler's per-cycle work reads these
  // flat arrays and never recomputes structure).
  std::vector<BitVec> exitSets_;   ///< states exited when t fires
  std::vector<BitVec> enterSets_;  ///< states entered when t fires
  std::vector<int> scopeDepth_;    ///< depth of the transition's scope
  std::vector<int> exclusionGroup_;  ///< interned group id, -1 = none
  std::vector<int> routineEntry_;    ///< program entry index of t's routine
  int exclusionGroupCount_ = 0;
  std::unique_ptr<tep::jit::TierCache> tier_;
  tep::MicrocodeTable microcode_;

  // Instance state: the blob layout, its initialised template, and the
  // initial configuration (as state bits and as the CR).
  BlobLayout blob_;
  std::vector<std::byte> blobTemplate_;
  BitVec initialActive_;
  BitVec initialCr_;
  /// Port slot by bus address (-1: no declared port there).
  std::vector<int> portSlot_;
};

class PscpMachine : public tep::TepHost {
 public:
  /// Spawn an instance over a prebuilt (shared) compile image — the cheap
  /// path for fleets: allocates mutable machine state only.
  explicit PscpMachine(std::shared_ptr<const ChartImage> image);

  /// Convenience: compile a private image and run over it.
  PscpMachine(const statechart::Chart& chart, const actionlang::Program& actions,
              const hwlib::ArchConfig& arch,
              compiler::CompileOptions options = {});
  ~PscpMachine() override;
  PscpMachine(const PscpMachine&) = delete;
  PscpMachine& operator=(const PscpMachine&) = delete;

  /// Run one configuration cycle with the given external events.
  CycleStats configurationCycle(const std::set<std::string>& externalEvents);

  /// Interned fast path: external events given as CR event bits (from
  /// eventId()). The string overload resolves names and delegates here;
  /// environment models that fire the same events millions of times should
  /// intern once and call this.
  CycleStats configurationCycleIds(const std::vector<int>& externalEventIds);

  /// In-place twin of configurationCycleIds: clears and refills
  /// `stats->fired` instead of returning a fresh CycleStats, so a caller
  /// that reuses one stats object steps the machine without any heap
  /// allocation in steady state (the fleet worker loop depends on this).
  void configurationCycleIds(const std::vector<int>& externalEventIds,
                             CycleStats* stats);

  // ------------------------------------------- batched stepping (src/fleet)
  // The fleet's SoA fast path evaluates many instances' SLA decodes in one
  // vector pass, then applies the quiescent-cycle bookkeeping to every
  // lane that selected nothing — bypassing configurationCycleIds entirely
  // for the dominant idle case. These three members externalize exactly
  // the state that path needs; any sequence of {batched quiescent cycle,
  // scalar configurationCycleIds} is bit-identical to the all-scalar run.

  /// The packed CR. Between cycles the event bits are always clear (they
  /// live only inside the decode window), so when nextCycleIsPureDecode()
  /// holds this is byte-for-byte what the SLA would sample for a cycle
  /// with no external events.
  [[nodiscard]] const BitVec& crBits() const { return cr_; }

  /// True when a configuration cycle with no external events would reach
  /// the SLA decode with the CR exactly as crBits() reads now: no pending
  /// internal events, no matured hardware timer, no attached observer
  /// (sinks see per-cycle callbacks the batched path does not emit).
  [[nodiscard]] bool nextCycleIsPureDecode() const;

  /// Apply one quiescent configuration cycle without re-running the
  /// decode: identical state/stats updates to configurationCycleIds when
  /// the SLA selects nothing. Only valid when the caller has already
  /// established that (batched decode over crBits() selected no lane).
  void applyQuiescentCycle(CycleStats* stats);

  // ----------------------------------------------------- tiered execution
  // The native tier (src/tep/jit) runs compiled routines when the cycle is
  // serial-equivalent (one TEP, or one selected transition) and no
  // observer is attached; everything else stays on the microcode
  // interpreter. Contract: CR, ports, fired order, cycle counts and error
  // diagnostics are bit-identical between tiers (tests/tep_jit_test.cpp).

  /// Override the process-wide PSCP_JIT mode for this instance.
  void setJitMode(tep::jit::JitMode mode) { jitMode_ = mode; }
  [[nodiscard]] tep::jit::JitMode jitMode() const { return jitMode_; }
  /// Routine executions before kAuto promotes a routine to native code.
  void setJitThreshold(int64_t threshold) { jitThreshold_ = threshold; }
  [[nodiscard]] int64_t jitThreshold() const { return jitThreshold_; }
  /// Routine dispatches this instance ran natively / on the interpreter.
  [[nodiscard]] int64_t jitNativeRuns() const { return jitNativeRuns_; }
  [[nodiscard]] int64_t jitInterpRuns() const { return jitInterpRuns_; }
  /// Image-wide tier residency (shared compile cache).
  [[nodiscard]] tep::jit::TierResidency tierResidency() const {
    return image_->tierCache().residency();
  }

  /// Hardware timer (paper Sec. 6 future work): raises `event` every
  /// `period` reference-clock cycles of machine time. Timer events are
  /// sampled into the CR at the next configuration-cycle boundary, like
  /// any external event.
  void addTimer(const std::string& event, int64_t period);

  /// Run cycles until quiescent (no enabled transitions and no pending
  /// internal events), up to `maxCycles` configuration cycles.
  std::vector<CycleStats> runToQuiescence(const std::set<std::string>& initialEvents,
                                          int maxCycles = 64);

  // ------------------------------------------------------------ observers
  [[nodiscard]] bool isActive(const std::string& stateName) const;
  [[nodiscard]] std::vector<std::string> activeNames() const;
  [[nodiscard]] bool conditionValue(const std::string& name) const;
  void setCondition(const std::string& name, bool value);
  [[nodiscard]] int64_t totalCycles() const { return totalCycles_; }
  [[nodiscard]] int64_t totalBusStalls() const { return totalBusStalls_; }
  [[nodiscard]] int64_t configurationCycles() const { return configCycles_; }

  // ---------------------------------------------------------- interned IDs
  /// CR event bit of a declared event (stable for the machine's lifetime).
  [[nodiscard]] int eventId(const std::string& eventName) const;
  /// Bus address of a declared port.
  [[nodiscard]] int portId(const std::string& portName) const;

  /// Environment-facing ports (by chart port name, or — fast path — by the
  /// interned bus address from portId()).
  void setInputPort(const std::string& portName, uint32_t value);
  void setInputPort(int portAddress, uint32_t value);
  [[nodiscard]] uint32_t outputPort(const std::string& portName) const;
  [[nodiscard]] uint32_t outputPort(int portAddress) const;
  /// Ordered, timestamped port writes (configuration-cycle index + machine
  /// time per entry).
  [[nodiscard]] const std::vector<PortWrite>& portWrites() const {
    return portWrites_;
  }
  /// Drop the accumulated port-write log, keeping its capacity. Long-lived
  /// instances (fleet members) drain the log each batch and clear it here
  /// so steady-state logging never regrows the buffer.
  void clearPortWrites() { portWrites_.clear(); }
  /// Compatibility view of portWrites(): bare (port, value) pairs.
  [[nodiscard]] std::vector<std::pair<int, uint32_t>> portWriteLog() const {
    std::vector<std::pair<int, uint32_t>> out;
    out.reserve(portWrites_.size());
    for (const PortWrite& w : portWrites_) out.emplace_back(w.port, w.value);
    return out;
  }

  /// Attach/detach observability (opt-in; see src/obs). With the default
  /// (null sink) options the machine's behaviour and timing are
  /// bit-identical to an unobserved machine, and a non-null sink only
  /// observes — it never changes CycleStats.
  void setObsOptions(const obs::ObsOptions& options);
  [[nodiscard]] const obs::ObsOptions& obsOptions() const { return obs_; }
  /// The naming context a sink receives at attach (also usable directly).
  [[nodiscard]] obs::TraceMeta traceMeta() const;

  /// Read a compiled global (for assertions / environment models).
  [[nodiscard]] int64_t globalValue(const std::string& name) const;
  void setGlobalValue(const std::string& name, int64_t value);

  [[nodiscard]] const ChartImage& image() const { return *image_; }
  [[nodiscard]] const compiler::CompiledApp& app() const { return image_->app(); }
  [[nodiscard]] const sla::Sla& slaModel() const { return sla_; }
  [[nodiscard]] const sla::CrLayout& crLayout() const { return layout_; }
  [[nodiscard]] const hwlib::ArchConfig& arch() const { return arch_; }

  // ---------------------------------------------------- TepHost interface
  uint8_t readByte(int32_t addr) override;
  void writeByte(int32_t addr, uint8_t value) override;
  uint32_t readReg(int index) override;
  void writeReg(int index, uint32_t value) override;
  uint32_t readPort(int address) override;
  void writePort(int address, uint32_t value) override;
  void raiseEvent(int index) override;
  void setCondition(int index, bool value) override;
  bool testCondition(int index) override;
  bool testState(int index) override;
  bool acquireExternalBus(int tepId) override;

 private:
  /// Insert/remove `s` from the configuration, keeping the packed activity
  /// bitset and the CR state field incrementally in sync.
  void applyActive(statechart::StateId s, bool active);
  /// Internal RAM bank `tep` / external RAM at their full architectural
  /// size, seeded from the compact blob on first use (out-of-layout write).
  uint8_t* spillInternal(size_t tep);
  uint8_t* spillExternal();
  /// Storage of a port address: its blob slot, or the spill entry of an
  /// address no declared port uses (null / grown on demand).
  [[nodiscard]] const uint32_t* findPort(int address) const;
  uint32_t& portRef(int address);
  /// Write TEP `tep`'s dirty condition-cache entries back to the CR, in
  /// ascending index order, and clear its dirty mask.
  void writeBackConditions(size_t tep);
  /// Write one condition bit to both the byte array and the packed CR.
  void setCrCondition(int index, bool value);
  /// Conflict resolution over `selectScratch_` into `chosenScratch_`
  /// (identical policy to statechart::Interpreter::step), allocation-free.
  void resolveConflicts();
  /// Execute the Transition Address Table serially on TEP 0, dispatching
  /// each routine to the native tier when compiled (interpreter
  /// micro-loop otherwise). Only called when the cycle is
  /// serial-equivalent; returns the cycle count (same accounting as the
  /// lockstep loop).
  int64_t runTatSerial(const std::vector<statechart::TransitionId>& chosen,
                       CycleStats& stats, int64_t base);

  std::shared_ptr<const ChartImage> image_;
  // Aliases into the image, so the cycle logic reads image data with the
  // same spelling it used when the machine owned these objects.
  const statechart::Chart& chart_;
  const hwlib::ArchConfig& arch_;
  const sla::CrLayout& layout_;
  const sla::Sla& sla_;

  // Machine state.
  struct Timer {
    int eventBit = 0;
    int64_t period = 0;
    int64_t nextFire = 0;
  };
  std::vector<Timer> timers_;

  BitVec activeBits_;          ///< the configuration as a bitset over StateIds
  BitVec activeSnapshotBits_;  ///< config at cycle start (STST reads this)
  /// The packed Configuration Register, maintained incrementally: event
  /// bits live only between sampling and SLA selection; condition bits
  /// track crConditions_; state fields track activeBits_.
  BitVec cr_;
  /// Internal events raised since the last sampling: a dedup bitset plus
  /// the raise-ordered list (both reused across cycles, never freed).
  BitVec pendingEventBits_;
  std::vector<int> pendingEvents_;

  // Per-cycle scratch buffers, hoisted out of configurationCycleIds so the
  // steady-state step never allocates: sampled event bits, SLA selection,
  // conflict-resolution output and the Transition Address Table FIFO.
  std::vector<int> eventScratch_;
  std::vector<statechart::TransitionId> selectScratch_;
  std::vector<statechart::TransitionId> chosenScratch_;
  std::vector<statechart::TransitionId> tatScratch_;
  BitVec exitedScratch_;  ///< resolveConflicts working set

  // The instance blob (layout in ChartImage::BlobLayout) and typed views
  // of its parts. Internal RAM is the TEP-local memory of Fig. 1 — one
  // bank per TEP (function frames and expression temporaries land there,
  // so parallel TEPs never race on them); external RAM is shared. Register
  // files are per TEP too ("units with or without associated register
  // files"): the compiler's register windows hold call frames. Condition
  // caches are flat byte arrays (index = CR condition index) with a dirty
  // bitmask per TEP; write-back walks the mask in ascending index order.
  std::unique_ptr<std::byte[]> blob_;
  int64_t* dispatchCycles_ = nullptr;  ///< per TEP, for RoutineStats deltas
  int64_t* dispatchInstrs_ = nullptr;
  int64_t* dispatchStalls_ = nullptr;
  uint64_t* condDirty_ = nullptr;
  int* fieldCode_ = nullptr;           ///< current code per state field
  statechart::TransitionId* running_ = nullptr;  ///< per TEP, -1 = idle
  uint32_t* regs_ = nullptr;
  uint32_t* ports_ = nullptr;
  uint8_t* crConditions_ = nullptr;    ///< condition part, byte per bit
  uint8_t* condCache_ = nullptr;
  uint8_t* groupInFlight_ = nullptr;   ///< by interned exclusion group id
  uint8_t* internal_ = nullptr;
  uint8_t* external_ = nullptr;
  // Full-size banks, materialised by the first write outside the compiled
  // layout (empty until then), and ports at undeclared addresses.
  std::vector<std::unique_ptr<uint8_t[]>> internalSpill_;
  std::unique_ptr<uint8_t[]> externalSpill_;
  std::vector<uint32_t> portSpill_;  ///< flat by bus address, grown on demand
  std::vector<PortWrite> portWrites_;

  std::vector<tep::Tep> teps_;
  int currentTep_ = -1;

  // External-bus arbitration (single owner per machine cycle).
  int busOwner_ = -1;
  int64_t busStallsThisCycle_ = 0;

  // Statistics.
  int64_t totalCycles_ = 0;
  int64_t totalBusStalls_ = 0;
  int64_t configCycles_ = 0;

  // Tiered execution knobs and per-instance tier counters.
  tep::jit::JitMode jitMode_ = tep::jit::jitModeFromEnv();
  int64_t jitThreshold_ = tep::jit::kDefaultJitThreshold;
  int64_t jitNativeRuns_ = 0;
  int64_t jitInterpRuns_ = 0;

  // Observability. machineTimeNow_ tracks absolute machine time inside a
  // configuration cycle (cycle base + local cycles) so TepHost callbacks
  // (port writes, bus events) can be timestamped; it is pure bookkeeping
  // and never feeds back into the cycle accounting.
  obs::ObsOptions obs_;
  int64_t machineTimeNow_ = 0;
};

}  // namespace pscp::machine
