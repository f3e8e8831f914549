// Fleet engine tests: SPSC queue semantics, instance lifecycle, event
// injection, metrics merging, and — the core guarantee — determinism:
// per-instance port-write logs must be bit-identical no matter how many
// worker threads step the fleet.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "actionlang/parser.hpp"
#include "fleet/fleet.hpp"
#include "fleet/spsc.hpp"
#include "obs/journal/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "pscp/machine.hpp"
#include "statechart/parser.hpp"

namespace pscp::fleet {
namespace {

// The Counter chart from the machine tests: an AND-state whose two
// regions both react to TICK (parallel TEP work), a guarded GO entry and
// a STOP exit that reports through a port — enough structure that a
// scheduling bug in the fleet would scramble the port-write logs.
const char* kChart = R"chart(
chart Counter;
event GO; event STOP; event TICK; event OVERFLOW;
condition ARMED;
port Sense data in width 8 address 0x20;
port Drive data out width 8 address 0x21;

orstate Top {
  contains IdleS, Active;
  default IdleS;
}
basicstate IdleS {
  transition { target Active; label "GO [ARMED]/Init()"; }
}
andstate Active {
  transition { target IdleS; label "STOP/Report()"; }
  transition { target IdleS; label "OVERFLOW"; }
  orstate CountPart { default Counting;
    basicstate Counting {
      transition { target Counting; label "TICK/Bump()"; }
    }
  }
  orstate WatchPart { default Watching;
    basicstate Watching {
      transition { target Watching; label "TICK/Watch()"; }
    }
  }
}
)chart";

const char* kActions = R"code(
int:16 count;
int:16 watchTicks;
int:16 highWater;
uint:8 lastSense;

void Init() {
  count = 0;
  watchTicks = 0;
  highWater = 0;
  set_cond(ARMED, 0);
}

void Bump() {
  lastSense = read_port(Sense);
  count = count + lastSense;
  if (count > 200) { raise(OVERFLOW); }
}

void Watch() {
  watchTicks = watchTicks + 1;
  if (watchTicks * 3 > highWater) { highWater = watchTicks * 3; }
}

void Report() {
  write_port(Drive, count);
}
)code";

class FleetTest : public ::testing::Test {
 protected:
  FleetTest()
      : chart_(statechart::parseChart(kChart)),
        actions_(actionlang::parseActionSource(kActions)) {
    hwlib::ArchConfig arch;
    arch.numTeps = 2;
    arch.dataWidth = 16;
    arch.hasMulDiv = true;
    arch.hasComparator = true;
    arch.registerFileSize = 12;
    image_ = std::make_shared<const machine::ChartImage>(chart_, actions_, arch);
  }

  statechart::Chart chart_;
  actionlang::Program actions_;
  Fleet::ChartImagePtr image_;
};

// ------------------------------------------------------------------ SPSC

TEST(SpscQueue, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscQueue<int>(1).capacity(), 1u);
  EXPECT_EQ(SpscQueue<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscQueue<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscQueue<int>(100).capacity(), 128u);
}

TEST(SpscQueue, FifoOrderAndFullEmpty) {
  SpscQueue<int> q(4);
  int out = 0;
  EXPECT_FALSE(q.tryPop(&out));
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.tryPush(i));
  EXPECT_FALSE(q.tryPush(99)) << "push into a full queue must fail";
  EXPECT_EQ(q.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.tryPop(&out));
    EXPECT_EQ(out, i);
  }
  EXPECT_TRUE(q.empty());
}

TEST(SpscQueue, WrapsAroundManyTimes) {
  SpscQueue<int> q(8);
  int out = 0;
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.tryPush(round * 5 + i));
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(q.tryPop(&out));
      ASSERT_EQ(out, round * 5 + i);
    }
  }
}

// ------------------------------------------------------------- lifecycle

TEST_F(FleetTest, SpawnRetireAndIdsAreNeverReused) {
  Fleet fleet(image_);
  const std::vector<InstanceId> ids = fleet.spawnMany(4);
  EXPECT_EQ(fleet.liveCount(), 4u);
  EXPECT_EQ(ids, (std::vector<InstanceId>{0, 1, 2, 3}));

  fleet.retire(ids[1]);
  EXPECT_FALSE(fleet.isLive(ids[1]));
  EXPECT_EQ(fleet.liveCount(), 3u);

  const InstanceId fresh = fleet.spawn();
  EXPECT_EQ(fresh, 4u) << "retired ids must not be recycled";
  EXPECT_TRUE(fleet.isLive(fresh));

  fleet.step(2);  // stepping with a retired member must be fine
  EXPECT_EQ(fleet.snapshot(fresh).configCycles, 2);
}

TEST_F(FleetTest, SpawnedInstancesStartInDefaultConfiguration) {
  Fleet fleet(image_);
  const InstanceId id = fleet.spawn();
  EXPECT_TRUE(fleet.machine(id).isActive("IdleS"));
  const InstanceSnapshot snap = fleet.snapshot(id);
  EXPECT_EQ(snap.configCycles, 0);
  EXPECT_NE(std::find(snap.activeStates.begin(), snap.activeStates.end(), "IdleS"),
            snap.activeStates.end());
}

// ------------------------------------------------------------- injection

TEST_F(FleetTest, InjectedEventsAreDeliveredAtTheNextEpoch) {
  Fleet fleet(image_);
  const InstanceId id = fleet.spawn();
  fleet.machine(id).setCondition("ARMED", true);
  const int go = fleet.eventId("GO");
  EXPECT_TRUE(fleet.inject(id, go));

  fleet.step();
  EXPECT_TRUE(fleet.machine(id).isActive("Counting"));
  const InstanceSnapshot snap = fleet.snapshot(id);
  EXPECT_EQ(snap.eventsDelivered, 1);
  EXPECT_EQ(snap.firedTransitions, 1);
}

TEST_F(FleetTest, FullQueueRejectsAndCountsDrops) {
  FleetConfig config;
  config.eventQueueCapacity = 2;
  Fleet fleet(image_, config);
  const InstanceId id = fleet.spawn();
  const int tick = fleet.eventId("TICK");
  EXPECT_TRUE(fleet.inject(id, tick));
  EXPECT_TRUE(fleet.inject(id, tick));
  EXPECT_FALSE(fleet.inject(id, tick));
  EXPECT_FALSE(fleet.inject(id, tick));
  EXPECT_EQ(fleet.snapshot(id).eventsDropped, 2);
  EXPECT_FALSE(fleet.inject(12345, tick)) << "unknown id is a soft failure";
}

// --------------------------------------------------------------- metrics

TEST(HistogramMerge, CombinesCountsAndExtremes) {
  obs::Histogram a({10, 20, 30});
  obs::Histogram b({10, 20, 30});
  a.record(5);
  a.record(25);
  b.record(15);
  b.record(100);
  a.merge(b);
  EXPECT_EQ(a.count(), 4);
  EXPECT_EQ(a.sum(), 145);
  EXPECT_EQ(a.min(), 5);
  EXPECT_EQ(a.max(), 100);
  EXPECT_EQ(a.counts(), (std::vector<int64_t>{1, 1, 1, 1}));

  obs::Histogram empty;
  empty.merge(a);  // default-constructed target adopts the source
  EXPECT_EQ(empty.count(), 4);
  EXPECT_EQ(empty.bounds(), a.bounds());
  a.merge(obs::Histogram({10, 20, 30}));  // merging an empty source: no-op
  EXPECT_EQ(a.count(), 4);
}

TEST(MetricsMerge, RegistriesFoldCountersAndHistograms) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  a.counter("x") = 3;
  b.counter("x") = 4;
  b.counter("y") = 1;
  a.histogram("h", {5, 10}).record(7);
  b.histogram("h", {5, 10}).record(2);
  a.mergeFrom(b);
  EXPECT_EQ(a.value("x"), 7);
  EXPECT_EQ(a.value("y"), 1);
  EXPECT_EQ(a.findHistogram("h")->count(), 2);
}

TEST_F(FleetTest, MergedMetricsAgreeWithPerInstanceSnapshots) {
  FleetConfig config;
  config.workerThreads = 2;
  Fleet fleet(image_, config);
  const std::vector<InstanceId> ids = fleet.spawnMany(10);
  for (InstanceId id : ids) {
    fleet.machine(id).setCondition("ARMED", true);
    fleet.injectByName(id, "GO");
  }
  for (int epoch = 0; epoch < 5; ++epoch) {
    for (InstanceId id : ids) fleet.injectByName(id, "TICK");
    fleet.step(2);
  }
  const obs::MetricsRegistry merged = fleet.mergedMetrics();
  int64_t configCycles = 0;
  int64_t fired = 0;
  int64_t delivered = 0;
  for (InstanceId id : ids) {
    const InstanceSnapshot snap = fleet.snapshot(id);
    configCycles += snap.configCycles;
    fired += snap.firedTransitions;
    delivered += snap.eventsDelivered;
  }
  EXPECT_EQ(merged.value("fleet.config_cycles"), configCycles);
  EXPECT_EQ(merged.value("fleet.fired_transitions"), fired);
  EXPECT_EQ(merged.value("fleet.events_delivered"), delivered);
  EXPECT_GT(fired, 0);
  const obs::Histogram* h = merged.findHistogram("fleet.instance_cycles_per_epoch");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 10 * 5);  // one sample per instance per epoch
}

// ----------------------------------------------------------- determinism

/// Deterministic per-instance event script driven by a seeded LCG. All
/// control-thread actions (arming, input ports, injections) depend only
/// on the instance id and epoch, never on scheduling.
struct ScriptedRun {
  std::vector<std::vector<machine::PortWrite>> portLogs;
  std::vector<InstanceSnapshot> snapshots;
};

/// One epoch of instance `i`'s script: the Sense value and the events
/// injected, in order (advances the instance's LCG state `s`).
uint32_t scriptEpoch(uint64_t& s, int go, int stop, int tick, std::vector<int>* events) {
  s = s * 6364136223846793005ull + 1442695040888963407ull;
  const uint32_t roll = static_cast<uint32_t>(s >> 33) % 100;
  events->clear();
  if (roll < 25) {
    events->push_back(go);
  } else if (roll < 75) {
    events->push_back(tick);
    if (roll % 2 == 0) events->push_back(tick);  // queued duplicate
  } else if (roll < 90) {
    events->push_back(stop);
  }
  return static_cast<uint32_t>((s >> 16) & 3);
}

uint64_t scriptSeed(size_t i) { return 0x9E3779B97F4A7C15ull * (i + 1); }

ScriptedRun runScriptedFleet(const Fleet::ChartImagePtr& image, int workers,
                             size_t instances, int epochs) {
  FleetConfig config;
  config.workerThreads = workers;
  config.capturePortWrites = true;
  config.stealChunk = 4;
  Fleet fleet(image, config);
  const std::vector<InstanceId> ids = fleet.spawnMany(instances);
  const int go = fleet.eventId("GO");
  const int stop = fleet.eventId("STOP");
  const int tick = fleet.eventId("TICK");

  std::vector<uint64_t> rng(instances);
  for (size_t i = 0; i < instances; ++i) rng[i] = scriptSeed(i);

  std::vector<int> events;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    for (size_t i = 0; i < instances; ++i) {
      const uint32_t sense = scriptEpoch(rng[i], go, stop, tick, &events);
      fleet.machine(ids[i]).setCondition("ARMED", true);  // re-arm every epoch
      fleet.machine(ids[i]).setInputPort("Sense", sense);
      for (const int event : events) fleet.inject(ids[i], event);
    }
    fleet.step(2);
  }

  ScriptedRun run;
  for (InstanceId id : ids) {
    run.portLogs.push_back(fleet.portWrites(id));
    run.snapshots.push_back(fleet.snapshot(id));
  }
  return run;
}

TEST_F(FleetTest, PortWriteLogsAreBitIdenticalAcrossWorkerCounts) {
  constexpr size_t kInstances = 64;
  constexpr int kEpochs = 30;
  const ScriptedRun base = runScriptedFleet(image_, 1, kInstances, kEpochs);

  int64_t totalWrites = 0;
  int64_t totalFired = 0;
  for (size_t i = 0; i < kInstances; ++i) {
    totalWrites += static_cast<int64_t>(base.portLogs[i].size());
    totalFired += base.snapshots[i].firedTransitions;
  }
  ASSERT_GT(totalWrites, 0) << "script must actually exercise port writes";
  ASSERT_GT(totalFired, static_cast<int64_t>(kInstances))
      << "script must actually fire transitions";

  for (int workers : {2, 8}) {
    const ScriptedRun run = runScriptedFleet(image_, workers, kInstances, kEpochs);
    for (size_t i = 0; i < kInstances; ++i) {
      ASSERT_EQ(run.portLogs[i], base.portLogs[i])
          << "port-write log diverged for instance " << i << " at "
          << workers << " workers";
      ASSERT_EQ(run.snapshots[i].machineCycles, base.snapshots[i].machineCycles)
          << "cycle count diverged for instance " << i;
      ASSERT_EQ(run.snapshots[i].firedTransitions,
                base.snapshots[i].firedTransitions);
      ASSERT_EQ(run.snapshots[i].activeStates, base.snapshots[i].activeStates);
    }
  }
}

TEST_F(FleetTest, SteppingIsBitIdenticalToStandaloneMachines) {
  // The chunked, cycle-major fleet loop with its idle skip must be
  // indistinguishable from stepping each instance's script on a standalone
  // machine cycle by cycle: same port-write logs, same cycle counts, same
  // active states. 37 instances leaves a tail under the 4-lane chunks.
  constexpr size_t kInstances = 37;
  constexpr int kEpochs = 20;
  ScriptedRun reference;
  for (size_t i = 0; i < kInstances; ++i) {
    machine::PscpMachine m(image_);
    const int go = m.eventId("GO");
    const int stop = m.eventId("STOP");
    const int tick = m.eventId("TICK");
    uint64_t rng = scriptSeed(i);
    std::vector<int> events;
    const std::vector<int> none;
    machine::CycleStats stats;
    InstanceSnapshot snap;
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      const uint32_t sense = scriptEpoch(rng, go, stop, tick, &events);
      m.setCondition("ARMED", true);
      m.setInputPort("Sense", sense);
      for (int c = 0; c < 2; ++c) {
        m.configurationCycleIds(c == 0 ? events : none, &stats);
        snap.firedTransitions += static_cast<int64_t>(stats.fired.size());
      }
    }
    snap.machineCycles = m.totalCycles();
    snap.activeStates = m.activeNames();
    reference.portLogs.push_back(m.portWrites());
    reference.snapshots.push_back(snap);
  }

  int64_t totalWrites = 0;
  for (size_t i = 0; i < kInstances; ++i)
    totalWrites += static_cast<int64_t>(reference.portLogs[i].size());
  ASSERT_GT(totalWrites, 0) << "script must actually exercise port writes";

  for (const int workers : {1, 3}) {
    const ScriptedRun run = runScriptedFleet(image_, workers, kInstances, kEpochs);
    for (size_t i = 0; i < kInstances; ++i) {
      ASSERT_EQ(run.portLogs[i], reference.portLogs[i])
          << "fleet diverged from its standalone machine for instance " << i
          << " at " << workers << " workers";
      ASSERT_EQ(run.snapshots[i].machineCycles, reference.snapshots[i].machineCycles)
          << "instance " << i;
      ASSERT_EQ(run.snapshots[i].firedTransitions,
                reference.snapshots[i].firedTransitions);
      ASSERT_EQ(run.snapshots[i].activeStates, reference.snapshots[i].activeStates);
    }
  }
}

TEST_F(FleetTest, RetirementHolesKeepWorkerCountsIdentical) {
  // Retiring instances mid-run forces shard rebuilds and leaves shards of
  // unequal size; two workers must still match one exactly.
  auto runHoles = [&](int workers) {
    FleetConfig config;
    config.workerThreads = workers;
    config.capturePortWrites = true;
    Fleet fleet(image_, config);
    const std::vector<InstanceId> ids = fleet.spawnMany(24);
    std::vector<std::vector<machine::PortWrite>> logs;
    for (int epoch = 0; epoch < 12; ++epoch) {
      if (epoch == 4)
        for (size_t i = 0; i < ids.size(); i += 3) {
          logs.push_back(fleet.portWrites(ids[i]));
          fleet.retire(ids[i]);
        }
      for (InstanceId id : ids) {
        if (!fleet.isLive(id)) continue;
        fleet.machine(id).setCondition("ARMED", true);
        fleet.injectByName(id, epoch % 3 == 0 ? "GO" : "TICK");
      }
      fleet.step(2);
    }
    for (InstanceId id : ids)
      if (fleet.isLive(id)) logs.push_back(fleet.portWrites(id));
    return logs;
  };
  ASSERT_EQ(runHoles(2), runHoles(1));
}

TEST_F(FleetTest, StealingFleetMatchesSingleThreadWithSkewedShards) {
  // Retire most of one shard's round-robin partners so the remaining
  // shards are unbalanced and stealing actually happens; results must
  // still match the single-threaded run exactly.
  auto runSkewed = [&](int workers) {
    FleetConfig config;
    config.workerThreads = workers;
    config.capturePortWrites = true;
    config.stealChunk = 1;
    Fleet fleet(image_, config);
    const std::vector<InstanceId> ids = fleet.spawnMany(48);
    for (size_t i = 0; i < ids.size(); ++i)
      if (i % 4 != 0 && i > 8) fleet.retire(ids[i]);
    std::vector<InstanceId> live;
    for (InstanceId id : ids)
      if (fleet.isLive(id)) live.push_back(id);
    for (int epoch = 0; epoch < 10; ++epoch) {
      for (InstanceId id : live) {
        fleet.machine(id).setCondition("ARMED", true);
        fleet.injectByName(id, epoch % 3 == 0 ? "GO" : "STOP");
        fleet.injectByName(id, "TICK");
      }
      fleet.step(3);
    }
    std::vector<std::vector<machine::PortWrite>> logs;
    for (InstanceId id : live) logs.push_back(fleet.portWrites(id));
    return logs;
  };
  const auto base = runSkewed(1);
  const auto threaded = runSkewed(4);
  ASSERT_EQ(base, threaded);
}

// ---------------------------------------------------------- quiescent skip

// A chart built to park and wake: hardware timers (TMR, SLOW) wake an
// idle instance mid-epoch, GO starts an internal-event chain (E1, then an
// E2 nothing consumes, so the chain ends in a quiescent cycle), and FLAG
// enables an event-free transition that only a condition write can
// trigger. Every routine logs through one port, so the port log shows
// exactly which cycle each wake-up landed on.
const char* kSkipChart = R"chart(
chart Skip;
event GO; event E1; event E2; event TMR; event SLOW;
condition FLAG;
port Out data out width 8 address 0x21;

orstate Top {
  contains Idle, Busy;
  default Idle;
}
basicstate Idle {
  transition { target Idle; label "TMR/OnTmr()"; }
  transition { target Idle; label "SLOW/OnSlow()"; }
  transition { target Busy; label "GO/Go()"; }
  transition { target Idle; label "[FLAG]/OnFlag()"; }
}
basicstate Busy {
  transition { target Idle; label "E1/Step1()"; }
}
)chart";

const char* kSkipActions = R"code(
int:16 ticks;

void OnTmr() { ticks = ticks + 1; write_port(Out, 1); }
void OnSlow() { write_port(Out, 2); }
void Go() { write_port(Out, 3); raise(E1); }
void Step1() { write_port(Out, 4); raise(E2); }
void OnFlag() { write_port(Out, 5); set_cond(FLAG, 0); }
)code";

constexpr size_t kSkipInstances = 13;
constexpr int kSkipEpochs = 14;
constexpr size_t kSinkInstance = 2;

int skipEpochCycles(int epoch) { return epoch % 4 == 3 ? 5 : 8; }
bool skipInjectsGo(size_t i, int epoch) { return i % 5 == 1 && epoch % 4 == 0; }
bool skipSetsFlag(size_t i, int epoch) { return i % 3 == 0 && (epoch == 5 || epoch == 10); }
/// Odd and even periods, so maturity lands on every in-epoch cycle index.
int64_t skipTimerPeriod(size_t i) {
  static const int64_t kPeriods[] = {7, 16, 31, 10, 33, 15, 64, 9, 20, 45, 11, 26, 3};
  return kPeriods[i % (sizeof(kPeriods) / sizeof(kPeriods[0]))];
}

/// Counts cycles, so the instance it watches really is observed.
struct CycleCountingSink : obs::ObsSink {
  int64_t cycles = 0;
  void onCycleEnd(int64_t, int64_t, int64_t, int, bool, int64_t) override { ++cycles; }
};

/// What the identity suite compares, per instance.
struct SkipObserved {
  std::vector<machine::PortWrite> portLog;
  int64_t machineCycles = 0;
  int64_t configCycles = 0;
  int64_t quiescentCycles = 0;
  std::vector<std::string> activeStates;
  uint64_t crDigest = 0;

  bool operator==(const SkipObserved&) const = default;
};

class QuiescentSkip : public ::testing::Test {
 protected:
  QuiescentSkip()
      : chart_(statechart::parseChart(kSkipChart)),
        actions_(actionlang::parseActionSource(kSkipActions)) {
    hwlib::ArchConfig arch;
    arch.numTeps = 2;
    arch.dataWidth = 16;
    image_ = std::make_shared<const machine::ChartImage>(chart_, actions_, arch);
  }

  /// Instance i of the script on a standalone machine stepped cycle by
  /// cycle. `timerCycleSeen` collects, for every TMR fire, whether it fell
  /// on the epoch's first cycle (bit 0), its last (bit 1) or between them
  /// (bit 2).
  SkipObserved runStandalone(size_t i, int* timerCycleSeen) const {
    machine::PscpMachine m(image_);
    CycleCountingSink sink;
    if (i == kSinkInstance) m.setObsOptions({&sink});
    if (i % 2 == 0) m.addTimer("TMR", skipTimerPeriod(i));
    if (i % 4 == 1) m.addTimer("SLOW", 3 * skipTimerPeriod(i + 1) + 1);
    SkipObserved out;
    machine::CycleStats stats;
    const std::vector<int> none;
    for (int e = 0; e < kSkipEpochs; ++e) {
      if (skipSetsFlag(i, e)) m.setCondition("FLAG", true);
      const std::vector<int> go{m.eventId("GO")};
      const int cycles = skipEpochCycles(e);
      for (int c = 0; c < cycles; ++c) {
        const size_t logged = m.portWrites().size();
        m.configurationCycleIds(c == 0 && skipInjectsGo(i, e) ? go : none, &stats);
        if (stats.quiescent) ++out.quiescentCycles;
        for (size_t w = logged; w < m.portWrites().size(); ++w)
          if (m.portWrites()[w].value == 1)
            *timerCycleSeen |= c == 0 ? 1 : c == cycles - 1 ? 2 : 4;
      }
    }
    out.portLog = m.portWrites();
    out.machineCycles = m.totalCycles();
    out.configCycles = m.configurationCycles();
    out.activeStates = m.activeNames();
    out.crDigest = obs::journal::crDigest(m.crBits());
    if (i == kSinkInstance) EXPECT_EQ(sink.cycles, out.configCycles);
    return out;
  }

  /// The same script on one fleet; `bulk` receives
  /// fleet.bulk_quiescent_cycles.
  std::vector<SkipObserved> runFleet(int workers, int64_t* bulk) const {
    FleetConfig config;
    config.workerThreads = workers;
    config.capturePortWrites = true;
    config.stealChunk = 2;
    Fleet fleet(image_, config);
    const std::vector<InstanceId> ids = fleet.spawnMany(kSkipInstances);
    CycleCountingSink sink;
    fleet.machine(ids[kSinkInstance]).setObsOptions({&sink});
    for (size_t i = 0; i < kSkipInstances; ++i) {
      if (i % 2 == 0) fleet.addTimer(ids[i], "TMR", skipTimerPeriod(i));
      if (i % 4 == 1) fleet.addTimer(ids[i], "SLOW", 3 * skipTimerPeriod(i + 1) + 1);
    }
    for (int e = 0; e < kSkipEpochs; ++e) {
      for (size_t i = 0; i < kSkipInstances; ++i) {
        if (skipSetsFlag(i, e)) fleet.setCondition(ids[i], "FLAG", true);
        if (skipInjectsGo(i, e)) EXPECT_TRUE(fleet.injectByName(ids[i], "GO"));
      }
      fleet.step(skipEpochCycles(e));
    }
    std::vector<SkipObserved> out;
    for (InstanceId id : ids) {
      const InstanceSnapshot snap = fleet.snapshot(id);
      SkipObserved o;
      o.portLog = fleet.portWrites(id);
      o.machineCycles = snap.machineCycles;
      o.configCycles = snap.configCycles;
      o.quiescentCycles = snap.quiescentCycles;
      o.activeStates = snap.activeStates;
      o.crDigest = obs::journal::crDigest(fleet.machine(id).crBits());
      EXPECT_EQ(o.machineCycles, fleet.machine(id).totalCycles());
      EXPECT_EQ(o.configCycles, fleet.machine(id).configurationCycles());
      out.push_back(std::move(o));
    }
    EXPECT_EQ(sink.cycles, out[kSinkInstance].configCycles);
    *bulk = fleet.mergedMetrics().value("fleet.bulk_quiescent_cycles");
    return out;
  }

  statechart::Chart chart_;
  actionlang::Program actions_;
  Fleet::ChartImagePtr image_;
};

TEST_F(QuiescentSkip, FleetMatchesStandaloneMachinesCycleByCycle) {
  int timerCycleSeen = 0;
  std::vector<SkipObserved> reference;
  for (size_t i = 0; i < kSkipInstances; ++i)
    reference.push_back(runStandalone(i, &timerCycleSeen));
  // The script reaches every case the skip must stop short of.
  ASSERT_EQ(timerCycleSeen, 7) << "timer maturity must land on an epoch's "
                                  "first cycle, its last and one in between";
  std::set<uint32_t> values;
  for (const SkipObserved& r : reference)
    for (const machine::PortWrite& w : r.portLog) values.insert(w.value);
  ASSERT_EQ(values, (std::set<uint32_t>{1, 2, 3, 4, 5}))
      << "timers, the event chain and the condition write must all fire";

  for (const int workers : {1, 2, 4}) {
    int64_t bulk = 0;
    const std::vector<SkipObserved> run = runFleet(workers, &bulk);
    EXPECT_GT(bulk, 0) << "the skip must actually apply cycles in bulk";
    for (size_t i = 0; i < kSkipInstances; ++i)
      ASSERT_EQ(run[i], reference[i])
          << "instance " << i << " diverged at " << workers << " workers";
  }
}

TEST_F(QuiescentSkip, SkipStopsShortOfTheNextTimerMaturity) {
  machine::PscpMachine m(image_);
  m.addTimer("TMR", 7);   // matures at machine time 7: the cycle starting at 8
  m.addTimer("SLOW", 30);
  machine::CycleStats stats;
  EXPECT_EQ(m.skipIdleCycles(100, &stats), 4);  // cycles at 0, 2, 4, 6
  EXPECT_EQ(m.totalCycles(), 8);
  EXPECT_EQ(m.configurationCycles(), 4);
  EXPECT_TRUE(stats.quiescent);
  EXPECT_EQ(stats.cycles, 2);
  EXPECT_EQ(m.skipIdleCycles(100, &stats), 0) << "a matured timer stops it";
  m.configurationCycleIds({}, &stats);  // TMR fires
  EXPECT_EQ(stats.fired.size(), 1u);

  machine::PscpMachine untimed(image_);
  EXPECT_EQ(untimed.skipIdleCycles(3, &stats), 3) << "capped by n";
  EXPECT_EQ(untimed.totalCycles(), 6);
  EXPECT_EQ(untimed.skipIdleCycles(0, &stats), 0);

  machine::PscpMachine observed(image_);
  CycleCountingSink sink;
  observed.setObsOptions({&sink});
  EXPECT_EQ(observed.skipIdleCycles(3, &stats), 0) << "an observer sees every cycle";
}

TEST_F(QuiescentSkip, EveryCrWriterMakesTheNextSkipDecodeAgain) {
  // The idle memo caches "this CR selects nothing"; each way the CR can
  // change after an idle skip must make the next skip decode again.
  machine::PscpMachine m(image_);
  machine::CycleStats stats;
  bool decoded = false;
  ASSERT_EQ(m.skipIdleCycles(4, &stats, &decoded), 4);
  EXPECT_TRUE(decoded) << "the first skip decodes the CR";
  ASSERT_EQ(m.skipIdleCycles(4, &stats, &decoded), 4);
  EXPECT_FALSE(decoded) << "an unchanged CR is not decoded again";

  // 1. A write from outside the machine: FLAG enables OnFlag.
  m.setCondition("FLAG", true);
  EXPECT_EQ(m.skipIdleCycles(4, &stats, &decoded), 0);
  EXPECT_TRUE(decoded);
  // 2. A routine's condition write-back: OnFlag clears FLAG (and updates
  //    the configuration), after which the CR is idle again.
  m.configurationCycleIds({}, &stats);
  ASSERT_EQ(stats.fired.size(), 1u);
  EXPECT_FALSE(m.conditionValue("FLAG"));
  EXPECT_EQ(m.skipIdleCycles(4, &stats, &decoded), 4);
  EXPECT_TRUE(decoded);
  // 3. A configuration update: GO moves Idle -> Busy; the E1/E2 chain
  //    holds the next two cycles, then the new CR is decoded once more.
  m.configurationCycleIds({m.eventId("GO")}, &stats);
  EXPECT_TRUE(m.isActive("Busy"));
  EXPECT_EQ(m.skipIdleCycles(4, &stats, &decoded), 0) << "E1 is pending";
  EXPECT_FALSE(decoded);
  m.configurationCycleIds({}, &stats);  // E1: Busy -> Idle, raises E2
  m.configurationCycleIds({}, &stats);  // E2: consumed by nothing
  EXPECT_TRUE(stats.quiescent);
  EXPECT_EQ(m.skipIdleCycles(4, &stats, &decoded), 4);
  EXPECT_TRUE(decoded);
}

TEST_F(QuiescentSkip, DirectConditionWriteWakesAParkedInstance) {
  // A write through machine(id) bypasses the journaled wrappers; the
  // parked instance must still see it at the next epoch, exactly like a
  // standalone machine does.
  FleetConfig config;
  config.capturePortWrites = true;
  Fleet fleet(image_, config);
  const InstanceId id = fleet.spawn();
  fleet.step(8);
  fleet.step(8);
  fleet.machine(id).setCondition("FLAG", true);
  fleet.step(8);

  machine::PscpMachine reference(image_);
  machine::CycleStats stats;
  for (int c = 0; c < 16; ++c) reference.configurationCycleIds({}, &stats);
  reference.setCondition("FLAG", true);
  for (int c = 0; c < 8; ++c) reference.configurationCycleIds({}, &stats);
  ASSERT_EQ(reference.portWrites().size(), 1u);
  EXPECT_EQ(reference.portWrites()[0].value, 5u);
  EXPECT_EQ(fleet.portWrites(id), reference.portWrites())
      << "OnFlag's port write must appear in the third epoch";
}

TEST_F(QuiescentSkip, MergedMetricsCountBulkAppliedCycles) {
  // Idle instances without timers: the first epoch decodes cycle 0 and
  // applies the other cycles - 1 without a decode of their own; the CR
  // stays unchanged, so every later epoch applies all its cycles without
  // one.
  constexpr int kInstances = 9;
  constexpr int kEpochs = 6;
  constexpr int kCycles = 8;
  FleetConfig config;
  config.workerThreads = 2;
  Fleet fleet(image_, config);
  const std::vector<InstanceId> ids = fleet.spawnMany(kInstances);
  // One GO per epoch on instance 0: its chain runs three non-pure
  // cycles (GO, E1, E2), then it parks like the others.
  for (int e = 0; e < kEpochs; ++e) {
    fleet.injectByName(ids[0], "GO");
    fleet.step(kCycles);
  }
  const obs::MetricsRegistry merged = fleet.mergedMetrics();
  const int64_t quiescent = merged.value("fleet.quiescent_cycles");
  const int64_t bulk = merged.value("fleet.bulk_quiescent_cycles");
  EXPECT_LE(bulk, quiescent);
  const int64_t idleBulk =
      (kInstances - 1) * ((kCycles - 1) + (kEpochs - 1) * kCycles);
  const int64_t chainBulk = kEpochs * (kCycles - 4);  // after its decode at cycle 3
  EXPECT_EQ(bulk, idleBulk + chainBulk);
  EXPECT_EQ(quiescent, (kInstances - 1) * kEpochs * kCycles +
                           kEpochs * (kCycles - 2));
}

// ------------------------------------------------------------ routine faults

// One state, one routine that writes external RAM at an input-port index:
// an index past the external window faults with the unmapped-address
// diagnostic.
const char* kFaultChart = R"chart(
chart Poker;
event POKE;
port Index data in width 16 address 0x10;
port Out data out width 8 address 0x11;

orstate Top {
  contains Ready;
  default Ready;
}
basicstate Ready {
  transition { target Ready; label "POKE/Poke()"; }
}
)chart";

const char* kFaultActions = R"code(
uint:8 ext[4];
uint:8 pokes;

void Poke() {
  ext[read_port(Index)] = 1;
  pokes = pokes + 1;
  write_port(Out, pokes);
}
)code";

class RoutineFault : public ::testing::Test {
 protected:
  RoutineFault()
      : chart_(statechart::parseChart(kFaultChart)),
        actions_(actionlang::parseActionSource(kFaultActions)) {
    hwlib::ArchConfig arch;
    arch.dataWidth = 16;
    image_ = std::make_shared<const machine::ChartImage>(chart_, actions_, arch);
    const int32_t ext = image_->app().globalPlacement.at("ext").address;
    pastWindow_ = static_cast<uint32_t>(tep::kExternalBase + tep::kExternalSize - ext);
  }

  statechart::Chart chart_;
  actionlang::Program actions_;
  Fleet::ChartImagePtr image_;
  uint32_t pastWindow_ = 0;
};

TEST_F(RoutineFault, OneFaultingInstanceLeavesTheOthersUntouched) {
  constexpr int kEpochs = 6;
  constexpr size_t kFaulty = 2;  // 1 of 4 instances
  for (const int workers : {1, 2}) {
    // withFaulty: four instances, the third pokes past the window from
    // epoch 2 on. Without it: the three healthy ones alone.
    auto run = [&](bool withFaulty, std::vector<std::string>* errors) {
      FleetConfig config;
      config.workerThreads = workers;
      config.capturePortWrites = true;
      config.stealChunk = 1;
      Fleet fleet(image_, config);
      std::vector<InstanceId> healthy;
      InstanceId faulty = 0;
      for (size_t k = 0; k < 4; ++k) {
        if (k != kFaulty)
          healthy.push_back(fleet.spawn());
        else if (withFaulty)
          faulty = fleet.spawn();
      }
      for (int e = 0; e < kEpochs; ++e) {
        for (InstanceId id : healthy) {
          fleet.setInputPort(id, "Index", static_cast<uint32_t>(e % 4));
          fleet.injectByName(id, "POKE");
        }
        if (withFaulty) {
          fleet.setInputPort(faulty, "Index", e >= 2 ? pastWindow_ : 0);
          fleet.injectByName(faulty, "POKE");
        }
        try {
          fleet.step(3);
        } catch (const Error& err) {
          errors->push_back(err.what());
        }
      }
      std::vector<std::pair<std::vector<machine::PortWrite>, InstanceSnapshot>> out;
      for (InstanceId id : healthy)
        out.emplace_back(fleet.portWrites(id), fleet.snapshot(id));
      if (withFaulty) {
        EXPECT_TRUE(fleet.isLive(faulty));
        EXPECT_EQ(fleet.snapshot(faulty).firedTransitions, 2)
            << "a faulted instance is not stepped again";
        fleet.retire(faulty);
        fleet.step(1);  // retiring it leaves a fleet that steps cleanly
      }
      return out;
    };
    std::vector<std::string> errors;
    std::vector<std::string> noErrors;
    const auto mixed = run(true, &errors);
    const auto clean = run(false, &noErrors);
    EXPECT_TRUE(noErrors.empty());
    ASSERT_EQ(errors.size(), 1u) << "one throw, in the epoch that faulted";
    EXPECT_EQ(errors[0], "fleet instance 2 faulted in epoch 3 (1 faulted this "
                         "epoch): PSCP: data write to unmapped address 0x8000")
        << workers << " workers";
    ASSERT_EQ(mixed.size(), clean.size());
    for (size_t k = 0; k < mixed.size(); ++k) {
      EXPECT_EQ(mixed[k].first, clean[k].first) << "healthy instance " << k;
      EXPECT_EQ(mixed[k].second.machineCycles, clean[k].second.machineCycles);
      EXPECT_EQ(mixed[k].second.quiescentCycles, clean[k].second.quiescentCycles);
      EXPECT_EQ(mixed[k].second.firedTransitions, kEpochs);
    }
  }
}

}  // namespace
}  // namespace pscp::fleet
