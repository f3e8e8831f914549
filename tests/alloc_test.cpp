// Steady-state allocation audit: after warm-up, stepping a PscpMachine
// through configurationCycleIds(events, &stats) must never touch the heap
// — that is what lets a fleet worker pool step thousands of instances
// without serializing on the allocator.
//
// This TU replaces the global operator new/delete with counting versions
// (forwarding to malloc/free, so behaviour is unchanged for the whole
// test binary) and asserts a delta of zero across 1000 hot cycles. The
// same hooks keep a live-byte total (malloc's usable size of every block
// operator new hands out), which the instance-footprint guard reads.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "actionlang/parser.hpp"
#include "fleet/fleet.hpp"
#include "pscp/machine.hpp"
#include "statechart/parser.hpp"
#include "workloads/smd_fleet.hpp"

namespace {
std::atomic<uint64_t> gAllocations{0};
std::atomic<int64_t> gLiveBytes{0};

void* counted(void* p) {
  if (p != nullptr) {
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    gLiveBytes.fetch_add(static_cast<int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  }
  return p;
}

void* countedAlloc(std::size_t size) {
  void* p = counted(std::malloc(size == 0 ? 1 : size));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* countedAlignedAlloc(std::size_t size, std::size_t alignment) {
  if (size == 0) size = alignment;
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  void* p = counted(std::aligned_alloc(alignment, rounded));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void countedFree(void* p) {
  if (p != nullptr)
    gLiveBytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted(std::malloc(size == 0 ? 1 : size));
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted(std::malloc(size == 0 ? 1 : size));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { countedFree(p); }
void operator delete[](void* p) noexcept { countedFree(p); }
void operator delete(void* p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { countedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { countedFree(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { countedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { countedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { countedFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  countedFree(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  countedFree(p);
}

namespace pscp::machine {
namespace {

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

TEST(SteadyStateAllocations, HotCycleLoopIsAllocationFree) {
  const statechart::Chart chart = statechart::parseChart(kChart);
  const actionlang::Program actions = actionlang::parseActionSource(kActions);
  hwlib::ArchConfig arch;
  arch.numTeps = 2;
  arch.dataWidth = 16;
  arch.hasMulDiv = true;
  arch.hasComparator = true;
  arch.registerFileSize = 12;

  PscpMachine machine(chart, actions, arch);
  machine.setCondition("ARMED", true);
  machine.setInputPort("Sense", 0);  // keep count at 0 so OVERFLOW never fires

  const std::vector<int> goEvent{machine.eventId("GO")};
  const std::vector<int> tickEvent{machine.eventId("TICK")};
  CycleStats stats;

  // Warm-up: enter the AND-state and run the TICK hot path until every
  // lazily-grown buffer (scratch vectors, microcode caches, condition
  // caches, fired lists) has reached steady-state capacity.
  machine.configurationCycleIds(goEvent, &stats);
  for (int i = 0; i < 64; ++i) {
    machine.configurationCycleIds(tickEvent, &stats);
    machine.clearPortWrites();
  }
  ASSERT_TRUE(machine.isActive("Counting")) << "warm-up must stay in Active";
  ASSERT_EQ(stats.fired.size(), 2u) << "both TICK self-loops must fire";

  const uint64_t before = gAllocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    machine.configurationCycleIds(tickEvent, &stats);
    machine.clearPortWrites();
  }
  const uint64_t after = gAllocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "steady-state configuration cycles must not allocate";
  EXPECT_GT(machine.globalValue("watchTicks"), 1000);
}

// The fleet epoch loop holds the same bar — including with the telemetry
// plane armed: metric flushes go through cached registry pointers (no
// string-keyed lookups), flight-ring pushes are fixed-slot stores, and
// health updates are plain atomics. One worker, stepped inline, so every
// allocation in the loop is attributable to the fleet hot path.
TEST(SteadyStateAllocations, FleetEpochLoopIsAllocationFreeWhenArmed) {
  const statechart::Chart chart = statechart::parseChart(kChart);
  const actionlang::Program actions = actionlang::parseActionSource(kActions);
  hwlib::ArchConfig arch;
  arch.numTeps = 2;
  arch.dataWidth = 16;
  arch.hasMulDiv = true;
  arch.hasComparator = true;
  arch.registerFileSize = 12;
  const auto image = std::make_shared<const ChartImage>(chart, actions, arch);

  fleet::FleetConfig config;
  config.workerThreads = 1;
  config.telemetry = true;
  config.flightRecordsPerShard = 128;  // small ring: the loop laps it
  fleet::Fleet f(image, config);
  const std::vector<fleet::InstanceId> ids = f.spawnMany(16);
  const int go = f.eventId("GO");
  const int tick = f.eventId("TICK");
  for (fleet::InstanceId id : ids) {
    f.machine(id).setCondition("ARMED", true);
    f.machine(id).setInputPort("Sense", 0);
    f.inject(id, go);
  }
  // Warm-up epochs grow every lazily-sized buffer to steady state.
  f.step(1);
  for (int e = 0; e < 32; ++e) {
    for (fleet::InstanceId id : ids) f.inject(id, tick);
    f.step(2);
  }

  const uint64_t before = gAllocations.load(std::memory_order_relaxed);
  for (int e = 0; e < 200; ++e) {
    for (fleet::InstanceId id : ids) f.inject(id, tick);
    f.step(2);
  }
  const uint64_t after = gAllocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "armed fleet epochs must not allocate in steady state";
  EXPECT_GT(f.flightRecorder()->ring(0).pushed(), 200u);
}

// The record/replay journal holds the bar too: armed appends are plain
// pushes into vectors reserved at construction (JournalConfig::reserve*),
// checkpoints write into the flat CR-word arena, and all of it happens on
// the control thread after the epoch barrier — zero allocations across
// the measured loop, checkpoints included.
TEST(SteadyStateAllocations, FleetEpochLoopIsAllocationFreeWithJournalArmed) {
  const statechart::Chart chart = statechart::parseChart(kChart);
  const actionlang::Program actions = actionlang::parseActionSource(kActions);
  hwlib::ArchConfig arch;
  arch.numTeps = 2;
  arch.dataWidth = 16;
  arch.hasMulDiv = true;
  arch.hasComparator = true;
  arch.registerFileSize = 12;
  const auto image = std::make_shared<const ChartImage>(chart, actions, arch);

  fleet::FleetConfig config;
  config.workerThreads = 1;
  config.journal = true;
  config.journalConfig.checkpointInterval = 4;  // checkpoints inside the loop
  fleet::Fleet f(image, config);
  const std::vector<fleet::InstanceId> ids = f.spawnMany(16);
  const int go = f.eventId("GO");
  const int tick = f.eventId("TICK");
  for (fleet::InstanceId id : ids) {
    f.setCondition(id, "ARMED", true);
    f.setInputPort(id, "Sense", 0u);
    f.inject(id, go);
  }
  f.step(1);
  for (int e = 0; e < 32; ++e) {
    for (fleet::InstanceId id : ids) f.inject(id, tick);
    f.step(2);
  }

  const uint64_t before = gAllocations.load(std::memory_order_relaxed);
  for (int e = 0; e < 200; ++e) {
    for (fleet::InstanceId id : ids) f.inject(id, tick);
    f.step(2);
  }
  const uint64_t after = gAllocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "journal-armed fleet epochs must not allocate in steady state";
  // The loop actually recorded: injects, steps, and periodic checkpoints.
  ASSERT_NE(f.journal(), nullptr);
  EXPECT_GT(f.journal()->ops().size(), 200u * 17u);
  EXPECT_GE(f.journal()->checkpointCount(), 50u);
}

// Footprint guard: an instance's heap is what its compiled application
// needs, not the architectural memory windows. One 2-TEP SMD machine over
// a shared image, driven through the warm-up recipe and then two X/Y
// pulse pairs, measured as live heap bytes (malloc usable sizes). Measured
// on x86-64 glibc: 3 176 B in 9 allocations at construction, 3 384 B after
// warm-up and after each pulse pair, which allocate nothing. With dense
// 16 KB memory windows and per-TEP microcode caches the same machine held
// 62 080 B in 41 allocations at construction, 68 944 B after warm-up and
// 70 592 B after the first pulse pair.
TEST(InstanceFootprint, SmdInstanceFitsItsBudget) {
  const auto image = workloads::makeSmdFleetImage();
  // Native code lives on the shared image: compile every routine up front
  // so the budget counts instance state only, at any PSCP_JIT mode.
  for (int t = 0; t < static_cast<int>(image->chart().transitions().size()); ++t)
    (void)image->tierCache().precompile(t, image->routineEntry(t));

  const std::vector<int> pulses{image->layout().eventBit("X_PULSE"),
                                image->layout().eventBit("Y_PULSE")};
  CycleStats stats;
  stats.fired.reserve(8);

  const int64_t before = gLiveBytes.load(std::memory_order_relaxed);
  const uint64_t allocsBefore = gAllocations.load(std::memory_order_relaxed);
  auto machine = std::make_unique<PscpMachine>(image);
  const int64_t constructed = gLiveBytes.load(std::memory_order_relaxed) - before;
  const uint64_t constructAllocs =
      gAllocations.load(std::memory_order_relaxed) - allocsBefore;
  ASSERT_TRUE(workloads::warmUpSmdInstance(*machine, machine->eventId("DATA_VALID")));
  const int64_t warmed = gLiveBytes.load(std::memory_order_relaxed) - before;
  uint64_t pulseAllocs[2] = {0, 0};
  auto pulsePair = [&](int pair) {
    const uint64_t allocs = gAllocations.load(std::memory_order_relaxed);
    machine->configurationCycleIds(pulses, &stats);
    machine->clearPortWrites();
    pulseAllocs[pair] = gAllocations.load(std::memory_order_relaxed) - allocs;
    EXPECT_EQ(stats.fired.size(), 2u) << "both DeltaT routines must fire";
    return gLiveBytes.load(std::memory_order_relaxed) - before;
  };
  const int64_t afterFirst = pulsePair(0);
  const int64_t afterSecond = pulsePair(1);

  std::printf("instance footprint: %lld B constructed (%llu allocations), "
              "%lld B after warm-up, %lld B after pulse pair 1 (%llu allocations), "
              "%lld B after pair 2 (%llu allocations)\n",
              static_cast<long long>(constructed),
              static_cast<unsigned long long>(constructAllocs),
              static_cast<long long>(warmed), static_cast<long long>(afterFirst),
              static_cast<unsigned long long>(pulseAllocs[0]),
              static_cast<long long>(afterSecond),
              static_cast<unsigned long long>(pulseAllocs[1]));
  EXPECT_LE(constructed, 8192) << "in " << constructAllocs << " allocations";
  EXPECT_LE(afterSecond, 8192);
  // The first pulse pair runs instructions warm-up never fetched: with one
  // shared, eagerly built microcode table it must not allocate anything.
  EXPECT_EQ(pulseAllocs[0], 0u);
  EXPECT_EQ(pulseAllocs[1], 0u);
  EXPECT_EQ(afterFirst, warmed);
  EXPECT_EQ(afterSecond, afterFirst);
}

// Addresses past the compiled layout cost nothing until written: a read
// gives 0 without allocating, and only the first write into a window
// materialises its full-size spill bank.
TEST(InstanceFootprint, OutOfLayoutReadsAllocateNothing) {
  const auto image = workloads::makeSmdFleetImage();
  PscpMachine machine(image);
  const int32_t internalAddr = tep::kExternalBase - 1;
  const int32_t externalAddr = tep::kExternalBase + tep::kExternalSize - 1;
  ASSERT_GT(internalAddr, image->app().internalBytesUsed);
  const int64_t before = gLiveBytes.load(std::memory_order_relaxed);
  EXPECT_EQ(machine.readByte(internalAddr), 0);
  EXPECT_EQ(machine.readByte(externalAddr), 0);
  EXPECT_EQ(gLiveBytes.load(std::memory_order_relaxed), before);

  machine.writeByte(externalAddr, 0x5A);
  const int64_t externalSpill = gLiveBytes.load(std::memory_order_relaxed) - before;
  EXPECT_GE(externalSpill, tep::kExternalSize);
  EXPECT_LT(externalSpill, 2 * tep::kExternalSize);
  EXPECT_EQ(machine.readByte(externalAddr), 0x5A);
  EXPECT_EQ(machine.readByte(internalAddr), 0);
  EXPECT_EQ(gLiveBytes.load(std::memory_order_relaxed) - before, externalSpill);
}

}  // namespace
}  // namespace pscp::machine
