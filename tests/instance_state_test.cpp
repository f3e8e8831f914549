// Application-sized instance state: a PscpMachine's memories are only as
// large as the compiled storage layout, yet every address of the
// architectural windows keeps its meaning. Reads outside the layout give
// 0, the first write there materialises a full-size spill bank, and
// addresses outside both windows still fault with the unmapped-address
// diagnostic. The routines below index arrays with an input-port value,
// which codegen does not bounds-check, so they reach every case.
//
// Also here: the shared per-PC microcode table every TEP interprets from.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "actionlang/parser.hpp"
#include "fleet/fleet.hpp"
#include "obs/journal/journal.hpp"
#include "pscp/machine.hpp"
#include "statechart/parser.hpp"
#include "tep/microcode.hpp"
#include "workloads/smd_fleet.hpp"

namespace pscp::machine {
namespace {

const char* kChart = R"chart(
chart Spill;
event POKE; event PEEK;
condition BIG;
port Index data in width 16 address 0x10;
port Value data in width 8 address 0x11;
port OutI data out width 8 address 0x12;
port OutE data out width 8 address 0x13;

orstate Top {
  contains Ready;
  default Ready;
}
basicstate Ready {
  transition { target Ready; label "POKE/Poke()"; }
  transition { target Ready; label "PEEK/Peek()"; }
}
)chart";

// `loc` is promoted to internal RAM by the fixture; `ext` stays external.
const char* kActions = R"code(
uint:8 loc[4];
uint:8 ext[4];

void Poke() {
  loc[read_port(Index)] = read_port(Value);
  ext[read_port(Index)] = read_port(Value) + 1;
  if (read_port(Value) > 5) { set_cond(BIG, 1); } else { set_cond(BIG, 0); }
}

void Peek() {
  write_port(OutI, loc[read_port(Index)]);
  write_port(OutE, ext[read_port(Index)]);
}
)code";

struct Step {
  bool poke = false;
  uint32_t index = 0;
  uint32_t value = 0;
};

/// Untouched out-of-layout reads, in-layout and out-of-layout writes, and
/// reads back through the spilled banks (the in-layout byte written
/// before the spill must survive it).
const std::vector<Step> kScript = {
    {false, 1000, 0}, {true, 0, 5},      {true, 1000, 9},   {false, 1000, 0},
    {false, 0, 0},    {true, 2, 3},      {false, 2, 0},     {false, 1001, 0},
    {false, 0x3000, 0}, {true, 0x3FFB, 200}, {false, 0x3FFB, 0}, {false, 1000, 0},
};

/// What one configuration cycle left behind.
struct Observed {
  int64_t fired = 0;  ///< transitions fired so far
  uint32_t outI = 0;
  uint32_t outE = 0;
  uint64_t digest = 0;

  bool operator==(const Observed&) const = default;
};

class InstanceSpill : public ::testing::Test {
 protected:
  InstanceSpill() {
    actions_.findGlobal("loc")->storageClass = compiler::kStorageInternal;
    hwlib::ArchConfig arch;
    arch.numTeps = 2;
    arch.dataWidth = 16;
    arch.hasComparator = true;
    image_ = std::make_shared<const ChartImage>(chart_, actions_, arch);
  }

  [[nodiscard]] uint32_t valueFor(const Step& s, size_t instance) const {
    return s.poke ? s.value + static_cast<uint32_t>(instance) : 0;
  }

  /// The script on one standalone machine at `mode`.
  std::vector<Observed> runMachine(tep::jit::JitMode mode, size_t instance = 0) {
    PscpMachine m(image_);
    m.setJitMode(mode);
    std::vector<Observed> out;
    CycleStats stats;
    int64_t fired = 0;
    for (const Step& s : kScript) {
      m.setInputPort("Index", s.index);
      m.setInputPort("Value", valueFor(s, instance));
      m.configurationCycleIds({m.eventId(s.poke ? "POKE" : "PEEK")}, &stats);
      fired += static_cast<int64_t>(stats.fired.size());
      out.push_back({fired, m.outputPort("OutI"), m.outputPort("OutE"),
                     obs::journal::crDigest(m.crBits())});
    }
    return out;
  }

  /// The script on `instances` fleet members (member k offsets the poked
  /// values by k), one epoch per step.
  std::vector<std::vector<Observed>> runFleet(int workers, size_t instances,
                                              std::vector<std::vector<PortWrite>>* logs) {
    fleet::FleetConfig config;
    config.workerThreads = workers;
    config.jitMode = tep::jit::JitMode::kAlways;
    config.capturePortWrites = true;
    fleet::Fleet f(image_, config);
    const std::vector<fleet::InstanceId> ids = f.spawnMany(instances);
    std::vector<std::vector<Observed>> out(instances);
    for (const Step& s : kScript) {
      for (size_t k = 0; k < instances; ++k) {
        f.setInputPort(ids[k], "Index", s.index);
        f.setInputPort(ids[k], "Value", valueFor(s, k));
        EXPECT_TRUE(f.injectByName(ids[k], s.poke ? "POKE" : "PEEK"));
      }
      f.step(1);
      for (size_t k = 0; k < instances; ++k) {
        const PscpMachine& m = f.machine(ids[k]);
        Observed o;
        o.fired = f.snapshot(ids[k]).firedTransitions;
        o.outI = m.outputPort("OutI");
        o.outE = m.outputPort("OutE");
        o.digest = obs::journal::crDigest(m.crBits());
        out[k].push_back(o);
      }
    }
    for (size_t k = 0; k < instances; ++k) logs->push_back(f.portWrites(ids[k]));
    return out;
  }

  statechart::Chart chart_ = statechart::parseChart(kChart);
  actionlang::Program actions_ = actionlang::parseActionSource(kActions);
  std::shared_ptr<const ChartImage> image_;
};

TEST_F(InstanceSpill, OutOfLayoutBytesReadZeroAndWritesPersist) {
  ASSERT_LT(image_->app().internalBytesUsed, 1000);
  ASSERT_LT(image_->app().externalBytesUsed, 1000);
  PscpMachine m(image_);
  m.setJitMode(tep::jit::JitMode::kOff);
  const int32_t ext = image_->app().globalPlacement.at("ext").address;
  EXPECT_EQ(m.readByte(1000), 0);
  EXPECT_EQ(m.readByte(ext + 1000), 0);
  EXPECT_EQ(m.readByte(tep::kExternalBase + tep::kExternalSize - 1), 0);

  const std::vector<Observed> run = runMachine(tep::jit::JitMode::kOff);
  ASSERT_EQ(run.size(), kScript.size());
  EXPECT_EQ(run[0].outI, 0u);  // untouched, outside the layout
  EXPECT_EQ(run[0].outE, 0u);
  EXPECT_EQ(run[3].outI, 9u);  // written a cycle earlier, outside the layout
  EXPECT_EQ(run[3].outE, 10u);
  EXPECT_EQ(run[4].outI, 5u);  // in-layout byte survives the spill
  EXPECT_EQ(run[4].outE, 6u);
  EXPECT_EQ(run[6].outI, 3u);
  EXPECT_EQ(run[6].outE, 4u);
  EXPECT_EQ(run[7].outI, 0u);  // spilled bank, untouched byte
  EXPECT_EQ(run[7].outE, 0u);
  EXPECT_EQ(run[8].outI, 0u);
  EXPECT_EQ(run[8].outE, 0u);
  EXPECT_EQ(run[10].outI, 200u);  // near the top of both windows
  EXPECT_EQ(run[10].outE, 201u);
  EXPECT_EQ(run[11].outI, 9u);  // still there many cycles later
  EXPECT_EQ(run[11].outE, 10u);
  EXPECT_NE(run[2].digest, run[5].digest);  // BIG set, then cleared
}

TEST_F(InstanceSpill, AddressesPastTheExternalWindowFaultAsBefore) {
  const int32_t ext = image_->app().globalPlacement.at("ext").address;
  const auto past = static_cast<uint32_t>(tep::kExternalBase + tep::kExternalSize - ext);
  for (tep::jit::JitMode mode : {tep::jit::JitMode::kOff, tep::jit::JitMode::kAlways}) {
    for (const char* event : {"POKE", "PEEK"}) {
      PscpMachine m(image_);
      m.setJitMode(mode);
      m.setInputPort("Index", past);
      m.setInputPort("Value", 1);
      std::string message;
      try {
        m.configurationCycleIds({m.eventId(event)});
      } catch (const Error& e) {
        message = e.what();
      }
      EXPECT_EQ(message, std::string(event) == "POKE"
                             ? "PSCP: data write to unmapped address 0x8000"
                             : "PSCP: data read from unmapped address 0x8000")
          << event << " at jit mode " << static_cast<int>(mode);
    }
  }
  PscpMachine m(image_);
  EXPECT_THROW((void)m.readByte(0x8000), Error);
  EXPECT_THROW(m.writeByte(-1, 0), Error);
}

TEST_F(InstanceSpill, TiersAndFleetWorkersAgreeBitForBit) {
  const std::vector<Observed> reference = runMachine(tep::jit::JitMode::kOff);
  EXPECT_EQ(runMachine(tep::jit::JitMode::kAlways), reference);

  constexpr size_t kInstances = 6;
  std::vector<std::vector<Observed>> expected;
  std::vector<std::vector<PortWrite>> expectedLogs;
  for (size_t k = 0; k < kInstances; ++k)
    expected.push_back(runMachine(tep::jit::JitMode::kOff, k));
  for (size_t k = 0; k < kInstances; ++k) {
    PscpMachine m(image_);
    m.setJitMode(tep::jit::JitMode::kOff);
    for (const Step& s : kScript) {
      m.setInputPort("Index", s.index);
      m.setInputPort("Value", valueFor(s, k));
      m.configurationCycleIds({m.eventId(s.poke ? "POKE" : "PEEK")});
    }
    expectedLogs.push_back(m.portWrites());
  }
  for (int workers : {1, 2}) {
    std::vector<std::vector<PortWrite>> logs;
    EXPECT_EQ(runFleet(workers, kInstances, &logs), expected) << workers << " workers";
    EXPECT_EQ(logs, expectedLogs) << workers << " workers";
  }
}

// --------------------------------------------------- shared microcode table

TEST(SharedMicrocode, TableMatchesPerInstructionMicroprograms) {
  const auto image = workloads::makeSmdFleetImage();
  const tep::AsmProgram& program = image->app().program;
  const tep::MicrocodeTable& table = image->microcode();
  ASSERT_EQ(table.programSize(), program.code.size());
  for (size_t pc = 0; pc < program.code.size(); ++pc) {
    const std::vector<tep::MicroInstr> expected =
        tep::microcodeFor(program.code[pc], image->arch());
    size_t length = 0;
    const tep::MicroInstr* micro = table.at(static_cast<int>(pc), &length);
    ASSERT_EQ(length, expected.size()) << "pc " << pc;
    for (size_t i = 0; i < length; ++i)
      EXPECT_EQ(micro[i].op, expected[i].op) << "pc " << pc << " state " << i;
  }
}

TEST(SharedMicrocode, StandaloneTepBuildsItsOwnTable) {
  // Same routine on a TEP handed the image's table and on one that builds
  // its own: identical cycle counts and results.
  const auto image = workloads::makeSmdFleetImage();
  const tep::AsmProgram& program = image->app().program;
  int64_t cycles[2] = {0, 0};
  uint32_t acc[2] = {0, 0};
  for (int own = 0; own < 2; ++own) {
    tep::SimpleHost host;
    image->app().loadImage(host);
    tep::Tep core(image->arch(), host);
    core.setProgram(&program, own != 0 ? nullptr : &image->microcode());
    for (const auto& [transition, routine] : image->app().transitionRoutine) {
      const tep::RunResult r = core.run(routine);
      EXPECT_TRUE(r.completed) << routine;
      cycles[own] += r.cycles;
    }
    acc[own] = core.acc();
  }
  EXPECT_GT(cycles[0], 0);
  EXPECT_EQ(cycles[0], cycles[1]);
  EXPECT_EQ(acc[0], acc[1]);
}

TEST(SharedMicrocode, ConcurrentWorkersMatchOneWorker) {
  // Every worker's TEPs fetch from the one table on the image at once;
  // 2-TEP pulse pairs run on the interpreter whatever the JIT mode.
  const auto image = workloads::makeSmdFleetImage();
  std::vector<uint64_t> digests[2];
  for (int w = 0; w < 2; ++w) {
    fleet::FleetConfig config;
    config.workerThreads = w + 1;
    fleet::Fleet f(image, config);
    const workloads::SmdPulseIds ids = workloads::resolveSmdPulseIds(f);
    ASSERT_TRUE(workloads::warmUpSmdFleet(f, 16, ids));
    for (int e = 0; e < 8; ++e) {
      f.step(2);
      workloads::injectSmdPulses(f, ids);
    }
    f.step(2);
    for (fleet::InstanceId id = 0; id < 16; ++id)
      digests[w].push_back(obs::journal::crDigest(f.machine(id).crBits()) ^
                           static_cast<uint64_t>(f.snapshot(id).machineCycles));
  }
  EXPECT_EQ(digests[0], digests[1]);
}

}  // namespace
}  // namespace pscp::machine
