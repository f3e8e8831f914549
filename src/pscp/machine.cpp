#include "pscp/machine.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <new>

#include "analysis/effects.hpp"
#include "pscp/sched_cost.hpp"
#include "support/bits.hpp"

namespace pscp::machine {

using statechart::StateId;
using statechart::TransitionId;

namespace {

/// Insert/remove `s` from a configuration held as a state bitset, the
/// per-field current codes and the packed CR (shared by the image, which
/// builds the initial configuration, and every machine).
void applyActiveTo(const statechart::Chart& chart, const sla::CrLayout& layout,
                   StateId s, bool active, BitVec& activeBits, int* fieldCode,
                   BitVec& cr) {
  if (activeBits.test(static_cast<int>(s)) == active) return;
  activeBits.set(static_cast<int>(s), active);
  if (s == chart.root()) return;  // the root has no CR code
  const auto [fieldIndex, code] = layout.stateCode(s);
  int& current = fieldCode[static_cast<size_t>(fieldIndex)];
  if (active)
    current = code;
  else if (current == code)
    current = 0;
  else
    return;  // another member owns the field; its bits are already correct
  const sla::StateField& field = layout.stateFields()[static_cast<size_t>(fieldIndex)];
  const int base = layout.stateBase() + field.baseBit;
  for (int i = 0; i < field.width; ++i) cr.set(base + i, ((current >> i) & 1) != 0);
}

/// Typed view of the blob part at `offset` (byte storage; the part's
/// elements are implicitly created there, so no other type aliases them).
template <typename T>
T* blobPart(std::byte* base, size_t offset) {
  return std::launder(reinterpret_cast<T*>(base + offset));
}

/// Reserve `count` elements of `elemSize` bytes at the end of a blob.
size_t place(size_t& bytes, size_t count, size_t elemSize) {
  const size_t at = bytes;
  bytes += count * elemSize;
  return at;
}

bool isRegisterOp(tep::Opcode op) {
  return op == tep::Opcode::LdaReg || op == tep::Opcode::StaReg ||
         op == tep::Opcode::LdoReg;
}

bool isPortOp(tep::Opcode op) {
  return op == tep::Opcode::Inp || op == tep::Opcode::Outp;
}

/// Guard of one configuration cycle, in lockstep machine cycles.
constexpr int64_t kMaxMachineCycles = 4'000'000;

/// Whether two resources of an effect summary can name the same storage:
/// "g[i]" is one element of global g, a bare "g" (a global, or a port)
/// stands for all of it.
bool resourcesOverlap(const std::string& a, const std::string& b) {
  if (a == b) return true;
  const size_t ia = a.find('[');
  const size_t ib = b.find('[');
  if (ia != std::string::npos && ib != std::string::npos) return false;
  return a.compare(0, ia, b, 0, ib) == 0;
}

bool anyOverlap(const std::set<std::string>& writes, const std::set<std::string>& touched) {
  for (const std::string& w : writes)
    for (const std::string& t : touched)
      if (resourcesOverlap(w, t)) return true;
  return false;
}

}  // namespace

// -------------------------------------------------------------- ChartImage

ChartImage::ChartImage(const statechart::Chart& chart,
                       const actionlang::Program& actions,
                       const hwlib::ArchConfig& arch,
                       compiler::CompileOptions options)
    : chart_(chart),
      actions_(actions),
      arch_(arch),
      layout_(chart),
      sla_(chart, layout_),
      binding_(sla::makeBinding(chart, layout_)),
      app_(compiler::Compiler(actions, binding_, arch_, options).compile(chart)),
      microcode_(app_.program, arch_) {
  arch_.validate();

  // Precompute the structural data resolveConflicts and the configuration
  // update need per transition, as packed bitsets over StateIds. The
  // structure-only interpreter is construction scaffolding; instances
  // never consult it.
  statechart::Interpreter structure(chart);
  const int stateCount = static_cast<int>(chart.stateCount());
  const size_t transitionCount = chart.transitions().size();
  exitSets_.reserve(transitionCount);
  enterSets_.reserve(transitionCount);
  scopeDepth_.reserve(transitionCount);
  exclusionGroup_.reserve(transitionCount);
  routineEntry_.reserve(transitionCount);
  std::map<std::string, int> groupIds;
  for (const statechart::Transition& t : chart.transitions()) {
    BitVec exits(stateCount);
    for (StateId s : structure.exitSet(t.id)) exits.set(static_cast<int>(s));
    exitSets_.push_back(std::move(exits));
    BitVec enters(stateCount);
    for (StateId s : structure.enterSet(t.id)) enters.set(static_cast<int>(s));
    enterSets_.push_back(std::move(enters));
    scopeDepth_.push_back(chart.depth(structure.scopeOf(t.id)));
    if (t.exclusionGroup.empty()) {
      exclusionGroup_.push_back(-1);
    } else {
      const auto [it, inserted] =
          groupIds.emplace(t.exclusionGroup, static_cast<int>(groupIds.size()));
      (void)inserted;
      exclusionGroup_.push_back(it->second);
    }
    routineEntry_.push_back(
        app_.program.entryOf(app_.transitionRoutine.at(t.id)));
  }
  exclusionGroupCount_ = static_cast<int>(groupIds.size());
  buildIndependence();
  tier_ = std::make_unique<tep::jit::TierCache>(
      &app_.program, &arch_, static_cast<int>(transitionCount));
  buildInstanceTemplate();
}

void ChartImage::buildIndependence() {
  // What a routine shares with routines on other TEPs: external-RAM
  // globals and ports. Internal RAM, registers and condition caches are
  // per TEP; condition write-back and raised events are ordered by the
  // scheduler. A routine whose summary is incomplete (an unresolved
  // callee) may touch any global, so it is independent of nothing.
  struct Shared {
    bool known = true;
    std::set<std::string> globalWrites, globals, portWrites, ports;
  };
  const auto external = [&](const std::string& resource) {
    const auto it = app_.globalPlacement.find(resource.substr(0, resource.find('[')));
    return it == app_.globalPlacement.end() ||
           it->second.storageClass == compiler::kStorageExternal;
  };
  const size_t count = chart_.transitions().size();
  std::vector<Shared> shared(count);
  for (const statechart::Transition& t : chart_.transitions()) {
    const analysis::EffectSet e = analysis::transitionEffects(t, actions_);
    Shared& s = shared[static_cast<size_t>(t.id)];
    s.known = e.astComplete;
    for (const std::string& g : e.globalWrites)
      if (external(g)) s.globalWrites.insert(g);
    s.globals = s.globalWrites;
    for (const std::string& g : e.globalReads)
      if (external(g)) s.globals.insert(g);
    for (const auto& [port, value] : e.portWrites) s.portWrites.insert(port);
    s.ports = s.portWrites;
    s.ports.insert(e.portReads.begin(), e.portReads.end());
  }
  // Whether `x` writes something `y` touches.
  const auto clash = [](const Shared& x, const Shared& y) {
    return anyOverlap(x.globalWrites, y.globals) || anyOverlap(x.portWrites, y.ports);
  };
  independentWords_ = (count + 63) / 64;
  independent_.assign(count * independentWords_, 0);
  for (size_t a = 0; a < count; ++a) {
    for (size_t b = 0; b < count; ++b) {
      const Shared& sa = shared[a];
      const Shared& sb = shared[b];
      if (sa.known && sb.known && !clash(sa, sb) && !clash(sb, sa))
        independent_[a * independentWords_ + b / 64] |= uint64_t{1} << (b % 64);
    }
  }
}

bool ChartImage::independent(const std::vector<TransitionId>& transitions) const {
  for (size_t i = 0; i < transitions.size(); ++i)
    for (size_t j = i + 1; j < transitions.size(); ++j)
      if (!independent(transitions[i], transitions[j])) return false;
  return true;
}

void ChartImage::buildInstanceTemplate() {
  // Size every part from what the compiled application can touch: the
  // storage layout's used RAM, every register and port the program or the
  // data image names, the CR condition part and state fields.
  const auto teps = static_cast<size_t>(arch_.numTeps);
  BlobLayout& b = blob_;
  b.conditionCount = layout_.conditionCount();
  b.dirtyWords = (b.conditionCount + 63) / 64;
  b.regCount = std::max(arch_.registerFileSize, app_.registersUsed);
  b.internalBytes = app_.internalBytesUsed;
  b.externalBytes = app_.externalBytesUsed;
  int portCount = 0;
  const auto addPort = [&](int address) {
    PSCP_ASSERT(address >= 0);
    if (address >= static_cast<int>(portSlot_.size()))
      portSlot_.resize(static_cast<size_t>(address) + 1, -1);
    int& slot = portSlot_[static_cast<size_t>(address)];
    if (slot < 0) slot = portCount++;
  };
  for (const auto& [name, port] : chart_.ports()) addPort(port.address);
  for (const tep::Instr& in : app_.program.code) {
    if (isRegisterOp(in.op)) b.regCount = std::max(b.regCount, in.operand + 1);
    if (isPortOp(in.op)) addPort(in.operand);
  }
  for (const auto& [reg, value] : app_.image.registers)
    b.regCount = std::max(b.regCount, reg + 1);

  size_t bytes = 0;
  b.dispatchStats = place(bytes, 3 * teps, sizeof(int64_t));
  b.condDirty = place(bytes, teps * static_cast<size_t>(b.dirtyWords), sizeof(uint64_t));
  b.fieldCode = place(bytes, layout_.stateFields().size(), sizeof(int));
  b.running = place(bytes, teps, sizeof(TransitionId));
  b.regs = place(bytes, teps * static_cast<size_t>(b.regCount), sizeof(uint32_t));
  b.ports = place(bytes, static_cast<size_t>(portCount), sizeof(uint32_t));
  b.conditions = place(bytes, static_cast<size_t>(b.conditionCount), 1);
  b.condCache = place(bytes, teps * static_cast<size_t>(b.conditionCount), 1);
  b.groupInFlight = place(bytes, static_cast<size_t>(exclusionGroupCount_), 1);
  b.internal = place(bytes, teps * static_cast<size_t>(b.internalBytes), 1);
  b.external = place(bytes, static_cast<size_t>(b.externalBytes), 1);
  b.bytes = bytes;

  // The template: the initial configuration, no transition in flight, and
  // the data image — memory bytes broadcast to every TEP's internal bank
  // (as the loader does), initial registers to every register file.
  blobTemplate_.assign(bytes, std::byte{0});
  std::byte* const base = blobTemplate_.data();
  initialActive_ = BitVec(static_cast<int>(chart_.stateCount()));
  initialCr_ = BitVec(layout_.totalBits());
  int* const fieldCode = blobPart<int>(base, b.fieldCode);
  for (StateId s : chart_.defaultCompletion(chart_.root()))
    applyActiveTo(chart_, layout_, s, true, initialActive_, fieldCode, initialCr_);
  TransitionId* const running = blobPart<TransitionId>(base, b.running);
  std::fill(running, running + teps, TransitionId{-1});
  uint8_t* const internal = blobPart<uint8_t>(base, b.internal);
  uint8_t* const external = blobPart<uint8_t>(base, b.external);
  for (const auto& [addr, byte] : app_.image.bytes) {
    if (addr >= 0 && addr < b.internalBytes) {
      for (size_t t = 0; t < teps; ++t)
        internal[t * static_cast<size_t>(b.internalBytes) + static_cast<size_t>(addr)] = byte;
    } else {
      PSCP_ASSERT(addr >= tep::kExternalBase &&
                  addr < tep::kExternalBase + b.externalBytes);
      external[static_cast<size_t>(addr - tep::kExternalBase)] = byte;
    }
  }
  uint32_t* const regs = blobPart<uint32_t>(base, b.regs);
  for (const auto& [reg, value] : app_.image.registers)
    for (size_t t = 0; t < teps; ++t)
      regs[t * static_cast<size_t>(b.regCount) + static_cast<size_t>(reg)] = value;
}

// ------------------------------------------------------------- PscpMachine

PscpMachine::PscpMachine(std::shared_ptr<const ChartImage> image)
    : image_(std::move(image)),
      chart_(image_->chart_),
      arch_(image_->arch_),
      layout_(image_->layout_),
      sla_(image_->sla_),
      activeBits_(image_->initialActive_),
      activeSnapshotBits_(image_->initialActive_),
      cr_(image_->initialCr_),
      pendingEventBits_(layout_.eventCount()),
      exitedScratch_(static_cast<int>(chart_.stateCount())) {
  // One allocation plus one memcpy of the image's initialised template.
  const ChartImage::BlobLayout& b = image_->blob_;
  blob_ = std::make_unique_for_overwrite<std::byte[]>(b.bytes);
  std::memcpy(blob_.get(), image_->blobTemplate_.data(), b.bytes);
  std::byte* const base = blob_.get();
  const auto teps = static_cast<size_t>(arch_.numTeps);
  dispatchCycles_ = blobPart<int64_t>(base, b.dispatchStats);
  dispatchInstrs_ = dispatchCycles_ + teps;
  dispatchStalls_ = dispatchInstrs_ + teps;
  condDirty_ = blobPart<uint64_t>(base, b.condDirty);
  fieldCode_ = blobPart<int>(base, b.fieldCode);
  running_ = blobPart<TransitionId>(base, b.running);
  regs_ = blobPart<uint32_t>(base, b.regs);
  ports_ = blobPart<uint32_t>(base, b.ports);
  crConditions_ = blobPart<uint8_t>(base, b.conditions);
  condCache_ = blobPart<uint8_t>(base, b.condCache);
  groupInFlight_ = blobPart<uint8_t>(base, b.groupInFlight);
  internal_ = blobPart<uint8_t>(base, b.internal);
  external_ = blobPart<uint8_t>(base, b.external);

  // Every event can be sampled in one cycle: sized here, the sampling
  // buffer never grows when an instance first sees simultaneous events.
  eventScratch_.reserve(static_cast<size_t>(layout_.eventCount()));
  teps_.reserve(teps);
  for (int i = 0; i < arch_.numTeps; ++i) {
    teps_.emplace_back(arch_, *this, i);
    teps_.back().setProgram(&image_->app_.program, &image_->microcode_);
  }
}

PscpMachine::PscpMachine(const statechart::Chart& chart,
                         const actionlang::Program& actions,
                         const hwlib::ArchConfig& arch,
                         compiler::CompileOptions options)
    : PscpMachine(std::make_shared<const ChartImage>(chart, actions, arch, options)) {}

obs::TraceMeta PscpMachine::traceMeta() const {
  obs::TraceMeta meta;
  meta.chartName = chart_.name();
  meta.tepCount = arch_.numTeps;
  meta.eventNames.resize(static_cast<size_t>(layout_.eventCount()));
  for (const auto& [name, bit] : layout_.eventBits())
    meta.eventNames[static_cast<size_t>(bit)] = name;
  meta.conditionNames.resize(static_cast<size_t>(layout_.conditionCount()));
  for (const auto& [name, bit] : layout_.conditionBits())
    meta.conditionNames[static_cast<size_t>(bit)] = name;
  meta.stateNames.resize(chart_.states().size());
  for (const statechart::State& s : chart_.states())
    meta.stateNames[static_cast<size_t>(s.id)] = s.name;
  meta.transitionNames.resize(chart_.transitions().size());
  for (const statechart::Transition& t : chart_.transitions())
    meta.transitionNames[static_cast<size_t>(t.id)] =
        strfmt("T%d %s -> %s", t.id, chart_.state(t.source).name.c_str(),
               chart_.state(t.target).name.c_str());
  for (const auto& [name, port] : chart_.ports())
    meta.portNames.emplace_back(port.address, name);
  activeBits_.forEachSetBit([&](int s) { meta.initialActive.push_back(s); });
  meta.stateParent.resize(chart_.states().size(), -1);
  for (const statechart::State& s : chart_.states())
    meta.stateParent[static_cast<size_t>(s.id)] = static_cast<int>(s.parent);
  meta.transitionSource.resize(chart_.transitions().size(), -1);
  for (const statechart::Transition& t : chart_.transitions())
    meta.transitionSource[static_cast<size_t>(t.id)] = static_cast<int>(t.source);
  meta.slaEvaluateCycles = kSlaEvaluateCycles;
  meta.dispatchCycles = kDispatchCyclesPerTransition;
  meta.condCopyCycles = conditionCopyCycles(arch_, layout_.conditionCount());
  return meta;
}

void PscpMachine::setObsOptions(const obs::ObsOptions& options) {
  obs_ = options;
  for (tep::Tep& tep : teps_) tep.attachObserver(obs_.sink, &machineTimeNow_);
  if (obs_.sink != nullptr) {
    obs_.sink->onAttach(traceMeta());
    machineTimeNow_ = totalCycles_;
  }
}

PscpMachine::~PscpMachine() = default;

// --------------------------------------------------- incremental CR upkeep

void PscpMachine::applyActive(StateId s, bool active) {
  idleCr_ = false;
  applyActiveTo(chart_, layout_, s, active, activeBits_, fieldCode_, cr_);
}

void PscpMachine::setCrCondition(int index, bool value) {
  PSCP_ASSERT(index >= 0 && index < layout_.conditionCount());
  idleCr_ = false;
  crConditions_[static_cast<size_t>(index)] = value ? 1 : 0;
  cr_.set(layout_.conditionBase() + index, value);
}

void PscpMachine::writeBackConditions(size_t tep) {
  const ChartImage::BlobLayout& b = image_->blob_;
  uint64_t* const dirty = condDirty_ + tep * static_cast<size_t>(b.dirtyWords);
  const uint8_t* const cache = condCache_ + tep * static_cast<size_t>(b.conditionCount);
  for (int w = 0; w < b.dirtyWords; ++w) {
    for (uint64_t bits = dirty[w]; bits != 0; bits &= bits - 1) {
      const int c = w * 64 + std::countr_zero(bits);
      setCrCondition(c, cache[c] != 0);
    }
    dirty[w] = 0;
  }
}

// ----------------------------------------------------------------- TepHost

uint8_t PscpMachine::readByte(int32_t addr) {
  const ChartImage::BlobLayout& b = image_->blob_;
  if (addr >= 0 && addr < tep::kExternalBase) {
    // TEP-local bank; outside any TEP (loader/observers), bank 0.
    const size_t bank = currentTep_ >= 0 ? static_cast<size_t>(currentTep_) : 0;
    if (!internalSpill_.empty() && internalSpill_[bank] != nullptr)
      return internalSpill_[bank][static_cast<size_t>(addr)];
    if (addr < b.internalBytes)
      return internal_[bank * static_cast<size_t>(b.internalBytes) +
                       static_cast<size_t>(addr)];
    return 0;  // outside the compiled layout and never written
  }
  if (tep::isExternalAddress(addr) && addr < tep::kExternalBase + tep::kExternalSize) {
    const auto offset = static_cast<size_t>(addr - tep::kExternalBase);
    if (externalSpill_ != nullptr) return externalSpill_[offset];
    return addr - tep::kExternalBase < b.externalBytes ? external_[offset] : 0;
  }
  fail("PSCP: data read from unmapped address 0x%X", addr);
}

void PscpMachine::writeByte(int32_t addr, uint8_t value) {
  const ChartImage::BlobLayout& b = image_->blob_;
  if (addr >= 0 && addr < tep::kExternalBase) {
    // Loader writes (outside any TEP) broadcast to every bank.
    const size_t first = currentTep_ >= 0 ? static_cast<size_t>(currentTep_) : 0;
    const size_t last = currentTep_ >= 0 ? first + 1 : teps_.size();
    for (size_t bank = first; bank < last; ++bank) {
      if (!internalSpill_.empty() && internalSpill_[bank] != nullptr) {
        internalSpill_[bank][static_cast<size_t>(addr)] = value;
      } else if (addr < b.internalBytes) {
        internal_[bank * static_cast<size_t>(b.internalBytes) +
                  static_cast<size_t>(addr)] = value;
      } else {
        spillInternal(bank)[static_cast<size_t>(addr)] = value;
      }
    }
    return;
  }
  if (tep::isExternalAddress(addr) && addr < tep::kExternalBase + tep::kExternalSize) {
    const auto offset = static_cast<size_t>(addr - tep::kExternalBase);
    if (externalSpill_ != nullptr)
      externalSpill_[offset] = value;
    else if (addr - tep::kExternalBase < b.externalBytes)
      external_[offset] = value;
    else
      spillExternal()[offset] = value;
    return;
  }
  fail("PSCP: data write to unmapped address 0x%X", addr);
}

uint8_t* PscpMachine::spillInternal(size_t tep) {
  const auto size = static_cast<size_t>(image_->blob_.internalBytes);
  if (internalSpill_.empty()) internalSpill_.resize(teps_.size());
  internalSpill_[tep] = std::make_unique<uint8_t[]>(tep::kExternalBase);
  std::memcpy(internalSpill_[tep].get(), internal_ + tep * size, size);
  return internalSpill_[tep].get();
}

uint8_t* PscpMachine::spillExternal() {
  externalSpill_ = std::make_unique<uint8_t[]>(tep::kExternalSize);
  std::memcpy(externalSpill_.get(), external_,
              static_cast<size_t>(image_->blob_.externalBytes));
  return externalSpill_.get();
}

uint32_t PscpMachine::readReg(int index) {
  PSCP_ASSERT(index >= 0 && index < image_->blob_.regCount);
  const size_t bank = currentTep_ >= 0 ? static_cast<size_t>(currentTep_) : 0;
  return regs_[bank * static_cast<size_t>(image_->blob_.regCount) +
               static_cast<size_t>(index)];
}

void PscpMachine::writeReg(int index, uint32_t value) {
  const int regCount = image_->blob_.regCount;
  PSCP_ASSERT(index >= 0 && index < regCount);
  if (currentTep_ >= 0) {
    regs_[static_cast<size_t>(currentTep_ * regCount + index)] = value;
    return;
  }
  for (size_t bank = 0; bank < teps_.size(); ++bank)  // loader
    regs_[bank * static_cast<size_t>(regCount) + static_cast<size_t>(index)] = value;
}

const uint32_t* PscpMachine::findPort(int address) const {
  PSCP_ASSERT(address >= 0);
  const auto at = static_cast<size_t>(address);
  const std::vector<int>& slots = image_->portSlot_;
  if (at < slots.size() && slots[at] >= 0) return ports_ + slots[at];
  return at < portSpill_.size() ? &portSpill_[at] : nullptr;
}

uint32_t& PscpMachine::portRef(int address) {
  if (const uint32_t* cell = findPort(address)) return *const_cast<uint32_t*>(cell);
  portSpill_.resize(static_cast<size_t>(address) + 1, 0);
  return portSpill_[static_cast<size_t>(address)];
}

uint32_t PscpMachine::readPort(int address) {
  const uint32_t* cell = findPort(address);
  return cell != nullptr ? *cell : 0;
}

void PscpMachine::writePort(int address, uint32_t value) {
  portRef(address) = value;
  logPortWrite(address, value);
}

void PscpMachine::storePort(int address, uint32_t value) { portRef(address) = value; }

void PscpMachine::logPortWrite(int address, uint32_t value) {
  const int64_t cycleIndex = configCycles_ > 0 ? configCycles_ - 1 : 0;
  const statechart::TransitionId running =
      currentTep_ >= 0 ? running_[static_cast<size_t>(currentTep_)] : -1;
  portWrites_.push_back(
      PortWrite{address, value, cycleIndex, machineTimeNow_, currentTep_, running});
  if (obs_.sink != nullptr)
    obs_.sink->onPortWrite(address, value, cycleIndex, machineTimeNow_);
}

void PscpMachine::raiseEvent(int index) {
  PSCP_ASSERT(index >= 0 && index < pendingEventBits_.size());
  if (pendingEventBits_.test(index)) return;
  pendingEventBits_.set(index);
  pendingEvents_.push_back(index);
}

void PscpMachine::setCondition(int index, bool value) {
  // TEPs write their local condition cache; the write-back at routine end
  // moves it to the CR. Writes from outside any TEP hit the CR directly.
  if (currentTep_ >= 0) {
    const ChartImage::BlobLayout& b = image_->blob_;
    PSCP_ASSERT(index >= 0 && index < b.conditionCount);
    const auto tep = static_cast<size_t>(currentTep_);
    condCache_[tep * static_cast<size_t>(b.conditionCount) + static_cast<size_t>(index)] =
        value ? 1 : 0;
    condDirty_[tep * static_cast<size_t>(b.dirtyWords) + static_cast<size_t>(index / 64)] |=
        uint64_t{1} << (index % 64);
    return;
  }
  setCrCondition(index, value);
}

bool PscpMachine::testCondition(int index) {
  const int count = image_->blob_.conditionCount;
  PSCP_ASSERT(index >= 0 && index < count);
  if (currentTep_ >= 0)
    return condCache_[static_cast<size_t>(currentTep_ * count + index)] != 0;
  return crConditions_[static_cast<size_t>(index)] != 0;
}

bool PscpMachine::testState(int index) {
  // STST reads the state part of the CR, which holds the configuration the
  // cycle started with (updates are applied at cycle end).
  return activeSnapshotBits_.test(index);
}

bool PscpMachine::acquireExternalBus(int tepId) {
  if (busOwner_ == -1 || busOwner_ == tepId) {
    busOwner_ = tepId;
    return true;
  }
  ++busStallsThisCycle_;
  return false;
}

// ------------------------------------------------------------- observation

bool PscpMachine::isActive(const std::string& stateName) const {
  const StateId id = chart_.findState(stateName);
  return id != statechart::kNoState && activeBits_.test(static_cast<int>(id));
}

std::vector<std::string> PscpMachine::activeNames() const {
  std::vector<std::string> names;
  activeBits_.forEachSetBit(
      [&](int s) { names.push_back(chart_.state(static_cast<StateId>(s)).name); });
  std::sort(names.begin(), names.end());
  return names;
}

bool PscpMachine::conditionValue(const std::string& name) const {
  return crConditions_[static_cast<size_t>(layout_.conditionBit(name))] != 0;
}

void PscpMachine::setCondition(const std::string& name, bool value) {
  setCrCondition(layout_.conditionBit(name), value);
}

int PscpMachine::eventId(const std::string& eventName) const {
  return layout_.eventBit(eventName);
}

int PscpMachine::portId(const std::string& portName) const {
  const auto& ports = chart_.ports();
  auto it = ports.find(portName);
  if (it == ports.end()) fail("no port named '%s'", portName.c_str());
  return it->second.address;
}

void PscpMachine::setInputPort(const std::string& portName, uint32_t value) {
  setInputPort(portId(portName), value);
}

void PscpMachine::setInputPort(int portAddress, uint32_t value) {
  portRef(portAddress) = value;
}

uint32_t PscpMachine::outputPort(const std::string& portName) const {
  return outputPort(portId(portName));
}

uint32_t PscpMachine::outputPort(int portAddress) const {
  const uint32_t* cell = portAddress >= 0 ? findPort(portAddress) : nullptr;
  return cell != nullptr ? *cell : 0;
}

int64_t PscpMachine::globalValue(const std::string& name) const {
  const compiler::VarPlacement& p = image_->app_.globalPlacement.at(name);
  const actionlang::GlobalVar* g = image_->actions_.findGlobal(name);
  PSCP_ASSERT(g != nullptr);
  uint32_t raw = 0;
  if (p.storageClass == compiler::kStorageRegister) {
    raw = regs_[static_cast<size_t>(p.address)];  // bank 0
  } else {
    const int bytes = g->type->byteSize();
    for (int i = 0; i < bytes; ++i)
      raw |= static_cast<uint32_t>(
                 const_cast<PscpMachine*>(this)->readByte(p.address + i))
             << (8 * i);
  }
  const int w = g->type->width();
  return g->type->isSigned() ? signExtend(truncBits(raw, w), w)
                             : static_cast<int64_t>(truncBits(raw, w));
}

void PscpMachine::setGlobalValue(const std::string& name, int64_t value) {
  const compiler::VarPlacement& p = image_->app_.globalPlacement.at(name);
  const actionlang::GlobalVar* g = image_->actions_.findGlobal(name);
  PSCP_ASSERT(g != nullptr);
  if (p.storageClass == compiler::kStorageRegister) {
    writeReg(p.address, truncBits(static_cast<uint32_t>(value), g->type->width()));
    return;
  }
  const int bytes = g->type->byteSize();
  for (int i = 0; i < bytes; ++i)
    writeByte(p.address + i,
              static_cast<uint8_t>((static_cast<uint64_t>(value) >> (8 * i)) & 0xFF));
}

// ------------------------------------------------------------- cycle logic

void PscpMachine::addTimer(const std::string& event, int64_t period) {
  if (period <= 0) fail("timer period must be positive (got %lld)",
                        static_cast<long long>(period));
  Timer t;
  t.eventBit = layout_.eventBit(event);
  t.period = period;
  t.nextFire = totalCycles_ + period;
  timers_.push_back(t);
}

void PscpMachine::resolveConflicts() {
  // Identical policy to statechart::Interpreter::step — outer scope first,
  // then declaration order; drop transitions whose exit sets overlap. The
  // exit sets are the bitsets precomputed in the image, so this runs
  // without allocating per transition. The order is by (scope depth, id);
  // selectScratch_ arrives sorted by id, so an in-place insertion sort by
  // depth keeps ties in id order without std::stable_sort's temp buffer.
  const std::vector<int>& depth = image_->scopeDepth_;
  std::vector<TransitionId>& order = selectScratch_;
  for (size_t i = 1; i < order.size(); ++i) {
    const TransitionId t = order[i];
    const int dt = depth[static_cast<size_t>(t)];
    size_t j = i;
    while (j > 0 && depth[static_cast<size_t>(order[j - 1])] > dt) {
      order[j] = order[j - 1];
      --j;
    }
    order[j] = t;
  }
  chosenScratch_.clear();
  exitedScratch_.clear();
  for (TransitionId t : order) {
    const statechart::Transition& tr = chart_.transition(t);
    if (exitedScratch_.test(static_cast<int>(tr.source))) continue;
    const BitVec& exits = image_->exitSets_[static_cast<size_t>(t)];
    if (exits.intersects(exitedScratch_)) continue;
    exitedScratch_.orWithAnd(exits, activeBits_);  // mark only actually-active exits
    chosenScratch_.push_back(t);
  }
}

CycleStats PscpMachine::configurationCycle(
    const std::set<std::string>& externalEvents) {
  std::vector<int> ids;
  ids.reserve(externalEvents.size());
  for (const std::string& name : externalEvents) ids.push_back(layout_.eventBit(name));
  return configurationCycleIds(ids);
}

bool PscpMachine::nextCycleIsPureDecode() const {
  if (obs_.sink != nullptr) return false;
  if (!pendingEvents_.empty()) return false;
  for (const Timer& t : timers_)
    if (totalCycles_ >= t.nextFire) return false;
  return true;
}

int64_t PscpMachine::skipIdleCycles(int64_t n, CycleStats* stats, bool* decoded) {
  if (decoded != nullptr) *decoded = false;
  if (!nextCycleIsPureDecode()) return 0;
  if (!idleCr_) {
    if (decoded != nullptr) *decoded = true;
    sla_.selectInto(cr_, selectScratch_);
    if (!selectScratch_.empty()) return 0;
    idleCr_ = true;
  }
  return skipQuiescentCycles(n, stats);
}

int64_t PscpMachine::skipQuiescentCycles(int64_t n, CycleStats* statsOut) {
  // k repetitions of the chosen.empty() arm of configurationCycleIds for a
  // no-event cycle: same counters, same timestamps, same scratch effects.
  // The first cycle at which a timer matures samples its event, so it is
  // never part of the run.
  int64_t k = n;
  for (const Timer& t : timers_) {
    const int64_t untilMature =
        (t.nextFire - totalCycles_ + kSlaEvaluateCycles - 1) / kSlaEvaluateCycles;
    k = std::min(k, std::max<int64_t>(untilMature, 0));
  }
  CycleStats& stats = *statsOut;
  stats.fired.clear();
  stats.cycles = kSlaEvaluateCycles;
  stats.busStallCycles = 0;
  stats.quiescent = true;
  if (k <= 0) return 0;
  configCycles_ += k;
  activeSnapshotBits_ = activeBits_;
  busStallsThisCycle_ = 0;
  totalCycles_ += k * kSlaEvaluateCycles;
  machineTimeNow_ = totalCycles_;
  return k;
}

CycleStats PscpMachine::configurationCycleIds(
    const std::vector<int>& externalEventIds) {
  CycleStats stats;
  configurationCycleIds(externalEventIds, &stats);
  return stats;
}

void PscpMachine::configurationCycleIds(const std::vector<int>& externalEventIds,
                                        CycleStats* statsOut) {
  idleCr_ = false;
  ++configCycles_;
  CycleStats& stats = *statsOut;
  stats.fired.clear();
  stats.cycles = 0;
  stats.busStallCycles = 0;
  stats.quiescent = false;
  activeSnapshotBits_ = activeBits_;
  busStallsThisCycle_ = 0;

  const int64_t cycleIndex = configCycles_ - 1;  // 0-based, for observers
  const int64_t base = totalCycles_;             // machine time at cycle start
  machineTimeNow_ = base;
  obs::ObsSink* const sink = obs_.sink;
  if (sink != nullptr) sink->onCycleBegin(cycleIndex, base);

  // 1. Sample events into the CR: external + those the TEPs raised last
  //    cycle + matured hardware timers. Events live for exactly this cycle
  //    (their CR bits are cleared again right after the SLA decode).
  eventScratch_.clear();
  eventScratch_.insert(eventScratch_.end(), pendingEvents_.begin(),
                       pendingEvents_.end());
  pendingEvents_.clear();
  pendingEventBits_.clear();
  eventScratch_.insert(eventScratch_.end(), externalEventIds.begin(),
                       externalEventIds.end());
  for (Timer& t : timers_) {
    if (totalCycles_ >= t.nextFire) {
      eventScratch_.push_back(t.eventBit);
      if (sink != nullptr) sink->onTimerFire(t.eventBit, base);
      // Catch up without bursting: one event per cycle boundary.
      while (t.nextFire <= totalCycles_) t.nextFire += t.period;
    }
  }
  for (int b : eventScratch_) cr_.set(b);

  // 2. SLA selects enabled transitions; scheduler resolves conflicts.
  if (sink != nullptr) sink->onCrSampled(cr_, base);
  sla::SelectStats selectStats;
  sla_.selectInto(cr_, selectScratch_, sink != nullptr ? &selectStats : nullptr);
  for (int b : eventScratch_) cr_.reset(b);  // events are consumed by the decode
  std::vector<int> selectedIds;  // copied before resolveConflicts reorders
  if (sink != nullptr) selectedIds.assign(selectScratch_.begin(), selectScratch_.end());
  resolveConflicts();
  const std::vector<TransitionId>& chosen = chosenScratch_;
  if (sink != nullptr) {
    std::vector<int> chosenIds(chosen.begin(), chosen.end());
    sink->onSlaSelect(selectedIds, chosenIds, selectStats.termsEvaluated, base);
  }
  if (chosen.empty()) {
    stats.quiescent = true;
    stats.cycles = kSlaEvaluateCycles;
    totalCycles_ += stats.cycles;
    machineTimeNow_ = totalCycles_;
    if (sink != nullptr)
      sink->onCycleEnd(cycleIndex, stats.cycles, 0, 0, true, totalCycles_);
    return;
  }

  // 3. Fill the TEP condition caches from the CR (flat byte copy).
  const ChartImage::BlobLayout& blob = image_->blob_;
  const auto conditionCount = static_cast<size_t>(blob.conditionCount);
  for (size_t i = 0; i < teps_.size(); ++i)
    std::memcpy(condCache_ + i * conditionCount, crConditions_, conditionCount);
  std::fill_n(condDirty_, teps_.size() * static_cast<size_t>(blob.dirtyWords), 0);

  // 4. Execute the Transition Address Table. With no observer attached,
  //    routines run natively when the tier cache has them compiled:
  //    serial-equivalent cycles (a single TEP, or a single selected
  //    transition) take the serial path; parallel cycles whose routines
  //    are provably independent run them as native lanes of the lockstep
  //    loop. Everything else runs the TEPs in lockstep on the microcode
  //    interpreter. All paths produce bit-identical CR/port/cycle
  //    behaviour.
  const bool tiered = sink == nullptr && jitMode_ != tep::jit::JitMode::kOff &&
                      tep::jit::jitBackendAvailable();
  int64_t cycles;
  if (tiered && (teps_.size() == 1 || chosen.size() == 1))
    cycles = runTatSerial(chosen, stats, base);
  else
    cycles = runTatLockstep(chosen, stats, base, tiered);

  // 5. Configuration update: apply exits/enters of all fired transitions.
  //    applyActive keeps the packed CR state fields in sync incrementally.
  for (TransitionId t : chosen)
    image_->exitSets_[static_cast<size_t>(t)].forEachSetBit(
        [&](int s) { applyActive(static_cast<StateId>(s), false); });
  for (TransitionId t : chosen)
    image_->enterSets_[static_cast<size_t>(t)].forEachSetBit(
        [&](int s) { applyActive(static_cast<StateId>(s), true); });

  stats.cycles = cycles;
  stats.busStallCycles = busStallsThisCycle_;
  totalCycles_ += cycles;
  totalBusStalls_ += busStallsThisCycle_;
  machineTimeNow_ = totalCycles_;
  if (sink != nullptr) {
    std::vector<int> activeIds;
    activeBits_.forEachSetBit([&](int s) { activeIds.push_back(s); });
    sink->onConfigUpdate(activeIds, totalCycles_);
    sink->onCycleEnd(cycleIndex, stats.cycles, stats.busStallCycles,
                     static_cast<int>(stats.fired.size()), false, totalCycles_);
  }
}

// -------------------------------------------------------- lockstep lanes

/// One TEP slot of the lockstep loop. An interpreted slot steps its Tep;
/// a native slot ran its routine at dispatch and replays the recorded
/// timeline: it needs the bus, writes ports, raises events, faults and
/// retires at exactly the loop iteration where the interpreter would.
struct PscpMachine::NativeLane {
  static constexpr int64_t kNever = std::numeric_limits<int64_t>::max();

  tep::jit::LaneTrace trace;
  tep::jit::JitEnv env;
  bool native = false;    ///< this slot's routine runs natively
  size_t next = 0;        ///< next trace entry to replay
  int64_t pos = 0;        ///< local cycles executed (stalls excluded)
  int64_t busUntil = 0;   ///< local cycles before this one need the bus
  int64_t length = 0;     ///< local cycles to retire (kNever: never)
  int64_t faultAt = -1;   ///< local cycle that throws env.error

  /// Cycles from `pos` on that need nothing of the machine: no bus, no
  /// trace entry, no fault, no retire.
  [[nodiscard]] int64_t quietCycles() const {
    if (pos < busUntil) return 0;
    int64_t until = length == kNever ? kNever : length - 1;
    if (next < trace.entries.size()) until = std::min(until, trace.entries[next].at);
    if (faultAt >= 0) until = std::min(until, faultAt);
    return until - pos;
  }
};

std::vector<PscpMachine::NativeLane>& PscpMachine::laneScratch(size_t teps) {
  // Per thread, never per instance: a worker steps one machine at a time,
  // and the traces keep their capacity from cycle to cycle.
  thread_local std::vector<NativeLane> lanes;
  if (lanes.size() < teps) {
    lanes.resize(teps);
    for (NativeLane& lane : lanes) lane.trace.entries.reserve(64);
  }
  return lanes;
}

bool PscpMachine::startNativeLane(NativeLane& lane, size_t tep, TransitionId t,
                                  int64_t reach) {
  namespace jit = tep::jit;
  jit::TierCache& tier = image_->tierCache();
  const jit::CompiledFn fn =
      tier.dispatch(t, image_->routineEntry_[static_cast<size_t>(t)], jitMode_,
                    jitThreshold_);
  if (fn == nullptr) return false;
  tep::Tep& core = teps_[tep];
  lane.trace.reset();
  lane.env.host = this;
  lane.env.config = &arch_;
  lane.env.tepId = core.id();
  lane.env.programSize = image_->app_.program.code.size();
  lane.env.budgetLimit = kMaxMachineCycles;
  lane.env.error.clear();
  jit::JitContext ctx;
  ctx.acc = core.acc();
  ctx.op = core.op();
  ctx.flagZ = core.flagZ() ? 1 : 0;
  ctx.flagN = core.flagN() ? 1 : 0;
  ctx.flagC = core.flagC() ? 1 : 0;
  // Past `reach` local cycles the loop's guard trips first, so the run
  // may stop there (as a budget error) without losing anything.
  ctx.cycleBudget = reach + 1;
  ctx.env = &lane.env;
  ctx.trace = &lane.trace;
  currentTep_ = static_cast<int>(tep);  // the TEP's own banks and cache
  const int32_t status = fn(&ctx);
  currentTep_ = -1;
  core.setArchState(ctx.acc, ctx.op, ctx.flagZ != 0, ctx.flagN != 0, ctx.flagC != 0);
  lane.next = 0;
  lane.pos = 0;
  lane.busUntil = 0;
  lane.length = ctx.cycles;
  lane.faultAt = -1;
  if (status != 0) {
    const int64_t at = lane.trace.faultCycle(ctx.cycles);
    lane.length = NativeLane::kNever;
    if (at <= reach) lane.faultAt = at;
  }
  tier.recordNativeRun(t);
  ++jitNativeRuns_;
  return true;
}

bool PscpMachine::stepNativeLane(NativeLane& lane, size_t tep) {
  using Kind = tep::jit::LaneTrace::Kind;
  const std::vector<tep::jit::LaneTrace::Entry>& entries = lane.trace.entries;
  for (; lane.next < entries.size() && entries[lane.next].at == lane.pos &&
         entries[lane.next].kind == Kind::kBus;
       ++lane.next)
    lane.busUntil = std::max(lane.busUntil, lane.pos + entries[lane.next].arg);
  if (lane.pos < lane.busUntil && !acquireExternalBus(static_cast<int>(tep)))
    return false;  // arbitration lost: retry next cycle
  for (; lane.next < entries.size() && entries[lane.next].at == lane.pos; ++lane.next) {
    const tep::jit::LaneTrace::Entry& e = entries[lane.next];
    if (e.kind == Kind::kPortWrite)
      logPortWrite(e.arg, e.value);
    else if (e.kind == Kind::kRaise)
      raiseEvent(e.arg);
  }
  if (lane.pos == lane.faultAt) throw Error(lane.env.error);
  return ++lane.pos == lane.length;
}

int64_t PscpMachine::runTatLockstep(const std::vector<TransitionId>& chosen,
                                    CycleStats& stats, int64_t base, bool tiered) {
  obs::ObsSink* const sink = obs_.sink;
  const bool nativeLanes = tiered && image_->independent(chosen);
  const ChartImage::BlobLayout& blob = image_->blob_;
  const auto conditionCount = static_cast<size_t>(blob.conditionCount);
  const size_t tepCount = teps_.size();
  const int64_t condCopy = conditionCopyCycles(arch_, layout_.conditionCount());
  std::vector<NativeLane>& lanes = laneScratch(tepCount);
  int64_t guard = 0;  // stepped machine cycles

  // Dispatch from the Transition Address Table round-robin; mutual-
  // exclusion groups are never in flight on two TEPs at once (the
  // "additional decode logic" of Sec. 4).
  std::vector<TransitionId>& table = tatScratch_;  // FIFO of pending transitions
  table.assign(chosen.begin(), chosen.end());
  TransitionId* const running = running_;  // -1 = TEP idle
  std::fill_n(running, tepCount, TransitionId{-1});
  int64_t cycles = kSlaEvaluateCycles + static_cast<int64_t>(tepCount) * condCopy;

  auto tryDispatch = [&](size_t tepIndex) {
    if (running[tepIndex] != -1 || table.empty()) return;
    // Find the first pending transition whose exclusion group is free.
    for (size_t j = 0; j < table.size(); ++j) {
      const int group = image_->exclusionGroup_[static_cast<size_t>(table[j])];
      if (group >= 0 && groupInFlight_[static_cast<size_t>(group)] != 0) continue;
      const TransitionId t = table[j];
      table.erase(table.begin() + static_cast<std::ptrdiff_t>(j));
      running[tepIndex] = t;
      if (group >= 0) groupInFlight_[static_cast<size_t>(group)] = 1;
      NativeLane& lane = lanes[tepIndex];
      lane.native = nativeLanes &&
                    startNativeLane(lane, tepIndex, t, kMaxMachineCycles - guard);
      if (!lane.native) {
        teps_[tepIndex].startRoutine(image_->routineEntry_[static_cast<size_t>(t)]);
        if (tiered) {
          image_->tierCache().recordInterpRun(t);
          ++jitInterpRuns_;
        }
      }
      cycles += kDispatchCyclesPerTransition;
      if (sink != nullptr) {
        dispatchCycles_[tepIndex] = teps_[tepIndex].cyclesExecuted();
        dispatchInstrs_[tepIndex] = teps_[tepIndex].instructionsExecuted();
        dispatchStalls_[tepIndex] = teps_[tepIndex].stallCycles();
        sink->onDispatch(static_cast<int>(tepIndex), t,
                         static_cast<int>(table.size()), base + cycles);
      }
      break;
    }
  };

  for (size_t i = 0; i < tepCount; ++i) tryDispatch(i);

  while (true) {
    bool anyBusy = false;
    bool allNative = true;
    for (size_t i = 0; i < tepCount; ++i) {
      if (running[i] == -1) continue;
      anyBusy = true;
      allNative = allNative && lanes[i].native;
    }
    if (!anyBusy && table.empty()) break;

    if (!anyBusy && !table.empty()) {
      // All TEPs idle but exclusion groups blocked dispatch earlier: clear
      // finished groups and retry.
      for (size_t i = 0; i < tepCount; ++i) tryDispatch(i);
      if (std::all_of(running, running + tepCount,
                      [](TransitionId t) { return t == -1; }))
        fail("PSCP scheduler deadlock (mutual-exclusion groups)");
      continue;
    }

    if (allNative) {
      // Fast-forward over cycles in which no lane needs the bus, touches
      // the machine or retires: each would only advance every lane by one.
      int64_t skip = kMaxMachineCycles - guard;
      for (size_t i = 0; i < tepCount; ++i)
        if (running[i] != -1) skip = std::min(skip, lanes[i].quietCycles());
      if (skip > 0) {
        for (size_t i = 0; i < tepCount; ++i)
          if (running[i] != -1) lanes[i].pos += skip;
        cycles += skip;
        guard += skip;
      }
    }

    // One machine cycle: every busy TEP advances one microinstruction;
    // the external bus has a single owner per cycle (rotating priority).
    // A retire charges the condition write-back inside this loop, which
    // shifts the rotation for the TEPs after it (see DESIGN.md).
    busOwner_ = -1;
    machineTimeNow_ = base + cycles;
    for (size_t k = 0; k < tepCount; ++k) {
      const size_t i = (static_cast<size_t>(cycles) + k) % tepCount;
      if (running[i] == -1) continue;
      currentTep_ = static_cast<int>(i);
      bool retired;
      if (lanes[i].native) {
        retired = stepNativeLane(lanes[i], i);
      } else {
        teps_[i].stepCycle();
        retired = !teps_[i].busy();
      }
      currentTep_ = -1;
      if (retired) {
        // Routine finished: write back this TEP's condition cache and free
        // its exclusion group, then hand it the next transition.
        const TransitionId done = running[i];
        running[i] = -1;
        if (sink != nullptr) {
          std::vector<std::pair<int, bool>> writes;
          const uint64_t* dirty = condDirty_ + i * static_cast<size_t>(blob.dirtyWords);
          const uint8_t* cache = condCache_ + i * conditionCount;
          for (int w = 0; w < blob.dirtyWords; ++w)
            for (uint64_t bits = dirty[w]; bits != 0; bits &= bits - 1) {
              const int c = w * 64 + std::countr_zero(bits);
              writes.emplace_back(c, cache[c] != 0);
            }
          if (!writes.empty())
            sink->onCondWriteBack(static_cast<int>(i), writes, base + cycles);
        }
        writeBackConditions(i);
        const int doneGroup = image_->exclusionGroup_[static_cast<size_t>(done)];
        if (doneGroup >= 0) groupInFlight_[static_cast<size_t>(doneGroup)] = 0;
        cycles += condCopy;
        stats.fired.push_back(done);
        if (sink != nullptr) {
          obs::RoutineStats rs;
          rs.cycles = teps_[i].cyclesExecuted() - dispatchCycles_[i];
          rs.instructions = teps_[i].instructionsExecuted() - dispatchInstrs_[i];
          rs.busStalls = teps_[i].stallCycles() - dispatchStalls_[i];
          sink->onRetire(static_cast<int>(i), done, rs, base + cycles);
        }
        tryDispatch(i);
      }
    }
    ++cycles;
    if (++guard > kMaxMachineCycles)
      fail("PSCP configuration cycle exceeded %lld machine cycles",
           static_cast<long long>(kMaxMachineCycles));
  }
  return cycles;
}

int64_t PscpMachine::runTatSerial(const std::vector<TransitionId>& chosen,
                                  CycleStats& stats, int64_t base) {
  // Serial twin of the lockstep loop for cycles where at most one routine
  // is ever in flight: the TAT drains FIFO on TEP 0 (exclusion groups
  // cannot block with nothing else running), and each routine runs either
  // as compiled native code or on the microcode interpreter. The cycle
  // accounting reproduces the lockstep loop's sums exactly: SLA + per-TEP
  // condition-cache fill up front, dispatch cost per routine, every
  // machine cycle of the routine body (external wait states included),
  // condition write-back after each retire.
  namespace jit = tep::jit;
  jit::TierCache& tier = image_->tierCache();
  tep::Tep& core = teps_[0];
  const int64_t condCopy = conditionCopyCycles(arch_, layout_.conditionCount());
  int64_t cycles = kSlaEvaluateCycles +
                   static_cast<int64_t>(teps_.size()) * condCopy;
  int64_t stepped = 0;  // the lockstep guard counts stepped cycles only
  std::fill_n(running_, teps_.size(), TransitionId{-1});

  for (TransitionId t : chosen) {
    cycles += kDispatchCyclesPerTransition;
    const int entry = image_->routineEntry_[static_cast<size_t>(t)];
    running_[0] = t;
    const jit::CompiledFn fn = tier.dispatch(t, entry, jitMode_, jitThreshold_);
    currentTep_ = 0;
    if (fn != nullptr) {
      jit::JitEnv env;
      env.host = this;
      env.config = &arch_;
      env.tepId = core.id();
      env.programSize = image_->app_.program.code.size();
      env.budgetLimit = kMaxMachineCycles;
      jit::JitContext ctx;
      ctx.acc = core.acc();
      ctx.op = core.op();
      ctx.flagZ = core.flagZ() ? 1 : 0;
      ctx.flagN = core.flagN() ? 1 : 0;
      ctx.flagC = core.flagC() ? 1 : 0;
      ctx.cycles = cycles;
      // The interpreter's guard spans the whole configuration cycle but
      // excludes scheduler overhead; express it as an absolute ceiling on
      // the running cycle counter.
      ctx.cycleBudget = (cycles - stepped) + kMaxMachineCycles;
      ctx.timeBase = base;
      ctx.machineTime = &machineTimeNow_;
      ctx.env = &env;
      const int32_t status = fn(&ctx);
      if (status != 0) {
        currentTep_ = -1;
        running_[0] = -1;
        throw Error(env.error.empty() ? std::string("PSCP: native tier fault")
                                      : env.error);
      }
      stepped += ctx.cycles - cycles;
      cycles = ctx.cycles;
      core.setArchState(ctx.acc, ctx.op, ctx.flagZ != 0, ctx.flagN != 0,
                        ctx.flagC != 0);
      tier.recordNativeRun(t);
      ++jitNativeRuns_;
    } else {
      core.startRoutine(entry);
      while (core.busy()) {
        busOwner_ = -1;
        machineTimeNow_ = base + cycles;
        core.stepCycle();
        ++cycles;
        if (++stepped > kMaxMachineCycles)
          fail("PSCP configuration cycle exceeded %lld machine cycles",
               static_cast<long long>(kMaxMachineCycles));
      }
      tier.recordInterpRun(t);
      ++jitInterpRuns_;
    }
    currentTep_ = -1;
    running_[0] = -1;
    writeBackConditions(0);
    cycles += condCopy;
    stats.fired.push_back(t);
  }
  return cycles;
}

std::vector<CycleStats> PscpMachine::runToQuiescence(
    const std::set<std::string>& initialEvents, int maxCycles) {
  std::vector<CycleStats> out;
  out.push_back(configurationCycle(initialEvents));
  while (!out.back().quiescent || !pendingEvents_.empty()) {
    if (static_cast<int>(out.size()) >= maxCycles) break;
    out.push_back(configurationCycle({}));
    if (out.back().quiescent && pendingEvents_.empty()) break;
  }
  return out;
}

}  // namespace pscp::machine
