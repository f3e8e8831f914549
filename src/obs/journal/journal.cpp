#include "obs/journal/journal.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "pscp/machine.hpp"
#include "support/diag.hpp"
#include "tep/isa.hpp"

namespace pscp::obs::journal {

namespace {

constexpr uint64_t kFnvPrime = 1099511628211ull;
constexpr char kBinaryMagic[8] = {'P', 'S', 'C', 'P', 'J', 'R', 'N', '1'};
constexpr uint32_t kBinaryVersion = 1;

std::string hexU64(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

bool parseHexU64(const JsonValue* v, uint64_t* out) {
  if (v == nullptr) return false;
  if (v->isString()) {
    char* end = nullptr;
    *out = std::strtoull(v->string.c_str(), &end, 0);
    return end != nullptr && *end == '\0' && !v->string.empty();
  }
  if (v->isNumber()) {
    *out = static_cast<uint64_t>(v->number);
    return true;
  }
  return false;
}

bool jsonInt(const JsonValue& obj, const char* key, int64_t* out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->isNumber()) return false;
  *out = static_cast<int64_t>(v->number);
  return true;
}

// ---- binary framing helpers (little-endian, bounds-checked reader) ----

void putU8(std::string* out, uint8_t v) { out->push_back(static_cast<char>(v)); }

void putU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void putU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void putI64(std::string* out, int64_t v) { putU64(out, static_cast<uint64_t>(v)); }

void putString(std::string* out, const std::string& s) {
  putU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

struct ByteReader {
  const std::string& bytes;
  size_t pos = 0;
  bool ok = true;

  bool need(size_t n) {
    if (!ok || bytes.size() - pos < n) {
      ok = false;
      return false;
    }
    return true;
  }
  uint8_t u8() {
    if (!need(1)) return 0;
    return static_cast<uint8_t>(bytes[pos++]);
  }
  uint32_t u32() {
    if (!need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[pos++])) << (8 * i);
    return v;
  }
  uint64_t u64() {
    if (!need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[pos++])) << (8 * i);
    return v;
  }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  std::string str() {
    const uint32_t n = u32();
    if (!need(n)) return {};
    std::string s = bytes.substr(pos, n);
    pos += n;
    return s;
  }
};

}  // namespace

// ------------------------------------------------------------- hashing

uint64_t fnv1a64(const void* data, size_t len, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

uint64_t crDigest(const BitVec& cr) {
  uint64_t h = fnv1a64(nullptr, 0);
  const uint64_t bits = static_cast<uint64_t>(cr.size());
  h = fnv1a64(&bits, sizeof(bits), h);
  for (size_t w = 0; w < cr.wordCount(); ++w) {
    const uint64_t word = cr.word(w);
    h = fnv1a64(&word, sizeof(word), h);
  }
  return h;
}

uint64_t foldInstanceDigest(uint64_t acc, uint64_t instanceId, uint64_t digest) {
  acc = fnv1a64(&instanceId, sizeof(instanceId), acc);
  return fnv1a64(&digest, sizeof(digest), acc);
}

uint64_t imageContentHash(const machine::ChartImage& image) {
  uint64_t h = fnv1a64(nullptr, 0);
  const auto foldString = [&h](const std::string& s) {
    const uint64_t n = s.size();
    h = fnv1a64(&n, sizeof(n), h);
    h = fnv1a64(s.data(), s.size(), h);
  };
  const auto foldU64 = [&h](uint64_t v) { h = fnv1a64(&v, sizeof(v), h); };

  foldString(image.chart().name());

  // CR layout: the bit-level contract between events/conditions/states and
  // the SLA's decode masks.
  const sla::CrLayout& layout = image.layout();
  foldU64(static_cast<uint64_t>(layout.totalBits()));
  for (const auto& [name, bit] : layout.eventBits()) {
    foldString(name);
    foldU64(static_cast<uint64_t>(bit));
  }
  for (const auto& [name, bit] : layout.conditionBits()) {
    foldString(name);
    foldU64(static_cast<uint64_t>(bit));
  }
  for (const sla::StateField& field : layout.stateFields()) {
    foldU64(static_cast<uint64_t>(field.baseBit));
    foldU64(static_cast<uint64_t>(field.width));
    for (const auto s : field.states) foldU64(static_cast<uint64_t>(s));
  }

  // SLA AND-plane: the compiled word masks are the exact decode semantics.
  for (const auto& terms : image.sla().transitionTerms()) {
    foldU64(terms.size());
    for (const sla::ProductTerm& term : terms) {
      foldU64(term.masks.size());
      for (const sla::ProductTerm::WordMask& m : term.masks) {
        foldU64(m.word);
        foldU64(m.care);
        foldU64(m.value);
      }
    }
  }

  // TEP program: the instruction stream the routines execute, folded
  // structurally (the simulator runs AsmProgram directly; the strict
  // binary encoder rejects wide inline operands the simulator accepts,
  // so the wire encoding is not total over valid programs).
  const tep::AsmProgram& program = image.app().program;
  foldU64(program.code.size());
  for (const tep::Instr& instr : program.code) {
    foldU64(static_cast<uint64_t>(instr.op));
    foldU64(static_cast<uint64_t>(instr.width));
    foldU64(static_cast<uint64_t>(static_cast<uint32_t>(instr.operand)));
  }
  return h;
}

// -------------------------------------------------------------- op kinds

const char* opKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kSpawn: return "spawn";
    case OpKind::kRetire: return "retire";
    case OpKind::kInject: return "inject";
    case OpKind::kStep: return "step";
    case OpKind::kCheckpoint: return "checkpoint";
    case OpKind::kSetPort: return "port";
    case OpKind::kSetCondition: return "cond";
    case OpKind::kAddTimer: return "timer";
    case OpKind::kWarmCycle: return "warm";
  }
  return nullptr;
}

bool opKindFromName(const std::string& name, OpKind* out) {
  for (uint8_t k = static_cast<uint8_t>(OpKind::kSpawn);
       k <= static_cast<uint8_t>(OpKind::kWarmCycle); ++k) {
    const char* candidate = opKindName(static_cast<OpKind>(k));
    if (candidate != nullptr && name == candidate) {
      *out = static_cast<OpKind>(k);
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------- OpLog

void OpLog::reserve(size_t n) {
  while (blocks_.size() * kBlockOps < n) blocks_.emplace_back().reserve(kBlockOps);
}

void OpLog::push_back(const Op& op) {
  const size_t block = size_ >> kBlockShift;
  if (block == blocks_.size()) blocks_.emplace_back().reserve(kBlockOps);
  blocks_[block].push_back(op);
  ++size_;
}

// -------------------------------------------------------------- Journal

Journal::Journal(JournalConfig config) : config_(config) {
  if (config_.checkpointInterval < 1) config_.checkpointInterval = 1;
  ops_.reserve(config_.reserveOps);
  checkpointInstances_.reserve(config_.reserveCheckpointInstances);
  crWords_.reserve(config_.reserveCrWords);
  warmEvents_.reserve(config_.reserveWarmEvents);
  // One table row per checkpoint; bounded by the op reserve anyway.
  checkpointEpochs_.reserve(256);
  checkpointDigests_.reserve(256);
  checkpointRanges_.reserve(256);
}

void Journal::recordSpawn(int64_t instance) {
  ops_.push_back({OpKind::kSpawn, instance, 0, 0, 0});
}

void Journal::recordRetire(int64_t instance) {
  ops_.push_back({OpKind::kRetire, instance, 0, 0, 0});
}

uint64_t Journal::recordInject(int64_t instance, int eventBit, int64_t epoch) {
  const uint64_t span = ++nextSpan_;
  ops_.push_back({OpKind::kInject, instance, eventBit, epoch,
                  static_cast<int64_t>(span)});
  return span;
}

void Journal::recordStep(int64_t epoch, int cycles) {
  ops_.push_back({OpKind::kStep, -1, epoch, cycles, 0});
}

void Journal::recordSetPort(int64_t instance, int portAddress, uint32_t value) {
  ops_.push_back({OpKind::kSetPort, instance, portAddress,
                  static_cast<int64_t>(value), 0});
}

void Journal::recordSetCondition(int64_t instance, int conditionBit, bool value) {
  ops_.push_back({OpKind::kSetCondition, instance, conditionBit, value ? 1 : 0, 0});
}

void Journal::recordAddTimer(int64_t instance, int eventBit, int64_t period) {
  ops_.push_back({OpKind::kAddTimer, instance, eventBit, period, 0});
}

void Journal::recordWarmCycle(int64_t instance, const std::vector<int>& eventBits) {
  const int64_t offset = static_cast<int64_t>(warmEvents_.size());
  for (const int e : eventBits) warmEvents_.push_back(static_cast<int32_t>(e));
  ops_.push_back({OpKind::kWarmCycle, instance, offset,
                  static_cast<int64_t>(eventBits.size()), 0});
}

void Journal::beginCheckpoint(int64_t epoch) {
  PSCP_ASSERT(openEpoch_ < 0 && "nested journal checkpoint");
  openEpoch_ = epoch;
  openDigest_ = kFleetDigestSeed;
  openBegin_ = static_cast<uint32_t>(checkpointInstances_.size());
}

void Journal::addCheckpointInstance(int64_t instance, const BitVec& cr) {
  PSCP_ASSERT(openEpoch_ >= 0);
  CheckpointInstance entry;
  entry.instance = instance;
  entry.digest = crDigest(cr);
  if (config_.checkpointCrWords) {
    entry.crOffset = static_cast<uint32_t>(crWords_.size());
    entry.crWords = static_cast<uint32_t>(cr.wordCount());
    for (size_t w = 0; w < cr.wordCount(); ++w) crWords_.push_back(cr.word(w));
  }
  checkpointInstances_.push_back(entry);
  openDigest_ = foldInstanceDigest(openDigest_, static_cast<uint64_t>(instance),
                                   entry.digest);
}

void Journal::endCheckpoint() {
  PSCP_ASSERT(openEpoch_ >= 0);
  const auto index = static_cast<int64_t>(checkpointEpochs_.size());
  checkpointEpochs_.push_back(openEpoch_);
  checkpointDigests_.push_back(openDigest_);
  checkpointRanges_.emplace_back(
      openBegin_, static_cast<uint32_t>(checkpointInstances_.size()) - openBegin_);
  ops_.push_back({OpKind::kCheckpoint, -1, openEpoch_,
                  static_cast<int64_t>(openDigest_), index});
  openEpoch_ = -1;
}

Journal::CheckpointView Journal::checkpoint(size_t index) const {
  PSCP_ASSERT(index < checkpointEpochs_.size());
  CheckpointView view;
  view.epoch = checkpointEpochs_[index];
  view.digest = checkpointDigests_[index];
  const auto& [begin, count] = checkpointRanges_[index];
  view.instances = checkpointInstances_.data() + begin;
  view.instanceCount = count;
  return view;
}

const uint64_t* Journal::checkpointCr(const CheckpointInstance& entry) const {
  return entry.crWords == 0 ? nullptr : crWords_.data() + entry.crOffset;
}

const int32_t* Journal::warmEvents(const Op& op) const {
  PSCP_ASSERT(op.kind == OpKind::kWarmCycle);
  return warmEvents_.data() + op.a;
}

// ---------------------------------------------------------- JSON format

JsonValue Journal::toJson() const {
  JsonValue doc = JsonValue::makeObject();
  doc.set("schema", JsonValue::makeString("pscp-journal-v1"));
  doc.set("chart", JsonValue::makeString(chartName_));
  doc.set("image_hash", JsonValue::makeString(hexU64(imageHash_)));
  doc.set("event_queue_capacity",
          JsonValue::makeNumber(static_cast<double>(eventQueueCapacity_)));
  doc.set("checkpoint_interval",
          JsonValue::makeNumber(static_cast<double>(config_.checkpointInterval)));
  doc.set("recorded_workers", JsonValue::makeNumber(recordedWorkers_));
  doc.set("recorded_soa", JsonValue::makeBool(recordedSoa_));
  doc.set("simd", JsonValue::makeString(simdLevel_));
  if (!note_.empty()) doc.set("note", JsonValue::makeString(note_));
  doc.set("span_count", JsonValue::makeNumber(static_cast<double>(nextSpan_)));

  JsonValue ops = JsonValue::makeArray();
  ops.array.reserve(ops_.size());
  for (const Op& op : ops_) {
    JsonValue o = JsonValue::makeObject();
    o.set("op", JsonValue::makeString(opKindName(op.kind)));
    switch (op.kind) {
      case OpKind::kSpawn:
      case OpKind::kRetire:
        o.set("id", JsonValue::makeNumber(static_cast<double>(op.instance)));
        break;
      case OpKind::kInject:
        o.set("id", JsonValue::makeNumber(static_cast<double>(op.instance)));
        o.set("event", JsonValue::makeNumber(static_cast<double>(op.a)));
        o.set("epoch", JsonValue::makeNumber(static_cast<double>(op.b)));
        o.set("span", JsonValue::makeNumber(static_cast<double>(op.c)));
        break;
      case OpKind::kStep:
        o.set("epoch", JsonValue::makeNumber(static_cast<double>(op.a)));
        o.set("cycles", JsonValue::makeNumber(static_cast<double>(op.b)));
        break;
      case OpKind::kCheckpoint: {
        o.set("epoch", JsonValue::makeNumber(static_cast<double>(op.a)));
        const CheckpointView view = checkpoint(static_cast<size_t>(op.c));
        o.set("digest", JsonValue::makeString(hexU64(view.digest)));
        JsonValue insts = JsonValue::makeArray();
        insts.array.reserve(view.instanceCount);
        for (size_t i = 0; i < view.instanceCount; ++i) {
          const CheckpointInstance& entry = view.instances[i];
          JsonValue e = JsonValue::makeObject();
          e.set("id", JsonValue::makeNumber(static_cast<double>(entry.instance)));
          e.set("digest", JsonValue::makeString(hexU64(entry.digest)));
          if (entry.crWords > 0) {
            JsonValue cr = JsonValue::makeArray();
            const uint64_t* words = checkpointCr(entry);
            for (uint32_t w = 0; w < entry.crWords; ++w)
              cr.array.push_back(JsonValue::makeString(hexU64(words[w])));
            e.set("cr", std::move(cr));
          }
          insts.array.push_back(std::move(e));
        }
        o.set("instances", std::move(insts));
        break;
      }
      case OpKind::kSetPort:
        o.set("id", JsonValue::makeNumber(static_cast<double>(op.instance)));
        o.set("addr", JsonValue::makeNumber(static_cast<double>(op.a)));
        o.set("value", JsonValue::makeNumber(static_cast<double>(op.b)));
        break;
      case OpKind::kSetCondition:
        o.set("id", JsonValue::makeNumber(static_cast<double>(op.instance)));
        o.set("bit", JsonValue::makeNumber(static_cast<double>(op.a)));
        o.set("value", JsonValue::makeBool(op.b != 0));
        break;
      case OpKind::kAddTimer:
        o.set("id", JsonValue::makeNumber(static_cast<double>(op.instance)));
        o.set("event", JsonValue::makeNumber(static_cast<double>(op.a)));
        o.set("period", JsonValue::makeNumber(static_cast<double>(op.b)));
        break;
      case OpKind::kWarmCycle: {
        o.set("id", JsonValue::makeNumber(static_cast<double>(op.instance)));
        JsonValue events = JsonValue::makeArray();
        const int32_t* bits = warmEvents(op);
        for (int64_t i = 0; i < op.b; ++i)
          events.array.push_back(JsonValue::makeNumber(bits[i]));
        o.set("events", std::move(events));
        break;
      }
    }
    ops.array.push_back(std::move(o));
  }
  doc.set("ops", std::move(ops));
  return doc;
}

bool Journal::fromJson(const JsonValue& doc, Journal* out, std::string* error) {
  const auto fail = [error](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || !schema->isString() ||
      schema->string != "pscp-journal-v1")
    return fail("not a pscp-journal-v1 document");

  JournalConfig config;
  int64_t interval = 0;
  if (jsonInt(doc, "checkpoint_interval", &interval)) config.checkpointInterval = interval;
  Journal j(config);
  if (const JsonValue* chart = doc.find("chart"); chart != nullptr && chart->isString())
    j.chartName_ = chart->string;
  if (!parseHexU64(doc.find("image_hash"), &j.imageHash_))
    return fail("missing or malformed image_hash");
  int64_t n = 0;
  if (jsonInt(doc, "event_queue_capacity", &n)) j.eventQueueCapacity_ = n;
  if (jsonInt(doc, "recorded_workers", &n)) j.recordedWorkers_ = static_cast<int>(n);
  if (const JsonValue* soa = doc.find("recorded_soa"); soa != nullptr)
    j.recordedSoa_ = soa->boolean;
  if (const JsonValue* simd = doc.find("simd"); simd != nullptr && simd->isString())
    j.simdLevel_ = simd->string;
  if (const JsonValue* note = doc.find("note"); note != nullptr && note->isString())
    j.note_ = note->string;

  const JsonValue* ops = doc.find("ops");
  if (ops == nullptr || !ops->isArray()) return fail("missing ops array");
  uint64_t maxSpan = 0;
  for (size_t index = 0; index < ops->array.size(); ++index) {
    const JsonValue& o = ops->array[index];
    const JsonValue* name = o.find("op");
    OpKind kind{};
    if (name == nullptr || !name->isString() || !opKindFromName(name->string, &kind))
      return fail(strfmt("ops[%zu]: unknown op", index));
    int64_t id = -1, a = 0, b = 0;
    jsonInt(o, "id", &id);
    switch (kind) {
      case OpKind::kSpawn:
        j.recordSpawn(id);
        break;
      case OpKind::kRetire:
        j.recordRetire(id);
        break;
      case OpKind::kInject: {
        int64_t event = 0, epoch = 0, span = 0;
        if (!jsonInt(o, "event", &event) || !jsonInt(o, "epoch", &epoch) ||
            !jsonInt(o, "span", &span))
          return fail(strfmt("ops[%zu]: malformed inject", index));
        j.ops_.push_back({OpKind::kInject, id, event, epoch, span});
        if (static_cast<uint64_t>(span) > maxSpan) maxSpan = static_cast<uint64_t>(span);
        break;
      }
      case OpKind::kStep: {
        int64_t epoch = 0, cycles = 0;
        if (!jsonInt(o, "epoch", &epoch) || !jsonInt(o, "cycles", &cycles))
          return fail(strfmt("ops[%zu]: malformed step", index));
        j.recordStep(epoch, static_cast<int>(cycles));
        break;
      }
      case OpKind::kCheckpoint: {
        int64_t epoch = 0;
        if (!jsonInt(o, "epoch", &epoch))
          return fail(strfmt("ops[%zu]: malformed checkpoint", index));
        uint64_t digest = 0;
        if (!parseHexU64(o.find("digest"), &digest))
          return fail(strfmt("ops[%zu]: malformed checkpoint digest", index));
        const JsonValue* insts = o.find("instances");
        if (insts == nullptr || !insts->isArray())
          return fail(strfmt("ops[%zu]: checkpoint missing instances", index));
        j.beginCheckpoint(epoch);
        for (const JsonValue& e : insts->array) {
          CheckpointInstance entry;
          int64_t eid = -1;
          if (!jsonInt(e, "id", &eid) || !parseHexU64(e.find("digest"), &entry.digest))
            return fail(strfmt("ops[%zu]: malformed checkpoint entry", index));
          entry.instance = eid;
          if (const JsonValue* cr = e.find("cr"); cr != nullptr && cr->isArray()) {
            entry.crOffset = static_cast<uint32_t>(j.crWords_.size());
            entry.crWords = static_cast<uint32_t>(cr->array.size());
            for (const JsonValue& w : cr->array) {
              uint64_t word = 0;
              if (!parseHexU64(&w, &word))
                return fail(strfmt("ops[%zu]: malformed cr word", index));
              j.crWords_.push_back(word);
            }
          }
          j.checkpointInstances_.push_back(entry);
          j.openDigest_ = foldInstanceDigest(
              j.openDigest_, static_cast<uint64_t>(entry.instance), entry.digest);
        }
        j.endCheckpoint();
        // Trust the recorded digest over the refold (a corrupted entry must
        // surface as a replay mismatch, not be silently re-blessed).
        j.checkpointDigests_.back() = digest;
        j.ops_.back().b = static_cast<int64_t>(digest);
        break;
      }
      case OpKind::kSetPort: {
        int64_t value = 0;
        if (!jsonInt(o, "addr", &a) || !jsonInt(o, "value", &value))
          return fail(strfmt("ops[%zu]: malformed port op", index));
        j.recordSetPort(id, static_cast<int>(a), static_cast<uint32_t>(value));
        break;
      }
      case OpKind::kSetCondition: {
        const JsonValue* value = o.find("value");
        if (!jsonInt(o, "bit", &a) || value == nullptr)
          return fail(strfmt("ops[%zu]: malformed cond op", index));
        j.recordSetCondition(id, static_cast<int>(a), value->boolean);
        break;
      }
      case OpKind::kAddTimer: {
        if (!jsonInt(o, "event", &a) || !jsonInt(o, "period", &b))
          return fail(strfmt("ops[%zu]: malformed timer op", index));
        j.recordAddTimer(id, static_cast<int>(a), b);
        break;
      }
      case OpKind::kWarmCycle: {
        const JsonValue* events = o.find("events");
        if (events == nullptr || !events->isArray())
          return fail(strfmt("ops[%zu]: malformed warm op", index));
        std::vector<int> bits;
        bits.reserve(events->array.size());
        for (const JsonValue& e : events->array)
          bits.push_back(static_cast<int>(e.number));
        j.recordWarmCycle(id, bits);
        break;
      }
    }
  }
  j.nextSpan_ = maxSpan;
  *out = std::move(j);
  return true;
}

// --------------------------------------------------------- binary format

std::string Journal::dumpBinary() const {
  std::string out;
  out.reserve(64 + ops_.size() * 33 + crWords_.size() * 8);
  out.append(kBinaryMagic, sizeof(kBinaryMagic));
  putU32(&out, kBinaryVersion);
  putString(&out, chartName_);
  putU64(&out, imageHash_);
  putI64(&out, eventQueueCapacity_);
  putI64(&out, config_.checkpointInterval);
  putU32(&out, static_cast<uint32_t>(recordedWorkers_));
  putU8(&out, recordedSoa_ ? 1 : 0);
  putString(&out, simdLevel_);
  putU64(&out, nextSpan_);

  putU64(&out, warmEvents_.size());
  for (const int32_t e : warmEvents_) putU32(&out, static_cast<uint32_t>(e));

  putU64(&out, ops_.size());
  for (const Op& op : ops_) {
    putU8(&out, static_cast<uint8_t>(op.kind));
    putI64(&out, op.instance);
    putI64(&out, op.a);
    putI64(&out, op.b);
    putI64(&out, op.c);
  }

  putU64(&out, checkpointEpochs_.size());
  for (size_t i = 0; i < checkpointEpochs_.size(); ++i) {
    putI64(&out, checkpointEpochs_[i]);
    putU64(&out, checkpointDigests_[i]);
    putU32(&out, checkpointRanges_[i].first);
    putU32(&out, checkpointRanges_[i].second);
  }
  putU64(&out, checkpointInstances_.size());
  for (const CheckpointInstance& e : checkpointInstances_) {
    putI64(&out, e.instance);
    putU64(&out, e.digest);
    putU32(&out, e.crOffset);
    putU32(&out, e.crWords);
  }
  putU64(&out, crWords_.size());
  for (const uint64_t w : crWords_) putU64(&out, w);
  return out;
}

bool Journal::parseBinary(const std::string& bytes, Journal* out,
                          std::string* error) {
  const auto fail = [error](const char* msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (bytes.size() < sizeof(kBinaryMagic) + 4 ||
      std::memcmp(bytes.data(), kBinaryMagic, sizeof(kBinaryMagic)) != 0)
    return fail("not a pscp-journal binary (bad magic)");
  ByteReader r{bytes, sizeof(kBinaryMagic)};
  if (r.u32() != kBinaryVersion) return fail("unsupported journal binary version");

  Journal j;
  j.chartName_ = r.str();
  j.imageHash_ = r.u64();
  j.eventQueueCapacity_ = r.i64();
  j.config_.checkpointInterval = r.i64();
  j.recordedWorkers_ = static_cast<int>(r.u32());
  j.recordedSoa_ = r.u8() != 0;
  j.simdLevel_ = r.str();
  j.nextSpan_ = r.u64();

  // Counts are validated against the remaining byte budget before any
  // reserve, so a forged header cannot demand absurd allocations (and the
  // count*size products below cannot overflow).
  const auto plausible = [&r](uint64_t count, uint64_t elemSize) {
    return count <= (r.bytes.size() - r.pos) / elemSize;
  };
  const uint64_t warmCount = r.u64();
  if (!r.ok || !plausible(warmCount, 4)) return fail("truncated journal binary");
  j.warmEvents_.reserve(warmCount);
  for (uint64_t i = 0; i < warmCount; ++i)
    j.warmEvents_.push_back(static_cast<int32_t>(r.u32()));

  const uint64_t opCount = r.u64();
  if (!r.ok || !plausible(opCount, 33)) return fail("truncated journal binary");
  j.ops_.reserve(opCount);
  for (uint64_t i = 0; i < opCount; ++i) {
    Op op;
    const uint8_t kind = r.u8();
    if (kind < static_cast<uint8_t>(OpKind::kSpawn) ||
        kind > static_cast<uint8_t>(OpKind::kWarmCycle))
      return fail("unknown op kind in journal binary");
    op.kind = static_cast<OpKind>(kind);
    op.instance = r.i64();
    op.a = r.i64();
    op.b = r.i64();
    op.c = r.i64();
    j.ops_.push_back(op);
  }

  const uint64_t cpCount = r.u64();
  if (!r.ok || !plausible(cpCount, 24)) return fail("truncated journal binary");
  for (uint64_t i = 0; i < cpCount; ++i) {
    j.checkpointEpochs_.push_back(r.i64());
    j.checkpointDigests_.push_back(r.u64());
    const uint32_t begin = r.u32();
    const uint32_t count = r.u32();
    j.checkpointRanges_.emplace_back(begin, count);
  }
  const uint64_t entryCount = r.u64();
  if (!r.ok || !plausible(entryCount, 24)) return fail("truncated journal binary");
  for (uint64_t i = 0; i < entryCount; ++i) {
    CheckpointInstance e;
    e.instance = r.i64();
    e.digest = r.u64();
    e.crOffset = r.u32();
    e.crWords = r.u32();
    j.checkpointInstances_.push_back(e);
  }
  const uint64_t wordCount = r.u64();
  if (!r.ok || !plausible(wordCount, 8)) return fail("truncated journal binary");
  j.crWords_.reserve(wordCount);
  for (uint64_t i = 0; i < wordCount; ++i) j.crWords_.push_back(r.u64());

  if (!r.ok) return fail("truncated journal binary");
  // Cross-check arena references so a damaged file fails here, not deep in
  // replay.
  for (const Op& op : j.ops_) {
    if (op.kind == OpKind::kWarmCycle &&
        (op.a < 0 || op.b < 0 ||
         static_cast<uint64_t>(op.a + op.b) > j.warmEvents_.size()))
      return fail("warm-cycle op references out-of-range events");
    if (op.kind == OpKind::kCheckpoint &&
        (op.c < 0 || static_cast<uint64_t>(op.c) >= j.checkpointEpochs_.size()))
      return fail("checkpoint op references missing table row");
  }
  for (const auto& [begin, count] : j.checkpointRanges_)
    if (static_cast<uint64_t>(begin) + count > j.checkpointInstances_.size())
      return fail("checkpoint range out of bounds");
  for (const CheckpointInstance& e : j.checkpointInstances_)
    if (static_cast<uint64_t>(e.crOffset) + e.crWords > j.crWords_.size())
      return fail("checkpoint CR words out of bounds");
  *out = std::move(j);
  return true;
}

bool Journal::parse(const std::string& bytes, Journal* out, std::string* error) {
  if (bytes.size() >= sizeof(kBinaryMagic) &&
      std::memcmp(bytes.data(), kBinaryMagic, sizeof(kBinaryMagic)) == 0)
    return parseBinary(bytes, out, error);
  JsonValue doc;
  if (!parseJson(bytes, &doc, error)) return false;
  return fromJson(doc, out, error);
}

bool Journal::writeFile(const std::string& path, bool binary,
                        std::string* error) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  const std::string bytes = binary ? dumpBinary() : dumpJson();
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "write failed for " + path;
    return false;
  }
  return true;
}

bool Journal::readFile(const std::string& path, Journal* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str(), out, error);
}

}  // namespace pscp::obs::journal
