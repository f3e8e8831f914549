#include "obs/journal/replay.hpp"

#include <algorithm>
#include <map>

#include "support/diag.hpp"

namespace pscp::obs::journal {

namespace {

// Reverse bit -> name maps so recorded CR indices replay through the
// fleet's name-keyed journaled wrappers.
std::map<int, std::string> invert(const std::map<std::string, int>& byName) {
  std::map<int, std::string> byBit;
  for (const auto& [name, bit] : byName) byBit[bit] = name;
  return byBit;
}

std::vector<uint64_t> crWordsOf(const machine::PscpMachine& m) {
  const BitVec& cr = m.crBits();
  std::vector<uint64_t> words(cr.wordCount());
  for (size_t w = 0; w < cr.wordCount(); ++w) words[w] = cr.word(w);
  return words;
}

}  // namespace

Replayer::Replayer(const Journal* journal, Fleet::ChartImagePtr image)
    : journal_(journal), image_(std::move(image)) {
  PSCP_ASSERT(journal_ != nullptr && image_ != nullptr);
  imageHash_ = imageContentHash(*image_);
  imageMatches_ = imageHash_ == journal_->imageHash();
  // An instance's epoch delivery can exceed the recorded queue capacity
  // (producers may push *during* the drain, freeing slots as they fill),
  // but replay enqueues the whole epoch before stepping — size the queue
  // for the longest recorded per-(instance, epoch) inject run. Inject ops
  // of one epoch are contiguous, grouped by ascending instance, so a
  // linear scan over adjacent ops finds every run.
  size_t run = 0;
  const OpLog& ops = journal_->ops();
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind != OpKind::kInject) {
      run = 0;
      continue;
    }
    if (run == 0 || ops[i].instance != ops[i - 1].instance ||
        ops[i].b != ops[i - 1].b)
      run = 0;
    ++run;
    maxInjectBurst_ = std::max(maxInjectBurst_, run);
  }
}

ReplayResult Replayer::run(const ReplayOptions& options) const {
  ReplayResult result;
  if (!imageMatches_) {
    result.error = strfmt(
        "image content hash mismatch: journal recorded 0x%016llx over chart "
        "'%s', supplied image hashes 0x%016llx — refusing to replay",
        static_cast<unsigned long long>(journal_->imageHash()),
        journal_->chartName().c_str(),
        static_cast<unsigned long long>(imageHash_));
    return result;
  }

  FleetConfig config;
  config.workerThreads = options.workerThreads;
  config.soaBatching = options.soaBatching;
  config.batchWidth = options.batchWidth;
  config.pinWorkers = options.pinWorkers;
  config.jitMode = options.jitMode;
  config.jitThreshold = options.jitThreshold;
  config.eventQueueCapacity =
      std::max<size_t>(static_cast<size_t>(journal_->eventQueueCapacity()),
                       maxInjectBurst_ + 1);
  Fleet fleet(image_, config);

  const std::map<int, std::string> eventNames =
      invert(image_->layout().eventBits());
  const std::map<int, std::string> conditionNames =
      invert(image_->layout().conditionBits());

  std::vector<char> live;  // by instance id
  auto isLive = [&](int64_t id) {
    return id >= 0 && static_cast<size_t>(id) < live.size() &&
           live[static_cast<size_t>(id)] != 0;
  };
  std::vector<DeliveredSpan> delivered;  // traced instance, next epoch
  std::vector<int> warmBits;

  for (const Op& op : journal_->ops()) {
    switch (op.kind) {
      case OpKind::kSpawn: {
        const InstanceId id = fleet.spawn();
        if (static_cast<int64_t>(id) != op.instance) {
          result.error = strfmt(
              "replay spawn produced id %llu where the journal recorded %lld "
              "— op stream is damaged or reordered",
              static_cast<unsigned long long>(id),
              static_cast<long long>(op.instance));
          return result;
        }
        live.resize(std::max(live.size(), static_cast<size_t>(id) + 1), 0);
        live[static_cast<size_t>(id)] = 1;
        if (options.traceSink != nullptr &&
            op.instance == options.traceInstance) {
          obs::ObsOptions obsOptions;
          obsOptions.sink = options.traceSink;
          fleet.machine(id).setObsOptions(obsOptions);
        }
        break;
      }
      case OpKind::kRetire:
        if (!isLive(op.instance)) {
          result.error = strfmt("retire of non-live instance %lld",
                                static_cast<long long>(op.instance));
          return result;
        }
        fleet.retire(static_cast<InstanceId>(op.instance));
        live[static_cast<size_t>(op.instance)] = 0;
        break;
      case OpKind::kInject:
        if (!fleet.inject(static_cast<InstanceId>(op.instance),
                          static_cast<int>(op.a))) {
          result.error = strfmt(
              "re-injection of event %lld into instance %lld (epoch %lld) "
              "rejected",
              static_cast<long long>(op.a), static_cast<long long>(op.instance),
              static_cast<long long>(op.b));
          return result;
        }
        if (options.spanTracker != nullptr &&
            op.instance == options.traceInstance)
          delivered.push_back({static_cast<uint64_t>(op.c),
                               static_cast<int>(op.a), op.b});
        break;
      case OpKind::kStep: {
        if (options.stopAfterEpoch >= 0 && op.a > options.stopAfterEpoch)
          goto done;
        if (options.spanTracker != nullptr) {
          options.spanTracker->beginEpoch(op.a, delivered);
          delivered.clear();
        }
        fleet.step(static_cast<int>(op.b));
        ++result.epochsReplayed;
        result.finalEpoch = op.a;
        break;
      }
      case OpKind::kCheckpoint: {
        if (!options.verifyCheckpoints) break;
        if (static_cast<size_t>(op.c) >= journal_->checkpointCount()) {
          result.error = strfmt("checkpoint op references table index %lld "
                                "beyond the %zu recorded checkpoints",
                                static_cast<long long>(op.c),
                                journal_->checkpointCount());
          return result;
        }
        const Journal::CheckpointView view =
            journal_->checkpoint(static_cast<size_t>(op.c));
        uint64_t folded = kFleetDigestSeed;
        CheckpointMismatch mismatch;
        for (size_t i = 0; i < view.instanceCount; ++i) {
          const CheckpointInstance& entry = view.instances[i];
          if (!isLive(entry.instance)) {
            result.error = strfmt(
                "checkpoint at epoch %lld lists instance %lld, not live in "
                "the replay",
                static_cast<long long>(view.epoch),
                static_cast<long long>(entry.instance));
            return result;
          }
          const machine::PscpMachine& m =
              fleet.machine(static_cast<InstanceId>(entry.instance));
          const uint64_t replayedDigest = crDigest(m.crBits());
          folded = foldInstanceDigest(
              folded, static_cast<uint64_t>(entry.instance), replayedDigest);
          if (replayedDigest == entry.digest) continue;
          mismatch.divergingInstances.push_back(entry.instance);
          InstanceCr rec;
          rec.instance = entry.instance;
          rec.digest = entry.digest;
          if (entry.crWords > 0) {
            const uint64_t* words = journal_->checkpointCr(entry);
            rec.words.assign(words, words + entry.crWords);
          }
          mismatch.recorded.push_back(std::move(rec));
          InstanceCr rep;
          rep.instance = entry.instance;
          rep.digest = replayedDigest;
          rep.words = crWordsOf(m);
          mismatch.replayed.push_back(std::move(rep));
        }
        ++result.checkpointsChecked;
        result.finalDigest = folded;
        if (folded != view.digest || !mismatch.divergingInstances.empty()) {
          mismatch.epoch = view.epoch;
          mismatch.checkpointIndex = static_cast<size_t>(op.c);
          mismatch.recordedDigest = view.digest;
          mismatch.replayedDigest = folded;
          result.firstMismatch = std::move(mismatch);
          result.verified = false;
          result.ok = true;
          return result;
        }
        break;
      }
      case OpKind::kSetPort:
        fleet.setInputPort(static_cast<InstanceId>(op.instance),
                           static_cast<int>(op.a),
                           static_cast<uint32_t>(op.b));
        break;
      case OpKind::kSetCondition: {
        const auto it = conditionNames.find(static_cast<int>(op.a));
        if (it == conditionNames.end()) {
          result.error = strfmt("set-condition references CR bit %lld, which "
                                "is no condition in this image",
                                static_cast<long long>(op.a));
          return result;
        }
        fleet.setCondition(static_cast<InstanceId>(op.instance), it->second,
                           op.b != 0);
        break;
      }
      case OpKind::kAddTimer: {
        const auto it = eventNames.find(static_cast<int>(op.a));
        if (it == eventNames.end()) {
          result.error = strfmt("add-timer references CR bit %lld, which is "
                                "no event in this image",
                                static_cast<long long>(op.a));
          return result;
        }
        fleet.addTimer(static_cast<InstanceId>(op.instance), it->second, op.b);
        break;
      }
      case OpKind::kWarmCycle: {
        const int32_t* bits = journal_->warmEvents(op);
        warmBits.assign(bits, bits + op.b);
        fleet.warmCycle(static_cast<InstanceId>(op.instance), warmBits);
        break;
      }
    }
  }
done:

  // Final fleet digest over the surviving live set, ascending id order —
  // what an epoch-aligned checkpoint here would have recorded.
  uint64_t folded = kFleetDigestSeed;
  for (size_t id = 0; id < live.size(); ++id) {
    if (live[id] == 0) continue;
    const machine::PscpMachine& m = fleet.machine(static_cast<InstanceId>(id));
    folded = foldInstanceDigest(folded, static_cast<uint64_t>(id),
                                crDigest(m.crBits()));
    if (options.captureFinalCr) {
      InstanceCr cr;
      cr.instance = static_cast<int64_t>(id);
      cr.digest = crDigest(m.crBits());
      cr.words = crWordsOf(m);
      result.finalCr.push_back(std::move(cr));
    }
  }
  result.finalDigest = folded;
  result.ok = true;
  return result;
}

namespace {

// One prefix probe of `base` stopped after `epoch`, checkpoints off, final
// CRs on — the bisection's comparison primitive.
ReplayResult probeAt(const Replayer& replayer, const ReplayOptions& base,
                     int64_t epoch, int64_t* probes) {
  ReplayOptions options = base;
  options.stopAfterEpoch = epoch;
  options.verifyCheckpoints = false;
  options.captureFinalCr = true;
  options.traceSink = nullptr;
  options.spanTracker = nullptr;
  ++*probes;
  return replayer.run(options);
}

void diffFinalCr(const ReplayResult& reference, const ReplayResult& target,
                 BisectResult* out) {
  size_t r = 0;
  for (const InstanceCr& t : target.finalCr) {
    while (r < reference.finalCr.size() &&
           reference.finalCr[r].instance < t.instance)
      ++r;
    if (r >= reference.finalCr.size() ||
        reference.finalCr[r].instance != t.instance ||
        reference.finalCr[r].digest != t.digest) {
      out->divergingInstances.push_back(t.instance);
      if (r < reference.finalCr.size() &&
          reference.finalCr[r].instance == t.instance)
        out->expected.push_back(reference.finalCr[r]);
      out->actual.push_back(t);
    }
  }
}

void collectCausalInjects(const Journal& journal, BisectResult* out) {
  for (const Op& op : journal.ops()) {
    if (op.kind != OpKind::kInject) continue;
    if (op.b <= out->windowLo || op.b > out->epoch) continue;
    if (std::find(out->divergingInstances.begin(),
                  out->divergingInstances.end(),
                  op.instance) == out->divergingInstances.end())
      continue;
    out->causalInjects.push_back(op);
  }
}

}  // namespace

BisectResult bisectDivergence(const Journal& journal,
                              Fleet::ChartImagePtr image,
                              const ReplayOptions& target) {
  BisectResult out;
  Replayer replayer(&journal, std::move(image));

  ReplayOptions targetFull = target;
  targetFull.stopAfterEpoch = -1;
  targetFull.verifyCheckpoints = true;
  targetFull.traceSink = nullptr;
  targetFull.spanTracker = nullptr;
  ++out.probes;
  const ReplayResult targetRun = replayer.run(targetFull);
  if (!targetRun.ok) {
    out.error = targetRun.error;
    return out;
  }
  out.ok = true;
  if (targetRun.verified) return out;  // diverged stays false
  out.diverged = true;

  const CheckpointMismatch& first = targetRun.firstMismatch;
  const int64_t hi = first.epoch;
  out.windowLo = first.checkpointIndex > 0
                     ? journal.checkpoint(first.checkpointIndex - 1).epoch
                     : -1;

  // Does a faithful reference replay agree with the recording up to the
  // failing checkpoint? If not, the journal itself is the divergent side.
  ReplayOptions reference;
  reference.workerThreads = 1;
  reference.soaBatching = journal.recordedSoa();
  reference.stopAfterEpoch = hi;
  ++out.probes;
  const ReplayResult referenceRun = replayer.run(reference);
  if (!referenceRun.ok) {
    out.error = referenceRun.error;
    out.ok = false;
    return out;
  }
  if (!referenceRun.verified) {
    out.kind = "recorded-vs-replay";
    out.epoch = referenceRun.firstMismatch.epoch;
    out.windowLo = referenceRun.firstMismatch.checkpointIndex > 0
                       ? journal
                             .checkpoint(
                                 referenceRun.firstMismatch.checkpointIndex - 1)
                             .epoch
                       : -1;
    out.epochExact = out.epoch - out.windowLo == 1;
    out.divergingInstances = referenceRun.firstMismatch.divergingInstances;
    out.expected = referenceRun.firstMismatch.recorded;
    out.actual = referenceRun.firstMismatch.replayed;
    collectCausalInjects(journal, &out);
    return out;
  }

  // The recording is internally consistent; the target configuration
  // diverges from the reference somewhere in (windowLo, hi]. Divergence is
  // persistent once states split, so per-epoch final digests bisect to the
  // exact first divergent epoch.
  out.kind = "config-divergence";
  int64_t lo = out.windowLo;  // proven equal (both matched the checkpoint)
  int64_t bad = hi;
  while (bad - lo > 1) {
    const int64_t mid = lo + (bad - lo) / 2;
    const ReplayResult refMid = probeAt(replayer, reference, mid, &out.probes);
    const ReplayResult tgtMid = probeAt(replayer, target, mid, &out.probes);
    if (!refMid.ok || !tgtMid.ok) {
      out.error = !refMid.ok ? refMid.error : tgtMid.error;
      out.ok = false;
      return out;
    }
    if (refMid.finalDigest != tgtMid.finalDigest)
      bad = mid;
    else
      lo = mid;
  }
  out.epoch = bad;
  out.windowLo = lo;
  out.epochExact = true;
  const ReplayResult refAt = probeAt(replayer, reference, bad, &out.probes);
  const ReplayResult tgtAt = probeAt(replayer, target, bad, &out.probes);
  if (!refAt.ok || !tgtAt.ok) {
    out.error = !refAt.ok ? refAt.error : tgtAt.error;
    out.ok = false;
    return out;
  }
  diffFinalCr(refAt, tgtAt, &out);
  collectCausalInjects(journal, &out);
  return out;
}

std::string describeCrWords(const machine::ChartImage& image,
                            const std::vector<uint64_t>& words) {
  const sla::CrLayout& layout = image.layout();
  BitVec cr(layout.totalBits());
  for (size_t w = 0; w < cr.wordCount() && w < words.size(); ++w)
    cr.setWord(w, words[w]);

  std::string out = "states{";
  bool first = true;
  for (const sla::StateField& field : layout.stateFields()) {
    uint64_t code = 0;
    for (int b = 0; b < field.width; ++b) {
      const int bit = layout.stateBase() + field.baseBit + b;
      if (bit < cr.size() && cr.test(bit)) code |= uint64_t{1} << b;
    }
    if (code == 0) continue;
    const size_t member = static_cast<size_t>(code - 1);
    if (!first) out += ", ";
    first = false;
    out += member < field.states.size()
               ? image.chart().state(field.states[member]).name
               : strfmt("<bad code %llu>", static_cast<unsigned long long>(code));
  }
  out += "}";

  std::string conds;
  for (const auto& [name, bit] : layout.conditionBits())
    if (bit < cr.size() && cr.test(bit)) conds += (conds.empty() ? "" : ", ") + name;
  if (!conds.empty()) out += " conditions{" + conds + "}";
  std::string events;
  for (const auto& [name, bit] : layout.eventBits())
    if (bit < cr.size() && cr.test(bit)) events += (events.empty() ? "" : ", ") + name;
  if (!events.empty()) out += " pending-events{" + events + "}";
  return out;
}

std::string formatBisectReport(const BisectResult& result,
                               const machine::ChartImage& image) {
  if (!result.ok) return "bisect failed: " + result.error + "\n";
  if (!result.diverged) return "no divergence: replay verified clean\n";

  std::string out = strfmt(
      "divergence kind: %s\nfirst divergent epoch: %lld%s (last clean: %lld)\n",
      result.kind.c_str(), static_cast<long long>(result.epoch),
      result.epochExact ? ""
                        : " (checkpoint-granular; re-record with "
                          "--checkpoint-interval 1 for the exact epoch)",
      static_cast<long long>(result.windowLo));
  out += strfmt("diverging instances: %zu (probes: %lld)\n",
                result.divergingInstances.size(),
                static_cast<long long>(result.probes));

  const char* expectedLabel = result.kind == "recorded-vs-replay"
                                  ? "recorded"
                                  : "reference";
  for (size_t i = 0; i < result.actual.size(); ++i) {
    const InstanceCr& actual = result.actual[i];
    out += strfmt("  instance %lld:\n",
                  static_cast<long long>(actual.instance));
    const InstanceCr* expected = nullptr;
    for (const InstanceCr& e : result.expected)
      if (e.instance == actual.instance) expected = &e;
    if (expected != nullptr) {
      out += strfmt("    %s CR 0x%016llx  %s\n", expectedLabel,
                    static_cast<unsigned long long>(expected->digest),
                    expected->words.empty()
                        ? "(no CR words recorded)"
                        : describeCrWords(image, expected->words).c_str());
    }
    out += strfmt("    replayed CR 0x%016llx  %s\n",
                  static_cast<unsigned long long>(actual.digest),
                  describeCrWords(image, actual.words).c_str());
  }

  if (result.causalInjects.empty()) {
    out += "causal spans in window: none (divergence is not event-driven)\n";
  } else {
    out += strfmt("causal spans in window (epochs %lld..%lld]:\n",
                  static_cast<long long>(result.windowLo),
                  static_cast<long long>(result.epoch));
    const std::map<int, std::string> eventNames = [&] {
      std::map<int, std::string> byBit;
      for (const auto& [name, bit] : image.layout().eventBits())
        byBit[bit] = name;
      return byBit;
    }();
    for (const Op& op : result.causalInjects) {
      const auto it = eventNames.find(static_cast<int>(op.a));
      out += strfmt("  span %lld: event %s -> instance %lld at epoch %lld\n",
                    static_cast<long long>(op.c),
                    it != eventNames.end() ? it->second.c_str()
                                           : strfmt("bit%lld",
                                                    static_cast<long long>(op.a))
                                                 .c_str(),
                    static_cast<long long>(op.instance),
                    static_cast<long long>(op.b));
    }
  }
  return out;
}

}  // namespace pscp::obs::journal
