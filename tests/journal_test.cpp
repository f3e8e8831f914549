// Record/replay journal tests (src/obs/journal): JSON and binary
// round-trips of the pscp-journal-v1 format, digest determinism, the
// fleet's recording order (delivery order, stable span ids, the epoch-0
// checkpoint), image content hashing, and rejection of damaged inputs.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "obs/journal/journal.hpp"
#include "support/bits.hpp"
#include "support/json.hpp"
#include "workloads/smd_fleet.hpp"

namespace pscp::obs::journal {
namespace {

// A journal exercising every op kind and both arenas, built by hand.
Journal makeSampleJournal() {
  JournalConfig config;
  config.checkpointInterval = 2;
  Journal j(config);
  j.setChartName("SampleChart");
  j.setImageHash(0x1234'5678'9abc'def0ull);
  j.setEventQueueCapacity(256);
  j.setRecordedWorkers(4);

  j.recordSpawn(0);
  j.recordSpawn(1);
  j.recordSetPort(0, 0x1C0, 255);
  j.recordSetCondition(1, 3, true);
  j.recordAddTimer(0, 2, 1500);
  j.recordWarmCycle(0, {1, 4});
  BitVec cr(70);
  cr.set(0);
  cr.set(65);
  j.beginCheckpoint(0);
  j.addCheckpointInstance(0, cr);
  j.addCheckpointInstance(1, cr);
  j.endCheckpoint();
  EXPECT_EQ(j.recordInject(0, 2, 1), 1u);
  EXPECT_EQ(j.recordInject(1, 5, 1), 2u);
  j.recordStep(1, 4);
  j.recordRetire(1);
  return j;
}

void expectJournalsEqual(const Journal& a, const Journal& b) {
  EXPECT_EQ(a.chartName(), b.chartName());
  EXPECT_EQ(a.imageHash(), b.imageHash());
  EXPECT_EQ(a.eventQueueCapacity(), b.eventQueueCapacity());
  EXPECT_EQ(a.recordedWorkers(), b.recordedWorkers());
  EXPECT_EQ(a.spanCount(), b.spanCount());

  ASSERT_EQ(a.ops().size(), b.ops().size());
  for (size_t i = 0; i < a.ops().size(); ++i) {
    EXPECT_EQ(a.ops()[i].kind, b.ops()[i].kind) << "op " << i;
    EXPECT_EQ(a.ops()[i].instance, b.ops()[i].instance) << "op " << i;
    EXPECT_EQ(a.ops()[i].a, b.ops()[i].a) << "op " << i;
    EXPECT_EQ(a.ops()[i].b, b.ops()[i].b) << "op " << i;
    EXPECT_EQ(a.ops()[i].c, b.ops()[i].c) << "op " << i;
    if (a.ops()[i].kind == OpKind::kWarmCycle) {
      const int32_t* wa = a.warmEvents(a.ops()[i]);
      const int32_t* wb = b.warmEvents(b.ops()[i]);
      for (int64_t w = 0; w < a.ops()[i].b; ++w)
        EXPECT_EQ(wa[w], wb[w]) << "warm event " << w;
    }
  }

  ASSERT_EQ(a.checkpointCount(), b.checkpointCount());
  for (size_t c = 0; c < a.checkpointCount(); ++c) {
    const Journal::CheckpointView va = a.checkpoint(c);
    const Journal::CheckpointView vb = b.checkpoint(c);
    EXPECT_EQ(va.epoch, vb.epoch);
    EXPECT_EQ(va.digest, vb.digest);
    ASSERT_EQ(va.instanceCount, vb.instanceCount);
    for (size_t i = 0; i < va.instanceCount; ++i) {
      EXPECT_EQ(va.instances[i].instance, vb.instances[i].instance);
      EXPECT_EQ(va.instances[i].digest, vb.instances[i].digest);
      ASSERT_EQ(va.instances[i].crWords, vb.instances[i].crWords);
      const uint64_t* ca = a.checkpointCr(va.instances[i]);
      const uint64_t* cb = b.checkpointCr(vb.instances[i]);
      for (uint32_t w = 0; w < va.instances[i].crWords; ++w)
        EXPECT_EQ(ca[w], cb[w]);
    }
  }
}

TEST(Journal, JsonRoundTripPreservesEveryOpAndCheckpoint) {
  const Journal original = makeSampleJournal();
  Journal parsed;
  std::string error;
  ASSERT_TRUE(Journal::parse(original.dumpJson(), &parsed, &error)) << error;
  expectJournalsEqual(original, parsed);
}

TEST(Journal, BinaryRoundTripPreservesEveryOpAndCheckpoint) {
  const Journal original = makeSampleJournal();
  const std::string bytes = original.dumpBinary();
  EXPECT_LT(bytes.size(), original.dumpJson().size())
      << "the binary framing exists to be compact";
  Journal parsed;
  std::string error;
  ASSERT_TRUE(Journal::parseBinary(bytes, &parsed, &error)) << error;
  expectJournalsEqual(original, parsed);
}

TEST(Journal, RetiredHeaderFieldsAreSkippedOnRead) {
  // Journals written before the stepping-mode and SIMD-level header
  // fields were retired still carry them; both framings must still load.
  const Journal original = makeSampleJournal();
  JsonValue doc = original.toJson();
  doc.set("recorded_soa", JsonValue::makeBool(false));
  doc.set("simd", JsonValue::makeString("avx2"));
  Journal fromJson;
  std::string error;
  ASSERT_TRUE(Journal::parse(doc.dump(1), &fromJson, &error)) << error;
  expectJournalsEqual(original, fromJson);

  // Binary: magic, version, chart name, image hash, queue capacity,
  // checkpoint interval and workers precede the reserved flag byte and
  // string. Fill them the way an older writer did.
  std::string bytes = original.dumpBinary();
  const size_t flag = 8 + 4 + 4 + original.chartName().size() + 8 + 8 + 8 + 4;
  ASSERT_EQ(bytes.substr(flag + 1, 4), std::string(4, '\0')) << "empty string";
  bytes[flag] = 0;
  bytes.replace(flag + 1, 4, std::string("\x04\0\0\0avx2", 8));
  Journal fromBinary;
  ASSERT_TRUE(Journal::parseBinary(bytes, &fromBinary, &error)) << error;
  expectJournalsEqual(original, fromBinary);
}

TEST(Journal, OpLogAcrossBlocksKeepsOrderAndAddresses) {
  OpLog log;
  const size_t n = 2 * OpLog::kBlockOps + 3;
  log.push_back({OpKind::kStep, -1, 0, 0, 0});
  const Op* first = &log[0];
  for (size_t i = 1; i < n; ++i)
    log.push_back({OpKind::kInject, static_cast<int64_t>(i), 0, 0, 0});
  ASSERT_EQ(log.size(), n);
  EXPECT_EQ(&log[0], first) << "appending must never move a recorded op";
  EXPECT_EQ(log.back().instance, static_cast<int64_t>(n - 1));
  size_t i = 0;
  for (Op& op : log) {
    if (i > 0) EXPECT_EQ(op.instance, static_cast<int64_t>(i)) << "op " << i;
    op.a = static_cast<int64_t>(i);
    ++i;
  }
  EXPECT_EQ(i, n);
  EXPECT_EQ(log[OpLog::kBlockOps].a, static_cast<int64_t>(OpLog::kBlockOps));

  // A journal whose op stream spans blocks survives the binary framing.
  Journal j;
  for (size_t k = 0; k < OpLog::kBlockOps + 5; ++k)
    j.recordInject(static_cast<int64_t>(k % 7), 2, static_cast<int64_t>(k));
  Journal parsed;
  std::string error;
  ASSERT_TRUE(Journal::parseBinary(j.dumpBinary(), &parsed, &error)) << error;
  expectJournalsEqual(j, parsed);
}

TEST(Journal, ReadFileSniffsBinaryAgainstJson) {
  const Journal original = makeSampleJournal();
  for (const bool binary : {false, true}) {
    const std::string path =
        std::string("JOURNAL_roundtrip_tmp") + (binary ? ".bin" : ".json");
    std::string error;
    ASSERT_TRUE(original.writeFile(path, binary, &error)) << error;
    Journal parsed;
    ASSERT_TRUE(Journal::readFile(path, &parsed, &error)) << error;
    expectJournalsEqual(original, parsed);
    std::remove(path.c_str());
  }
}

TEST(Journal, TruncatedOrGarbageBinaryIsRejected) {
  const Journal original = makeSampleJournal();
  const std::string bytes = original.dumpBinary();
  Journal parsed;
  std::string error;
  for (const size_t cut : {size_t{0}, size_t{4}, bytes.size() / 2,
                           bytes.size() - 1}) {
    error.clear();
    EXPECT_FALSE(Journal::parseBinary(bytes.substr(0, cut), &parsed, &error))
        << "accepted a journal truncated to " << cut << " bytes";
    EXPECT_FALSE(error.empty());
  }
  // A corrupted op count must not drive a huge reserve or an OOB read.
  std::string mangled = bytes;
  mangled[12] = '\xff';
  mangled[13] = '\xff';
  mangled[14] = '\xff';
  mangled[15] = '\xff';
  EXPECT_FALSE(Journal::parseBinary(mangled, &parsed, &error));
}

TEST(Journal, CrDigestSeesEveryBitAndTheWidth) {
  BitVec a(130);
  a.set(0);
  a.set(129);
  BitVec b(130);
  b.set(0);
  b.set(129);
  EXPECT_EQ(crDigest(a), crDigest(b));
  b.set(64);
  EXPECT_NE(crDigest(a), crDigest(b));
  // Same words, different declared width: distinct digests.
  EXPECT_NE(crDigest(BitVec(64)), crDigest(BitVec(65)));
  // The fleet fold is order- and id-sensitive.
  const uint64_t d1 = foldInstanceDigest(
      foldInstanceDigest(kFleetDigestSeed, 0, crDigest(a)), 1, crDigest(b));
  const uint64_t d2 = foldInstanceDigest(
      foldInstanceDigest(kFleetDigestSeed, 1, crDigest(b)), 0, crDigest(a));
  EXPECT_NE(d1, d2);
}

TEST(Journal, ImageContentHashIsStableAcrossRebuilds) {
  const auto a = workloads::makeSmdFleetImage();
  const auto b = workloads::makeSmdFleetImage();
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(imageContentHash(*a), imageContentHash(*b));
  EXPECT_NE(imageContentHash(*a), 0u);
}

// ----------------------------------------------------- fleet integration

TEST(Journal, FleetRecordsDeliveryOrderWithMonotonicSpans) {
  const auto image = workloads::makeSmdFleetImage();
  fleet::FleetConfig config;
  config.journal = true;
  config.journalConfig.checkpointInterval = 4;
  fleet::Fleet fleet(image, config);

  const workloads::SmdPulseIds ids = workloads::resolveSmdPulseIds(fleet);
  ASSERT_TRUE(workloads::warmUpSmdFleet(fleet, 8, ids));
  for (int e = 0; e < 9; ++e) {
    fleet.step(2);
    workloads::injectSmdPulses(fleet, ids);
  }

  const Journal* j = fleet.journal();
  ASSERT_NE(j, nullptr);
  EXPECT_EQ(j->chartName(), image->chart().name());
  EXPECT_EQ(j->imageHash(), imageContentHash(*image));

  // Epoch-0 checkpoint of the post-setup state is always present.
  ASSERT_GE(j->checkpointCount(), 1u);
  EXPECT_EQ(j->checkpoint(0).epoch, 0);
  EXPECT_EQ(j->checkpoint(0).instanceCount, 8u);

  // Span ids strictly increase in op order; injects of one epoch are
  // grouped by ascending instance (delivery order).
  uint64_t lastSpan = 0;
  int64_t lastInstance = -1;
  int64_t lastEpoch = -1;
  size_t injects = 0;
  for (const Op& op : j->ops()) {
    if (op.kind != OpKind::kInject) continue;
    ++injects;
    EXPECT_GT(static_cast<uint64_t>(op.c), lastSpan);
    lastSpan = static_cast<uint64_t>(op.c);
    if (op.b == lastEpoch)
      EXPECT_GE(op.instance, lastInstance)
          << "injects within an epoch must be in ascending instance order";
    else
      EXPECT_GT(op.b, lastEpoch) << "arrival epochs must not go backwards";
    lastEpoch = op.b;
    lastInstance = op.instance;
  }
  EXPECT_EQ(injects, static_cast<size_t>(j->spanCount()));
  EXPECT_GT(injects, 0u);

  // Checkpoint ops carry the right epochs: 0, then every interval-th.
  std::vector<int64_t> checkpointEpochs;
  for (const Op& op : j->ops())
    if (op.kind == OpKind::kCheckpoint) checkpointEpochs.push_back(op.a);
  ASSERT_GE(checkpointEpochs.size(), 3u);
  EXPECT_EQ(checkpointEpochs[0], 0);
  EXPECT_EQ(checkpointEpochs[1], 4);
  EXPECT_EQ(checkpointEpochs[2], 8);
}

TEST(Journal, DisarmedFleetRecordsNothing) {
  const auto image = workloads::makeSmdFleetImage();
  fleet::Fleet fleet(image, {});
  EXPECT_EQ(fleet.journal(), nullptr);
  std::string error;
  EXPECT_FALSE(fleet.writeJournal("JOURNAL_should_not_exist.json", false, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace pscp::obs::journal
