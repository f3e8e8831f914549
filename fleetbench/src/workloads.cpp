#include "workloads.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "actionlang/parser.hpp"
#include "statechart/parser.hpp"
#include "workloads/smd_fleet.hpp"

namespace fleetbench {
namespace {

using pscp::machine::ChartImage;
using pscp::machine::PscpMachine;

/// SplitMix64 finalizer; every random choice of a script is keyed by it.
uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t hashKey(uint64_t seed, uint64_t a, uint64_t b) {
  return mix64(mix64(seed ^ mix64(a)) ^ b);
}

int portAddress(const ChartImage& image, const std::string& name) {
  return image.chart().ports().at(name).address;
}

// ------------------------------------------------------------------- SMD

/// X/Y pulse pairs on the SMD pickup head. An instance is pulsed in an
/// epoch when its (seed, index, epoch) key falls in 1/oneIn of the range.
class SmdScripts final : public Scripts {
 public:
  SmdScripts(uint64_t seed, std::vector<size_t> indices, uint64_t oneIn, int xBit,
             int yBit)
      : seed_(seed),
        indices_(std::move(indices)),
        oneIn_(oneIn),
        xBit_(xBit),
        yBit_(yBit),
        epoch_(indices_.size(), 0),
        pairs_(indices_.size(), 0) {}

  void next(size_t slot, Stimulus& out) override {
    const uint64_t epoch = epoch_[slot]++;
    out.port = -1;
    out.eventCount = 0;
    if (oneIn_ > 1 && hashKey(seed_, indices_[slot], epoch) % oneIn_ != 0) return;
    out.eventCount = 2;
    out.events = {xBit_, yBit_};
    ++pairs_[slot];
  }

  std::string check(size_t slot, const PscpMachine& machine,
                    const SimCounts& counts, int64_t dropped) const override {
    const int64_t pairs = pairs_[slot];
    if (dropped != 0) return "dropped injections";
    if (counts.eventsDelivered != 2 * pairs) return "delivered != 2 x pulse pairs";
    if (counts.fired != 2 * pairs) return "fired != 2 x pulse pairs";
    if (!machine.isActive("RunX") || !machine.isActive("RunY") ||
        !machine.isActive("RunPhi"))
      return "left RunX/RunY/RunPhi";
    return {};
  }

 private:
  uint64_t seed_;
  std::vector<size_t> indices_;
  uint64_t oneIn_;
  int xBit_;
  int yBit_;
  std::vector<uint64_t> epoch_;
  std::vector<int64_t> pairs_;
};

class SmdWorkload final : public Workload {
 public:
  SmdWorkload(std::string name, uint64_t seed, size_t instances, int cyclesPerEpoch,
              uint64_t pulseOneIn)
      : Workload(std::move(name), instances, cyclesPerEpoch, false),
        seed_(seed),
        pulseOneIn_(pulseOneIn) {}

  std::shared_ptr<const ChartImage> compile() const override {
    return pscp::workloads::makeSmdFleetImage();
  }

  void bind(const ChartImage& image) override {
    power_ = {image.layout().eventBit("POWER")};
    data_ = {image.layout().eventBit("DATA_VALID")};
    xBit_ = image.layout().eventBit("X_PULSE");
    yBit_ = image.layout().eventBit("Y_PULSE");
    buffer_ = portAddress(image, "Buffer");
    pulse_ = {xBit_, yBit_};
  }

  // The warmUpSmdInstance recipe (Off -> Idle1 -> ... -> RunX/RunY/RunPhi)
  // with a seeded command: opcode, then nonzero X, Y and Phi bytes, so
  // every axis has a move pending and each instance its own profile. A
  // last cycle delivers one X/Y pulse pair: an instance's first pulse
  // costs several times a later one, and without it smd_sparse's first
  // ~100 timed epochs (until most instances have been pulsed once) run
  // markedly slower than the rest.
  void warmSteps(size_t index, std::vector<WarmStep>& out) const override {
    const uint64_t key = hashKey(seed_, index, ~uint64_t{0});
    auto axisByte = [&](int shift) {
      return static_cast<uint32_t>(1 + ((key >> shift) & 0xFFFF) % 255);
    };
    out.clear();
    out.push_back({-1, 0, &power_});
    out.push_back({buffer_, static_cast<uint32_t>(key & 0xFF), &data_});
    out.push_back({buffer_, axisByte(8), &data_});
    out.push_back({buffer_, axisByte(24), &data_});
    out.push_back({buffer_, axisByte(40), &data_});
    for (int i = 0; i < 4; ++i) out.push_back({-1, 0, &none_});
    out.push_back({-1, 0, &pulse_});
  }

  std::unique_ptr<Scripts> scripts(const std::vector<size_t>& indices) const override {
    return std::make_unique<SmdScripts>(seed_, indices, pulseOneIn_, xBit_, yBit_);
  }

 private:
  uint64_t seed_;
  uint64_t pulseOneIn_;
  std::vector<int> power_;
  std::vector<int> data_;
  std::vector<int> none_;
  std::vector<int> pulse_;
  int xBit_ = -1;
  int yBit_ = -1;
  int buffer_ = -1;
};

// ------------------------------------------------------------ protocol

/// One instance's seeded byte stream of frames: SOF, a length 0..40, the
/// payload (the chart clamps lengths above 32, so 32 bytes follow those),
/// and a checksum byte that is wrong about one time in eight. It mirrors
/// TakeByte/TakeChecksum to predict goodFrames/badFrames.
class FrameStream {
 public:
  explicit FrameStream(uint64_t key) : rng_(key) {}

  uint32_t nextByte() {
    if (pos_ == len_) startFrame();
    const uint8_t b = frame_[pos_++];
    ++bytes_;
    if (pos_ == len_) ++(frameGood_ ? good_ : bad_);
    return b;
  }

  [[nodiscard]] int64_t bytes() const { return bytes_; }
  [[nodiscard]] int64_t good() const { return good_; }
  [[nodiscard]] int64_t bad() const { return bad_; }

 private:
  uint64_t draw() { return mix64(rng_++); }

  void startFrame() {
    const int length = static_cast<int>(draw() % 41);
    const int payload = length > 32 ? 32 : length;
    len_ = 0;
    frame_[len_++] = 0x7E;
    frame_[len_++] = static_cast<uint8_t>(length);
    uint16_t checksum = 0;
    for (int i = 0; i < payload; ++i) {
      const uint8_t b = static_cast<uint8_t>(draw());
      checksum = static_cast<uint16_t>(((checksum + b) << 1) ^ b);
      frame_[len_++] = b;
    }
    const uint64_t r = draw();
    frameGood_ = r % 8 != 0;
    const uint8_t expect = static_cast<uint8_t>(checksum & 255);
    frame_[len_++] = frameGood_
                         ? expect
                         : static_cast<uint8_t>(expect ^ (1 + (r >> 8) % 255));
    pos_ = 0;
  }

  uint64_t rng_;
  std::array<uint8_t, 35> frame_{};
  int len_ = 0;
  int pos_ = 0;
  bool frameGood_ = true;
  int64_t bytes_ = 0;
  int64_t good_ = 0;
  int64_t bad_ = 0;
};

class ProtoScripts final : public Scripts {
 public:
  ProtoScripts(uint64_t seed, const std::vector<size_t>& indices, int rxPort,
               int byteBit)
      : rxPort_(rxPort), byteBit_(byteBit) {
    streams_.reserve(indices.size());
    for (size_t index : indices) streams_.emplace_back(hashKey(seed, index, 0x5052));
  }

  void next(size_t slot, Stimulus& out) override {
    out.port = rxPort_;
    out.value = streams_[slot].nextByte();
    out.eventCount = 1;
    out.events[0] = byteBit_;
  }

  // Each byte fires exactly one transition (SeeSof, TakeLength, TakeByte
  // or TakeChecksum) and each finished frame one more (Accept/Reject).
  std::string check(size_t slot, const PscpMachine& machine,
                    const SimCounts& counts, int64_t dropped) const override {
    const FrameStream& s = streams_[slot];
    if (dropped != 0) return "dropped injections";
    if (counts.eventsDelivered != s.bytes()) return "delivered != bytes sent";
    if (counts.fired != s.bytes() + s.good() + s.bad())
      return "fired != bytes + frames";
    if (machine.globalValue("goodFrames") != (s.good() & 0xFFFF))
      return "goodFrames mismatch";
    if (machine.globalValue("badFrames") != (s.bad() & 0xFFFF))
      return "badFrames mismatch";
    return {};
  }

 private:
  int rxPort_;
  int byteBit_;
  std::vector<FrameStream> streams_;
};

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

class ProtoWorkload final : public Workload {
 public:
  ProtoWorkload(uint64_t seed, const std::string& chartDir)
      : Workload("proto_stream", 10000, 2, true),
        seed_(seed),
        chartText_(readFile(chartDir + "/protocol_burst.chart")),
        actionText_(readFile(chartDir + "/protocol_burst.act")) {}

  std::shared_ptr<const ChartImage> compile() const override {
    // ChartImage references the parsed chart and program; bundle them and
    // hand out an aliasing pointer (as workloads::makeSmdFleetImage does).
    struct Bundle {
      pscp::statechart::Chart chart;
      pscp::actionlang::Program actions;
      std::unique_ptr<const ChartImage> image;
    };
    auto bundle = std::make_shared<Bundle>(
        Bundle{pscp::statechart::parseChart(chartText_, "protocol_burst.chart"),
               pscp::actionlang::parseActionSource(actionText_, "protocol_burst.act"),
               nullptr});
    bundle->image = std::make_unique<const ChartImage>(bundle->chart, bundle->actions,
                                                       pscp::hwlib::ArchConfig{});
    return {bundle, bundle->image.get()};
  }

  void bind(const ChartImage& image) override {
    byteBit_ = image.layout().eventBit("BYTE");
    rxPort_ = portAddress(image, "Rx");
  }

  void warmSteps(size_t /*index*/, std::vector<WarmStep>& out) const override {
    out.clear();  // a fresh instance already waits in Hunt
  }

  std::unique_ptr<Scripts> scripts(const std::vector<size_t>& indices) const override {
    return std::make_unique<ProtoScripts>(seed_, indices, rxPort_, byteBit_);
  }

 private:
  uint64_t seed_;
  std::string chartText_;
  std::string actionText_;
  int byteBit_ = -1;
  int rxPort_ = -1;
};

}  // namespace

std::unique_ptr<Workload> makeWorkload(const std::string& name, uint64_t seed,
                                       const std::string& chartDir) {
  if (name == "smd_sparse")
    return std::make_unique<SmdWorkload>(name, seed, 20000, 16, 64);
  if (name == "smd_dense") return std::make_unique<SmdWorkload>(name, seed, 4000, 2, 1);
  if (name == "proto_stream") return std::make_unique<ProtoWorkload>(seed, chartDir);
  return nullptr;
}

}  // namespace fleetbench
