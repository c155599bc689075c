#include "core/fault.h"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdint>
#include <set>
#include <utility>

#include "common/env.h"
#include "common/rng.h"

namespace jarvis::core {

namespace {

constexpr std::string_view kKindNames[] = {"crash", "straggle", "drop",
                                           "dup",   "flip",     "stall"};

uint64_t FlipKey(size_t source, uint32_t seq) {
  return (static_cast<uint64_t>(source) << 32) | seq;
}

}  // namespace

Result<PlanSpec> ParsePlanSpec(std::string_view spec,
                               std::span<const std::string_view> kinds,
                               std::string_view what, bool with_factor) {
  PlanSpec plan;
  std::string_view tok;  // the token being parsed, quoted by every error
  const auto bad = [&](const std::string& why) {
    return Status::InvalidArgument(std::string(what) + " spec: " + why +
                                   " in '" + std::string(tok) + "'");
  };
  // A decimal number of at most `max`: digits only, no sign, no space.
  const auto number = [&](std::string_view s,
                          uint64_t max) -> Result<uint64_t> {
    uint64_t v = 0;
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc() || ptr != s.data() + s.size() || v > max) {
      return bad("bad number '" + std::string(s) + "'");
    }
    return v;
  };
  while (!spec.empty()) {
    const size_t semi = spec.find(';');
    tok = spec.substr(0, semi);
    spec = semi == std::string_view::npos ? "" : spec.substr(semi + 1);
    if (tok.empty()) continue;
    if (tok.starts_with("seed=")) {
      JARVIS_ASSIGN_OR_RETURN(plan.seed, number(tok.substr(5), UINT64_MAX));
      continue;
    }
    // kind@epoch:source[#index][xcount][*factor]
    const size_t at = tok.find('@');
    const size_t colon = tok.find(':', at);
    if (colon == std::string_view::npos) {
      return bad("event is not kind@epoch:source");
    }
    PlanEvent ev;
    ev.kind = static_cast<size_t>(
        std::find(kinds.begin(), kinds.end(), tok.substr(0, at)) -
        kinds.begin());
    if (ev.kind == kinds.size()) return bad("unknown kind");
    JARVIS_ASSIGN_OR_RETURN(
        const uint64_t epoch,
        number(tok.substr(at + 1, colon - at - 1), INT64_MAX));
    ev.epoch = static_cast<int64_t>(epoch);
    // The optional slots, cut from the outside in; an absent one reads as
    // its default.
    std::string_view rest = tok.substr(colon + 1);
    std::string_view index = "0", count = "1", factor;
    for (const auto& [mark, part] :
         {std::pair{'*', &factor}, std::pair{'x', &count},
          std::pair{'#', &index}}) {
      const size_t cut = rest.find(mark);
      if (cut == std::string_view::npos) continue;
      *part = rest.substr(cut + 1);
      rest = rest.substr(0, cut);
      if (part->empty()) return bad(std::string("'") + mark + "' but no value");
    }
    JARVIS_ASSIGN_OR_RETURN(ev.source, number(rest, SIZE_MAX));
    JARVIS_ASSIGN_OR_RETURN(ev.index, number(index, SIZE_MAX));
    JARVIS_ASSIGN_OR_RETURN(const uint64_t n, number(count, INT_MAX));
    if (n == 0) return bad("count must be positive");
    ev.count = static_cast<int>(n);
    // Every query tests epoch < ev.epoch + ev.count.
    if (ev.epoch > INT64_MAX - ev.count) {
      return bad("event ends past the last epoch");
    }
    if (!factor.empty()) {
      if (!with_factor) return bad("no '*factor' allowed");
      JARVIS_ASSIGN_OR_RETURN(ev.factor, number(factor, UINT64_MAX));
      if (ev.factor == 0) return bad("factor must be positive");
    }
    plan.events.push_back(ev);
  }
  return plan;
}

std::string FormatPlanSpec(const PlanSpec& plan,
                           std::span<const std::string_view> kinds) {
  std::string out = "seed=" + std::to_string(plan.seed);
  for (const PlanEvent& ev : plan.events) {
    out += ';';
    out += kinds[ev.kind];
    out += '@' + std::to_string(ev.epoch) + ':' + std::to_string(ev.source);
    if (ev.index != 0) out += '#' + std::to_string(ev.index);
    if (ev.count != 1) out += 'x' + std::to_string(ev.count);
    if (ev.factor != 0) out += '*' + std::to_string(ev.factor);
  }
  return out;
}

std::string_view FaultKindToString(FaultKind k) {
  return kKindNames[static_cast<size_t>(k)];
}

Result<FaultPlan> FaultPlan::Parse(std::string_view spec) {
  JARVIS_ASSIGN_OR_RETURN(
      PlanSpec parsed,
      ParsePlanSpec(spec, kKindNames, "fault", /*with_factor=*/false));
  FaultPlan plan;
  plan.seed = parsed.seed;
  for (const PlanEvent& ev : parsed.events) {
    plan.events.push_back({static_cast<FaultKind>(ev.kind), ev.source,
                           ev.epoch, ev.index, ev.count});
  }
  return plan;
}

std::string FaultPlan::ToString() const {
  PlanSpec spec;
  spec.seed = seed;
  for (const FaultEvent& ev : events) {
    spec.events.push_back({static_cast<size_t>(ev.kind), ev.source, ev.epoch,
                           ev.chunk, ev.count, 0});
  }
  return FormatPlanSpec(spec, kKindNames);
}

Result<std::unique_ptr<FaultInjector>> FaultInjector::FromEnv() {
  std::optional<std::string> spec = env::Raw("JARVIS_FAULTS");
  if (!spec) return std::unique_ptr<FaultInjector>();
  Result<FaultPlan> plan = FaultPlan::Parse(*spec);
  if (!plan.ok()) {
    return Status::InvalidArgument("JARVIS_FAULTS: " +
                                   plan.status().message());
  }
  return std::make_unique<FaultInjector>(*std::move(plan));
}

bool FaultInjector::ShouldCrash(size_t source, int64_t epoch) const {
  for (const FaultEvent& ev : plan_.events) {
    if (ev.kind == FaultKind::kCrash && ev.source == source &&
        ev.epoch == epoch) {
      return true;
    }
  }
  return false;
}

int FaultInjector::StraggleEpochs(size_t source, int64_t epoch) const {
  for (const FaultEvent& ev : plan_.events) {
    if (ev.kind == FaultKind::kStraggle && ev.source == source &&
        ev.epoch == epoch) {
      return ev.count;
    }
  }
  return 0;
}

bool FaultInjector::ShouldStall(size_t source, int64_t epoch) const {
  for (const FaultEvent& ev : plan_.events) {
    if (ev.kind == FaultKind::kStall && ev.source == source &&
        ev.epoch == epoch) {
      return true;
    }
  }
  return false;
}

void FaultInjector::FlipBit(size_t source, uint32_t seq, uint64_t attempt,
                            WireFrame* frame) const {
  if (frame->bytes.empty()) return;
  // The flipped bit is a pure function of (seed, source, seq, attempt):
  // replaying the plan flips the same bit, and retransmission attempts each
  // corrupt a (usually) different position.
  uint64_t h = SplitMix64(plan_.seed ^ SplitMix64(
      (static_cast<uint64_t>(source) << 40) ^ (static_cast<uint64_t>(seq) << 8)
      ^ attempt));
  const uint64_t bit = h % (frame->bytes.size() * 8);
  frame->bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
}

void FaultInjector::TamperTransmission(size_t source, int64_t epoch,
                                       WireDrain* wire) {
  std::set<size_t> drops, dups;
  std::vector<const FaultEvent*> flips;
  for (const FaultEvent& ev : plan_.events) {
    if (ev.source != source || ev.epoch != epoch) continue;
    switch (ev.kind) {
      case FaultKind::kDrop:
        drops.insert(ev.chunk);
        break;
      case FaultKind::kDup:
        dups.insert(ev.chunk);
        break;
      case FaultKind::kFlip:
        flips.push_back(&ev);
        break;
      default:
        break;
    }
  }
  if (drops.empty() && dups.empty() && flips.empty()) return;

  std::lock_guard<std::mutex> lk(mu_);
  // Flips first, addressed by the frame's original index; any remaining
  // budget registers against the frame's seq so retransmits get hit too.
  for (const FaultEvent* ev : flips) {
    if (ev->chunk >= wire->frames.size()) continue;
    WireFrame& f = wire->frames[ev->chunk];
    FlipBit(source, f.seq, /*attempt=*/0, &f);
    if (ev->count > 1) flip_budget_[FlipKey(source, f.seq)] = ev->count - 1;
  }
  // Then rebuild the in-flight sequence honoring drops and dups. A dropped
  // frame loses its duplicates too (nothing of it ever arrives).
  if (!drops.empty() || !dups.empty()) {
    std::vector<WireFrame> rebuilt;
    rebuilt.reserve(wire->frames.size() + dups.size());
    for (size_t i = 0; i < wire->frames.size(); ++i) {
      if (drops.count(i)) continue;
      rebuilt.push_back(std::move(wire->frames[i]));
      if (dups.count(i)) rebuilt.push_back(rebuilt.back());
    }
    wire->frames = std::move(rebuilt);
  }
}

void FaultInjector::TamperRetransmit(size_t source, uint32_t seq,
                                     WireFrame* frame) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = flip_budget_.find(FlipKey(source, seq));
  if (it == flip_budget_.end() || it->second <= 0) return;
  FlipBit(source, seq, /*attempt=*/static_cast<uint64_t>(it->second), frame);
  --it->second;
}

}  // namespace jarvis::core
