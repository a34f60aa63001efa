#include "obs/span.h"

#include "common/random.h"

namespace cluert::obs {

std::string_view outcomeName(Outcome o) {
  switch (o) {
    case Outcome::kNoClue:
      return "no_clue";
    case Outcome::kMiss:
      return "miss";
    case Outcome::kCase1:
      return "1";
    case Outcome::kCase2:
      return "2";
    case Outcome::kCase3:
      return "3";
  }
  return "unknown";
}

std::string_view spanVerdictName(SpanVerdict v) {
  switch (v) {
    case SpanVerdict::kForwarded:
      return "forwarded";
    case SpanVerdict::kDelivered:
      return "delivered";
    case SpanVerdict::kNoRoute:
      return "no_route";
    case SpanVerdict::kTtlExpired:
      return "ttl_expired";
    case SpanVerdict::kSendError:
      return "send_error";
  }
  return "unknown";
}

std::uint64_t SpanSampler::shardPhase(std::uint32_t every, std::uint64_t seed,
                                      std::uint64_t worker) {
  if (every == 0) return 0;
  Rng rng = Rng::forThread(seed, worker);
  return rng.uniform(0, every - 1);
}

SpanCollector::SpanCollector(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

void SpanCollector::record(const PacketSpan& s) {
  sync::MutexLock lock(mu_);
  ++recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(s);
    return;
  }
  ring_[head_] = s;
  head_ = (head_ + 1) % capacity_;
  full_ = true;
  ++dropped_;
}

std::vector<PacketSpan> SpanCollector::drain() {
  sync::MutexLock lock(mu_);
  std::vector<PacketSpan> out;
  out.reserve(ring_.size());
  if (full_) {
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(head_ + i) % ring_.size()]);
    }
  } else {
    out = ring_;
  }
  ring_.clear();
  head_ = 0;
  full_ = false;
  return out;
}

std::uint64_t SpanCollector::recorded() const {
  sync::MutexLock lock(mu_);
  return recorded_;
}

std::uint64_t SpanCollector::dropped() const {
  sync::MutexLock lock(mu_);
  return dropped_;
}

}  // namespace cluert::obs
