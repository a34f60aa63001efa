#include "obs/flight.h"

#include <unistd.h>

#include <sstream>

#include "common/clock.h"

namespace cluert::obs {

namespace {

std::uint16_t packMeta(FlightKind kind, std::uint8_t worker) {
  return static_cast<std::uint16_t>(static_cast<std::uint16_t>(kind) |
                                    (std::uint16_t{worker} << 8));
}

// Unsigned decimal into `buf`, returning the digit count. No allocation, no
// locale, no errno: usable from a signal handler.
std::size_t formatU64(std::uint64_t v, char* buf) {
  char tmp[20];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (std::size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  return n;
}

void writeAll(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w <= 0) return;  // a failed dump must not loop in a signal handler
    p += static_cast<std::size_t>(w);
    n -= static_cast<std::size_t>(w);
  }
}

// The global the fatal-signal handler reads; plain atomic pointer so the
// handler's load is async-signal-safe.
std::atomic<FlightRecorder*> g_recorder{nullptr};

}  // namespace

std::string_view flightKindName(FlightKind k) {
  switch (k) {
    case FlightKind::kNone:
      return "none";
    case FlightKind::kRxBatch:
      return "rx_batch";
    case FlightKind::kDecodeReject:
      return "decode_reject";
    case FlightKind::kNoRoute:
      return "no_route";
    case FlightKind::kTtlExpired:
      return "ttl_expired";
    case FlightKind::kSendError:
      return "send_error";
    case FlightKind::kTraceStart:
      return "trace_start";
    case FlightKind::kPublish:
      return "publish";
    case FlightKind::kReload:
      return "reload";
    case FlightKind::kSignal:
      return "signal";
    case FlightKind::kDrain:
      return "drain";
    case FlightKind::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

void FlightRing::push(FlightKind kind, std::uint64_t a, std::uint64_t b) {
  pushAt(steadyNs(), kind, a, b);
}

void FlightRing::pushAt(std::uint64_t ns, FlightKind kind, std::uint64_t a,
                        std::uint64_t b) {
  const std::uint64_t i = n_.load(std::memory_order_relaxed);
  Slot& s = slots_[i & (kCapacity - 1)];
  // Release slot stores: a reader whose acquire load returns one of them
  // also sees this thread's earlier n_ = i, so its re-read of n_ discards
  // the index this push laps (i - kCapacity).
  s.ns.store(ns, std::memory_order_release);
  s.a.store(a, std::memory_order_release);
  s.b.store(b, std::memory_order_release);
  s.meta.store(packMeta(kind, worker_), std::memory_order_release);
  // Release-publish: a reader that acquires n_ >= i+1 sees this slot's
  // fields. (Single writer, so the relaxed read-modify of n_ above is the
  // only producer of i.)
  n_.store(i + 1, std::memory_order_release);
}

std::uint64_t FlightRing::windowStart(std::uint64_t n) {
  return n > kCapacity ? n - kCapacity : 0;
}

bool FlightRing::read(std::uint64_t i, FlightEvent& e) const {
  const Slot& s = slots_[i & (kCapacity - 1)];
  e.ns = s.ns.load(std::memory_order_acquire);
  e.a = s.a.load(std::memory_order_acquire);
  e.b = s.b.load(std::memory_order_acquire);
  const std::uint16_t meta = s.meta.load(std::memory_order_acquire);
  e.kind = static_cast<FlightKind>(meta & 0xff);
  e.worker = static_cast<std::uint8_t>(meta >> 8);
  // A copied field from a lapping push i + kCapacity synchronizes with its
  // release store, so this re-read returns at least i + kCapacity. The
  // writer may also be MID-push of event n (slot fields stored, count not
  // yet published), and that push reuses the slot of index n - kCapacity,
  // so index n - kCapacity itself must go too: only indices strictly above
  // it are provably untouched.
  return i + kCapacity > n_.load(std::memory_order_acquire);
}

std::vector<FlightEvent> FlightRing::snapshot() const {
  const std::uint64_t n0 = n_.load(std::memory_order_acquire);
  const std::uint64_t first = windowStart(n0);
  std::vector<FlightEvent> out;
  out.reserve(static_cast<std::size_t>(n0 - first));
  FlightEvent e;
  for (std::uint64_t i = first; i < n0; ++i) {
    // A lapped index drops the older events with it, so the snapshot stays
    // one run of consecutive events.
    if (read(i, e)) {
      out.push_back(e);
    } else {
      out.clear();
    }
  }
  return out;
}

void FlightRing::dumpTo(int fd) const {
  const std::uint64_t n0 = n_.load(std::memory_order_acquire);
  FlightEvent e;
  for (std::uint64_t i = windowStart(n0); i < n0; ++i) {
    if (!read(i, e)) continue;
    char line[128];
    std::size_t p = 0;
    const char prefix[] = "flight ";
    for (const char c : std::string_view(prefix)) line[p++] = c;
    p += formatU64(e.worker, line + p);
    line[p++] = ' ';
    p += formatU64(e.ns, line + p);
    line[p++] = ' ';
    const std::string_view name = flightKindName(e.kind);
    for (const char c : name) line[p++] = c;
    line[p++] = ' ';
    p += formatU64(e.a, line + p);
    line[p++] = ' ';
    p += formatU64(e.b, line + p);
    line[p++] = '\n';
    writeAll(fd, line, p);
  }
}

FlightRecorder::FlightRecorder(std::size_t rings) {
  rings_.reserve(rings);
  for (std::size_t i = 0; i < rings; ++i) {
    rings_.push_back(std::make_unique<FlightRing>());
    rings_.back()->setWorker(static_cast<std::uint8_t>(i));
  }
}

std::string FlightRecorder::toJson(std::string_view name) const {
  std::ostringstream out;
  out << "{\"router\":\"" << name << "\",\"rings\":[";
  for (std::size_t r = 0; r < rings_.size(); ++r) {
    if (r > 0) out << ",";
    const auto events = rings_[r]->snapshot();
    out << "{\"worker\":" << static_cast<unsigned>(rings_[r]->worker())
        << ",\"recorded\":" << rings_[r]->count() << ",\"events\":[";
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (i > 0) out << ",";
      const FlightEvent& e = events[i];
      out << "{\"ns\":" << e.ns << ",\"kind\":\"" << flightKindName(e.kind)
          << "\",\"a\":" << e.a << ",\"b\":" << e.b << "}";
    }
    out << "]}";
  }
  out << "]}\n";
  return out.str();
}

void FlightRecorder::dumpTo(int fd) const {
  const char head[] = "=== flight recorder dump ===\n";
  writeAll(fd, head, sizeof(head) - 1);
  for (const auto& ring : rings_) ring->dumpTo(fd);
  const char tail[] = "=== end flight recorder dump ===\n";
  writeAll(fd, tail, sizeof(tail) - 1);
}

void FlightRecorder::installGlobal(FlightRecorder* r) {
  g_recorder.store(r, std::memory_order_release);
}

FlightRecorder* FlightRecorder::global() {
  return g_recorder.load(std::memory_order_acquire);
}

}  // namespace cluert::obs
