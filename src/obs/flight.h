// Always-on flight recorder (DESIGN.md §11): a fixed-size lock-free ring of
// recent daemon events per worker — drops, decode rejects, table publishes,
// reloads, signals — kept regardless of trace sampling, so an hours-long
// soak that dies still leaves its last few thousand events behind. Dumped
// on SIGQUIT / fatal signal and via the /debug/flight admin endpoint.
//
// Concurrency model (the memory-ordering argument, also in DESIGN.md §11):
// each FlightRing has exactly ONE writer thread (the owning datapath shard,
// or a control-plane thread) and any number of concurrent readers. A push
// writes the slot's fields with relaxed atomic stores, then publishes by
// storing the monotonically increasing event count `n_` with release. A
// reader loads `n_` with acquire (so every slot at index < n_ has its
// fields visible), copies the window [max(0, n-capacity), n) with relaxed
// loads, then re-loads `n_` as n': any copied index the writer may have
// touched in the meantime is discarded as potentially torn — that is every
// index <= n' - capacity, because the writer can be mid-push of event n'
// (slot fields stored, count not yet published) and that push reuses the
// slot of event n' - capacity. A snapshot of a full ring therefore yields
// at most capacity-1 events, trading one slot for tear-freedom.
// The writer never waits, never locks, never allocates — a push is a
// handful of relaxed stores plus one release store, O(ns) regardless of
// ring occupancy — and a reader returns only fully published, untorn
// events. Readers are also safe from a signal handler: dumpTo(fd) formats
// into stack buffers and calls only write(2).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace cluert::obs {

// What happened. `a`/`b` carry per-kind detail (counts, sequence numbers,
// signal numbers, DecodeError codes) — the dump prints them raw.
enum class FlightKind : std::uint8_t {
  kNone = 0,
  kRxBatch,       // a = datagrams received in the batch
  kDecodeReject,  // a = netio::DecodeError code
  kNoRoute,       // a = packets dropped with no BMP this batch
  kTtlExpired,    // a = packets dropped on TTL this batch
  kSendError,     // a = datagrams the kernel refused this batch
  kTraceStart,    // a = trace id_hi, b = trace id_lo (ingress sample)
  kPublish,       // a = table version seq going live
  kReload,        // a = live seq after the reload (0 = reload failed)
  kSignal,        // a = signal number
  kDrain,         // shutdown drain began on this shard
  kShutdown,      // daemon shutdown sequencing began
};

inline constexpr std::size_t kFlightKindCount = 12;

std::string_view flightKindName(FlightKind k);

struct FlightEvent {
  std::uint64_t ns = 0;  // steadyNs(), the timebase of every span
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  FlightKind kind = FlightKind::kNone;
  std::uint8_t worker = 0;
};

class FlightRing {
 public:
  // Power of two; at 32 B/slot one ring is 32 KiB — small enough to keep
  // one per worker always-on, deep enough that a crash dump still shows
  // seconds of context at any sane drop rate.
  static constexpr std::size_t kCapacity = 1024;

  FlightRing() = default;
  FlightRing(const FlightRing&) = delete;
  FlightRing& operator=(const FlightRing&) = delete;

  // Control-plane, before the writer thread starts.
  void setWorker(std::uint8_t worker) { worker_ = worker; }
  std::uint8_t worker() const { return worker_; }

  // Writer thread only. Timestamps with the steady clock.
  void push(FlightKind kind, std::uint64_t a = 0, std::uint64_t b = 0);
  // Writer thread only; explicit timestamp (tests, replay).
  void pushAt(std::uint64_t ns, FlightKind kind, std::uint64_t a = 0,
              std::uint64_t b = 0);

  // Total events ever pushed (monotonic; the ring holds the last kCapacity).
  std::uint64_t count() const { return n_.load(std::memory_order_acquire); }

  // Any thread: oldest-first copy of the current window, discarding slots
  // the writer overtook (or may be overwriting) mid-copy — at most
  // kCapacity-1 events from a full ring. Allocates — not for signal
  // handlers.
  std::vector<FlightEvent> snapshot() const;

  // Any thread, async-signal-safe: one "flight <worker> <ns> <kind> <a> <b>"
  // line per event to `fd` using only write(2) and stack formatting.
  void dumpTo(int fd) const;

 private:
  struct Slot {
    std::atomic<std::uint64_t> ns{0};
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
    // kind | worker << 8, packed so the slot stays four atomics wide.
    std::atomic<std::uint16_t> meta{0};
  };

  std::array<Slot, kCapacity> slots_;
  std::atomic<std::uint64_t> n_{0};
  std::uint8_t worker_ = 0;
};

// The daemon-wide recorder: one ring per datapath shard plus control-plane
// rings (admin/signal thread, route updater). Rings are independent; the
// recorder only owns them and renders dumps.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t rings);

  std::size_t ringCount() const { return rings_.size(); }
  FlightRing& ring(std::size_t i) { return *rings_[i]; }
  const FlightRing& ring(std::size_t i) const { return *rings_[i]; }

  // {"rings":[{"worker":w,"events":[...]}, ...]} — the /debug/flight and
  // SIGQUIT dump body. `name` labels the emitting daemon.
  std::string toJson(std::string_view name) const;

  // Async-signal-safe: every ring's dumpTo(fd), bracketed by marker lines.
  void dumpTo(int fd) const;

  // Registers `r` as the process-wide recorder the fatal-signal handler
  // dumps (cluertd_main installs the handler). Null unregisters.
  static void installGlobal(FlightRecorder* r);
  static FlightRecorder* global();

 private:
  // unique_ptr per ring: FlightRing holds atomics and cannot move, and the
  // ring addresses must stay stable once writer threads hold them.
  std::vector<std::unique_ptr<FlightRing>> rings_;
};

}  // namespace cluert::obs
