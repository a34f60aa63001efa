// Always-on flight recorder (DESIGN.md §11): a fixed-size lock-free ring of
// recent daemon events per worker — drops, decode rejects, table publishes,
// reloads, signals — kept regardless of trace sampling, so an hours-long
// soak that dies still leaves its last few thousand events behind. Dumped
// on SIGQUIT / fatal signal and via the /debug/flight admin endpoint.
//
// Concurrency model (the memory-ordering argument, also in DESIGN.md §11.3):
// each FlightRing has exactly ONE writer thread (the owning datapath shard,
// or a control-plane thread) and any number of concurrent readers. A push
// of event i stores the slot's fields with release, then publishes by
// storing the monotonically increasing event count `n_` = i+1 with release.
// A reader loads `n_` with acquire (so every slot at index < n_ has its
// fields visible) and walks the window [max(0, n-capacity), n). Both
// readers copy an event through one private read(): acquire loads of the
// slot's fields, then a re-load of `n_` as n', and the event is discarded
// as potentially torn when its index j <= n' - capacity. Why that catches
// every lap: a push of event j + capacity into index j's slot comes after
// the writer's store `n_` = j + capacity, so a copied field holding that
// push's value synchronizes with its release store, and the re-read (which
// the acquire keeps after the copy) returns n' >= j + capacity. The writer
// can also be mid-push of event n' itself (some fields stored, count not
// yet published), and that push reuses the slot of event n' - capacity,
// hence the inclusive bound. A read of a full ring therefore yields at
// most capacity-1 events, trading one slot for tear-freedom. On x86 the
// release stores and acquire loads are plain moves, so this ordering costs
// nothing.
// The writer never waits, never locks, never allocates — a push is a
// handful of stores, O(ns) regardless of ring occupancy — and a reader
// returns only fully published, untorn events. read() does not allocate,
// so dumpTo(fd), which formats into stack buffers and calls only write(2),
// is safe from a signal handler.
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
  // the writer overtook (or may be overwriting) mid-copy, and every older
  // event with them, so the copy is one run of consecutive events — at most
  // kCapacity-1 from a full ring. Allocates — not for signal handlers.
  std::vector<FlightEvent> snapshot() const;

  // Any thread, async-signal-safe: one "flight <worker> <ns> <kind> <a> <b>"
  // line per untorn event to `fd` using only write(2) and stack formatting.
  void dumpTo(int fd) const;

 private:
  // First index of the window a reader walks when `n` events were pushed.
  static std::uint64_t windowStart(std::uint64_t n);

  // Copies event i into `e`; false when the writer has lapped index i, or
  // may be lapping it, so the copy may be torn. The one read path of
  // snapshot() and dumpTo(); allocation-free.
  bool read(std::uint64_t i, FlightEvent& e) const;

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
