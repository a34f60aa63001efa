// Thin, checked wrappers over the Linux socket calls cluertd uses: RAII fd
// ownership, IPv4 endpoint parsing, non-blocking UDP/TCP setup, and batched
// datagram I/O — recvmmsg/sendmmsg, with UDP GSO on send and a UDP GRO
// receive for the datapath (DESIGN.md §9.2). Everything returns errors by
// value — the daemon decides what is fatal; this layer never aborts on a
// transient EAGAIN.
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "netio/wire.h"

namespace cluert::netio {

// Owning file descriptor. Move-only; closes on destruction.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(Fd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Fd& operator=(Fd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset();

 private:
  int fd_ = -1;
};

// An IPv4 endpoint. The daemon's data plane is IPv4 (matching the repo's
// Ip4Addr-instantiated pipeline); the *payload* wire format still carries
// either family.
struct SockAddr {
  std::uint32_t ip = 0;  // host byte order
  std::uint16_t port = 0;

  static std::optional<SockAddr> parse(std::string_view s);  // "a.b.c.d:port"
  std::string toString() const;
  sockaddr_in toSockaddrIn() const;
  static SockAddr fromSockaddrIn(const sockaddr_in& sin);

  bool operator==(const SockAddr&) const = default;
};

// One received datagram, copied out by recvBatch. Sized for the largest wire
// packet; anything bigger is truncated and will fail decode (kBadLength).
struct DatagramBuf {
  std::array<std::uint8_t, kMaxDatagram + 64> data;
  std::size_t len = 0;
};

bool setNonBlocking(int fd);

// Non-blocking UDP socket bound to `bind` (port 0 ⇒ kernel-assigned; read it
// back with localAddr). reuseport allows several datapath shards to bind the
// same endpoint and let the kernel spray flows across them.
Fd udpSocket(const SockAddr& bind, bool reuseport = false, int rcvbuf = 0);

// Non-blocking listening TCP socket (admin plane).
Fd tcpListen(const SockAddr& bind, int backlog = 16);

std::optional<SockAddr> localAddr(int fd);

// The copying receive, for sockets without UDP_GRO: up to `max` datagrams
// (at most 64) in one recvmmsg, one per DatagramBuf. Returns the count, 0 on
// EAGAIN, -1 on hard error. On a UDP_GRO socket one coalesced message holds
// many datagrams and would be truncated into a single DatagramBuf; use
// GroReceiver there.
int recvBatch(int fd, DatagramBuf* bufs, int max);

// Turns on UDP_GRO: the kernel may then hand this socket several same-sized
// datagrams from one sender as one message. Only a socket read through
// GroReceiver may have it. False when the kernel refuses.
bool enableGro(int fd);

// The datapath's receive, for a socket with UDP_GRO on. recv() makes one
// recvmmsg of up to `max_msgs` messages, each into its own 64 KiB slab
// (room for any UDP datagram or GRO aggregate), and reads each message's
// UDP_GRO segment size. next() then walks the datagrams in place, in arrival
// order: a coalesced message splits into segment-sized datagrams, the last
// of which may be shorter; a message without the control message is one
// datagram. The slabs are allocated once and never zero-filled, so a page
// becomes resident only when the kernel first writes to it; nothing is
// allocated per call.
class GroReceiver {
 public:
  static constexpr std::size_t kSlabBytes = std::size_t{64} << 10;

  explicit GroReceiver(std::size_t max_msgs);

  // One recvmmsg; restarts the walk. Returns the messages received, 0 on
  // EAGAIN, -1 on hard error.
  int recv(int fd);

  // The next ≤ max datagrams of the last recv() as views into the slabs
  // (valid until the next recv). 0 once every datagram was handed out.
  std::size_t next(std::span<const std::uint8_t>* out, std::size_t max);

 private:
  // Room for the one control message a UDP_GRO socket gets (int gso_size).
  struct Control {
    alignas(cmsghdr) std::uint8_t bytes[CMSG_SPACE(sizeof(int))];
  };

  std::unique_ptr<std::uint8_t[]> slabs_;
  std::vector<iovec> iovs_;
  std::vector<Control> control_;
  std::vector<mmsghdr> msgs_;
  std::vector<std::size_t> segment_;  // per message: datagram size
  std::size_t got_ = 0;               // messages of the last recv()
  std::size_t msg_ = 0, offset_ = 0;  // the walk's cursor
};

// One outgoing datagram (non-owning view; `data` must stay alive through
// sendBatch).
struct OutDatagram {
  const std::uint8_t* data = nullptr;
  std::size_t len = 0;
  SockAddr to;
};

// GSO caps per message: the datapath's batch size, and the most UDP payload
// one IPv4 datagram holds — the kernel builds a run as one such datagram
// before it splits it.
inline constexpr int kGsoMaxSegments = 64;
inline constexpr std::size_t kGsoMaxBytes = 65507;

// Whether this kernel understands UDP_SEGMENT, probed once per process. A
// kernel without GSO would silently ignore the control message and send a
// whole run as one datagram, so sendBatch sends plain messages then.
bool gsoSupported();

// Sends `n` datagrams, batched. Returns how many the kernel accepted: always
// a prefix of `out` (short counts happen under EAGAIN; callers account the
// rest as send_errors — UDP, so retrying is a policy choice, not a
// requirement).
//
// Where the kernel has UDP GSO, each run of consecutive datagrams to one
// destination whose lengths are equal (the last may be shorter) goes out as
// one message — one iovec per datagram plus a UDP_SEGMENT control message —
// capped at kGsoMaxSegments datagrams and kGsoMaxBytes bytes; one sendmmsg
// carries many such messages. A run the kernel refuses (EINVAL, EIO,
// EMSGSIZE) is re-sent one datagram per message, so GSO never loses a
// datagram the plain path would have sent.
int sendBatch(int fd, const OutDatagram* out, int n);

// The same, adding the number of send syscalls it made to `syscalls`.
int sendBatch(int fd, const OutDatagram* out, int n, std::uint64_t& syscalls);

}  // namespace cluert::netio
