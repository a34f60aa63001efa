#include "netio/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/udp.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>

namespace cluert::netio {

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::optional<SockAddr> SockAddr::parse(std::string_view s) {
  const auto colon = s.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 >= s.size()) {
    return std::nullopt;
  }
  const std::string host(s.substr(0, colon));
  in_addr ia{};
  if (::inet_pton(AF_INET, host.c_str(), &ia) != 1) return std::nullopt;
  const std::string_view port_sv = s.substr(colon + 1);
  std::uint32_t port = 0;
  const auto [ptr, ec] =
      std::from_chars(port_sv.data(), port_sv.data() + port_sv.size(), port);
  if (ec != std::errc{} || ptr != port_sv.data() + port_sv.size() ||
      port > 0xffff) {
    return std::nullopt;
  }
  SockAddr a;
  a.ip = ntohl(ia.s_addr);
  a.port = static_cast<std::uint16_t>(port);
  return a;
}

std::string SockAddr::toString() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u:%u", (ip >> 24) & 0xff,
                (ip >> 16) & 0xff, (ip >> 8) & 0xff, ip & 0xff, port);
  return buf;
}

sockaddr_in SockAddr::toSockaddrIn() const {
  sockaddr_in sin{};
  sin.sin_family = AF_INET;
  sin.sin_addr.s_addr = htonl(ip);
  sin.sin_port = htons(port);
  return sin;
}

SockAddr SockAddr::fromSockaddrIn(const sockaddr_in& sin) {
  SockAddr a;
  a.ip = ntohl(sin.sin_addr.s_addr);
  a.port = ntohs(sin.sin_port);
  return a;
}

bool setNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

Fd udpSocket(const SockAddr& bind, bool reuseport, int rcvbuf) {
  Fd fd(::socket(AF_INET, SOCK_DGRAM, 0));
  if (!fd.valid()) return {};
  if (reuseport) {
    const int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
  }
  if (rcvbuf > 0) {
    ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  const sockaddr_in sin = bind.toSockaddrIn();
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&sin),
             sizeof(sin)) != 0) {
    return {};
  }
  if (!setNonBlocking(fd.get())) return {};
  return fd;
}

Fd tcpListen(const SockAddr& bind, int backlog) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return {};
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const sockaddr_in sin = bind.toSockaddrIn();
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&sin),
             sizeof(sin)) != 0) {
    return {};
  }
  if (::listen(fd.get(), backlog) != 0) return {};
  if (!setNonBlocking(fd.get())) return {};
  return fd;
}

std::optional<SockAddr> localAddr(int fd) {
  sockaddr_in sin{};
  socklen_t len = sizeof(sin);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sin), &len) != 0 ||
      sin.sin_family != AF_INET) {
    return std::nullopt;
  }
  return SockAddr::fromSockaddrIn(sin);
}

int recvBatch(int fd, DatagramBuf* bufs, int max) {
  // One mmsghdr per slot; all fixed-size, so the arrays live on the stack.
  constexpr int kChunk = 64;
  if (max > kChunk) max = kChunk;
  mmsghdr msgs[kChunk];
  iovec iovs[kChunk];
  ::memset(msgs, 0, sizeof(mmsghdr) * static_cast<std::size_t>(max));
  for (int i = 0; i < max; ++i) {
    iovs[i].iov_base = bufs[i].data.data();
    iovs[i].iov_len = bufs[i].data.size();
    msgs[i].msg_hdr.msg_iov = &iovs[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
  }
  const int n = ::recvmmsg(fd, msgs, static_cast<unsigned>(max), 0, nullptr);
  if (n < 0) {
    return (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) ? 0
                                                                       : -1;
  }
  for (int i = 0; i < n; ++i) bufs[i].len = msgs[i].msg_len;
  return n;
}

bool enableGro(int fd) {
  const int one = 1;
  return ::setsockopt(fd, SOL_UDP, UDP_GRO, &one, sizeof(one)) == 0;
}

GroReceiver::GroReceiver(std::size_t max_msgs)
    : slabs_(std::make_unique_for_overwrite<std::uint8_t[]>(max_msgs *
                                                            kSlabBytes)),
      iovs_(max_msgs),
      control_(max_msgs),
      msgs_(max_msgs),
      segment_(max_msgs) {
  for (std::size_t i = 0; i < max_msgs; ++i) {
    iovs_[i].iov_base = slabs_.get() + i * kSlabBytes;
    iovs_[i].iov_len = kSlabBytes;
    msgs_[i].msg_hdr.msg_iov = &iovs_[i];
    msgs_[i].msg_hdr.msg_iovlen = 1;
    msgs_[i].msg_hdr.msg_control = control_[i].bytes;
  }
}

int GroReceiver::recv(int fd) {
  got_ = msg_ = offset_ = 0;
  // recvmmsg shrinks msg_controllen to what it wrote; give the room back.
  for (std::size_t i = 0; i < msgs_.size(); ++i) {
    msgs_[i].msg_hdr.msg_controllen = sizeof(control_[i].bytes);
  }
  const int n = ::recvmmsg(fd, msgs_.data(),
                           static_cast<unsigned>(msgs_.size()), 0, nullptr);
  if (n < 0) {
    return (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) ? 0
                                                                       : -1;
  }
  got_ = static_cast<std::size_t>(n);
  for (std::size_t i = 0; i < got_; ++i) {
    msghdr& h = msgs_[i].msg_hdr;
    std::size_t segment = msgs_[i].msg_len;  // not coalesced: one datagram
    for (cmsghdr* c = CMSG_FIRSTHDR(&h); c != nullptr; c = CMSG_NXTHDR(&h, c)) {
      if (c->cmsg_level != SOL_UDP || c->cmsg_type != UDP_GRO) continue;
      int gso = 0;
      ::memcpy(&gso, CMSG_DATA(c), sizeof(gso));
      if (gso > 0) segment = static_cast<std::size_t>(gso);
    }
    segment_[i] = segment;
  }
  return n;
}

std::size_t GroReceiver::next(std::span<const std::uint8_t>* out,
                              std::size_t max) {
  std::size_t k = 0;
  while (k < max && msg_ < got_) {
    const std::size_t len = msgs_[msg_].msg_len;
    const std::size_t take = std::min(segment_[msg_], len - offset_);
    out[k++] = {slabs_.get() + msg_ * kSlabBytes + offset_, take};
    offset_ += take;
    if (offset_ >= len) {
      ++msg_;
      offset_ = 0;
    }
  }
  return k;
}

bool gsoSupported() {
  static const bool supported = [] {
    const Fd fd(::socket(AF_INET, SOCK_DGRAM, 0));
    int segment = 0;
    socklen_t len = sizeof(segment);
    return fd.valid() && ::getsockopt(fd.get(), SOL_UDP, UDP_SEGMENT,
                                      &segment, &len) == 0;
  }();
  return supported;
}

int sendBatch(int fd, const OutDatagram* out, int n) {
  std::uint64_t syscalls = 0;
  return sendBatch(fd, out, n, syscalls);
}

int sendBatch(int fd, const OutDatagram* out, int n, std::uint64_t& syscalls) {
  // Per syscall: up to kMsgs messages over up to kIovs datagrams, all on the
  // stack (~22 KiB).
  constexpr int kMsgs = 64;
  constexpr int kIovs = 1024;
  struct Control {
    alignas(cmsghdr) std::uint8_t bytes[CMSG_SPACE(sizeof(std::uint16_t))];
  };
  mmsghdr msgs[kMsgs];
  iovec iovs[kIovs];
  sockaddr_in tos[kMsgs];
  Control controls[kMsgs];
  int ends[kMsgs];  // message m carries datagrams [previous end, ends[m])
  const bool gso = gsoSupported();

  int sent = 0;       // out[0, sent) accepted
  int plain_end = 0;  // out[sent, plain_end) go one datagram per message
  while (sent < n) {
    int m = 0, iov = 0, at = sent;
    for (; m < kMsgs && at < n && iov < kIovs; ++m) {
      // The run out[at, end): one destination, equal non-zero lengths (GSO
      // has no empty segment), the last possibly shorter, within both caps.
      int end = at + 1;
      if (gso && at >= plain_end && out[at].len > 0) {
        const std::size_t segment = out[at].len;
        std::size_t bytes = segment;
        const int cap = std::min(kGsoMaxSegments, kIovs - iov);
        while (end < n && end - at < cap && out[end].to == out[at].to &&
               out[end].len > 0 && out[end].len <= segment &&
               bytes + out[end].len <= kGsoMaxBytes) {
          bytes += out[end].len;
          if (out[end++].len < segment) break;  // a shorter datagram ends it
        }
      }
      msghdr& h = msgs[m].msg_hdr;
      h = {};
      for (int d = at; d < end; ++d, ++iov) {
        iovs[iov].iov_base = const_cast<std::uint8_t*>(out[d].data);
        iovs[iov].iov_len = out[d].len;
      }
      h.msg_iov = &iovs[iov - (end - at)];
      h.msg_iovlen = static_cast<std::size_t>(end - at);
      tos[m] = out[at].to.toSockaddrIn();
      h.msg_name = &tos[m];
      h.msg_namelen = sizeof(tos[m]);
      if (end - at > 1) {
        h.msg_control = controls[m].bytes;
        h.msg_controllen = sizeof(controls[m].bytes);
        cmsghdr* c = CMSG_FIRSTHDR(&h);
        c->cmsg_level = SOL_UDP;
        c->cmsg_type = UDP_SEGMENT;
        c->cmsg_len = CMSG_LEN(sizeof(std::uint16_t));
        const auto segment = static_cast<std::uint16_t>(out[at].len);
        ::memcpy(CMSG_DATA(c), &segment, sizeof(segment));
      }
      ends[m] = end;
      at = end;
    }
    ++syscalls;
    const int r = ::sendmmsg(fd, msgs, static_cast<unsigned>(m), 0);
    if (r > 0) {
      // A short count drops the failing message's errno: the next round
      // starts at that message and learns it.
      sent = ends[r - 1];
      continue;
    }
    const bool refused = errno == EINVAL || errno == EIO || errno == EMSGSIZE;
    if (refused && ends[0] - sent > 1) {
      plain_end = ends[0];  // the kernel refused GSO for this run
      continue;
    }
    return sent;  // back-pressure (EAGAIN, ENOBUFS, ...) or a refused datagram
  }
  return sent;
}

}  // namespace cluert::netio
