#include "wire/socket.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "common/strings.hpp"

namespace mm::wire {
namespace {

Error sys_error(const char* what) {
  return Error(Errc::io_error, format("%s: %s", what, std::strerror(errno)));
}

Expected<sockaddr_in> resolve(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    return Error(Errc::invalid_argument,
                 format("not an IPv4 address: '%s'", host.c_str()));
  return addr;
}

// Wait for readability; true when ready, false on timeout.
Expected<bool> wait_readable(int fd, std::chrono::milliseconds timeout) {
  pollfd p{};
  p.fd = fd;
  p.events = POLLIN;
  for (;;) {
    const int rc = ::poll(&p, 1, static_cast<int>(timeout.count()));
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno == EINTR) continue;
    return sys_error("poll");
  }
}

}  // namespace

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Expected<Socket> tcp_listen(const std::string& host, std::uint16_t port,
                            std::uint16_t* bound_port) {
  auto addr = resolve(host, port);
  if (!addr) return addr.error();
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) return sys_error("socket");
  const int one = 1;
  (void)::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&*addr), sizeof(*addr)) != 0)
    return sys_error("bind");
  if (::listen(sock.fd(), 64) != 0) return sys_error("listen");
  if (bound_port != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&actual), &len) != 0)
      return sys_error("getsockname");
    *bound_port = ntohs(actual.sin_port);
  }
  return sock;
}

Expected<Socket> tcp_accept(const Socket& listener, std::chrono::milliseconds timeout) {
  if (timeout.count() > 0) {
    auto ready = wait_readable(listener.fd(), timeout);
    if (!ready) return ready.error();
    if (!*ready) return Error(Errc::timeout, "accept: no connection within deadline");
  }
  for (;;) {
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) return Socket(fd);
    if (errno == EINTR) continue;
    return sys_error("accept");
  }
}

Expected<Socket> tcp_connect(const std::string& host, std::uint16_t port,
                             std::chrono::milliseconds retry_for) {
  auto addr = resolve(host, port);
  if (!addr) return addr.error();
  const auto deadline = std::chrono::steady_clock::now() + retry_for;
  for (;;) {
    Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
    if (!sock.valid()) return sys_error("socket");
    if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&*addr),
                  sizeof(*addr)) == 0) {
      set_nodelay(sock);
      return sock;
    }
    const bool retryable =
        errno == ECONNREFUSED || errno == ECONNRESET || errno == ETIMEDOUT;
    if (!retryable || std::chrono::steady_clock::now() >= deadline)
      return sys_error("connect");
    // Peer's listener may simply not be up yet (rendezvous race) — back off
    // briefly and try again until the deadline.
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
}

void set_nodelay(const Socket& sock) {
  const int one = 1;
  (void)::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Status send_all(const Socket& sock, const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (size > 0) {
    const ssize_t n = ::send(sock.fd(), p, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return sys_error("send");
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return {};
}

Status recv_exact(const Socket& sock, void* data, std::size_t size) {
  auto* p = static_cast<std::uint8_t*>(data);
  while (size > 0) {
    const ssize_t n = ::recv(sock.fd(), p, size, 0);
    if (n == 0) return Error(Errc::io_error, "recv: connection closed by peer");
    if (n < 0) {
      if (errno == EINTR) continue;
      return sys_error("recv");
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return {};
}

Expected<std::size_t> recv_some(const Socket& sock, void* data, std::size_t cap) {
  for (;;) {
    const ssize_t n = ::recv(sock.fd(), data, cap, 0);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    return sys_error("recv");
  }
}

}  // namespace mm::wire
