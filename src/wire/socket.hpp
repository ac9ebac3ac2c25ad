// Thin RAII wrappers over POSIX TCP sockets for the wire layer and the
// mpmini socket transport. Loopback/LAN plumbing, not a general networking
// library: blocking I/O, IPv4, explicit Expected<> errors instead of errno
// spelunking at every call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace mm::wire {

// Owning file descriptor. Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void close();
  // Relinquish ownership (the caller becomes responsible for the fd).
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_ = -1;
};

// --- TCP -----------------------------------------------------------------

// Bind + listen on host:port (port 0 picks an ephemeral port, reported via
// `bound_port` when non-null). SO_REUSEADDR is set.
Expected<Socket> tcp_listen(const std::string& host, std::uint16_t port,
                            std::uint16_t* bound_port = nullptr);

// Accept one connection. A zero timeout blocks indefinitely; otherwise
// Errc::timeout when nothing arrived in time.
Expected<Socket> tcp_accept(const Socket& listener,
                            std::chrono::milliseconds timeout =
                                std::chrono::milliseconds{0});

// Connect to host:port, retrying (connection-refused, not-yet-listening) for
// up to `retry_for` — rendezvous peers race their listeners up.
Expected<Socket> tcp_connect(const std::string& host, std::uint16_t port,
                             std::chrono::milliseconds retry_for =
                                 std::chrono::milliseconds{0});

void set_nodelay(const Socket& sock);

// Write exactly `size` bytes (handles short writes; SIGPIPE suppressed).
Status send_all(const Socket& sock, const void* data, std::size_t size);

// Read exactly `size` bytes; Errc::io_error on EOF/reset mid-read.
Status recv_exact(const Socket& sock, void* data, std::size_t size);

// Read whatever is available, up to `cap`. 0 means orderly EOF.
Expected<std::size_t> recv_some(const Socket& sock, void* data, std::size_t cap);

}  // namespace mm::wire
