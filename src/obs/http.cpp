#include "obs/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/strings.hpp"

namespace mm::obs {
namespace {

// One deadline for a whole request, headers and body: a stalled or trickling
// client must not wedge the one-at-a-time listener for longer than this.
constexpr std::chrono::seconds kRequestDeadline{2};

const char* reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

// Blocking full-buffer send; MSG_NOSIGNAL so a dropped client cannot SIGPIPE
// the process.
void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t sent =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (sent <= 0) return;
    off += static_cast<std::size_t>(sent);
  }
}

// Case-insensitive Content-Length lookup inside the raw header block.
// Returns -1 when absent, -2 when present but unparseable.
long long content_length(const std::string& headers) {
  static constexpr const char* kName = "content-length:";
  static constexpr std::size_t kNameLen = 15;
  std::size_t pos = 0;
  while (pos < headers.size()) {
    std::size_t eol = headers.find("\r\n", pos);
    if (eol == std::string::npos) eol = headers.size();
    const std::size_t len = eol - pos;
    if (len > kNameLen) {
      bool match = true;
      for (std::size_t i = 0; i < kNameLen; ++i) {
        if (std::tolower(static_cast<unsigned char>(headers[pos + i])) != kName[i]) {
          match = false;
          break;
        }
      }
      if (match) {
        std::size_t v = pos + kNameLen;
        while (v < eol && headers[v] == ' ') ++v;
        long long value = 0;
        bool any = false;
        for (; v < eol; ++v) {
          const char c = headers[v];
          if (c < '0' || c > '9') return -2;
          if (value > (1LL << 40)) return -2;  // absurd; reject before overflow
          value = value * 10 + (c - '0');
          any = true;
        }
        return any ? value : -2;
      }
    }
    pos = eol + 2;
  }
  return -1;
}

}  // namespace

MetricsServer::~MetricsServer() { stop(); }

void MetricsServer::route(const std::string& path, Handler handler,
                          std::vector<std::string> methods) {
  const auto it = std::find_if(routes_.begin(), routes_.end(), [&](const Route& r) {
    return !r.is_prefix && r.path == path;
  });
  Route r{path, false, std::move(methods), std::move(handler)};
  if (it != routes_.end())
    *it = std::move(r);
  else
    routes_.push_back(std::move(r));
}

void MetricsServer::route(const std::string& path, SimpleHandler handler,
                          std::vector<std::string> methods) {
  route(
      path,
      Handler{[h = std::move(handler)](const HttpRequest&) { return h(); }},
      std::move(methods));
}

void MetricsServer::route_prefix(const std::string& prefix, Handler handler,
                                 std::vector<std::string> methods) {
  const auto it = std::find_if(routes_.begin(), routes_.end(), [&](const Route& r) {
    return r.is_prefix && r.path == prefix;
  });
  Route r{prefix, true, std::move(methods), std::move(handler)};
  if (it != routes_.end())
    *it = std::move(r);
  else
    routes_.push_back(std::move(r));
}

const MetricsServer::Route* MetricsServer::match(const std::string& target) const {
  for (const auto& r : routes_)
    if (!r.is_prefix && r.path == target) return &r;
  const Route* best = nullptr;
  for (const auto& r : routes_) {
    if (!r.is_prefix || target.rfind(r.path, 0) != 0) continue;
    if (best == nullptr || r.path.size() > best->path.size()) best = &r;
  }
  return best;
}

Status MetricsServer::start(std::uint16_t port) {
  if (running()) return Error{Errc::already_exists, "metrics server already running"};
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0)
    return Error{Errc::io_error, format("socket(): %s", std::strerror(errno))};
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, by design
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return Error{Errc::io_error,
                 format("bind 127.0.0.1:%u: %s", port, std::strerror(err))};
  }
  if (::listen(fd, 16) != 0) {
    const int err = errno;
    ::close(fd);
    return Error{Errc::io_error, format("listen(): %s", std::strerror(err))};
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const int err = errno;
    ::close(fd);
    return Error{Errc::io_error, format("getsockname(): %s", std::strerror(err))};
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve(); });
  return {};
}

void MetricsServer::stop() {
  if (!running()) return;
  stopping_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

void MetricsServer::serve() {
  // One request at a time: the stop flag is polled between connections, so
  // stop() latency is bounded by the poll timeout plus one handler.
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/50);
    if (ready <= 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    handle(client);
    ::close(client);
  }
}

void MetricsServer::handle(int client) const {
  // Every read waits only for what is left of the request's deadline, so a
  // client sending one byte at a time is cut off like a silent one. Returns
  // recv's result, or -1 once the deadline has passed.
  const auto deadline = std::chrono::steady_clock::now() + kRequestDeadline;
  const auto recv_some = [&](char* buf, std::size_t cap) -> ssize_t {
    pollfd pfd{};
    pfd.fd = client;
    pfd.events = POLLIN;
    while (true) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return -1;
      const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (ready > 0) return ::recv(client, buf, cap, 0);
      if (ready == 0 || errno != EINTR) return -1;
    }
  };

  const auto reply = [&](HttpResponse resp, const std::string& allow = {}) {
    std::string head = format("HTTP/1.1 %d %s\r\nContent-Type: %s\r\n",
                              resp.status, reason_phrase(resp.status),
                              resp.content_type.c_str());
    if (!allow.empty()) head += "Allow: " + allow + "\r\n";
    head += format("Content-Length: %zu\r\nConnection: close\r\n\r\n",
                   resp.body.size());
    head += resp.body;
    send_all(client, head);
  };

  std::string request;
  char buf[2048];
  std::size_t header_end = std::string::npos;
  while (request.size() < kMaxHeaderBytes) {
    header_end = request.find("\r\n\r\n");
    if (header_end != std::string::npos) break;
    const ssize_t got = recv_some(buf, sizeof(buf));
    if (got <= 0) break;
    request.append(buf, static_cast<std::size_t>(got));
  }
  // The loop can exit with the terminator arriving in the final chunk.
  if (header_end == std::string::npos) header_end = request.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    // No terminator: over the cap means oversized headers, under it means the
    // peer hung up (or timed out) mid-request.
    reply({request.size() >= kMaxHeaderBytes ? 431 : 400,
           "text/plain; charset=utf-8",
           request.size() >= kMaxHeaderBytes ? "headers too large\n"
                                             : "malformed request\n"});
    return;
  }

  const std::size_t line_end = request.find("\r\n");
  const std::string line = request.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                                   : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos || sp1 == 0) {
    reply({400, "text/plain; charset=utf-8", "malformed request\n"});
    return;
  }
  HttpRequest req;
  req.method = line.substr(0, sp1);
  req.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (req.target.empty() || req.target.front() != '/') {
    reply({400, "text/plain; charset=utf-8", "malformed request\n"});
    return;
  }
  if (const std::size_t q = req.target.find('?'); q != std::string::npos)
    req.target.resize(q);

  const std::string headers =
      request.substr(line_end + 2, header_end - line_end - 2);
  const long long declared = content_length(headers);
  if (declared == -2) {
    reply({400, "text/plain; charset=utf-8", "malformed content-length\n"});
    return;
  }
  if (declared > static_cast<long long>(kMaxBodyBytes)) {
    reply({413, "text/plain; charset=utf-8", "body too large\n"});
    return;
  }

  req.body = request.substr(header_end + 4);
  if (declared >= 0) {
    const std::size_t want = static_cast<std::size_t>(declared);
    while (req.body.size() < want) {
      const ssize_t got = recv_some(buf, sizeof(buf));
      if (got <= 0) break;
      req.body.append(buf, static_cast<std::size_t>(got));
    }
    if (req.body.size() < want) {
      reply({400, "text/plain; charset=utf-8", "truncated body\n"});
      return;
    }
    req.body.resize(want);  // ignore trailing pipelined bytes
  }

  const Route* route = match(req.target);
  if (route == nullptr) {
    reply({404, "text/plain; charset=utf-8", "not found\n"});
    return;
  }
  if (std::find(route->methods.begin(), route->methods.end(), req.method) ==
      route->methods.end()) {
    std::string allow;
    for (const auto& m : route->methods) {
      if (!allow.empty()) allow += ", ";
      allow += m;
    }
    reply({405, "text/plain; charset=utf-8", "method not allowed\n"}, allow);
    return;
  }
  reply(route->handler(req));
}

}  // namespace mm::obs
