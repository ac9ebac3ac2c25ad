// Minimal loopback HTTP/1.1 listener for the monitoring and service planes.
//
// Serves registered routes (/metrics, /healthz, and the backtest service's
// /jobs API) from ONE background thread on 127.0.0.1 only — this is an
// operator endpoint inside the trading host, not a web server: no
// keep-alive, no TLS, no concurrency, request line + headers capped at
// 8 KiB, bodies capped at 256 KiB, every connection closed after one
// response. Port 0 binds an ephemeral port; port() returns the real one
// after start(), which is how tests (and the engine's `port_out` hand-off)
// discover where to scrape.
//
// Requests carry method, target and body to the handler; routes declare
// which methods they accept (GET by default) and unsupported methods on a
// registered path get 405 with an Allow header. Prefix routes
// (route_prefix) serve path families like /jobs/{id}. Error mapping:
//   400 malformed request line / connection closed mid-header,
//   404 no route, 405 method not allowed, 413 body over cap,
//   431 headers over cap without a terminator.
//
// Handlers run on the listener thread, so anything they touch must be
// thread-safe against the rest of the process (Registry snapshots,
// HeartbeatMonitor reads and the svc JobTable are). The server only
// shuttles strings.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace mm::obs {

struct HttpRequest {
  std::string method;  // "GET", "POST", ... (as sent; never empty on dispatch)
  std::string target;  // path with any ?query stripped
  std::string body;    // raw request body ("" when none)
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class MetricsServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;
  // Zero-arg form for the common read-only GET route ("/metrics").
  using SimpleHandler = std::function<HttpResponse()>;

  static constexpr std::size_t kMaxHeaderBytes = 8192;
  static constexpr std::size_t kMaxBodyBytes = 256 * 1024;

  MetricsServer() = default;
  ~MetricsServer();

  // Register a handler for an exact path ("/metrics"). Call before start().
  // `methods` lists the verbs the route accepts; anything else on this path
  // answers 405. Registering the same path again replaces the route.
  void route(const std::string& path, Handler handler,
             std::vector<std::string> methods = {"GET"});
  void route(const std::string& path, SimpleHandler handler,
             std::vector<std::string> methods = {"GET"});

  // Register a handler for a path family ("/jobs/" serves /jobs/{anything}).
  // Exact routes win over prefixes; among prefixes the longest match wins.
  void route_prefix(const std::string& prefix, Handler handler,
                    std::vector<std::string> methods = {"GET"});

  // Bind 127.0.0.1:`port` (0 = ephemeral), start the listener thread.
  Status start(std::uint16_t port);
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  std::uint16_t port() const { return port_; }

  MetricsServer(const MetricsServer&) = delete;
  MetricsServer& operator=(const MetricsServer&) = delete;

 private:
  struct Route {
    std::string path;
    bool is_prefix = false;
    std::vector<std::string> methods;
    Handler handler;
  };

  void serve();
  void handle(int client) const;
  const Route* match(const std::string& target) const;

  std::vector<Route> routes_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> running_{false};
};

}  // namespace mm::obs
