// MetricsServer request plumbing: method + body dispatch, prefix routes,
// and the bounded-parse error ladder (400 / 404 / 405 / 413 / 431).
//
// Everything here drives the real listener over loopback sockets — no mocks;
// each test binds an ephemeral port and speaks raw HTTP/1.1.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "obs/http.hpp"

namespace mm::obs {
namespace {

// A socket connected to 127.0.0.1:port, or -1.
int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Everything the server sends until it closes the connection; closes fd.
std::string read_to_close(int fd) {
  std::string response;
  char buf[4096];
  ssize_t got;
  while ((got = ::recv(fd, buf, sizeof(buf), 0)) > 0)
    response.append(buf, static_cast<std::size_t>(got));
  ::close(fd);
  return response;
}

// One raw HTTP exchange against 127.0.0.1:port; returns the full response.
std::string http_exchange(std::uint16_t port, const std::string& request) {
  const int fd = connect_to(port);
  if (fd < 0) return {};
  ::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  ::shutdown(fd, SHUT_WR);  // half-close: the server sees EOF after the bytes
  return read_to_close(fd);
}

std::string request_with_body(const std::string& method, const std::string& path,
                              const std::string& body) {
  return method + " " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::string body_of(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string{} : response.substr(split + 4);
}

int status_of(const std::string& response) {
  if (response.rfind("HTTP/1.1 ", 0) != 0 || response.size() < 12) return -1;
  return std::stoi(response.substr(9, 3));
}

class HttpServerTest : public ::testing::Test {
 protected:
  void TearDown() override { server.stop(); }
  MetricsServer server;
};

TEST_F(HttpServerTest, DispatchesMethodTargetAndBodyToHandlers) {
  server.route(
      "/echo",
      [](const HttpRequest& req) {
        return HttpResponse{200, "text/plain",
                            req.method + " " + req.target + "|" + req.body};
      },
      {"POST", "PUT"});
  ASSERT_TRUE(server.start(0).has_value());

  const std::string post =
      http_exchange(server.port(), request_with_body("POST", "/echo", "hello body"));
  EXPECT_EQ(status_of(post), 200);
  EXPECT_EQ(body_of(post), "POST /echo|hello body");

  const std::string put =
      http_exchange(server.port(), request_with_body("PUT", "/echo", ""));
  EXPECT_EQ(status_of(put), 200);
  EXPECT_EQ(body_of(put), "PUT /echo|");
}

TEST_F(HttpServerTest, UnsupportedMethodOnRegisteredRouteGets405WithAllow) {
  server.route(
      "/jobs", [](const HttpRequest&) { return HttpResponse{}; }, {"POST", "GET"});
  ASSERT_TRUE(server.start(0).has_value());

  const std::string resp = http_exchange(
      server.port(), "DELETE /jobs HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n");
  EXPECT_EQ(status_of(resp), 405);
  EXPECT_NE(resp.find("Allow: POST, GET"), std::string::npos);
}

TEST_F(HttpServerTest, PrefixRoutesServePathFamiliesAndExactRoutesWin) {
  server.route_prefix(
      "/jobs/",
      [](const HttpRequest& req) {
        return HttpResponse{200, "text/plain", "prefix:" + req.target};
      },
      {"GET", "DELETE"});
  server.route_prefix("/jobs/special/", [](const HttpRequest& req) {
    return HttpResponse{200, "text/plain", "special:" + req.target};
  });
  server.route("/jobs/exact", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain", "exact"};
  });
  ASSERT_TRUE(server.start(0).has_value());

  EXPECT_EQ(body_of(http_exchange(
                server.port(), "GET /jobs/abc123 HTTP/1.1\r\nHost: x\r\n\r\n")),
            "prefix:/jobs/abc123");
  // The longest matching prefix wins regardless of registration order.
  EXPECT_EQ(body_of(http_exchange(
                server.port(), "GET /jobs/special/9 HTTP/1.1\r\nHost: x\r\n\r\n")),
            "special:/jobs/special/9");
  EXPECT_EQ(body_of(http_exchange(
                server.port(), "GET /jobs/exact HTTP/1.1\r\nHost: x\r\n\r\n")),
            "exact");
  // DELETE is allowed on the prefix family.
  EXPECT_EQ(body_of(http_exchange(
                server.port(), "DELETE /jobs/abc123 HTTP/1.1\r\nHost: x\r\n\r\n")),
            "prefix:/jobs/abc123");
  // An unmatched path still 404s even with prefixes registered.
  EXPECT_EQ(status_of(http_exchange(server.port(),
                                    "GET /other HTTP/1.1\r\nHost: x\r\n\r\n")),
            404);
}

TEST_F(HttpServerTest, MalformedRequestsGet400) {
  server.route("/ok", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.start(0).has_value());

  // No spaces in the request line.
  EXPECT_EQ(status_of(http_exchange(server.port(), "garbage\r\n\r\n")), 400);
  // Target does not start with '/'.
  EXPECT_EQ(status_of(http_exchange(server.port(),
                                    "GET ok HTTP/1.1\r\nHost: x\r\n\r\n")),
            400);
  // Connection closed before the header terminator.
  EXPECT_EQ(status_of(http_exchange(server.port(), "GET /ok HTTP/1.1\r\n")), 400);
  // Unparseable Content-Length.
  EXPECT_EQ(
      status_of(http_exchange(
          server.port(),
          "POST /ok HTTP/1.1\r\nHost: x\r\nContent-Length: banana\r\n\r\n")),
      400);
  // Declared body longer than what arrives before EOF.
  EXPECT_EQ(
      status_of(http_exchange(
          server.port(),
          "POST /ok HTTP/1.1\r\nHost: x\r\nContent-Length: 50\r\n\r\nshort")),
      400);
}

TEST_F(HttpServerTest, OversizedHeadersGet431) {
  server.route("/ok", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.start(0).has_value());

  std::string request = "GET /ok HTTP/1.1\r\nX-Pad: ";
  request.append(MetricsServer::kMaxHeaderBytes, 'a');  // blows the 8 KiB cap
  request += "\r\n\r\n";
  EXPECT_EQ(status_of(http_exchange(server.port(), request)), 431);
}

TEST_F(HttpServerTest, OversizedBodyGets413WithoutReadingIt) {
  server.route(
      "/ingest", [](const HttpRequest&) { return HttpResponse{}; }, {"POST"});
  ASSERT_TRUE(server.start(0).has_value());

  // The declared length alone triggers the rejection; no body bytes are sent,
  // so a server that tried to read them first would stall until its timeout.
  const std::string resp = http_exchange(
      server.port(),
      "POST /ingest HTTP/1.1\r\nHost: x\r\nContent-Length: " +
          std::to_string(MetricsServer::kMaxBodyBytes + 1) + "\r\n\r\n");
  EXPECT_EQ(status_of(resp), 413);
}

TEST_F(HttpServerTest, BodyAtTheCapIsAccepted) {
  std::size_t seen = 0;
  server.route(
      "/ingest",
      [&seen](const HttpRequest& req) {
        seen = req.body.size();
        return HttpResponse{};
      },
      {"POST"});
  ASSERT_TRUE(server.start(0).has_value());

  const std::string body(MetricsServer::kMaxBodyBytes, 'b');
  EXPECT_EQ(status_of(http_exchange(server.port(),
                                    request_with_body("POST", "/ingest", body))),
            200);
  EXPECT_EQ(seen, MetricsServer::kMaxBodyBytes);
}

TEST_F(HttpServerTest, ZeroArgHandlersStillRegister) {
  server.route("/simple", [] { return HttpResponse{200, "text/plain", "simple\n"}; });
  ASSERT_TRUE(server.start(0).has_value());
  const std::string resp =
      http_exchange(server.port(), "GET /simple HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(status_of(resp), 200);
  EXPECT_EQ(body_of(resp), "simple\n");
}

TEST_F(HttpServerTest, ReRegisteringAPathReplacesTheRoute) {
  server.route("/v", [] { return HttpResponse{200, "text/plain", "one"}; });
  server.route(
      "/v", [] { return HttpResponse{200, "text/plain", "two"}; }, {"GET", "POST"});
  ASSERT_TRUE(server.start(0).has_value());
  EXPECT_EQ(body_of(http_exchange(server.port(),
                                  "GET /v HTTP/1.1\r\nHost: x\r\n\r\n")),
            "two");
  EXPECT_EQ(status_of(http_exchange(server.port(),
                                    request_with_body("POST", "/v", ""))),
            200);
}

TEST_F(HttpServerTest, TricklingClientIsCutOffAtTheRequestDeadline) {
  server.route("/healthz", [] { return HttpResponse{200, "text/plain", "ok\n"}; });
  ASSERT_TRUE(server.start(0).has_value());

  // One header byte every 100 ms, well under the 8 KiB cap: every read the
  // server makes returns quickly, so only a deadline on the whole request
  // ends it. Stop sending once the server answers or closes (or after 6 s).
  using Clock = std::chrono::steady_clock;
  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  const std::string header = "GET /healthz HTTP/1.1\r\nX-Pad: " + std::string(8000, 'a');
  const auto start = Clock::now();
  for (const char c : header) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    if (::poll(&pfd, 1, /*timeout_ms=*/100) != 0) break;
    if (::send(fd, &c, 1, MSG_NOSIGNAL) != 1) break;
    if (Clock::now() - start > std::chrono::seconds{6}) break;
  }
  const auto cut_off = Clock::now() - start;
  EXPECT_EQ(status_of(read_to_close(fd)), 400);
  EXPECT_LT(cut_off, std::chrono::milliseconds{2500});

  // The listener is free again.
  const std::string health = http_exchange(server.port(), "GET /healthz HTTP/1.1\r\n\r\n");
  EXPECT_EQ(status_of(health), 200);
  EXPECT_EQ(body_of(health), "ok\n");
}

}  // namespace
}  // namespace mm::obs
