#include "wire/feed.hpp"

#include "common/log.hpp"
#include "common/strings.hpp"

namespace mm::wire {

TcpFeedServer::TcpFeedServer(DayResolver resolver, TcpFeedConfig config)
    : resolver_(std::move(resolver)), config_(std::move(config)) {
  MM_ASSERT_MSG(resolver_ != nullptr, "TcpFeedServer needs a day resolver");
}

TcpFeedServer::~TcpFeedServer() { stop(); }

Status TcpFeedServer::start(std::uint16_t port) {
  MM_ASSERT_MSG(!running_.load(), "TcpFeedServer already started");
  auto listener = tcp_listen(config_.host, port, &port_);
  if (!listener) return listener.error();
  listener_ = std::move(*listener);
  running_.store(true);
  thread_ = std::thread([this] { accept_loop(); });
  return {};
}

void TcpFeedServer::stop() {
  if (!running_.exchange(false)) return;
  // Unblock the accept loop's poll by racing its next timeout; the loop
  // re-checks running_ every 50 ms.
  if (thread_.joinable()) thread_.join();
  listener_.close();
}

void TcpFeedServer::accept_loop() {
  while (running_.load()) {
    auto conn = tcp_accept(listener_, std::chrono::milliseconds{50});
    if (!conn) {
      if (conn.error().code == Errc::timeout) continue;
      if (running_.load())
        MM_LOG_WARN("feed server accept failed: " << conn.error().to_string());
      return;
    }
    serve(std::move(*conn));
  }
}

void TcpFeedServer::serve(Socket conn) {
  set_nodelay(conn);
  // Read frames until the client's hello arrives (a conforming client sends
  // it first and nothing else).
  FrameParser parser;
  std::uint8_t rx[512];
  Hello hello;
  bool have_hello = false;
  while (!have_hello) {
    auto n = recv_some(conn, rx, sizeof(rx));
    if (!n || *n == 0) return;  // client went away before subscribing
    parser.feed(rx, *n);
    FrameView v;
    while (parser.next(&v)) {
      auto h = decode_hello(v);
      if (!h) {
        MM_LOG_WARN("feed server: rejecting session: " << h.error().to_string());
        return;
      }
      hello = std::move(*h);
      have_hello = true;
      break;
    }
    if (parser.failed()) {
      MM_LOG_WARN("feed server: corrupt hello stream: " << parser.error());
      return;
    }
  }

  auto day = resolver_(hello.key);
  if (!day) {
    // No day for that key: close without end_of_day; the client surfaces the
    // truncation as an error.
    MM_LOG_WARN("feed server: no day for key '" << hello.key
                                                << "': " << day.error().to_string());
    return;
  }

  FrameWriter writer;
  writer.hello(hello.session, hello.key);  // echo confirms the subscription
  std::uint64_t since_heartbeat = 0;
  for (const md::Quote& q : *day) {
    writer.quote(q);
    if (++since_heartbeat == config_.heartbeat_every) {
      writer.heartbeat(since_heartbeat);
      since_heartbeat = 0;
    }
    // Flush in ~64 KB slabs so the writer buffer stays bounded.
    if (writer.size() >= (std::size_t{64} << 10)) {
      if (!send_all(conn, writer.bytes().data(), writer.size())) return;
      writer.clear();
    }
  }
  writer.end_of_day(day->size());
  if (!send_all(conn, writer.bytes().data(), writer.size())) return;
  sessions_.fetch_add(1);
}

}  // namespace mm::wire
