#include "mpmini/socket_transport.hpp"

#include <cstdlib>
#include <stdexcept>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "wire/format.hpp"

namespace mm::mpi {
namespace {

// Handshake message magic ("MMT1" on the wire, distinct from the quote
// protocol's magic so a misdirected connection fails loudly).
constexpr std::uint32_t mesh_magic = 0x31544D4Du;

// Envelope frame kinds on an established mesh link.
constexpr std::uint8_t kind_message = 1;
constexpr std::uint8_t kind_bye = 2;

// Registration sent by the dialing side of every mesh link.
struct Registration {
  int rank = -1;
  std::uint16_t listen_port = 0;
  std::string host;
};

Status send_registration(const wire::Socket& sock, const Registration& reg) {
  std::vector<std::uint8_t> buf(4 + 4 + 2 + 2 + reg.host.size());
  wire::store_u32(buf.data(), mesh_magic);
  wire::store_u32(buf.data() + 4, static_cast<std::uint32_t>(reg.rank));
  wire::store_u16(buf.data() + 8, reg.listen_port);
  wire::store_u16(buf.data() + 10, static_cast<std::uint16_t>(reg.host.size()));
  std::memcpy(buf.data() + 12, reg.host.data(), reg.host.size());
  return wire::send_all(sock, buf.data(), buf.size());
}

Expected<Registration> recv_registration(const wire::Socket& sock) {
  std::uint8_t fixed[12];
  if (auto got = wire::recv_exact(sock, fixed, sizeof(fixed)); !got)
    return got.error();
  if (wire::load_u32(fixed) != mesh_magic)
    return Error(Errc::parse_error, "mesh registration: bad magic");
  Registration reg;
  reg.rank = static_cast<int>(wire::load_u32(fixed + 4));
  reg.listen_port = wire::load_u16(fixed + 8);
  const std::uint16_t host_len = wire::load_u16(fixed + 10);
  reg.host.resize(host_len);
  if (host_len > 0)
    if (auto got = wire::recv_exact(sock, reg.host.data(), host_len); !got)
      return got.error();
  return reg;
}

struct PeerAddress {
  std::string host;
  std::uint16_t port = 0;
};

Status send_table(const wire::Socket& sock, const std::vector<PeerAddress>& table) {
  std::vector<std::uint8_t> buf(8);
  wire::store_u32(buf.data(), mesh_magic);
  wire::store_u32(buf.data() + 4, static_cast<std::uint32_t>(table.size()));
  for (const PeerAddress& addr : table) {
    std::uint8_t entry[4];
    wire::store_u16(entry, addr.port);
    wire::store_u16(entry + 2, static_cast<std::uint16_t>(addr.host.size()));
    buf.insert(buf.end(), entry, entry + sizeof(entry));
    buf.insert(buf.end(), addr.host.begin(), addr.host.end());
  }
  return wire::send_all(sock, buf.data(), buf.size());
}

Expected<std::vector<PeerAddress>> recv_table(const wire::Socket& sock) {
  std::uint8_t fixed[8];
  if (auto got = wire::recv_exact(sock, fixed, sizeof(fixed)); !got)
    return got.error();
  if (wire::load_u32(fixed) != mesh_magic)
    return Error(Errc::parse_error, "mesh table: bad magic");
  const std::uint32_t n = wire::load_u32(fixed + 4);
  std::vector<PeerAddress> table(n);
  for (PeerAddress& addr : table) {
    std::uint8_t entry[4];
    if (auto got = wire::recv_exact(sock, entry, sizeof(entry)); !got)
      return got.error();
    addr.port = wire::load_u16(entry);
    const std::uint16_t host_len = wire::load_u16(entry + 2);
    addr.host.resize(host_len);
    if (host_len > 0)
      if (auto got = wire::recv_exact(sock, addr.host.data(), host_len); !got)
        return got.error();
  }
  return table;
}

// The address this rank advertises for inbound mesh dials.
std::string local_advertised_host() {
  const char* host = std::getenv("MM_MPMINI_HOST");
  return (host != nullptr && *host != '\0') ? host : "127.0.0.1";
}

[[noreturn]] void handshake_fail(int rank, const std::string& why) {
  throw std::runtime_error(
      format("socket transport rank %d: handshake failed: %s", rank, why.c_str()));
}

}  // namespace

Expected<Message> decode_envelope_header(const std::uint8_t* header) {
  const std::uint64_t payload_len = wire::load_u64(header + 36);
  if (payload_len > max_envelope_payload)
    return Error(Errc::out_of_range,
                 format("envelope announces a %llu-byte payload (limit %llu)",
                        static_cast<unsigned long long>(payload_len),
                        static_cast<unsigned long long>(max_envelope_payload)));
  Message msg;
  msg.source = static_cast<int>(wire::load_u32(header));
  msg.tag = static_cast<int>(wire::load_u32(header + 4));
  msg.comm_id = wire::load_u64(header + 8);
  msg.sequence = wire::load_u64(header + 16);
  msg.trace_id = wire::load_u64(header + 24);
  msg.flow = wire::load_u32(header + 32);
  msg.payload.resize(payload_len);
  return msg;
}

Expected<Rendezvous> rendezvous_from_env() {
  const char* rank_raw = std::getenv("MM_MPMINI_RANK");
  const char* addr_raw = std::getenv("MM_MPMINI_RENDEZVOUS");
  if (rank_raw == nullptr || addr_raw == nullptr)
    return Error(Errc::invalid_argument,
                 "socket transport needs MM_MPMINI_RANK and "
                 "MM_MPMINI_RENDEZVOUS=host:port");
  Rendezvous rz;
  char* end = nullptr;
  const long rank = std::strtol(rank_raw, &end, 10);
  if (end == rank_raw || *end != '\0' || rank < 0)
    return Error(Errc::parse_error,
                 format("MM_MPMINI_RANK='%s' is not a rank", rank_raw));
  rz.rank = static_cast<int>(rank);

  const std::string addr(addr_raw);
  const std::size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == addr.size())
    return Error(Errc::parse_error,
                 format("MM_MPMINI_RENDEZVOUS='%s' is not host:port", addr_raw));
  rz.host = addr.substr(0, colon);
  const long port = std::strtol(addr.c_str() + colon + 1, &end, 10);
  if (*end != '\0' || port <= 0 || port > 65535)
    return Error(Errc::parse_error,
                 format("MM_MPMINI_RENDEZVOUS='%s' has a bad port", addr_raw));
  rz.port = static_cast<std::uint16_t>(port);
  return rz;
}

SocketTransport::SocketTransport(int world_size, Rendezvous rendezvous)
    : size_(world_size), rz_(std::move(rendezvous)) {
  MM_ASSERT_MSG(world_size > 0, "World size must be positive");
  MM_ASSERT_MSG(rz_.rank >= 0 && rz_.rank < world_size,
                "rendezvous rank out of range for the world");
  peers_.resize(static_cast<std::size_t>(world_size));
  for (int r = 0; r < world_size; ++r)
    if (r != rz_.rank) peers_[static_cast<std::size_t>(r)] = std::make_unique<Peer>();
}

SocketTransport::~SocketTransport() { stop(); }

void SocketTransport::start() {
  MM_ASSERT_MSG(!started_, "SocketTransport started twice");
  started_ = true;
  if (size_ == 1) return;  // a one-rank world has no mesh

  const std::string my_host = local_advertised_host();

  // 1. Raise this rank's listener.
  wire::Socket listener;
  std::uint16_t listen_port = 0;
  if (rz_.rank == 0 && rz_.listen_fd >= 0) {
    listener = wire::Socket(rz_.listen_fd);
    listen_port = rz_.port;
  } else {
    auto bound = wire::tcp_listen(rz_.rank == 0 ? rz_.host : my_host,
                                  rz_.rank == 0 ? rz_.port : 0, &listen_port);
    if (!bound) handshake_fail(rz_.rank, bound.error().to_string());
    listener = std::move(*bound);
  }

  if (rz_.rank == 0) {
    // 2. Collect every peer's registration; the connection doubles as the
    // mesh link to that peer.
    std::vector<PeerAddress> table(static_cast<std::size_t>(size_));
    for (int i = 1; i < size_; ++i) {
      auto conn = wire::tcp_accept(listener, rz_.connect_timeout);
      if (!conn) handshake_fail(0, conn.error().to_string());
      auto reg = recv_registration(*conn);
      if (!reg) handshake_fail(0, reg.error().to_string());
      if (reg->rank <= 0 || reg->rank >= size_ ||
          peers_[static_cast<std::size_t>(reg->rank)]->sock.valid())
        handshake_fail(0, format("bad or duplicate registration from rank %d",
                                 reg->rank));
      wire::set_nodelay(*conn);
      peers_[static_cast<std::size_t>(reg->rank)]->sock = std::move(*conn);
      table[static_cast<std::size_t>(reg->rank)] = {reg->host, reg->listen_port};
    }
    // 3. Broadcast the port table.
    for (int r = 1; r < size_; ++r) {
      if (auto sent = send_table(peers_[static_cast<std::size_t>(r)]->sock, table);
          !sent)
        handshake_fail(0, sent.error().to_string());
    }
  } else {
    // 2'. Register with rank 0.
    auto conn = wire::tcp_connect(rz_.host, rz_.port, rz_.connect_timeout);
    if (!conn) handshake_fail(rz_.rank, conn.error().to_string());
    if (auto sent = send_registration(*conn, {rz_.rank, listen_port, my_host});
        !sent)
      handshake_fail(rz_.rank, sent.error().to_string());
    auto table = recv_table(*conn);
    if (!table) handshake_fail(rz_.rank, table.error().to_string());
    peers_[0]->sock = std::move(*conn);

    // 4. Dial every lower nonzero rank; accept the higher ones.
    for (int q = 1; q < rz_.rank; ++q) {
      const PeerAddress& addr = (*table)[static_cast<std::size_t>(q)];
      auto link = wire::tcp_connect(addr.host, addr.port, rz_.connect_timeout);
      if (!link)
        handshake_fail(rz_.rank, format("dial rank %d: %s", q,
                                        link.error().to_string().c_str()));
      if (auto sent = send_registration(*link, {rz_.rank, 0, my_host}); !sent)
        handshake_fail(rz_.rank, sent.error().to_string());
      peers_[static_cast<std::size_t>(q)]->sock = std::move(*link);
    }
    for (int i = rz_.rank + 1; i < size_; ++i) {
      auto link = wire::tcp_accept(listener, rz_.connect_timeout);
      if (!link) handshake_fail(rz_.rank, link.error().to_string());
      auto reg = recv_registration(*link);
      if (!reg) handshake_fail(rz_.rank, reg.error().to_string());
      if (reg->rank <= rz_.rank || reg->rank >= size_ ||
          peers_[static_cast<std::size_t>(reg->rank)]->sock.valid())
        handshake_fail(rz_.rank, format("bad or duplicate registration from rank %d",
                                        reg->rank));
      wire::set_nodelay(*link);
      peers_[static_cast<std::size_t>(reg->rank)]->sock = std::move(*link);
    }
  }

  // 5. Mesh complete — start one reader per peer.
  for (int r = 0; r < size_; ++r) {
    if (r == rz_.rank) continue;
    peers_[static_cast<std::size_t>(r)]->reader =
        std::thread([this, r] { reader_loop(r); });
  }
}

void SocketTransport::reader_loop(int peer_rank) {
  Peer& peer = *peers_[static_cast<std::size_t>(peer_rank)];
  std::vector<std::uint8_t> header(envelope_header_bytes);
  for (;;) {
    std::uint8_t kind = 0;
    if (auto got = wire::recv_exact(peer.sock, &kind, 1); !got) {
      if (!stopping_.load())
        MM_LOG_WARN("socket transport: link to rank "
                    << peer_rank << " failed: " << got.error().to_string());
      note_bye();  // a dead link must not wedge the goodbye barrier
      return;
    }
    if (kind == kind_bye) {
      note_bye();
      return;
    }
    if (kind != kind_message) {
      MM_LOG_WARN("socket transport: unknown frame kind "
                  << int{kind} << " from rank " << peer_rank);
      note_bye();
      return;
    }
    if (auto got = wire::recv_exact(peer.sock, header.data(), header.size()); !got) {
      if (!stopping_.load())
        MM_LOG_WARN("socket transport: link to rank "
                    << peer_rank << " died mid-frame: " << got.error().to_string());
      note_bye();
      return;
    }
    auto decoded = decode_envelope_header(header.data());
    if (!decoded) {
      MM_LOG_WARN("socket transport: bad envelope from rank "
                  << peer_rank << ": " << decoded.error().to_string());
      note_bye();
      return;
    }
    Message msg = std::move(*decoded);
    if (!msg.payload.empty())
      if (auto got = wire::recv_exact(peer.sock, msg.payload.data(), msg.payload.size());
          !got) {
        if (!stopping_.load())
          MM_LOG_WARN("socket transport: link to rank "
                      << peer_rank
                      << " died mid-payload: " << got.error().to_string());
        note_bye();
        return;
      }
    mailbox_.deliver(std::move(msg));
  }
}

Status SocketTransport::send_envelope(Peer& peer, const Message& msg) {
  std::lock_guard<std::mutex> lock(peer.send_mutex);
  if (!peer.sock.valid())
    return Error(Errc::io_error, "peer link is down");
  if (msg.payload.size() > max_envelope_payload)
    return Error(Errc::out_of_range, "payload exceeds max_envelope_payload");
  peer.tx.resize(1 + envelope_header_bytes + msg.payload.size());
  std::uint8_t* p = peer.tx.data();
  p[0] = kind_message;
  wire::store_u32(p + 1, static_cast<std::uint32_t>(msg.source));
  wire::store_u32(p + 5, static_cast<std::uint32_t>(msg.tag));
  wire::store_u64(p + 9, msg.comm_id);
  wire::store_u64(p + 17, msg.sequence);
  wire::store_u64(p + 25, msg.trace_id);
  wire::store_u32(p + 33, msg.flow);
  wire::store_u64(p + 37, msg.payload.size());
  if (!msg.payload.empty())
    std::memcpy(p + 45, msg.payload.data(), msg.payload.size());
  return wire::send_all(peer.sock, peer.tx.data(), peer.tx.size());
}

void SocketTransport::transmit(int src_world, int dest_world, Message&& msg) {
  MM_ASSERT_MSG(src_world == rz_.rank,
                "socket transport: sends must originate from the local rank");
  if (dest_world == rz_.rank) {
    // Self-send stays in process (sendrecv-to-self, gather at root, ...).
    mailbox_.deliver(std::move(msg));
    return;
  }
  Peer& peer = *peers_[static_cast<std::size_t>(dest_world)];
  if (auto sent = send_envelope(peer, msg); !sent)
    throw std::runtime_error(format("socket transport: send to rank %d failed: %s",
                                    dest_world, sent.error().to_string().c_str()));
}

Mailbox& SocketTransport::mailbox(int world_rank) {
  MM_ASSERT_MSG(world_rank == rz_.rank,
                "socket transport: only the local rank's mailbox exists here");
  return mailbox_;
}

void SocketTransport::attach_obs(obs::Gauge* queue_peak, obs::Gauge* ring_peak) {
  mailbox_.set_obs(queue_peak, ring_peak);
}

void SocketTransport::note_bye() {
  std::lock_guard<std::mutex> lock(bye_mutex_);
  ++byes_;
  bye_cv_.notify_all();
}

void SocketTransport::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  stopping_.store(true);
  const int peer_count = size_ - 1;

  // Goodbye barrier: tell every peer this rank is done sending, then keep
  // draining (the readers stay up) until every peer says the same — any
  // message they sent before their bye is delivered to the mailbox first,
  // because the link is FIFO.
  for (int r = 0; r < size_; ++r) {
    if (r == rz_.rank) continue;
    Peer& peer = *peers_[static_cast<std::size_t>(r)];
    std::lock_guard<std::mutex> lock(peer.send_mutex);
    if (peer.sock.valid() && !peer.bye_sent) {
      const std::uint8_t bye = kind_bye;
      (void)wire::send_all(peer.sock, &bye, 1);
      peer.bye_sent = true;
    }
  }
  {
    std::unique_lock<std::mutex> lock(bye_mutex_);
    if (!bye_cv_.wait_for(lock, std::chrono::seconds{30},
                          [&] { return byes_ >= peer_count; }))
      MM_LOG_WARN("socket transport rank "
                  << rz_.rank << ": goodbye barrier timed out (" << byes_ << "/"
                  << peer_count << " byes); closing links anyway");
  }
  // Close links to unblock any reader still stuck in recv, then join.
  for (auto& peer : peers_) {
    if (peer == nullptr) continue;
    {
      std::lock_guard<std::mutex> lock(peer->send_mutex);
      peer->sock.close();
    }
    if (peer->reader.joinable()) peer->reader.join();
  }
}

}  // namespace mm::mpi
