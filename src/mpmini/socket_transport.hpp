// Multi-process TCP transport: one OS process per rank, full socket mesh.
//
// Rendezvous handshake (rank 0 is the rendezvous point):
//
//   1. Every rank opens a TCP listener — rank 0 on the advertised rendezvous
//      port, everyone else on an ephemeral port.
//   2. Ranks 1..n-1 connect to rank 0 (with retry, listeners race up) and
//      send a registration {rank, my listener port, my host}. That
//      connection IS the mesh link between the pair.
//   3. Once all n-1 registrations arrived, rank 0 sends each peer the full
//      port table.
//   4. Rank r then dials every lower nonzero rank q < r directly (sending a
//      registration so q learns who called) and accepts the n-1-r higher
//      ranks on its own listener: exactly one socket per rank pair.
//   5. Each rank starts one reader thread per peer; inbound envelopes are
//      deserialized and delivered into the LOCAL rank's mailbox, where the
//      usual matching (tags, wildcards, deadlines) applies untouched.
//
// Envelope serialization is little-endian and carries the full header —
// source, tag, comm id, per-(source, comm) sequence AND the PR 9 trace
// context (trace id + flow id) — so FIFO order and cross-process flow
// stitching survive the wire.
//
// Failure semantics: transmit() to a dead peer throws (poisoning the sending
// rank like a fault-plan kill); a peer that disconnects before its goodbye
// is logged and treated as gone. stop() performs a goodbye barrier — send
// `bye` to every peer, drain inbound traffic until every peer's `bye`
// arrives — which is what makes "join all ranks" hold across processes:
// in-flight messages are fully delivered before any process tears down.
#pragma once

#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/error.hpp"
#include "mpmini/transport.hpp"
#include "wire/socket.hpp"

namespace mm::mpi {

// Where and who this process is in a socket-mode world.
struct Rendezvous {
  int rank = -1;             // this process's world rank
  std::string host = "127.0.0.1";  // rank 0's rendezvous address
  std::uint16_t port = 0;    // rank 0's rendezvous port
  // Optional pre-bound listening fd adopted by rank 0 (lets a test bind the
  // port before forking, eliminating the port race). Ownership transfers.
  int listen_fd = -1;
  std::chrono::milliseconds connect_timeout{10000};
};

// Parse MM_MPMINI_RANK and MM_MPMINI_RENDEZVOUS ("host:port") into the
// Rendezvous a launcher passes to Environment::run_rendezvous (or to
// RunOptions::rendezvous / PipelineConfig::rendezvous).
Expected<Rendezvous> rendezvous_from_env();

// Serialized envelope header after the kind byte: source, tag, comm id,
// sequence, trace id, flow, payload length.
inline constexpr std::size_t envelope_header_bytes = 4 + 4 + 8 + 8 + 8 + 4 + 8;

// Largest payload an envelope header may announce. The biggest frame the
// pipeline sends, a packed 61-symbol CorrFrame, is ~29 KB; 64 MiB still fits
// a 2,000-symbol frame (~32 MB) while a corrupt length can no longer ask the
// reader thread for an unbounded allocation.
inline constexpr std::uint64_t max_envelope_payload = std::uint64_t{64} << 20;

// Decode one envelope header (envelope_header_bytes bytes from the wire) into
// a Message whose payload is sized, zero-filled, for the bytes that follow.
// A length above max_envelope_payload is a protocol error.
Expected<Message> decode_envelope_header(const std::uint8_t* header);

class SocketTransport final : public Transport {
 public:
  SocketTransport(int world_size, Rendezvous rendezvous);
  ~SocketTransport() override;

  TransportMode mode() const override { return TransportMode::socket; }
  int local_rank() const { return rz_.rank; }

  // Run the rendezvous handshake and start the reader threads. Throws
  // std::runtime_error when the mesh cannot be established.
  void start() override;

  // Goodbye barrier + teardown (see file comment). Idempotent.
  void stop() override;

  void transmit(int src_world, int dest_world, Message&& msg) override;
  Mailbox& mailbox(int world_rank) override;
  void attach_obs(obs::Gauge* queue_peak, obs::Gauge* ring_peak) override;

 private:
  struct Peer {
    wire::Socket sock;
    std::mutex send_mutex;                // transmit serialization per link
    std::vector<std::uint8_t> tx;         // send scratch (reused)
    std::thread reader;
    bool bye_sent = false;                // guarded by send_mutex
  };

  void reader_loop(int peer_rank);
  Status send_envelope(Peer& peer, const Message& msg);
  void note_bye();

  int size_ = 0;
  Rendezvous rz_;
  Mailbox mailbox_;                        // the local rank's mailbox
  std::vector<std::unique_ptr<Peer>> peers_;  // [world rank]; null at local
  std::mutex bye_mutex_;
  std::condition_variable bye_cv_;
  int byes_ = 0;
  bool started_ = false;
  bool stopped_ = false;
  std::atomic<bool> stopping_{false};
};

}  // namespace mm::mpi
