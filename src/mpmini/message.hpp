// Message envelope and wildcard constants for the mpmini runtime.
//
// mpmini is this repository's stand-in for MPI (none is installed in the
// build environment): ranks are threads inside one process, and messages move
// between per-rank mailboxes with MPI envelope-matching semantics — a message
// is addressed by (communicator, destination) and matched on (source, tag),
// with per-(source, comm) FIFO non-overtaking order, exactly the guarantees
// the MarketMiner DAG workflow relies on.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/trace.hpp"

namespace mm::mpi {

// Wildcards, mirroring MPI_ANY_SOURCE / MPI_ANY_TAG.
inline constexpr int any_source = -1;
inline constexpr int any_tag = -1;

// Delivery envelope plus payload. Payloads are raw bytes; typed access goes
// through serde.hpp (Packer/Unpacker) or the trivially-copyable helpers on
// Comm.
struct Message {
  int source = any_source;
  int tag = any_tag;
  std::uint64_t comm_id = 0;
  std::uint64_t sequence = 0;  // per-(source, comm) counter; enforces FIFO order
  // Causal trace header (packed extension, no heap): the sender's TraceContext
  // trace id plus the flow-event id linking the send span to the recv span.
  // 0/0 means untraced. Travels intact through the SPSC lane rings and the
  // pooled-envelope path because both recycle slots by whole-Message
  // assignment.
  std::uint64_t trace_id = 0;
  std::uint32_t flow = 0;
  std::vector<std::uint8_t> payload;
};

// Result of a completed receive, mirroring MPI_Status.
struct RecvStatus {
  int source = any_source;
  int tag = any_tag;
  std::size_t byte_count = 0;
  // Trace header of the received message (0/0 when untraced), so consumers
  // (dagflow) can adopt the sender's causal context without re-parsing.
  std::uint64_t trace_id = 0;
  std::uint32_t flow = 0;
};

}  // namespace mm::mpi
