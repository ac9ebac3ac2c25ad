// Wire records exchanged between the Fig. 1 pipeline components.
//
// Every payload starts with a one-byte record type so a port can carry more
// than one record kind (e.g. strategy -> master carries both order batches
// and the end-of-day summary).
#pragma once

#include <cstdint>
#include <vector>

#include "marketdata/types.hpp"
#include "mpmini/serde.hpp"

namespace mm::engine {

enum class RecordType : std::uint8_t {
  quote_batch = 1,
  snapshot = 2,
  corr_frame = 3,
  order_batch = 4,
  strategy_summary = 5,
  cluster_snapshot = 6,
};

// Periodic co-movement grouping from the clustering stage ([12]).
struct ClusterSnapshot {
  std::int64_t interval = 0;
  std::int32_t cluster_count = 0;
  std::vector<std::int32_t> assignment;  // cluster id per symbol

  std::vector<std::uint8_t> pack() const {
    mpi::Packer p;
    p.put<std::uint8_t>(static_cast<std::uint8_t>(RecordType::cluster_snapshot));
    p.put<std::int64_t>(interval);
    p.put<std::int32_t>(cluster_count);
    p.put_vector(assignment);
    return p.take();
  }
  static ClusterSnapshot unpack(mpi::Unpacker& u) {
    ClusterSnapshot s;
    s.interval = u.get<std::int64_t>();
    s.cluster_count = u.get<std::int32_t>();
    s.assignment = u.get_vector<std::int32_t>();
    return s;
  }
};

// A batch of raw or cleaned quotes moving down the collector/cleaner stages.
struct QuoteBatch {
  std::vector<md::Quote> quotes;

  std::vector<std::uint8_t> pack() const {
    mpi::Packer p;
    p.put<std::uint8_t>(static_cast<std::uint8_t>(RecordType::quote_batch));
    p.put_vector(quotes);
    return p.take();
  }
  static QuoteBatch unpack(mpi::Unpacker& u) {
    QuoteBatch b;
    b.quotes = u.get_vector<md::Quote>();
    return b;
  }
};

// End-of-interval market snapshot from the bar/technical-analysis stage:
// BAM price and one-interval log-return per symbol.
struct Snapshot {
  std::int64_t interval = 0;
  std::vector<double> prices;
  std::vector<double> returns;  // empty at interval 0

  std::vector<std::uint8_t> pack() const {
    mpi::Packer p;
    p.put<std::uint8_t>(static_cast<std::uint8_t>(RecordType::snapshot));
    p.put<std::int64_t>(interval);
    p.put_vector(prices);
    p.put_vector(returns);
    return p.take();
  }
  static Snapshot unpack(mpi::Unpacker& u) {
    Snapshot s;
    s.interval = u.get<std::int64_t>();
    s.prices = u.get_vector<double>();
    s.returns = u.get_vector<double>();
    return s;
  }
};

// Correlation engine output: prices plus the pairwise coefficients (canonical
// i<j order) for the measures the strategies downstream need.
struct CorrFrame {
  std::int64_t interval = 0;
  bool valid = false;  // false until the M-window has filled
  std::vector<double> prices;
  std::vector<double> pearson;
  std::vector<double> maronna;  // empty when no robust consumer exists

  std::vector<std::uint8_t> pack() const {
    mpi::Packer p;
    p.put<std::uint8_t>(static_cast<std::uint8_t>(RecordType::corr_frame));
    p.put<std::int64_t>(interval);
    p.put<std::uint8_t>(valid ? 1 : 0);
    p.put_vector(prices);
    p.put_vector(pearson);
    p.put_vector(maronna);
    return p.take();
  }
  static CorrFrame unpack(mpi::Unpacker& u) {
    CorrFrame f;
    f.interval = u.get<std::int64_t>();
    f.valid = u.get<std::uint8_t>() != 0;
    f.prices = u.get_vector<double>();
    f.pearson = u.get_vector<double>();
    f.maronna = u.get_vector<double>();
    return f;
  }
};

// One order request flowing to the master (Fig. 1's right edge).
struct Order {
  std::int64_t interval = 0;
  std::int32_t strategy_id = 0;
  std::uint32_t symbol_i = 0;
  std::uint32_t symbol_j = 0;
  double shares_i = 0.0;  // signed deltas to apply (entry: open, exit: unwind)
  double shares_j = 0.0;
  double price_i = 0.0;
  double price_j = 0.0;
  std::uint8_t is_entry = 0;
};

// Every order one strategy emits for one frame (or for its end-of-day
// flatten), in pair order: the master applies them one by one, so a batch
// carries the same per-strategy order sequence as one message per order.
struct OrderBatch {
  std::vector<Order> orders;

  std::vector<std::uint8_t> pack() const {
    mpi::Packer p;
    p.put<std::uint8_t>(static_cast<std::uint8_t>(RecordType::order_batch));
    p.put_vector(orders);
    return p.take();
  }
  static OrderBatch unpack(mpi::Unpacker& u) {
    OrderBatch b;
    b.orders = u.get_vector<Order>();
    return b;
  }
};

// End-of-day totals from one strategy node.
struct StrategySummary {
  std::int32_t strategy_id = 0;
  std::uint64_t trades = 0;
  double total_pnl = 0.0;
  std::vector<double> trade_returns;

  std::vector<std::uint8_t> pack() const {
    mpi::Packer p;
    p.put<std::uint8_t>(static_cast<std::uint8_t>(RecordType::strategy_summary));
    p.put<std::int32_t>(strategy_id);
    p.put<std::uint64_t>(trades);
    p.put<double>(total_pnl);
    p.put_vector(trade_returns);
    return p.take();
  }
  static StrategySummary unpack(mpi::Unpacker& u) {
    StrategySummary s;
    s.strategy_id = u.get<std::int32_t>();
    s.trades = u.get<std::uint64_t>();
    s.total_pnl = u.get<double>();
    s.trade_returns = u.get_vector<double>();
    return s;
  }
};

}  // namespace mm::engine
