#include "engine/components.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/strings.hpp"
#include "core/strategy.hpp"
#include "dagflow/context.hpp"
#include "engine/messages.hpp"
#include "obs/heartbeat.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "marketdata/bars.hpp"
#include "stats/cluster.hpp"
#include "stats/corr_engine.hpp"

namespace mm::engine {
namespace {

// Sleep until the paced replay clock reaches `target_wall` — in chunks no
// longer than the heartbeat interval, beating between chunks, so a pacing
// collector reads as idle-but-alive to the monitor instead of going silent
// for the duration of a long sleep.
void paced_sleep_until(std::chrono::steady_clock::time_point target_wall) {
  obs::Pulse& pulse = obs::pulse_this_thread();
  const auto max_chunk = pulse.armed()
                             ? pulse.interval()
                             : std::chrono::nanoseconds{std::chrono::milliseconds{50}};
  while (true) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= target_wall) return;
    const auto remaining =
        std::chrono::duration_cast<std::chrono::nanoseconds>(target_wall - now);
    std::this_thread::sleep_for(remaining < max_chunk ? remaining : max_chunk);
    pulse.beat();
  }
}

// A stage's engine.<node>.<what> counter on the run's registry (null when the
// run records no metrics, as with step_histogram below).
obs::Counter* stage_counter(dag::Context& ctx, const char* what) {
  return ctx.metrics() != nullptr
             ? &ctx.metrics()->counter("engine." + ctx.name() + "." + what)
             : nullptr;
}

void count(obs::Counter* counter, std::uint64_t n) {
  if (counter != nullptr) counter->add(n);
}

// A stage's item traffic: engine.<node>.items_in and engine.<node>.items_out.
struct ItemCounters {
  explicit ItemCounters(dag::Context& ctx)
      : in(stage_counter(ctx, "items_in")), out(stage_counter(ctx, "items_out")) {}
  obs::Counter* in;
  obs::Counter* out;
};

void emit_quotes(dag::Context& ctx, const std::vector<md::Quote>& quotes,
                 std::size_t batch_size, double replay_speedup) {
  obs::Counter* items_out = stage_counter(ctx, "items_out");
  const bool paced = replay_speedup > 0.0 && !quotes.empty();
  const auto wall_start = std::chrono::steady_clock::now();
  const md::TimeMs day_start = paced ? quotes.front().ts_ms : 0;

  QuoteBatch batch;
  batch.quotes.reserve(batch_size);
  const auto flush = [&] {
    if (paced) {
      // Emit each batch when its FIRST quote's market time comes due on the
      // compressed clock; in-batch spread is below the pacing resolution.
      const double elapsed_market_ms =
          static_cast<double>(batch.quotes.front().ts_ms - day_start);
      paced_sleep_until(wall_start +
                        std::chrono::nanoseconds{static_cast<std::int64_t>(
                            elapsed_market_ms * 1e6 / replay_speedup)});
    }
    ctx.emit(0, batch.pack());
    count(items_out, batch.quotes.size());
    batch.quotes.clear();
  };
  for (const auto& q : quotes) {
    batch.quotes.push_back(q);
    if (batch.quotes.size() == batch_size) flush();
  }
  if (!batch.quotes.empty()) flush();
}

// Records may come from another process: one of the wrong type fails the
// node (the run comes back degraded) instead of aborting the process.
void expect_record(mpi::Unpacker& u, RecordType want, const char* stage) {
  const auto type = static_cast<RecordType>(u.get<std::uint8_t>());
  if (type != want)
    throw std::runtime_error(
        format("%s: unexpected record type %u", stage, static_cast<unsigned>(type)));
}

// Per-stage step histogram, registered on the run's registry (null when the
// run records no metrics; ObsSpan treats a null histogram as "don't sample").
obs::Histogram* step_histogram(dag::Context& ctx, const char* name) {
  return ctx.metrics() != nullptr ? &ctx.metrics()->histogram(name) : nullptr;
}

}  // namespace

dag::NodeFn make_collector(std::shared_ptr<const std::vector<md::Quote>> day,
                           std::size_t batch_size, double replay_speedup) {
  MM_ASSERT(batch_size > 0);
  MM_ASSERT_MSG(day != nullptr, "collector needs a day");
  return [day = std::move(day), batch_size, replay_speedup](dag::Context& ctx) {
    emit_quotes(ctx, *day, batch_size, replay_speedup);
  };
}

dag::NodeFn make_cleaner(std::size_t symbols, md::CleanerConfig config) {
  return [symbols, config](dag::Context& ctx) {
    const ItemCounters items(ctx);
    md::QuoteCleaner cleaner(symbols, config);
    while (auto msg = ctx.recv()) {
      mpi::Unpacker u(msg->bytes);
      expect_record(u, RecordType::quote_batch, "cleaner");
      auto batch = QuoteBatch::unpack(u);
      count(items.in, batch.quotes.size());

      QuoteBatch out;
      out.quotes.reserve(batch.quotes.size());
      for (const auto& q : batch.quotes) {
        // Quotes may come from another process (a wire feed): a symbol
        // outside the universe fails the node instead of the process.
        if (q.symbol >= symbols)
          throw std::runtime_error(format(
              "cleaner: quote symbol %u outside the %zu-symbol universe", q.symbol,
              symbols));
        if (cleaner.accept(q)) out.quotes.push_back(q);
      }
      if (!out.quotes.empty()) {
        count(items.out, out.quotes.size());
        ctx.emit(0, out.pack());
      }
    }
  };
}

dag::NodeFn make_snapshot_stage(std::size_t symbols, md::Session session,
                                std::int64_t delta_s, std::vector<double> seed_prices) {
  MM_ASSERT(seed_prices.size() == symbols);
  return [symbols, session, delta_s, seed = std::move(seed_prices)](dag::Context& ctx) {
    const ItemCounters items(ctx);
    const std::int64_t smax = session.interval_count(delta_s);
    std::vector<double> last_bam = seed;
    std::vector<double> prev_prices = seed;
    std::int64_t next_emit = 0;  // first interval not yet snapshotted

    const auto emit_through = [&](std::int64_t limit) {
      // Emit snapshots for every interval strictly below `limit`.
      for (; next_emit < limit && next_emit < smax; ++next_emit) {
        Snapshot snap;
        snap.interval = next_emit;
        snap.prices = last_bam;
        if (next_emit > 0) {
          snap.returns.resize(symbols);
          for (std::size_t i = 0; i < symbols; ++i)
            snap.returns[i] = std::log(last_bam[i] / prev_prices[i]);
        }
        prev_prices = last_bam;
        ctx.emit(0, snap.pack());
        count(items.out, 1);
      }
    };

    while (auto msg = ctx.recv()) {
      mpi::Unpacker u(msg->bytes);
      expect_record(u, RecordType::quote_batch, "snapshot");
      const auto batch = QuoteBatch::unpack(u);
      count(items.in, batch.quotes.size());
      for (const auto& q : batch.quotes) {
        const std::int64_t s = session.interval_of(q.ts_ms, delta_s);
        if (s < 0 || q.symbol >= symbols) continue;
        // A quote in interval s means intervals < s are complete.
        emit_through(s);
        last_bam[q.symbol] = q.bam();
      }
    }
    // End of stream: flush the remaining intervals of the session.
    emit_through(smax);
  };
}

dag::NodeFn make_cluster_stage(std::size_t symbols, int target_clusters,
                               std::int64_t cadence) {
  MM_ASSERT(cadence >= 1);
  return [symbols, target_clusters, cadence](dag::Context& ctx) {
    const ItemCounters items(ctx);
    const auto pairs = stats::all_pairs(symbols);
    while (auto msg = ctx.recv()) {
      mpi::Unpacker u(msg->bytes);
      expect_record(u, RecordType::corr_frame, "cluster");
      const auto frame = CorrFrame::unpack(u);
      count(items.in, 1);
      if (!frame.valid || frame.interval % cadence != 0) continue;
      // Frames may come from another process: one that does not cover the
      // universe fails this node instead of being indexed out of bounds.
      if (frame.pearson.size() != pairs.size())
        throw std::runtime_error(format(
            "cluster: corr frame at interval %lld does not cover the %zu-symbol universe",
            static_cast<long long>(frame.interval), symbols));

      stats::SymMatrix matrix(symbols, 0.0);
      matrix.fill_diagonal(1.0);
      for (std::size_t k = 0; k < pairs.size(); ++k)
        matrix.set(pairs[k].i, pairs[k].j, frame.pearson[k]);
      const auto clusters = stats::single_linkage_clusters(matrix, target_clusters);

      ClusterSnapshot snapshot;
      snapshot.interval = frame.interval;
      snapshot.cluster_count = clusters.cluster_count;
      snapshot.assignment.assign(clusters.assignment.begin(),
                                 clusters.assignment.end());
      ctx.emit(0, snapshot.pack());
      count(items.out, 1);
    }
  };
}

dag::GroupNodeFn make_correlation_stage(std::size_t symbols, std::int64_t corr_window,
                                        bool need_maronna,
                                        stats::MaronnaConfig maronna_config,
                                        int fan_out,
                                        std::chrono::milliseconds replica_deadline,
                                        stats::CorrDay* record) {
  MM_ASSERT(fan_out >= 1);
  stats::CorrEngineConfig engine;
  engine.type = need_maronna ? stats::Ctype::combined : stats::Ctype::pearson;
  engine.window = static_cast<std::size_t>(corr_window);
  engine.maronna = maronna_config;
  return [symbols, corr_window, need_maronna, engine, fan_out, replica_deadline,
          record](dag::Context* ctx, mpi::Comm& group) {
    const auto all = stats::all_pairs(symbols);
    const bool bounded = replica_deadline.count() > 0;
    // Every member mirrors the sliding windows in its own calculator, so a
    // pair's estimate is the same bits whichever member computes it.
    stats::CorrelationCalculator calc(engine, symbols);
    const auto advance = [&](std::int64_t interval, const std::vector<double>& returns) {
      if (!returns.empty()) calc.push(returns);
      return calc.ready() && interval >= corr_window;
    };
    // Block b of a round with `members` members: a contiguous, balanced
    // slice of the canonical pair order.
    const auto block_size = [&](std::size_t members, std::size_t b) {
      return stats::block_begin(all.size(), members, b + 1) -
             stats::block_begin(all.size(), members, b);
    };
    // Maronna over block b, written to out[0, block_size(members, b)).
    const auto robust_block = [&](std::size_t members, std::size_t b, double* out) {
      const std::size_t begin = stats::block_begin(all.size(), members, b);
      calc.robust_into(all.data() + begin, block_size(members, b), out);
    };

    // Group protocol, one round per snapshot. The leader sends each live
    // replica {round_step, round_no, alive, interval, returns}; the member
    // at position b of `alive` owns Maronna block b, so the pairs reshard
    // over the survivors whenever a replica drops out. Replicas answer
    // {round_no, block Maronna values}; Pearson is O(1) per pair, so the
    // leader fills it for every pair itself. round_no makes duplicated
    // frames (fault injection) detectable on both sides. round_done
    // terminates a replica.
    constexpr int tag_round = 1;
    constexpr int tag_shard = 2;
    constexpr std::uint8_t round_step = 1;
    constexpr std::uint8_t round_done = 0;

    if (group.rank() != 0) {
      // Replica: serve rounds until the leader says done or goes silent past
      // the deadline (leader dead, or this replica resharded away). The
      // decode and shard buffers persist across rounds.
      std::vector<std::int32_t> alive;
      std::vector<double> returns;
      std::vector<double> block;
      mpi::Packer shard;
      std::uint64_t next_round = 0;
      while (true) {
        std::vector<std::uint8_t> bytes;
        if (bounded) {
          auto r = group.recv_for(replica_deadline, 0, tag_round);
          if (!r) return;
          bytes = std::move(*r);
        } else {
          bytes = group.recv(0, tag_round);
        }
        mpi::Unpacker u(bytes);
        const auto kind = u.get<std::uint8_t>();
        const auto round_no = u.get<std::uint64_t>();
        if (kind == round_done) return;
        if (round_no < next_round) continue;  // duplicated round frame
        next_round = round_no + 1;
        u.get_vector_into(alive);
        const auto interval = u.get<std::int64_t>();
        u.get_vector_into(returns);
        const bool valid = advance(interval, returns);
        {
          obs::ObsSpan span(obs::current_trace_ring(), "corr-block");
          const auto b = static_cast<std::size_t>(
              std::find(alive.begin(), alive.end(), group.rank()) - alive.begin());
          block.resize(valid && need_maronna ? block_size(alive.size(), b) : 0);
          if (!block.empty()) robust_block(alive.size(), b, block.data());
        }
        shard.clear();
        shard.put<std::uint64_t>(round_no);
        shard.put_vector(block);
        group.send(0, tag_shard, shard.bytes());
      }
    }

    // Leader.
    const ItemCounters items(*ctx);
    std::vector<std::int32_t> alive;
    for (int r = 0; r < group.size(); ++r) alive.push_back(r);
    std::uint64_t round_no = 0;
    const auto release_replicas = [&] {
      if (alive.size() == 1) return;
      mpi::Packer done;
      done.put<std::uint8_t>(round_done);
      done.put<std::uint64_t>(round_no);
      for (const auto m : alive)
        if (m != 0) group.send(m, tag_round, done.bytes());
    };

    obs::Histogram* step_ns = step_histogram(*ctx, "engine.correlation.step_ns");
    obs::Counter* reshards = stage_counter(*ctx, "reshards");

    // Step buffers that live for the whole node.
    std::vector<std::int32_t> round_alive;  // this round's members
    mpi::Packer round;
    std::vector<double> shard;  // one replica's decoded block
    CorrFrame frame;

    // A leader that fails mid-day still releases its replicas, so none
    // waits out replica_deadline (or forever, when unbounded) for a round.
    try {
      while (auto msg = ctx->recv()) {
        mpi::Unpacker u(msg->bytes);
        expect_record(u, RecordType::snapshot, "correlation");
        auto snap = Snapshot::unpack(u);
        count(items.in, 1);
        obs::ObsSpan step(ctx->ring(), "corr-step", step_ns);

        // The assignment every party uses this round (alive may shrink below).
        round_alive = alive;
        const std::size_t members = round_alive.size();
        if (members > 1) {
          round.clear();
          round.put<std::uint8_t>(round_step);
          round.put<std::uint64_t>(round_no);
          round.put_vector(round_alive);
          round.put<std::int64_t>(snap.interval);
          round.put_vector(snap.returns);
          for (const auto m : round_alive)
            if (m != 0) group.send(m, tag_round, round.bytes());
        }
        const bool valid = advance(snap.interval, snap.returns);

        frame.interval = snap.interval;
        frame.prices = std::move(snap.prices);
        frame.valid = valid;
        frame.pearson.clear();
        frame.maronna.clear();
        // The leader's own share runs while the replicas compute theirs:
        // Pearson for every pair, then Maronna block 0.
        {
          obs::ObsSpan span(ctx->ring(), "corr-block");
          if (valid) {
            frame.pearson.resize(all.size());
            for (std::size_t k = 0; k < all.size(); ++k)
              frame.pearson[k] = calc.pearson(all[k].i, all[k].j);
            if (need_maronna) {
              frame.maronna.resize(all.size());
              robust_block(members, 0, frame.maronna.data());
            }
          }
        }

        // Bounded gather: a replica that misses the deadline is resharded away
        // for good (a missed round also desyncs its window mirror, so it must
        // never contribute again) and the leader computes its block instead —
        // it mirrors every window, so the frame matches the healthy run.
        for (std::size_t b = 1; b < members; ++b) {
          const auto m = round_alive[b];
          const auto deadline = std::chrono::steady_clock::now() + replica_deadline;
          bool received = false;
          while (true) {
            std::vector<std::uint8_t> bytes;
            if (bounded) {
              const auto budget = std::chrono::duration_cast<std::chrono::milliseconds>(
                  deadline - std::chrono::steady_clock::now());
              auto r = group.recv_for(std::max(budget, std::chrono::milliseconds{1}),
                                      m, tag_shard);
              if (!r) {
                alive.erase(std::remove(alive.begin(), alive.end(), m), alive.end());
                count(reshards, 1);
                break;
              }
              bytes = std::move(*r);
            } else {
              bytes = group.recv(m, tag_shard);
            }
            mpi::Unpacker su(bytes);
            if (su.get<std::uint64_t>() != round_no) continue;  // stale duplicate
            su.get_vector_into(shard);
            received = true;
            break;
          }
          if (!valid || !need_maronna) continue;
          double* out = frame.maronna.data() + stats::block_begin(all.size(), members, b);
          if (received) {
            if (shard.size() != block_size(members, b))
              throw std::runtime_error(format(
                  "correlation: replica %d sent %zu Maronna values for a %zu-pair block",
                  m, shard.size(), block_size(members, b)));
            std::copy(shard.begin(), shard.end(), out);
          } else {
            robust_block(members, b, out);
          }
        }
        step.close();
        const auto packed = frame.pack();
        for (int port = 0; port < fan_out; ++port) ctx->emit(port, packed);
        if (record != nullptr) record->frames.push_back(packed);
        count(items.out, 1);
        ++round_no;
      }
    } catch (...) {
      try {
        release_replicas();
      } catch (...) {
      }
      throw;
    }
    // End of stream: release the surviving replicas.
    release_replicas();
  };
}

dag::NodeFn make_strategy_stage(core::StrategyParams params, std::int32_t strategy_id,
                                std::int64_t smax) {
  return [params, strategy_id, smax](dag::Context& ctx) {
    const ItemCounters items(ctx);
    obs::Histogram* step_ns = step_histogram(ctx, "engine.strategy.step_ns");

    // A frame's orders collect in one reused batch, in the order the bank
    // yields them, and travel as one message: the transport pays per frame
    // that has orders, not per order.
    OrderBatch batch;
    const auto add_order = [&](std::int64_t s, const stats::PairIndex& pr, double di,
                               double dj, double pi, double pj, bool entry) {
      Order& order = batch.orders.emplace_back();
      order.interval = s;
      order.strategy_id = strategy_id;
      order.symbol_i = pr.i;
      order.symbol_j = pr.j;
      order.shares_i = di;
      order.shares_j = dj;
      order.price_i = pi;
      order.price_j = pj;
      order.is_entry = entry ? 1 : 0;
    };
    const auto emit_batch = [&] {
      if (batch.orders.empty()) return;
      ctx.emit(0, batch.pack());
      count(items.out, batch.orders.size());
      batch.orders.clear();
    };
    // Built on the first frame, which fixes the universe: the bank over every
    // pair of it, in the canonical all-pairs order of the frame vectors, so
    // pair k's coefficient is at slot k.
    std::vector<stats::PairIndex> pairs;
    std::optional<core::PairBank> bank;
    const auto add_exit = [&](std::int64_t s, std::size_t k) {
      const auto& t = bank->trades(k).back();
      add_order(s, pairs[k], -t.shares_i, -t.shares_j, t.exit_price_i, t.exit_price_j,
                false);
    };
    std::size_t universe = 0;
    std::vector<double> combined;  // Combined's coefficients, per frame
    std::int64_t last_interval = -1;

    while (auto msg = ctx.recv()) {
      mpi::Unpacker u(msg->bytes);
      expect_record(u, RecordType::corr_frame, "strategy");
      const auto frame = CorrFrame::unpack(u);
      count(items.in, 1);
      last_interval = frame.interval;

      const std::size_t n = frame.prices.size();
      if (!bank) {
        pairs = stats::all_pairs(n);
        bank.emplace(params, smax, n, pairs);
        universe = n;
      }
      // Frames may come from another process: a malformed one fails this
      // node instead of being indexed out of bounds.
      const std::size_t slots = n * (n - 1) / 2;
      if (n != universe ||
          (frame.valid && (frame.pearson.size() != slots ||
                           (params.ctype != stats::Ctype::pearson &&
                            frame.maronna.size() != slots))))
        throw std::runtime_error(
            format("strategy: corr frame at interval %lld does not cover the %zu-symbol "
                   "universe",
                   static_cast<long long>(frame.interval), universe));
      const double* corr = nullptr;  // read by the bank only when the frame is valid
      if (frame.valid) {
        switch (params.ctype) {
          case stats::Ctype::pearson:
            corr = frame.pearson.data();
            break;
          case stats::Ctype::maronna:
            corr = frame.maronna.data();
            break;
          case stats::Ctype::combined:
            combined.resize(slots);
            for (std::size_t k = 0; k < slots; ++k)
              combined[k] = stats::combine(frame.pearson[k], frame.maronna[k]);
            corr = combined.data();
            break;
        }
      }

      obs::ObsSpan step(ctx.ring(), "strategy-step", step_ns);
      for (const auto& event :
           bank->step(frame.interval, frame.prices.data(), corr, frame.valid)) {
        const std::size_t k = event.pair;
        if (event.entry)
          add_order(frame.interval, pairs[k], bank->position_shares_i(k),
                    bank->position_shares_j(k), bank->position_entry_price_i(k),
                    bank->position_entry_price_j(k), true);
        else
          add_exit(frame.interval, k);
      }
      emit_batch();
    }

    // End of day: flatten (one more batch, ahead of the summary) and
    // summarize, pair by pair and trade by trade.
    StrategySummary summary;
    summary.strategy_id = strategy_id;
    if (bank) {
      for (const auto& event : bank->finish()) add_exit(last_interval, event.pair);
      emit_batch();
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        for (const auto& t : bank->trades(k)) {
          ++summary.trades;
          summary.total_pnl += t.pnl;
          summary.trade_returns.push_back(t.trade_return);
        }
      }
    }
    ctx.emit(0, summary.pack());
  };
}

dag::NodeFn make_master(MasterReport* report, std::size_t symbols, RiskConfig risk) {
  MM_ASSERT(report != nullptr);
  return [report, symbols, risk](dag::Context& ctx) {
    // Dense per-symbol books sized by the universe. A symbol with no leg yet
    // holds net 0 at price 0 and adds +0.0 to the gross notional, so the sum
    // over every symbol in ascending order equals the sum over the symbols
    // seen so far.
    std::vector<double> net(symbols, 0.0);
    std::vector<double> last_price(symbols, 0.0);
    std::vector<std::uint8_t> seen(symbols, 0);

    // Orders may come from other processes: a symbol outside the universe
    // fails this node (the run comes back degraded) instead of indexing out
    // of the books.
    const auto check_symbol = [symbols](std::uint32_t symbol) {
      if (symbol >= symbols)
        throw std::runtime_error(format(
            "master: order symbol %u outside the %zu-symbol universe", symbol, symbols));
    };
    const auto apply_leg = [&](std::uint32_t symbol, double shares, double price) {
      seen[symbol] = 1;
      net[symbol] += shares;
      last_price[symbol] = price;
      report->raw_order_shares += std::abs(shares);
      if (risk.max_symbol_shares > 0.0 && std::abs(net[symbol]) > risk.max_symbol_shares)
        ++report->symbol_limit_breaches;
    };

    std::vector<Order> batch;  // reused across batches
    while (auto msg = ctx.recv()) {
      mpi::Unpacker u(msg->bytes);
      const auto type = static_cast<RecordType>(u.get<std::uint8_t>());
      if (type == RecordType::order_batch) {
        // A batch's element count must fill its payload exactly; a batch
        // from another process that overruns it fails this node instead of
        // tripping the decoder's assert.
        const std::size_t bytes = u.remaining();
        std::uint64_t n = 0;
        if (bytes >= sizeof n) n = mpi::Unpacker(u).get<std::uint64_t>();  // peek
        if (bytes < sizeof n || (bytes - sizeof n) % sizeof(Order) != 0 ||
            n != (bytes - sizeof n) / sizeof(Order))
          throw std::runtime_error(format(
              "master: order batch of %llu orders does not fill its %zu-byte payload",
              static_cast<unsigned long long>(n), bytes));
        u.get_vector_into(batch);
        // Applied one by one, as they were emitted: the books, the order log
        // and the risk fields see each strategy's per-order sequence.
        for (const Order& order : batch) {
          check_symbol(order.symbol_i);
          check_symbol(order.symbol_j);
          ++report->orders;
          report->order_log.push_back(order);
          if (order.is_entry) ++report->entries;
          else ++report->exits;
          apply_leg(order.symbol_i, order.shares_i, order.price_i);
          apply_leg(order.symbol_j, order.shares_j, order.price_j);

          double gross = 0.0;
          for (std::size_t symbol = 0; symbol < symbols; ++symbol)
            gross += std::abs(net[symbol]) * last_price[symbol];
          report->peak_gross_notional = std::max(report->peak_gross_notional, gross);
          if (risk.max_gross_notional > 0.0 && gross > risk.max_gross_notional)
            ++report->gross_limit_breaches;
        }
      } else if (type == RecordType::strategy_summary) {
        report->strategy_summaries.push_back(StrategySummary::unpack(u));
      } else {
        throw std::runtime_error(
            format("master: unexpected record type %u", static_cast<unsigned>(type)));
      }
    }
    for (std::uint32_t symbol = 0; symbol < symbols; ++symbol)
      if (seen[symbol] != 0) report->net_shares[symbol] = net[symbol];
    // Arrival order across workers is a race; sort, then total in strategy-id
    // order, for deterministic reports.
    std::sort(report->strategy_summaries.begin(), report->strategy_summaries.end(),
              [](const StrategySummary& a, const StrategySummary& b) {
                return a.strategy_id < b.strategy_id;
              });
    for (const auto& summary : report->strategy_summaries) {
      report->trades += summary.trades;
      report->total_pnl += summary.total_pnl;
      report->trade_returns.insert(report->trade_returns.end(),
                                   summary.trade_returns.begin(),
                                   summary.trade_returns.end());
    }

    // Basket netting: each (interval, symbol) basket sums its legs in arrival
    // order; the netted total adds the baskets by interval, then symbol.
    const auto& log = report->order_log;
    std::vector<std::size_t> by_interval(log.size());
    for (std::size_t i = 0; i < by_interval.size(); ++i) by_interval[i] = i;
    std::stable_sort(by_interval.begin(), by_interval.end(),
                     [&log](std::size_t a, std::size_t b) {
                       return log[a].interval < log[b].interval;
                     });
    std::vector<double> flow(symbols, 0.0);
    std::vector<std::uint8_t> in_basket(symbols, 0);
    std::vector<std::uint32_t> basket;  // symbols with a leg in this basket
    const auto add_leg = [&](std::uint32_t symbol, double shares) {
      if (in_basket[symbol] == 0) {
        in_basket[symbol] = 1;
        basket.push_back(symbol);
      }
      flow[symbol] += shares;
    };
    for (std::size_t begin = 0; begin < by_interval.size();) {
      const std::int64_t interval = log[by_interval[begin]].interval;
      std::size_t end = begin;
      for (; end < by_interval.size() && log[by_interval[end]].interval == interval; ++end) {
        const Order& order = log[by_interval[end]];
        add_leg(order.symbol_i, order.shares_i);
        add_leg(order.symbol_j, order.shares_j);
      }
      std::sort(basket.begin(), basket.end());
      for (const std::uint32_t symbol : basket) {
        report->netted_order_shares += std::abs(flow[symbol]);
        flow[symbol] = 0.0;
        in_basket[symbol] = 0;
      }
      basket.clear();
      ++report->basket_count;
      begin = end;
    }

    // Degradation section: which strategy streams ended in a failure marker
    // (or silence) rather than a clean end-of-day.
    report->degraded = ctx.upstream_failed();
    report->failed_strategies = ctx.failed_input_ports();
  };
}

}  // namespace mm::engine
