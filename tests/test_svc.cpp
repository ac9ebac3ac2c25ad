// Backtest service end-to-end: multi-tenant sweeps over shared data compute
// each correlation key once, serve per-tenant metrics, and return results
// bit-identical to a direct run_pipeline — plus the fair-share queue, the
// REST error ladder, cancellation, and deterministic shutdown.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "engine/pipeline.hpp"
#include "marketdata/generator.hpp"
#include "svc/service.hpp"

namespace mm::svc {
namespace {

std::string http_exchange(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  ::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[4096];
  ssize_t got;
  while ((got = ::recv(fd, buf, sizeof(buf), 0)) > 0)
    response.append(buf, static_cast<std::size_t>(got));
  ::close(fd);
  return response;
}

std::string get(std::uint16_t port, const std::string& path) {
  return http_exchange(port, "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n");
}

std::string post(std::uint16_t port, const std::string& path,
                 const std::string& body) {
  return http_exchange(port, "POST " + path + " HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                                 std::to_string(body.size()) + "\r\n\r\n" + body);
}

std::string del(std::uint16_t port, const std::string& path) {
  return http_exchange(port, "DELETE " + path + " HTTP/1.1\r\nHost: x\r\n\r\n");
}

int status_of(const std::string& response) {
  if (response.rfind("HTTP/1.1 ", 0) != 0 || response.size() < 12) return -1;
  return std::stoi(response.substr(9, 3));
}

json::Value json_body(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  EXPECT_NE(split, std::string::npos);
  auto parsed = json::parse(response.substr(split + 4));
  EXPECT_TRUE(parsed.has_value());
  return parsed.has_value() ? parsed.value() : json::Value();
}

bool bits_equal(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

ServiceConfig fast_config(int workers = 2) {
  ServiceConfig config;
  config.workers = workers;
  config.quote_rate = 0.15;  // thin the synthetic tape so each unit is ~ms
  return config;
}

// Two-unit sweep shared verbatim by both tenants: unit A = two pearson
// strategies on the default (∆s=30, M=100), unit B = a maronna + a combined
// strategy on M=60. Submitted as JSON so the whole REST path is exercised.
std::string sweep_spec(const std::string& tenant) {
  return R"({"tenant":")" + tenant + R"(","symbols":8,"seed":7,"day":0,
    "paramsets":[
      {"ctype":"pearson","divergence":0.0005},
      {"ctype":"pearson","divergence":0.001},
      {"ctype":"maronna","corr_window":60},
      {"ctype":"combined","corr_window":60,"divergence":0.0008}
    ]})";
}

TEST(SvcEndToEnd, TwoTenantsShareCorrelationWorkAndMatchDirectRuns) {
  BacktestService service(fast_config());
  ASSERT_TRUE(service.start().has_value());
  const std::uint16_t port = service.port();

  const auto alice = post(port, "/jobs", sweep_spec("alice"));
  const auto bob = post(port, "/jobs", sweep_spec("bob"));
  ASSERT_EQ(status_of(alice), 201);
  ASSERT_EQ(status_of(bob), 201);
  const std::string alice_id = json_body(alice).get_string("id", "");
  const std::string bob_id = json_body(bob).get_string("id", "");
  ASSERT_TRUE(service.wait(alice_id, 60000));
  ASSERT_TRUE(service.wait(bob_id, 60000));

  // Status surface.
  const auto status = json_body(get(port, "/jobs/" + alice_id));
  EXPECT_EQ(status.get_string("state", ""), "done");
  EXPECT_EQ(status.get_int("units_total", 0), 2);
  EXPECT_EQ(status.get_int("units_done", 0), 2);

  // The shared plane: 2 distinct correlation keys across 4 units -> each
  // computed exactly once, the other tenant's identical units replayed.
  const auto store = service.corr_store().stats();
  EXPECT_EQ(store.computes, 2u);
  EXPECT_EQ(store.misses, 2u);
  // Each non-owner unit resolves to a hit (after a wait when it raced the
  // owner).
  EXPECT_EQ(store.hits, 2u);
  EXPECT_LE(store.waits, 2u);
  EXPECT_EQ(service.corr_store().entries(), 2u);
  // One day key, loaded once, shared by all 4 pipelines.
  EXPECT_EQ(service.day_cache().stats().misses, 1u);
  EXPECT_EQ(service.day_cache().entries(), 1u);

  // Results: both tenants ran the same spec, and replay is bit-exact, so
  // their result JSON must agree number-for-number.
  const auto alice_result = get(port, "/jobs/" + alice_id + "/result");
  const auto bob_result = get(port, "/jobs/" + bob_id + "/result");
  ASSERT_EQ(status_of(alice_result), 200);
  ASSERT_EQ(status_of(bob_result), 200);
  const auto ra = json_body(alice_result);
  const auto rb = json_body(bob_result);
  // Every hit is a unit that replayed its day, waited-on computes included.
  EXPECT_EQ(ra.get_int("units_from_cache", -1) + rb.get_int("units_from_cache", -1),
            static_cast<std::int64_t>(store.hits));
  ASSERT_EQ(ra.find("paramsets")->size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto& pa = ra.find("paramsets")->at(i);
    const auto& pb = rb.find("paramsets")->at(i);
    EXPECT_EQ(pa.get_int("trades", -1), pb.get_int("trades", -2));
    EXPECT_TRUE(bits_equal(pa.get_double("total_pnl", 0.0),
                           pb.get_double("total_pnl", 1.0)))
        << "paramset " << i;
  }

  // ... and agree bit-for-bit with a direct, service-free pipeline run of
  // the first unit (the two pearson paramsets).
  auto spec = parse_job_spec(sweep_spec("direct"));
  ASSERT_TRUE(spec.has_value());
  const md::Universe universe = md::make_universe(8);
  md::GeneratorConfig generator;
  generator.seed = 7;
  generator.quote_rate = 0.15;
  const md::SyntheticDay day(universe, generator, 0);
  engine::PipelineConfig config;
  config.symbols = 8;
  config.strategies = {spec.value().paramsets[0], spec.value().paramsets[1]};
  const auto direct = engine::run_pipeline(config, universe, day.quotes());
  ASSERT_EQ(direct.master.strategy_summaries.size(), 2u);
  for (std::size_t w = 0; w < 2; ++w) {
    const auto& summary = direct.master.strategy_summaries[w];
    const auto& via_svc = ra.find("paramsets")->at(w);
    EXPECT_EQ(via_svc.get_int("trades", -1),
              static_cast<std::int64_t>(summary.trades));
    EXPECT_TRUE(bits_equal(via_svc.get_double("total_pnl", 0.0),
                           summary.total_pnl))
        << "paramset " << w;
    const auto* returns = via_svc.find("trade_returns");
    ASSERT_NE(returns, nullptr);
    ASSERT_EQ(returns->size(), summary.trade_returns.size());
    for (std::size_t k = 0; k < summary.trade_returns.size(); ++k)
      EXPECT_TRUE(bits_equal(returns->at(k).as_double(),
                             summary.trade_returns[k]))
          << "return " << k;
  }

  // Per-tenant labeled families on the scrape.
  const std::string metrics = get(port, "/metrics");
  EXPECT_NE(metrics.find("mm_svc_jobs_done_total{tenant=\"alice\"} 1"),
            std::string::npos)
      << metrics.substr(0, 2000);
  EXPECT_NE(metrics.find("mm_svc_jobs_done_total{tenant=\"bob\"} 1"),
            std::string::npos);
  EXPECT_NE(metrics.find("mm_svc_units_done_total{tenant=\"alice\"} 2"),
            std::string::npos);
  EXPECT_NE(metrics.find("mm_corr_store_hits_total"), std::string::npos);

  service.stop();
}

TEST(SvcEndToEnd, MaronnaUnitRunsOneCorrelationRank) {
  // A direct run_pipeline spreads a Maronna day over correlation_replicas
  // ranks; a service unit keeps its correlation group at one rank, so
  // `workers` bounds the service's peak rank count. Both give the same bits.
  BacktestService service(fast_config(1));
  ASSERT_TRUE(service.start().has_value());
  const std::string body = R"({"tenant":"solo","symbols":8,"seed":7,"day":0,
    "paramsets":[{"ctype":"maronna","corr_window":60}]})";
  const auto id = service.submit(parse_job_spec(body).value());
  ASSERT_TRUE(id.has_value());
  ASSERT_TRUE(service.wait(id.value(), 60000));
  const auto result = get(service.port(), "/jobs/" + id.value() + "/result");
  ASSERT_EQ(status_of(result), 200);
  const auto via_svc = json_body(result).find("paramsets")->at(0);
  // Every member of a group records one sample of the node's wall time.
  const obs::Snapshot metrics = service.registry().snapshot();
  const obs::MetricValue* wall = metrics.find("dag.correlation.wall_ns");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->count, 1u);
  service.stop();

  const md::Universe universe = md::make_universe(8);
  md::GeneratorConfig generator;
  generator.seed = 7;
  generator.quote_rate = 0.15;
  const md::SyntheticDay day(universe, generator, 0);
  engine::PipelineConfig config;
  config.symbols = 8;
  config.strategies = {parse_job_spec(body).value().paramsets[0]};
  const auto direct = engine::run_pipeline(config, universe, day.quotes());
  const obs::MetricValue* direct_wall = direct.metrics.find("dag.correlation.wall_ns");
  ASSERT_NE(direct_wall, nullptr);
  EXPECT_EQ(direct_wall->count, 4u);  // the correlation_replicas default
  ASSERT_EQ(direct.master.strategy_summaries.size(), 1u);
  const auto& summary = direct.master.strategy_summaries[0];
  EXPECT_EQ(via_svc.get_int("trades", -1), static_cast<std::int64_t>(summary.trades));
  EXPECT_TRUE(bits_equal(via_svc.get_double("total_pnl", 0.0), summary.total_pnl));
}

TEST(SvcEndToEnd, RestErrorLadder) {
  BacktestService service(fast_config(1));
  ASSERT_TRUE(service.start().has_value());
  const std::uint16_t port = service.port();

  EXPECT_EQ(status_of(post(port, "/jobs", "{not json")), 400);
  EXPECT_EQ(status_of(post(port, "/jobs", R"({"tenant":"a"})")), 400);
  EXPECT_EQ(status_of(post(
                port, "/jobs",
                R"({"tenant":"a","paramsets":[{"bogus_knob":1}]})")),
            400);
  EXPECT_EQ(status_of(get(port, "/jobs/nope")), 404);
  EXPECT_EQ(status_of(get(port, "/jobs/nope/result")), 404);
  EXPECT_EQ(status_of(del(port, "/jobs/nope")), 404);
  EXPECT_EQ(status_of(http_exchange(
                port, "PUT /jobs HTTP/1.1\r\nHost: x\r\n\r\n")),
            405);
  EXPECT_EQ(status_of(get(port, "/healthz")), 200);

  // Listing works and a result for an unfinished job answers 409.
  auto spec = parse_job_spec(sweep_spec("carol"));
  ASSERT_TRUE(spec.has_value());
  auto id = service.submit(spec.value());
  ASSERT_TRUE(id.has_value());
  const auto listing = json_body(get(port, "/jobs"));
  ASSERT_NE(listing.find("jobs"), nullptr);
  EXPECT_EQ(listing.find("jobs")->size(), 1u);
  // Depending on timing the job is queued/running/done; 409 only before done.
  const auto result_status =
      status_of(get(port, "/jobs/" + id.value() + "/result"));
  EXPECT_TRUE(result_status == 409 || result_status == 200);

  ASSERT_TRUE(service.wait(id.value(), 60000));
  EXPECT_EQ(status_of(get(port, "/jobs/" + id.value() + "/result")), 200);
  EXPECT_EQ(status_of(del(port, "/jobs/" + id.value())), 409);
  service.stop();
}

// A paramset whose M-return window can never fill inside the 23400 s
// session is the client's error: 400 over REST, invalid_argument from
// submit, and the service keeps serving.
TEST(SvcEndToEnd, SpecWhoseWindowCannotFillIsRejected) {
  BacktestService service(fast_config(1));
  ASSERT_TRUE(service.start().has_value());
  const std::uint16_t port = service.port();
  const auto spec_with = [](const std::string& paramset) {
    return R"({"tenant":"a","symbols":3,"paramsets":[)" + paramset + "]}";
  };
  const auto expect_rejected = [&](const std::string& body) {
    EXPECT_EQ(status_of(post(port, "/jobs", body)), 400) << body;
    auto spec = parse_job_spec(body);
    ASSERT_TRUE(spec.has_value()) << body;
    const auto id = service.submit(spec.value());
    ASSERT_FALSE(id.has_value()) << body;
    EXPECT_EQ(id.error().code, Errc::invalid_argument) << body;
  };
  // ∆s longer than the session: no interval at all.
  expect_rejected(spec_with(R"({"delta_s":30000})"));
  // ∆s = 2340 s leaves 10 intervals: M = 10 never fills, M = 9 fills at the
  // last interval and is accepted on both paths.
  expect_rejected(spec_with(R"({"delta_s":2340,"corr_window":10})"));
  const std::string boundary = spec_with(R"({"delta_s":2340,"corr_window":9})");
  const auto posted = post(port, "/jobs", boundary);
  ASSERT_EQ(status_of(posted), 201);
  const std::string posted_id = json_body(posted).get_string("id", "");
  const auto submitted = service.submit(parse_job_spec(boundary).value());
  ASSERT_TRUE(submitted.has_value());
  for (const auto& id : {posted_id, submitted.value()}) {
    ASSERT_TRUE(service.wait(id, 60000)) << id;
    EXPECT_EQ(status_of(get(port, "/jobs/" + id + "/result")), 200) << id;
  }
  EXPECT_EQ(status_of(get(port, "/healthz")), 200);
  service.stop();
}

TEST(SvcQueue, FairShareRoundRobinsTenantsAndRemovesQueuedJobs) {
  JobQueue queue;
  const auto make_job = [](const std::string& tenant, const std::string& id) {
    auto job = std::make_shared<Job>();
    job->spec.tenant = tenant;
    job->id = id;
    return job;
  };
  // Tenant a floods; tenant b posts one job afterwards.
  ASSERT_TRUE(queue.push(make_job("a", "a1")));
  ASSERT_TRUE(queue.push(make_job("a", "a2")));
  ASSERT_TRUE(queue.push(make_job("a", "a3")));
  ASSERT_TRUE(queue.push(make_job("b", "b1")));

  // First take serves a (0 running each, a served-never, map order breaks the
  // tie deterministically); with a's job still running, b jumps the flood.
  const auto first = queue.take();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->id, "a1");
  const auto second = queue.take();
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->id, "b1");
  // Both running: tie on running count, a was served less recently.
  const auto third = queue.take();
  ASSERT_NE(third, nullptr);
  EXPECT_EQ(third->id, "a2");

  // a finishes one; removal plucks a queued job by id.
  queue.finished("a");
  EXPECT_TRUE(queue.remove("a3"));
  EXPECT_FALSE(queue.remove("a3"));
  EXPECT_EQ(queue.queued(), 0u);

  queue.shutdown();
  EXPECT_EQ(queue.take(), nullptr);
  EXPECT_FALSE(queue.push(make_job("c", "c1")));
}

TEST(SvcQueue, PerTenantAdmissionLimitBoundsQueueDepthNotConcurrency) {
  JobQueue queue;
  const auto make_job = [](const std::string& tenant, const std::string& id) {
    auto job = std::make_shared<Job>();
    job->spec.tenant = tenant;
    job->id = id;
    return job;
  };
  // Tenant a fills its two queue slots; the third submission is refused while
  // tenant b is unaffected (the limit is per tenant, not global).
  ASSERT_TRUE(queue.try_push(make_job("a", "a1"), 2).has_value());
  ASSERT_TRUE(queue.try_push(make_job("a", "a2"), 2).has_value());
  const auto refused = queue.try_push(make_job("a", "a3"), 2);
  ASSERT_FALSE(refused.has_value());
  EXPECT_EQ(refused.error().code, Errc::capacity);
  ASSERT_TRUE(queue.try_push(make_job("b", "b1"), 2).has_value());

  // Taking a1 moves it to running — running jobs do not count against the
  // limit, so a slot frees up even though nothing has finished.
  const auto first = queue.take();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->id, "a1");
  ASSERT_TRUE(queue.try_push(make_job("a", "a3"), 2).has_value());

  // Limit 0 means unbounded.
  ASSERT_TRUE(queue.try_push(make_job("a", "a4"), 0).has_value());

  queue.shutdown();
  const auto after = queue.try_push(make_job("c", "c1"), 2);
  ASSERT_FALSE(after.has_value());
  EXPECT_EQ(after.error().code, Errc::shutdown);
}

TEST(SvcEndToEnd, TenantQueueLimitAnswers429AndCountsRejections) {
  // One worker + a queue depth of one: flooding POST /jobs must trip the
  // admission limit long before fifty sweeps can drain.
  ServiceConfig config = fast_config(1);
  config.tenant_queue_limit = 1;
  BacktestService service(config);
  ASSERT_TRUE(service.start().has_value());
  const std::uint16_t port = service.port();

  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 50 && rejected == 0; ++i) {
    const int status = status_of(post(port, "/jobs", sweep_spec("greta")));
    if (status == 201)
      ++accepted;
    else if (status == 429)
      ++rejected;
    else
      FAIL() << "unexpected status " << status;
  }
  EXPECT_GE(accepted, 1);
  ASSERT_GE(rejected, 1);

  // The rejection shows up on the scrape, labeled by tenant; the refused job
  // is parked terminally cancelled so shutdown never waits on it.
  const std::string metrics = get(port, "/metrics");
  EXPECT_NE(metrics.find("mm_svc_jobs_rejected_total{tenant=\"greta\"} " +
                         std::to_string(rejected)),
            std::string::npos)
      << metrics.substr(0, 2000);
  service.stop();
}

TEST(SvcEndToEnd, CancelQueuedAndRunningJobs) {
  // One worker so the second submission is guaranteed to queue behind the
  // first.
  BacktestService service(fast_config(1));
  ASSERT_TRUE(service.start().has_value());

  auto spec = parse_job_spec(sweep_spec("dave"));
  ASSERT_TRUE(spec.has_value());
  auto running = service.submit(spec.value());
  auto queued = service.submit(spec.value());
  ASSERT_TRUE(running.has_value());
  ASSERT_TRUE(queued.has_value());

  // Cancel the queued one: terminal immediately, it never runs.
  EXPECT_TRUE(service.cancel(queued.value()));
  EXPECT_EQ(service.find(queued.value())->state.load(), JobState::cancelled);

  // Cancel the in-flight one: it stops at a unit boundary (or was already
  // done — both are legal; the state must be terminal and consistent).
  service.cancel(running.value());
  ASSERT_TRUE(service.wait(running.value(), 60000));
  const JobState state = service.find(running.value())->state.load();
  EXPECT_TRUE(state == JobState::done || state == JobState::cancelled);
  service.stop();
}

// The shutdown bugfix: stop() must leave every job terminal and every worker
// joined, under any interleaving of submit and stop. TSan-labeled.
TEST(SvcEndToEnd, StopDrainsInFlightJobsDeterministically) {
  for (int round = 0; round < 3; ++round) {
    BacktestService service(fast_config(2));
    ASSERT_TRUE(service.start().has_value());
    auto spec = parse_job_spec(sweep_spec("erin"));
    ASSERT_TRUE(spec.has_value());
    std::vector<std::string> ids;
    for (int j = 0; j < 6; ++j) {
      auto id = service.submit(spec.value());
      ASSERT_TRUE(id.has_value());
      ids.push_back(id.value());
    }
    service.stop();  // must not hang, leak threads, or leave non-terminal jobs
    for (const auto& id : ids) {
      const JobState state = service.find(id)->state.load();
      EXPECT_TRUE(state == JobState::done || state == JobState::cancelled ||
                  state == JobState::failed)
          << "job " << id << " left in state " << to_string(state);
    }
  }
}

TEST(SvcJobSpec, RoundTripsThroughJsonAndRejectsUnknownFields) {
  auto spec = parse_job_spec(sweep_spec("frank"));
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec.value().paramsets.size(), 4u);
  EXPECT_EQ(spec.value().paramsets[2].ctype, stats::Ctype::maronna);
  EXPECT_EQ(spec.value().paramsets[2].corr_window, 60);
  // Unspecified fields come from ParamGrid::base().
  EXPECT_EQ(spec.value().paramsets[0].delta_s, core::ParamGrid::base().delta_s);

  auto again = parse_job_spec(job_spec_json(spec.value()).dump());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again.value().tenant, "frank");
  ASSERT_EQ(again.value().paramsets.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(again.value().paramsets[i].ctype, spec.value().paramsets[i].ctype);
    EXPECT_EQ(again.value().paramsets[i].divergence,
              spec.value().paramsets[i].divergence);
    EXPECT_EQ(again.value().paramsets[i].corr_window,
              spec.value().paramsets[i].corr_window);
  }

  EXPECT_FALSE(parse_job_spec(R"({"tenant":"x","paramsets":[{"diverg":1}]})")
                   .has_value());
  EXPECT_FALSE(parse_job_spec(R"({"tenant":"x","paramsets":[]})").has_value());
  EXPECT_FALSE(
      parse_job_spec(R"({"tenant":"x","paramsets":[{"ctype":"spearman"}]})")
          .has_value());
  EXPECT_FALSE(parse_job_spec(R"({"paramsets":[{}]})").has_value());
}

}  // namespace
}  // namespace mm::svc
