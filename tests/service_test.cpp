// The afpd service stack, bottom-up: the strict JSON parser, the frame
// codec, the admission policy, and end-to-end sessions against an
// in-process Server on a unix socket — submit/result bitwise parity with
// the JobService::run_job path (registry, scenario and SPICE submits),
// cancellation, mid-run deadlines, protocol robustness against malformed
// input, quotas, priorities, drain, and fault-injection isolation between
// sessions.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/fault.hpp"
#include "core/job_service.hpp"
#include "core/report.hpp"
#include "ingest/scenario.hpp"
#include "netlist/library.hpp"
#include "numeric/parallel.hpp"
#include "service/admission.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

namespace {

using namespace afp;
using service::AdmissionConfig;
using service::AdmissionQueue;
using service::Client;
using service::FrameReader;
using service::JsonError;
using service::JsonValue;
using service::ProtocolError;
using service::ServerError;

// ------------------------------------------------------------ JSON parser ---

TEST(Json, ParsesScalarsStringsAndNesting) {
  const JsonValue v = service::json_parse(
      R"({"a": 1.5, "b": [true, false, null], "s": "q\"\\\nA"})");
  EXPECT_DOUBLE_EQ(v.at("a").as_number(), 1.5);
  ASSERT_EQ(v.at("b").as_array().size(), 3u);
  EXPECT_TRUE(v.at("b").as_array()[0].as_bool());
  EXPECT_TRUE(v.at("b").as_array()[2].is_null());
  EXPECT_EQ(v.at("s").as_string(), "q\"\\\nA");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, PreservesMemberOrder) {
  const JsonValue v = service::json_parse(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_EQ(v.members().size(), 3u);
  EXPECT_EQ(v.members()[0].first, "z");
  EXPECT_EQ(v.members()[2].first, "m");
}

TEST(Json, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",                      // empty
      "{",                     // unterminated
      "{\"a\": 1,}",           // trailing comma
      "{\"a\": 1} x",          // trailing garbage
      "{\"a\": 1 \"b\": 2}",   // missing comma
      "{\"a\": 01}",           // leading zero
      "{\"a\": 1.}",           // trailing dot
      "{\"a\": nan}",          // bare nan
      "{\"a\": +1}",           // leading plus
      "{\"a\": 'x'}",          // single quotes
      "{\"a\": \"\x01\"}",     // raw control char in string
      "{\"a\": 1, \"a\": 2}",  // duplicate key
      "[1, 2",                 // unterminated array
  };
  for (const char* doc : bad) {
    EXPECT_THROW(service::json_parse(doc), JsonError) << doc;
  }
}

TEST(Json, DepthCapStopsHostileNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  EXPECT_THROW(service::json_parse(deep + "1"), JsonError);
  EXPECT_NO_THROW(service::json_parse("[[[[[1]]]]]"));
}

TEST(Json, IntegerNarrowingIsExact) {
  EXPECT_EQ(service::json_parse("7").as_uint("x"), 7u);
  EXPECT_THROW(service::json_parse("7.25").as_uint("x"), JsonError);
  EXPECT_THROW(service::json_parse("-1").as_uint("x"), JsonError);
  EXPECT_EQ(service::json_parse("-3").as_int("x"), -3);
  EXPECT_THROW(service::json_parse("1e30").as_int("x"), JsonError);
  // Integer tokens keep their exact value past 2^53 (a double would round
  // 2^53 + 1 down), up to 2^64 - 1; 2^64 and beyond are out of range.
  EXPECT_EQ(service::json_parse("9007199254740993").as_uint("x"),
            9007199254740993ull);
  EXPECT_EQ(service::json_parse("18446744073709551615").as_uint("x"),
            18446744073709551615ull);
  EXPECT_THROW(service::json_parse("18446744073709551616").as_uint("x"),
               JsonError);
  EXPECT_THROW(service::json_parse("1e20").as_uint("x"), JsonError);
  EXPECT_EQ(service::json_parse("1e3").as_uint("x"), 1000u);
  EXPECT_EQ(service::json_parse("[9007199254740993]")
                .as_array()[0]
                .as_uint("x"),
            9007199254740993ull);
}

// ------------------------------------------------------------ frame codec ---

TEST(Frames, RoundTripsThroughIncrementalFeeds) {
  const std::string payload = R"({"type": "ping"})";
  const std::string frame = service::encode_frame(payload);
  FrameReader reader;
  // Byte at a time: next() must return false until the last byte lands.
  std::string out;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    EXPECT_FALSE(reader.next(&out));
    reader.feed(frame.data() + i, 1);
  }
  ASSERT_TRUE(reader.next(&out));
  EXPECT_EQ(out, payload);
  EXPECT_TRUE(reader.idle());
}

TEST(Frames, DecodesSeveralFramesFromOneFeed) {
  const std::string two =
      service::encode_frame("{\"a\": 1}") + service::encode_frame("{}");
  FrameReader reader;
  reader.feed(two.data(), two.size());
  std::string out;
  ASSERT_TRUE(reader.next(&out));
  EXPECT_EQ(out, "{\"a\": 1}");
  ASSERT_TRUE(reader.next(&out));
  EXPECT_EQ(out, "{}");
  EXPECT_FALSE(reader.next(&out));
}

TEST(Frames, JunkAndBadPrefixesAreProtocolErrors) {
  std::string out;
  {
    // ASCII junk: "GET " decodes as a ~1.2 GB length prefix.
    FrameReader reader;
    const std::string junk = "GET / HTTP/1.1\r\n\r\n";
    reader.feed(junk.data(), junk.size());
    EXPECT_THROW(reader.next(&out), ProtocolError);
  }
  {
    // Zero-length frames carry no payload and are never sent.
    FrameReader reader;
    const char zero[4] = {0, 0, 0, 0};
    reader.feed(zero, 4);
    EXPECT_THROW(reader.next(&out), ProtocolError);
  }
  {
    // A prefix over the cap is rejected as soon as it completes, long
    // before any payload bytes are buffered.
    FrameReader reader;
    const char big[4] = {'\x7f', '\x00', '\x00', '\x00'};
    reader.feed(big, 3);
    EXPECT_FALSE(reader.next(&out));
    reader.feed(big + 3, 1);
    EXPECT_THROW(reader.next(&out), ProtocolError);
  }
  EXPECT_THROW(
      service::encode_frame(std::string(service::kMaxFrameBytes + 1, 'x')),
      ProtocolError);
}

TEST(Frames, TruncationIsVisibleViaIdle) {
  FrameReader reader;
  const std::string frame = service::encode_frame("{\"a\": 1}");
  reader.feed(frame.data(), frame.size() - 2);
  std::string out;
  EXPECT_FALSE(reader.next(&out));
  EXPECT_FALSE(reader.idle());  // a disconnect now is "mid-frame"
}

TEST(Frames, ResultReportSliceIsVerbatim) {
  const std::string report = "{\n  \"schema_version\": 1,\n  \"x\": [1]\n}";
  const std::string payload =
      "{\"type\": \"result\", \"job\": 3, \"name\": \"n\", \"status\": "
      "\"done\", \"seed\": 7, \"runtime_s\": 0.5, \"attempts\": 1, "
      "\"error\": null, \"report\": " +
      report + "}";
  EXPECT_EQ(service::result_report_slice(payload), report);
  const std::string unfinished =
      "{\"type\": \"result\", \"job\": 3, \"error\": null, \"report\": "
      "null}";
  EXPECT_EQ(service::result_report_slice(unfinished), "null");
  EXPECT_EQ(service::result_report_slice("{\"type\": \"pong\"}"), "");
}

// ------------------------------------------------------------- admission ---

TEST(Admission, InflightCapParksAndQuotaRejects) {
  AdmissionConfig cfg;
  cfg.per_session = 3;
  AdmissionQueue q(cfg, 2);
  ASSERT_TRUE(q.open_session(1));
  std::string why;
  EXPECT_EQ(q.admit(1, 10, 0, &why), AdmissionQueue::Verdict::kRun);
  EXPECT_EQ(q.admit(1, 11, 0, &why), AdmissionQueue::Verdict::kRun);
  EXPECT_EQ(q.admit(1, 12, 0, &why), AdmissionQueue::Verdict::kParked);
  // Over the per-session quota: rejected outright, never parked.
  EXPECT_EQ(q.admit(1, 13, 0, &why), AdmissionQueue::Verdict::kRejected);
  EXPECT_NE(why.find("quota"), std::string::npos) << why;
  EXPECT_EQ(q.outstanding(), 3u);
}

TEST(Admission, ReleaseLaunchesByPriorityThenArrival) {
  AdmissionConfig cfg;
  cfg.per_session = 16;
  AdmissionQueue q(cfg, 1);
  ASSERT_TRUE(q.open_session(1));
  std::string why;
  EXPECT_EQ(q.admit(1, 1, 0, &why), AdmissionQueue::Verdict::kRun);
  EXPECT_EQ(q.admit(1, 2, 0, &why), AdmissionQueue::Verdict::kParked);
  EXPECT_EQ(q.admit(1, 3, 5, &why), AdmissionQueue::Verdict::kParked);
  EXPECT_EQ(q.admit(1, 4, 5, &why), AdmissionQueue::Verdict::kParked);
  // Highest priority first; FIFO within a priority; one slot per release.
  EXPECT_EQ(q.release(1), std::vector<std::uint64_t>{3});
  EXPECT_EQ(q.release(3), std::vector<std::uint64_t>{4});
  EXPECT_EQ(q.release(4), std::vector<std::uint64_t>{2});
  EXPECT_EQ(q.release(2), std::vector<std::uint64_t>{});
  EXPECT_EQ(q.outstanding(), 0u);
}

TEST(Admission, CancellingAParkedJobFreesItsSlotWithoutLaunching) {
  AdmissionConfig cfg;
  AdmissionQueue q(cfg, 1);
  ASSERT_TRUE(q.open_session(1));
  std::string why;
  EXPECT_EQ(q.admit(1, 1, 0, &why), AdmissionQueue::Verdict::kRun);
  EXPECT_EQ(q.admit(1, 2, 0, &why), AdmissionQueue::Verdict::kParked);
  EXPECT_EQ(q.release(2), std::vector<std::uint64_t>{});  // parked cancel
  EXPECT_EQ(q.release(1), std::vector<std::uint64_t>{});  // nothing waits
  EXPECT_EQ(q.outstanding(), 0u);
}

TEST(Admission, SessionLimitAndCloseDropParkedJobs) {
  AdmissionConfig cfg;
  cfg.max_sessions = 1;
  AdmissionQueue q(cfg, 1);
  ASSERT_TRUE(q.open_session(1));
  EXPECT_FALSE(q.open_session(2));
  std::string why;
  EXPECT_EQ(q.admit(1, 1, 0, &why), AdmissionQueue::Verdict::kRun);
  EXPECT_EQ(q.admit(1, 2, 0, &why), AdmissionQueue::Verdict::kParked);
  EXPECT_EQ(q.admit(1, 3, 0, &why), AdmissionQueue::Verdict::kParked);
  EXPECT_EQ(q.close_session(1), (std::vector<std::uint64_t>{2, 3}));
  // The running job still occupies its slot until the server releases it.
  EXPECT_EQ(q.outstanding(), 1u);
  EXPECT_TRUE(q.open_session(2));
}

TEST(Admission, StrikesAccumulateAndEjectAtTheLimit) {
  AdmissionConfig cfg;
  cfg.strike_limit = 3;
  AdmissionQueue q(cfg, 2);
  ASSERT_TRUE(q.open_session(1));
  EXPECT_FALSE(q.record_strike(1));
  EXPECT_FALSE(q.record_strike(1));
  EXPECT_TRUE(q.record_strike(1));  // third strike ejects
  EXPECT_EQ(q.total_strikes(), 3u);
  EXPECT_EQ(q.total_strike_ejections(), 1u);
  // Unknown (already-closed) sessions never eject.
  EXPECT_FALSE(q.record_strike(99));
  // strike_limit 0 disables the limit entirely.
  AdmissionConfig off;
  off.strike_limit = 0;
  AdmissionQueue q2(off, 2);
  ASSERT_TRUE(q2.open_session(1));
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(q2.record_strike(1));
  EXPECT_EQ(q2.total_strike_ejections(), 0u);
}

TEST(Admission, DrainRejectsNewAdmitsButParkedStillLaunch) {
  AdmissionConfig cfg;
  AdmissionQueue q(cfg, 1);
  ASSERT_TRUE(q.open_session(1));
  std::string why;
  EXPECT_EQ(q.admit(1, 1, 0, &why), AdmissionQueue::Verdict::kRun);
  EXPECT_EQ(q.admit(1, 2, 0, &why), AdmissionQueue::Verdict::kParked);
  q.begin_drain();
  EXPECT_EQ(q.admit(1, 3, 0, &why), AdmissionQueue::Verdict::kRejected);
  EXPECT_NE(why.find("drain"), std::string::npos) << why;
  EXPECT_EQ(q.release(1), std::vector<std::uint64_t>{2});
}

// ------------------------------------------------------------ end-to-end ---

// "timings" is the report's one non-deterministic member.
std::string normalize_timings(std::string report) {
  const std::size_t at = report.find("\"timings\": {");
  if (at == std::string::npos) return report;
  const std::size_t open = report.find('{', at);
  const std::size_t close = report.find('}', open);
  if (close != std::string::npos) report.replace(open, close - open + 1, "{}");
  return report;
}

core::JobSpec make_spec(const std::string& circuit, int iterations) {
  core::JobSpec spec;
  spec.name = circuit;
  for (const auto& e : netlist::circuit_registry()) {
    if (e.name == circuit) spec.netlist = e.make();
  }
  spec.config.search.budget.iterations = iterations;
  return spec;
}

// What `afp_cli floorplan <circuit> --iters N --seed S --report-json` emits
// (and the bytes a served result's "report" member must match).
std::string reference_report(const std::string& circuit, int iterations,
                             std::uint64_t seed) {
  const core::JobSpec spec = make_spec(circuit, iterations);
  const core::JobReport rep =
      core::JobService::run_job(spec, 0, seed, nullptr, {});
  return core::report_json(rep.result, rep.name, rep.optimizer, rep.options,
                           rep.search, rep.seed);
}

std::string config_json(int iterations) {
  return "{\"optimizer\": \"sa\", \"search\": {\"iterations\": " +
         std::to_string(iterations) + "}}";
}

class ServiceE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/afp_serviceXXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    stop_server();
    if (saved_threads_ > 0) num::set_num_threads(saved_threads_);
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string sock() const { return dir_ + "/afpd.sock"; }

  /// Pins the numeric pool — and so the next server's run slots, one per
  /// JobService worker — to `n` threads; TearDown restores the old size.
  void pin_threads(int n) {
    if (saved_threads_ == 0) saved_threads_ = num::num_threads();
    num::set_num_threads(n);
  }

  void start_server(AdmissionConfig adm, double drain_grace_s = 0.2) {
    service::ServerConfig cfg;
    cfg.admission = adm;
    cfg.drain_grace_s = drain_grace_s;
    start_server_cfg(std::move(cfg));
  }

  /// Full-config variant for the resilience tests (socket path is filled
  /// in here; pass by value so a test can reuse one cfg across restarts).
  void start_server_cfg(service::ServerConfig cfg) {
    cfg.unix_path = sock();
    server_.emplace(std::move(cfg));
    server_->start();
    serve_thread_ = std::thread([this] { server_->serve(); });
  }

  /// Polls the server's stats until `pred` holds (true) or 5 s elapse.
  bool wait_stats(
      const std::function<bool(const service::ServerStats&)>& pred) {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < until) {
      if (pred(server_->stats_snapshot())) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  void stop_server() {
    if (!server_) return;
    server_->request_drain();
    if (serve_thread_.joinable()) serve_thread_.join();
    server_.reset();
  }

  Client connect() { return Client::connect_unix(sock()); }

  std::string dir_;
  std::optional<service::Server> server_;
  std::thread serve_thread_;
  int saved_threads_ = 0;
};

TEST_F(ServiceE2E, ServedReportIsBitwiseIdenticalToRunJob) {
  start_server({});
  Client client = connect();
  const auto acc = client.submit("ota_small", 11, 0, config_json(80));
  EXPECT_FALSE(acc.queued);
  const Client::Result res = client.await_result(acc.job);
  EXPECT_EQ(res.status, "done");
  EXPECT_EQ(res.seed, 11u);
  EXPECT_EQ(res.attempts, 1);
  EXPECT_EQ(res.error_kind, "");
  EXPECT_EQ(normalize_timings(res.report_raw),
            normalize_timings(reference_report("ota_small", 80, 11)));
  // Progress streamed: at least a running event for the job.
  bool saw_running = false;
  for (const auto& p : client.progress()) {
    if (p.job == acc.job && p.status == "running") saw_running = true;
  }
  EXPECT_TRUE(saw_running);
}

TEST_F(ServiceE2E, ScenarioSubmitMatchesInProcessGeneration) {
  start_server({});
  Client client = connect();
  const std::string spec_text = "latch:8:3";
  const auto acc = client.submit_scenario(spec_text, 21, 0, config_json(60));
  const Client::Result res = client.await_result(acc.job);
  EXPECT_EQ(res.status, "done");

  // The served report must be byte-identical to generating the scenario
  // here and running the same job in process (modulo timings).
  const auto sc =
      afp::ingest::make_scenario(afp::ingest::ScenarioSpec::parse(spec_text));
  core::JobSpec spec;
  spec.name = spec_text;
  spec.netlist = sc.netlist;
  spec.config.scenario_constraints = sc.constraints;
  spec.config.search.budget.iterations = 60;
  const core::JobReport rep =
      core::JobService::run_job(spec, 0, 21, nullptr, {});
  EXPECT_EQ(rep.status, core::JobStatus::kDone);
  EXPECT_TRUE(rep.result.instance.constraints.sym_pairs.size() +
                  rep.result.instance.constraints.preplaced.size() >
              0);
  EXPECT_EQ(normalize_timings(res.report_raw),
            normalize_timings(core::report_json(rep.result, rep.name,
                                                rep.optimizer, rep.options,
                                                rep.search, rep.seed)));

  // A malformed scenario spec is a structured invalid_config rejection and
  // the session survives it.
  try {
    client.submit_scenario("warp_core:10:1", 1);
    FAIL() << "unknown family accepted";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.kind, "invalid_config");
  }
  try {
    client.submit_scenario("ota:2:1", 1);
    FAIL() << "undersized scenario accepted";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.kind, "invalid_config");
  }
  const auto again = client.submit_scenario("ota:6:1", 5, 0, config_json(40));
  EXPECT_EQ(client.await_result(again.job).status, "done");
}

TEST_F(ServiceE2E, SpiceSubmitMatchesInProcessParse) {
  start_server({});
  Client client = connect();
  const std::string deck = netlist::make_ota2().to_spice();
  const auto acc = client.submit_spice(deck, "ota2_deck", 31, 0,
                                       config_json(60));
  const Client::Result res = client.await_result(acc.job);
  EXPECT_EQ(res.status, "done");
  EXPECT_EQ(res.error_kind, "");

  // The served report must be byte-identical to parsing the same deck here
  // and running the same job in process (modulo timings).
  core::JobSpec spec;
  spec.name = "ota2_deck";
  spec.netlist = netlist::Netlist::from_spice(deck);
  spec.config.search.budget.iterations = 60;
  const core::JobReport rep =
      core::JobService::run_job(spec, 0, 31, nullptr, {});
  EXPECT_EQ(rep.status, core::JobStatus::kDone);
  EXPECT_EQ(normalize_timings(res.report_raw),
            normalize_timings(core::report_json(rep.result, rep.name,
                                                rep.optimizer, rep.options,
                                                rep.search, rep.seed)));
}

TEST_F(ServiceE2E, SeedlessSubmitsDeriveDistinctSeeds) {
  start_server({});
  Client client = connect();
  const auto a = client.submit("ota_small", 0, 0, config_json(40));
  const auto b = client.submit("ota_small", 0, 0, config_json(40));
  const auto ra = client.await_result(a.job);
  const auto rb = client.await_result(b.job);
  EXPECT_EQ(ra.status, "done");
  EXPECT_EQ(rb.status, "done");
  EXPECT_NE(ra.seed, 0u);
  EXPECT_NE(rb.seed, 0u);
  EXPECT_NE(ra.seed, rb.seed);
  // Each derives from the job id its accepted frame carried: a full 64-bit
  // seed, exact both in the report bytes and in the client's Result.
  const std::uint64_t base = service::ServerConfig{}.base_seed;
  for (const auto& [acc, res] : {std::pair{a, ra}, std::pair{b, rb}}) {
    const std::uint64_t want = core::JobService::job_seed(base, acc.job);
    const std::string seed = "\"seed\": " + std::to_string(want) + ",";
    EXPECT_NE(res.report_raw.find(seed), std::string::npos)
        << "job " << acc.job << " wants " << seed;
    EXPECT_EQ(res.seed, want);
  }
  EXPECT_GT(std::max(ra.seed, rb.seed), 1ull << 53);
  // An explicit seed above 2^53 survives the submit frame and the result
  // frame both.
  const std::uint64_t big = (1ull << 53) + 1;
  const auto c = client.submit("ota_small", big, 0, config_json(40));
  EXPECT_EQ(client.await_result(c.job).seed, big);
}

TEST_F(ServiceE2E, ConcurrentSessionsGetIdenticalBytesPerSeed) {
  AdmissionConfig adm;
  adm.per_session = 8;
  start_server(adm);
  constexpr int kClients = 4;
  const std::uint64_t seeds[] = {5, 6};
  std::string reports[kClients][2];
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client = Client::connect_unix(sock());
      for (int i = 0; i < 2; ++i) {
        const auto acc = client.submit("ota_small", seeds[i], 0,
                                       config_json(40));
        reports[c][i] =
            normalize_timings(client.await_result(acc.job).report_raw);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < 2; ++i) {
    for (int c = 1; c < kClients; ++c) {
      EXPECT_EQ(reports[c][i], reports[0][i]) << "client " << c;
    }
    EXPECT_NE(reports[0][i].find("\"schema_version\""), std::string::npos);
  }
}

TEST_F(ServiceE2E, CancelBeforeLaunchYieldsCancelledResult) {
  pin_threads(1);
  start_server({});
  Client client = connect();
  const auto running = client.submit("ota_small", 1, 0, config_json(1 << 28));
  const auto parked = client.submit("ota_small", 2, 0, config_json(40));
  EXPECT_TRUE(parked.queued);
  client.cancel(parked.job);
  const auto res = client.await_result(parked.job);
  EXPECT_EQ(res.status, "cancelled");
  EXPECT_EQ(res.error_kind, "cancelled");
  EXPECT_NE(res.error_message.find("before launch"), std::string::npos);
  EXPECT_EQ(res.report_raw, "null");
  // Unblock the long job too; a cancelled running search returns promptly.
  client.cancel(running.job);
  (void)client.await_result(running.job);
}

TEST_F(ServiceE2E, MidRunDeadlineTerminatesTheJob) {
  start_server({});
  Client client = connect();
  // A search that would run for minutes; the client arms a 50 ms deadline
  // AFTER submission — the StopPoll re-consultation path end to end.
  const auto acc = client.submit("ota_small", 3, 0, config_json(1 << 28));
  client.set_deadline(acc.job, 0.05);
  const auto res = client.await_result(acc.job);
  EXPECT_EQ(res.status, "deadline_exceeded");
  EXPECT_EQ(res.error_kind, "deadline_exceeded");
  EXPECT_EQ(res.report_raw, "null");
}

TEST_F(ServiceE2E, MalformedSubmitsGetStructuredErrorsSessionSurvives) {
  start_server({});
  Client client = connect();
  // Unknown optimizer, unknown config member, wrong types, both-or-neither
  // circuit/spice: every one a structured invalid_config error.
  const char* bad[] = {
      R"({"type": "submit", "circuit": "ota_small",
          "config": {"optimizer": "annealing-deluxe"}})",
      R"({"type": "submit", "circuit": "ota_small",
          "config": {"bogus_knob": 1}})",
      R"({"type": "submit", "circuit": "ota_small",
          "config": {"search": {"iterations": -4}}})",
      R"({"type": "submit", "circuit": "ota_small", "spice": "x"})",
      R"({"type": "submit"})",
      R"({"type": "submit", "circuit": "no_such_circuit"})",
      R"({"type": "submit", "circuit": "ota_small", "seed": 1.5})",
      R"({"type": "submit", "circuit": "ota_small", "surprise": 1})",
      R"({"type": "teleport"})",
      R"(["not", "an", "object"])",
      R"({"type": "submit", "circuit": "ota_small",
          "config": {"search": {"restarts": 4, "wall_clock_s": 0.1}}})",
  };
  for (const char* payload : bad) {
    client.send_frame(payload);
    const JsonValue v = service::json_parse(client.read_frame());
    EXPECT_EQ(v.at("type").as_string(), "error") << payload;
    EXPECT_EQ(v.at("kind").as_string(), "invalid_config") << payload;
  }
  // The typed client surfaces the same rejection as a ServerError.
  try {
    client.submit("ota_small", 1, 0, "{\"optimizer\": \"annealing-deluxe\"}");
    FAIL() << "bad optimizer accepted";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.kind, "invalid_config");
  }
  // The session survives every rejection: ping works, a good submit runs.
  EXPECT_FALSE(client.ping());
  const auto acc = client.submit("ota_small", 4, 0, config_json(40));
  EXPECT_EQ(client.await_result(acc.job).status, "done");
}

TEST_F(ServiceE2E, OutOfRangeOptionIsRejectedBeforeAdmission) {
  // The optimizer's range check runs when the submit check configures it,
  // so a ladder or schedule the search cannot run never takes a slot.
  start_server({});
  Client client = connect();
  const char* bad[] = {
      R"({"type": "submit", "circuit": "ota2",
          "config": {"optimizer": "pt", "options": {"t_end": "-1"},
                     "search": {"max_retries": 2}}})",
      R"({"type": "submit", "circuit": "ota2",
          "config": {"optimizer": "sa", "options": {"t_end": "-1"}}})",
  };
  for (const char* payload : bad) {
    client.send_frame(payload);
    const JsonValue v = service::json_parse(client.read_frame());
    EXPECT_EQ(v.at("type").as_string(), "error") << payload;
    EXPECT_EQ(v.at("kind").as_string(), "invalid_config") << payload;
    EXPECT_NE(v.at("message").as_string().find("t_end"), std::string::npos)
        << payload;
  }
  const auto st = server_->stats_snapshot();
  EXPECT_EQ(st.inflight, 0u);
  EXPECT_EQ(st.parked, 0u);
  const auto acc = client.submit("ota_small", 4, 0, config_json(40));
  EXPECT_EQ(client.await_result(acc.job).status, "done");
}

TEST_F(ServiceE2E, JunkBytesCloseTheSessionWithAPartingError) {
  start_server({});
  Client victim = connect();
  EXPECT_FALSE(victim.ping());
  victim.send_raw("GET / HTTP/1.1\r\n\r\n");
  // The parting structured error, then EOF.
  const JsonValue v = service::json_parse(victim.read_frame());
  EXPECT_EQ(v.at("type").as_string(), "error");
  EXPECT_EQ(v.at("kind").as_string(), "invalid_config");
  EXPECT_THROW((void)victim.read_frame(), std::runtime_error);
  // The server is unharmed: a fresh session works end to end.
  Client fresh = connect();
  const auto acc = fresh.submit("ota_small", 5, 0, config_json(40));
  EXPECT_EQ(fresh.await_result(acc.job).status, "done");
}

TEST_F(ServiceE2E, OversizedAndZeroPrefixesAreRejected) {
  start_server({});
  {
    Client c = connect();
    c.send_raw(std::string("\xff\xff\xff\xff", 4));
    const JsonValue v = service::json_parse(c.read_frame());
    EXPECT_EQ(v.at("type").as_string(), "error");
    EXPECT_THROW((void)c.read_frame(), std::runtime_error);
  }
  {
    Client c = connect();
    c.send_raw(std::string("\x00\x00\x00\x00", 4));
    const JsonValue v = service::json_parse(c.read_frame());
    EXPECT_EQ(v.at("type").as_string(), "error");
    EXPECT_THROW((void)c.read_frame(), std::runtime_error);
  }
  Client fresh = connect();
  EXPECT_FALSE(fresh.ping());
}

TEST_F(ServiceE2E, MidFrameDisconnectLeavesTheServerServing) {
  start_server({});
  {
    Client c = connect();
    // A frame claiming 100 bytes, only 10 delivered, then half-close.
    std::string prefix(4, '\0');
    prefix[3] = 100;
    c.send_raw(prefix + "0123456789");
    c.shutdown_write();
    EXPECT_THROW((void)c.read_frame(), std::runtime_error);  // EOF
  }
  Client fresh = connect();
  const auto acc = fresh.submit("ota_small", 6, 0, config_json(40));
  EXPECT_EQ(fresh.await_result(acc.job).status, "done");
}

TEST_F(ServiceE2E, PerSessionQuotaRejectsWithResourceExhausted) {
  pin_threads(1);
  AdmissionConfig adm;
  adm.per_session = 2;
  start_server(adm);
  Client client = connect();
  const auto running =
      client.submit("ota_small", 1, 0, config_json(1 << 28));
  const auto parked = client.submit("ota_small", 2, 0, config_json(40));
  EXPECT_TRUE(parked.queued);
  try {
    client.submit("ota_small", 3, 0, config_json(40));
    FAIL() << "over-quota submit accepted";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.kind, "resource_exhausted");
  }
  client.cancel(running.job);
  (void)client.await_result(running.job);
  (void)client.await_result(parked.job);
}

TEST_F(ServiceE2E, HigherPriorityParkedJobsLaunchFirst) {
  pin_threads(1);
  start_server({});
  Client client = connect();
  const auto head = client.submit("ota_small", 1, 0, config_json(1 << 28));
  const auto low = client.submit("ota_small", 2, 0, config_json(40));
  const auto high = client.submit("ota_small", 3, 7, config_json(40));
  ASSERT_TRUE(low.queued);
  ASSERT_TRUE(high.queued);
  client.cancel(head.job);
  (void)client.await_result(head.job);
  (void)client.await_result(low.job);
  (void)client.await_result(high.job);
  // The progress stream records launch order: the high-priority job must
  // start running before the low-priority one ever does.
  std::size_t first_high = ~std::size_t{0}, first_low = ~std::size_t{0};
  const auto& events = client.progress();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].status != "running") continue;
    if (events[i].job == high.job) first_high = std::min(first_high, i);
    if (events[i].job == low.job) first_low = std::min(first_low, i);
  }
  ASSERT_NE(first_high, ~std::size_t{0});
  ASSERT_NE(first_low, ~std::size_t{0});
  EXPECT_LT(first_high, first_low);
}

TEST_F(ServiceE2E, AdmissionSlotsFollowTheWorkerCount) {
  // One run slot per JobService worker: as many long jobs as the pool has
  // threads are acked as running, and the next one parks in admission's
  // priority queue instead of waiting unseen behind a busy worker.
  for (const int threads : {1, 3}) {
    pin_threads(threads);
    start_server({});
    Client client = connect();
    std::vector<std::uint64_t> running;
    for (int j = 0; j < threads; ++j) {
      const auto acc =
          client.submit("ota_small", 50 + j, 0, config_json(1 << 28));
      EXPECT_FALSE(acc.queued) << threads << " threads, job " << j;
      running.push_back(acc.job);
    }
    const auto extra = client.submit("ota_small", 60, 0, config_json(40));
    EXPECT_TRUE(extra.queued) << threads << " threads";
    const auto st = server_->stats_snapshot();
    EXPECT_EQ(st.inflight, static_cast<std::uint64_t>(threads));
    EXPECT_EQ(st.parked, 1u) << threads << " threads";
    for (const std::uint64_t job : running) client.cancel(job);
    for (const std::uint64_t job : running) (void)client.await_result(job);
    EXPECT_EQ(client.await_result(extra.job).status, "done");
    stop_server();
  }
}

TEST_F(ServiceE2E, SessionLimitRejectsTheExtraClient) {
  AdmissionConfig adm;
  adm.max_sessions = 1;
  start_server(adm);
  Client first = connect();
  EXPECT_FALSE(first.ping());
  Client second = connect();
  try {
    second.ping();
    FAIL() << "session over the limit admitted";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.kind, "resource_exhausted");
  } catch (const std::runtime_error&) {
    // The rejection frame can race the close; a dropped connection is an
    // acceptable surface for the limit too.
  }
  EXPECT_FALSE(first.ping());  // the admitted session is unaffected
}

TEST_F(ServiceE2E, DrainCancelsInFlightJobsButFlushesTheirResults) {
  start_server({}, /*drain_grace_s=*/0.05);
  Client client = connect();
  const auto acc = client.submit("ota_small", 9, 0, config_json(1 << 28));
  server_->request_drain();
  // The grace window expires, the drain token cancels the search, and the
  // terminal result frame is still delivered before the socket closes.
  const auto res = client.await_result(acc.job);
  EXPECT_TRUE(res.status == "cancelled" || res.status == "done")
      << res.status;
  stop_server();
  EXPECT_THROW((void)client.read_frame(), std::runtime_error);
}

// A submit frame sent raw (no reply wait) — for tests that must keep
// submitting while the server's writer is paused.
std::string submit_json(const std::string& circuit, std::uint64_t seed,
                        int iterations) {
  return "{\"type\": \"submit\", \"circuit\": \"" + circuit +
         "\", \"seed\": " + std::to_string(seed) +
         ", \"config\": " + config_json(iterations) + "}";
}

TEST_F(ServiceE2E, SlowReaderDropsOnlyProgressFramesAndAccountsForThem) {
  service::ServerConfig cfg;
  cfg.drain_grace_s = 0.2;
  cfg.queue_frames = 1;        // one queued frame => backpressure
  cfg.write_deadline_s = 0.0;  // a paused writer must not look stalled
  cfg.idle_timeout_s = 0.0;
  start_server_cfg(std::move(cfg));
  Client client = connect();
  server_->set_writer_paused(true);
  // Park a pong at the head of the queue so it is full (and stays full,
  // held by non-droppable frames) before any job can emit progress.
  client.send_frame("{\"type\": \"ping\"}");
  constexpr int kJobs = 3;
  for (int j = 0; j < kJobs; ++j) {
    client.send_frame(submit_json("ota_small", 30 + j, 40));
  }
  // Every accepted/result frame queues past the bound (non-droppable);
  // every progress frame is dropped and counted.
  ASSERT_TRUE(wait_stats([&](const service::ServerStats& st) {
    return st.queued_frames == 1 + 2 * kJobs && st.inflight == 0;
  }));
  const std::uint64_t dropped = server_->stats_snapshot().dropped_progress;
  EXPECT_GE(dropped, static_cast<std::uint64_t>(kJobs));  // >= 1 per job
  // The slow reader catches up: the backlog is exactly the pong plus one
  // accepted and one result per job — zero results were dropped.
  server_->set_writer_paused(false);
  int pongs = 0, accepted = 0, results = 0;
  for (int i = 0; i < 1 + 2 * kJobs; ++i) {
    const JsonValue v = service::json_parse(client.read_frame());
    const std::string& type = v.at("type").as_string();
    if (type == "pong") ++pongs;
    if (type == "accepted") ++accepted;
    if (type == "result") ++results;
  }
  EXPECT_EQ(pongs, 1);
  EXPECT_EQ(accepted, kJobs);
  EXPECT_EQ(results, kJobs);
  // The next delivered progress frame carries the full drop count.
  const auto acc = client.submit("ota_small", 40, 0, config_json(40));
  EXPECT_EQ(client.await_result(acc.job).status, "done");
  std::uint64_t echoed = 0;
  for (const auto& p : client.progress()) echoed += p.dropped;
  EXPECT_EQ(echoed, dropped);
}

TEST_F(ServiceE2E, WriteDeadlineDisconnectsStalledClientAndCancelsItsJobs) {
  service::ServerConfig cfg;
  cfg.drain_grace_s = 0.2;
  cfg.write_deadline_s = 0.25;
  cfg.idle_timeout_s = 0.0;
  start_server_cfg(std::move(cfg));
  Client client = connect();
  server_->set_writer_paused(true);
  // The accepted frame queues but never flushes; the session makes no
  // write progress past the deadline and is disconnected, which cancels
  // its near-endless job through the session CancelToken.
  client.send_frame(submit_json("ota_small", 41, 1 << 28));
  ASSERT_TRUE(wait_stats([](const service::ServerStats& st) {
    return st.write_timeouts == 1 && st.inflight == 0 && st.sessions == 0;
  }));
  EXPECT_THROW((void)client.read_frame(), std::runtime_error);  // EOF
  server_->set_writer_paused(false);
  // The server survives: a fresh session runs a job end to end.
  Client fresh = connect();
  const auto acc = fresh.submit("ota_small", 42, 0, config_json(40));
  EXPECT_EQ(fresh.await_result(acc.job).status, "done");
}

TEST_F(ServiceE2E, IdleSessionGetsAKeepaliveProbeThenReaped) {
  service::ServerConfig cfg;
  cfg.drain_grace_s = 0.2;
  cfg.idle_timeout_s = 0.4;
  start_server_cfg(std::move(cfg));
  Client client = connect();  // sends nothing, acks nothing: half-open
  const JsonValue ka = service::json_parse(client.read_frame());
  EXPECT_EQ(ka.at("type").as_string(), "keepalive");
  EXPECT_GE(ka.at("seq").as_uint("seq"), 1u);
  const JsonValue err = service::json_parse(client.read_frame());
  EXPECT_EQ(err.at("type").as_string(), "error");
  EXPECT_EQ(err.at("kind").as_string(), "resource_exhausted");
  EXPECT_NE(err.at("message").as_string().find("idle"), std::string::npos);
  EXPECT_THROW((void)client.read_frame(), std::runtime_error);  // EOF
  ASSERT_TRUE(wait_stats([](const service::ServerStats& st) {
    return st.idle_timeouts == 1 && st.sessions == 0;
  }));
  EXPECT_GE(server_->stats_snapshot().keepalives_sent, 1u);
}

TEST_F(ServiceE2E, KeepaliveAckKeepsABlockedClientAlive) {
  service::ServerConfig cfg;
  cfg.drain_grace_s = 0.2;
  cfg.idle_timeout_s = 0.8;
  start_server_cfg(std::move(cfg));
  Client client = connect();
  // The client blocks in await_result for ~1.2 s — past the idle
  // timeout — surviving on auto-acked keepalive probes alone.
  const auto acc = client.submit("ota_small", 43, 0, config_json(1 << 28));
  client.set_deadline(acc.job, 1.2);
  const auto res = client.await_result(acc.job);
  EXPECT_EQ(res.status, "deadline_exceeded");
  const auto st = server_->stats_snapshot();
  EXPECT_GE(st.keepalives_sent, 1u);
  EXPECT_EQ(st.idle_timeouts, 0u);
  EXPECT_FALSE(client.ping());  // the session is still fully alive
}

TEST_F(ServiceE2E, MalformedFloodTripsTheStrikeLimit) {
  service::ServerConfig cfg;
  cfg.drain_grace_s = 0.2;
  cfg.admission.strike_limit = 3;
  start_server_cfg(std::move(cfg));
  Client client = connect();
  for (int i = 0; i < 3; ++i) client.send_frame("{\"type\": \"teleport\"}");
  // Three per-request errors, then the ejection error, then EOF.
  for (int i = 0; i < 3; ++i) {
    const JsonValue v = service::json_parse(client.read_frame());
    EXPECT_EQ(v.at("type").as_string(), "error");
    EXPECT_EQ(v.at("kind").as_string(), "invalid_config");
  }
  const JsonValue eject = service::json_parse(client.read_frame());
  EXPECT_EQ(eject.at("type").as_string(), "error");
  EXPECT_EQ(eject.at("kind").as_string(), "resource_exhausted");
  EXPECT_NE(eject.at("message").as_string().find("strike"),
            std::string::npos);
  EXPECT_THROW((void)client.read_frame(), std::runtime_error);
  // A fresh session is unaffected and sees the totals in `stats`.
  Client fresh = connect();
  const JsonValue st = fresh.stats();
  EXPECT_EQ(st.at("strikes").as_uint("strikes"), 3u);
  EXPECT_EQ(st.at("strike_ejections").as_uint("strike_ejections"), 1u);
  const auto acc = fresh.submit("ota_small", 44, 0, config_json(40));
  EXPECT_EQ(fresh.await_result(acc.job).status, "done");
}

TEST_F(ServiceE2E, JournalReplayAfterSimulatedCrashSurfacesOrphans) {
  const std::string journal = dir_ + "/journal.afpw";
  service::ServerConfig cfg;
  cfg.drain_grace_s = 0.2;
  cfg.journal_path = journal;
  start_server_cfg(cfg);
  Client client = connect();
  const auto acc = client.submit("ota_small", 77, 0, config_json(1 << 28));
  ASSERT_TRUE(wait_stats([](const service::ServerStats& st) {
    return st.journal_live == 1;
  }));
  // Snapshot the on-disk journal exactly as a crash would leave it.
  std::string crash_bytes;
  {
    std::ifstream in(journal, std::ios::binary);
    crash_bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_FALSE(crash_bytes.empty());
  client.cancel(acc.job);
  (void)client.await_result(acc.job);
  stop_server();
  // "Crash": restore the journal the clean shutdown just emptied, then
  // restart on the same path.
  {
    std::ofstream out(journal, std::ios::binary | std::ios::trunc);
    out << crash_bytes;
  }
  start_server_cfg(cfg);
  ASSERT_EQ(server_->orphans().size(), 1u);
  EXPECT_EQ(server_->orphans()[0].job, acc.job);
  Client fresh = connect();
  const JsonValue orph = fresh.orphans();
  EXPECT_EQ(orph.at("count").as_uint("count"), 1u);
  const auto& jobs = orph.at("jobs").as_array();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].at("job").as_uint("job"), acc.job);
  EXPECT_EQ(jobs[0].at("seed").as_uint("seed"), 77u);
  EXPECT_EQ(jobs[0].at("name").as_string(), "ota_small");
  EXPECT_EQ(jobs[0].at("error").at("kind").as_string(), "internal");
  const JsonValue st = fresh.stats();
  EXPECT_EQ(st.at("journal_orphans").as_uint("journal_orphans"), 1u);
  EXPECT_EQ(st.at("journal_live").as_uint("journal_live"), 0u);
  // The replayed journal was reset: a finished job leaves nothing behind.
  const auto ok = fresh.submit("ota_small", 5, 0, config_json(40));
  EXPECT_EQ(fresh.await_result(ok.job).status, "done");
  EXPECT_TRUE(wait_stats([](const service::ServerStats& st) {
    return st.journal_live == 0;
  }));
}

TEST_F(ServiceE2E, InjectedFaultsDoNotPerturbOtherSessionsJobs) {
  // afpd job ids count from 0 in submission order and are the fault site,
  // so the clause targets exactly the first submitted job.
  core::FaultInjector::global().configure("throw@0:0");
  start_server({});
  Client faulted = connect();
  Client clean = connect();
  const auto fa = faulted.submit("ota_small", 21, 0, config_json(60));
  const auto fr = faulted.await_result(fa.job);
  EXPECT_EQ(fr.status, "failed");
  EXPECT_EQ(fr.error_kind, "optimizer_failure");
  EXPECT_EQ(fr.report_raw, "null");
  // The neighbouring session's job (job id 1) runs clean and stays
  // bitwise identical to an uninjected run_job of the same spec.
  const auto ca = clean.submit("ota_small", 22, 0, config_json(60));
  const auto cr = clean.await_result(ca.job);
  core::FaultInjector::global().configure("");
  EXPECT_EQ(cr.status, "done");
  EXPECT_EQ(normalize_timings(cr.report_raw),
            normalize_timings(reference_report("ota_small", 60, 22)));
}

}  // namespace
