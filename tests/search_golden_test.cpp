// Search golden: pins the result bits of every registry optimizer and of the
// HPWL-reference SA (estimate_hpwl_min) across commits.  Each (circuit,
// search) run on a constrained Table I instance is reduced to a 64-bit
// FNV-1a fingerprint of its rect bit patterns and evaluation count and
// compared with the recorded table below.  Determinism suites elsewhere
// only compare runs of one build with each other; this table is what keeps
// a refactor of the search layer honest about "same bits".  A change that
// moves results on purpose re-records the table: the failure message lists
// every mismatching row in table form.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <string>

#include "ingest/scenario.hpp"
#include "metaheur/eval_cache.hpp"
#include "metaheur/optimizer.hpp"
#include "netlist/library.hpp"

namespace afp {
namespace {

/// Short budgets: every move type, both acceptance branches and several PT
/// exchange rounds still fire, and the whole table stays sanitizer-cheap.
const std::map<std::string, metaheur::Options>& budgets() {
  static const std::map<std::string, metaheur::Options> opts = {
      {"sa", {{"iterations", "800"}}},
      {"ga", {{"population", "8"}, {"generations", "10"}}},
      {"pso", {{"particles", "8"}, {"iterations", "10"}}},
      {"rlsa", {{"iterations", "800"}}},
      {"rlsp", {{"episodes", "8"}, {"steps_per_episode", "40"}}},
      {"sab", {{"iterations", "800"}}},
      {"pt", {{"replicas", "3"}, {"iterations", "200"}}},
      {"pt-bstar", {{"replicas", "3"}, {"iterations", "200"}}},
  };
  return opts;
}

constexpr const char* kCircuits[] = {"ota1",     "ota2",   "bias1",
                                     "rs_latch", "driver", "bias2"};

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double d) {
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof u);
    add(u);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t fingerprint(const metaheur::SearchResult& r) {
  Fnv f;
  for (const auto& rect : r.rects) {
    f.add(rect.x);
    f.add(rect.y);
    f.add(rect.w);
    f.add(rect.h);
  }
  f.add(static_cast<std::uint64_t>(r.evaluations));
  return f.value();
}

floorplan::Instance constrained_instance(const std::string& circuit) {
  netlist::Netlist nl;
  for (const auto& e : netlist::circuit_registry()) {
    if (e.name == circuit) nl = e.make();
  }
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  graphir::apply_constraints(g, graphir::default_constraints(g));
  return floorplan::make_instance(g);
}

struct Golden {
  const char* circuit;
  const char* search;  ///< registry name, or "hpwl_min"
  std::uint64_t fingerprint;
};

/// The Table I circuits all have fewer than kHpwlDeltaMinBlocks blocks, so
/// only this scenario drives estimate_hpwl_min through SpEvaluator::hpwl().
constexpr const char* kDeltaHpwlScenario = "ota:40:1";

// Recorded before the annealing-kernel refactor of src/metaheur.
constexpr Golden kGolden[] = {
    {"ota1", "hpwl_min", 0x2a6e45b84eb1f3bbull},
    {"ota1", "ga", 0x87791db13de0eeffull},
    {"ota1", "pso", 0xfbdf6e26a81eeba5ull},
    {"ota1", "pt", 0x4fa61e6cca0ff9deull},
    {"ota1", "pt-bstar", 0xd0ff89ab63cf36baull},
    {"ota1", "rlsa", 0x915d8101ca2e18adull},
    {"ota1", "rlsp", 0xe359b735a86cbc22ull},
    {"ota1", "sa", 0x5bd612465dcc53a0ull},
    {"ota1", "sab", 0x858424467108bd2aull},
    {"ota2", "hpwl_min", 0xfec5d3223b68a51cull},
    {"ota2", "ga", 0xabc991d6fe60867dull},
    {"ota2", "pso", 0x6c949eb275fec602ull},
    {"ota2", "pt", 0x4f8470f8698b3312ull},
    {"ota2", "pt-bstar", 0xdf3b3a08634df9ffull},
    {"ota2", "rlsa", 0x3ff76b8f25f28dabull},
    {"ota2", "rlsp", 0xf5d903b152210921ull},
    {"ota2", "sa", 0x962e554731507b69ull},
    {"ota2", "sab", 0xce82b7a62deebe78ull},
    {"bias1", "hpwl_min", 0x5203d817d55760e5ull},
    {"bias1", "ga", 0xad9ce050be1fc65dull},
    {"bias1", "pso", 0xec7d23113dfc18ccull},
    {"bias1", "pt", 0x97b2d4e13df3def0ull},
    {"bias1", "pt-bstar", 0x0e46f66183ef5c58ull},
    {"bias1", "rlsa", 0x140b5c5871497bb3ull},
    {"bias1", "rlsp", 0xa0fd2a017d3d8e66ull},
    {"bias1", "sa", 0x87a68e4a9a3b5cd6ull},
    {"bias1", "sab", 0xbc7c2d8a7f712136ull},
    {"rs_latch", "hpwl_min", 0x9eb107d92bbca8a4ull},
    {"rs_latch", "ga", 0xb17db8220c02b7cdull},
    {"rs_latch", "pso", 0x2d363731cbe37233ull},
    {"rs_latch", "pt", 0x69aa03eac27cc66dull},
    {"rs_latch", "pt-bstar", 0xc6c85723f6b9d602ull},
    {"rs_latch", "rlsa", 0x6fbc2b073fc8f53full},
    {"rs_latch", "rlsp", 0xb02a39f6d5014348ull},
    {"rs_latch", "sa", 0xa196b76ffcd18704ull},
    {"rs_latch", "sab", 0xc8c484dbcadafef9ull},
    {"driver", "hpwl_min", 0xb6b5a81e523459daull},
    {"driver", "ga", 0x64e8db5e8fb34424ull},
    {"driver", "pso", 0x131f444a900caa06ull},
    {"driver", "pt", 0x4cea2eaf264fbaa4ull},
    {"driver", "pt-bstar", 0x48142395b5dbd485ull},
    {"driver", "rlsa", 0x20a1e2f41b9063e0ull},
    {"driver", "rlsp", 0xcb5150bd8f6b6faeull},
    {"driver", "sa", 0x220175876b498813ull},
    {"driver", "sab", 0x284428b0ff760383ull},
    {"bias2", "hpwl_min", 0x245061aa8ebd3d8bull},
    {"bias2", "ga", 0x79d9673818648579ull},
    {"bias2", "pso", 0x569fbb8585b18671ull},
    {"bias2", "pt", 0xc33da17a422a8a78ull},
    {"bias2", "pt-bstar", 0x21a0750212665cc1ull},
    {"bias2", "rlsa", 0x2206f3c19aa4c675ull},
    {"bias2", "rlsp", 0x94c3f510f2791c34ull},
    {"bias2", "sa", 0xdf7c2da4c256d439ull},
    {"bias2", "sab", 0x8d2a0798498a8479ull},
    // Recorded before estimate_hpwl_min gained its delta path.
    {kDeltaHpwlScenario, "hpwl_min", 0xe074620c691e4372ull},
};

TEST(SearchGolden, MatchesRecordedFingerprints) {
  std::map<std::string, std::uint64_t> expected;
  for (const auto& g : kGolden) {
    expected[std::string(g.circuit) + "/" + g.search] = g.fingerprint;
  }
  std::string mismatches;
  int checked = 0;
  auto check = [&](const std::string& circuit, const std::string& search,
                   std::uint64_t fp) {
    ++checked;
    const auto it = expected.find(circuit + "/" + search);
    if (it != expected.end() && it->second == fp) return;
    char row[128];
    std::snprintf(row, sizeof row, "    {\"%s\", \"%s\", 0x%016llxull},\n",
                  circuit.c_str(), search.c_str(),
                  static_cast<unsigned long long>(fp));
    mismatches += row;
  };

  std::uint64_t seed = 1;
  for (const char* circuit : kCircuits) {
    floorplan::Instance inst = constrained_instance(circuit);
    ASSERT_FALSE(inst.constraints.empty()) << circuit;
    std::mt19937_64 hrng(seed);
    inst.hpwl_ref = metaheur::estimate_hpwl_min(inst, hrng);
    Fnv h;
    h.add(inst.hpwl_ref);
    check(circuit, "hpwl_min", h.value());
    for (const auto& name : metaheur::optimizer_names()) {
      const auto opt = metaheur::make_optimizer(name, budgets().at(name));
      std::mt19937_64 rng(seed);
      check(circuit, name, fingerprint(opt->run(inst, {}, rng)));
    }
    ++seed;
  }
  {
    const netlist::Netlist nl =
        ingest::make_scenario(ingest::ScenarioSpec::parse(kDeltaHpwlScenario))
            .netlist;
    const floorplan::Instance inst = floorplan::make_instance(
        graphir::build_graph(nl, structrec::recognize(nl)));
    ASSERT_GE(inst.num_blocks(), metaheur::kHpwlDeltaMinBlocks);
    std::mt19937_64 hrng(seed);
    Fnv h;
    h.add(metaheur::estimate_hpwl_min(inst, hrng));
    check(kDeltaHpwlScenario, "hpwl_min", h.value());
  }
  EXPECT_EQ(checked, static_cast<int>(std::size(kGolden)));
  EXPECT_TRUE(mismatches.empty()) << "search results drifted; rows now:\n"
                                  << mismatches;
}

}  // namespace
}  // namespace afp
