// Registry parity suite: every registered optimizer must (a) construct from
// its name plus default options and (b) round-trip its option map, and a
// registry run must match a direct run_* call bitwise at 1 and 4 pool
// threads (checked here for pt-bstar; tests/search_golden_test.cpp pins
// every optimizer's result bits).  The registry is the only supported way
// to add a search, so any drift between the two surfaces is a regression.
#include <gtest/gtest.h>

#include <functional>
#include <tuple>
#include <utility>

#include "core/pipeline.hpp"
#include "metaheur/optimizer.hpp"
#include "netlist/library.hpp"
#include "numeric/parallel.hpp"

namespace afp {
namespace {

TEST(OptimizerRegistry, RegistersTheEightBuiltins) {
  const std::vector<std::string> expected = {"ga", "pso",      "pt", "pt-bstar",
                                             "rlsa", "rlsp",   "sa", "sab"};
  EXPECT_EQ(metaheur::optimizer_names(), expected);
  for (const auto& name : expected) {
    EXPECT_TRUE(metaheur::OptimizerRegistry::global().contains(name));
  }
  EXPECT_FALSE(metaheur::OptimizerRegistry::global().contains("nope"));
}

TEST(OptimizerRegistry, EveryBuiltinConstructsAndDescribes) {
  for (const auto& name : metaheur::optimizer_names()) {
    auto opt = metaheur::make_optimizer(name);
    EXPECT_EQ(opt->name(), name);
    const std::string enc = opt->encoding();
    EXPECT_TRUE(enc == "sequence-pair" || enc == "b*-tree") << name;
    EXPECT_FALSE(opt->describe().empty()) << name;
    for (const auto& spec : opt->describe()) {
      EXPECT_FALSE(spec.key.empty()) << name;
      EXPECT_FALSE(spec.value.empty()) << name << " " << spec.key;
      EXPECT_FALSE(spec.help.empty()) << name << " " << spec.key;
    }
  }
}

TEST(OptimizerRegistry, UnknownNameAndDuplicateThrow) {
  EXPECT_THROW(metaheur::make_optimizer("bogus"), std::invalid_argument);
  EXPECT_THROW(metaheur::OptimizerRegistry::global().add("sa", nullptr),
               std::invalid_argument);
}

TEST(OptimizerOptions, RoundTripAndValidation) {
  auto opt = metaheur::make_optimizer(
      "sa", {{"iterations", "123"}, {"t_start", "1.5"}});
  const auto opts = opt->options();
  EXPECT_EQ(opts.at("iterations"), "123");
  EXPECT_EQ(opts.at("t_start"), "1.5");
  // Reconfiguring from the round-tripped map is a no-op.
  auto copy = metaheur::make_optimizer("sa", opts);
  EXPECT_EQ(copy->options(), opts);

  EXPECT_THROW(metaheur::make_optimizer("sa", {{"bogus_key", "1"}}),
               std::invalid_argument);
  EXPECT_THROW(metaheur::make_optimizer("sa", {{"iterations", "12x"}}),
               std::invalid_argument);
  // Range and finiteness are validated at configure time, not deep in run().
  EXPECT_THROW(metaheur::make_optimizer("pt", {{"replicas", "1"}}),
               std::invalid_argument);
  EXPECT_THROW(metaheur::make_optimizer("ga", {{"population", "0"}}),
               std::invalid_argument);
  EXPECT_THROW(metaheur::make_optimizer("sa", {{"iterations", "-5"}}),
               std::invalid_argument);
  EXPECT_THROW(metaheur::make_optimizer("sa", {{"t_start", "inf"}}),
               std::invalid_argument);
  EXPECT_THROW(metaheur::make_optimizer("sa", {{"t_end", "nan"}}),
               std::invalid_argument);
}

TEST(OptimizerOptions, RangeChecksRunAtConfigureTime) {
  // A schedule or ladder the search cannot run is rejected by
  // configure() itself, so the CLI exits 2 and afpd answers invalid_config
  // instead of failing (and retrying) inside run().  So is a population
  // above the cap: each unit holds search state before the first move.
  const std::string over = std::to_string(metaheur::kMaxPopulation + 1);
  const std::vector<std::pair<std::string, metaheur::Options>> bad = {
      {"pt", {{"t_end", "-1"}}},       {"pt-bstar", {{"t_end", "-1"}}},
      {"pt", {{"hot_factor", "0.5"}}}, {"pt", {{"budget_skew", "0.5"}}},
      {"sa", {{"t_end", "-1"}}},       {"sa", {{"t_start", "0"}}},
      {"sab", {{"t_end", "0"}}},       {"sab", {{"t_start", "-2"}}},
      {"rlsa", {{"t_end", "-1"}}},     {"rlsa", {{"t_start", "0"}}},
      {"ga", {{"population", over}}},  {"pso", {{"particles", over}}},
      {"pt", {{"replicas", over}}},    {"pt-bstar", {{"replicas", over}}}};
  for (const auto& [name, opts] : bad) {
    EXPECT_THROW(metaheur::make_optimizer(name, opts), std::invalid_argument)
        << name << " " << opts.begin()->first << "=" << opts.begin()->second;
  }
  // The same check guards the direct entry points.
  const auto nl = netlist::make_ota_small();
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  const auto inst = floorplan::make_instance(g);
  std::mt19937_64 rng(3);
  metaheur::SAParams sa;
  sa.t_end = -1.0;
  EXPECT_THROW(metaheur::run_sa(inst, sa, rng), std::invalid_argument);
  EXPECT_THROW(metaheur::run_sa_bstar(inst, sa, rng), std::invalid_argument);
  metaheur::RLSAParams rlsa;
  rlsa.t_start = 0.0;
  EXPECT_THROW(metaheur::run_rlsa(inst, rlsa, rng), std::invalid_argument);
  // In-range values still configure.
  EXPECT_NO_THROW(metaheur::make_optimizer("pt", {{"t_end", "0.5"}}));
  EXPECT_NO_THROW(metaheur::make_optimizer("sa", {{"t_start", "0.01"}}));
  const std::string cap = std::to_string(metaheur::kMaxPopulation);
  EXPECT_NO_THROW(metaheur::make_optimizer("ga", {{"population", cap}}));
  EXPECT_NO_THROW(metaheur::make_optimizer("pso", {{"particles", cap}}));
  EXPECT_NO_THROW(metaheur::make_optimizer("pt", {{"replicas", cap}}));
  EXPECT_NO_THROW(metaheur::make_optimizer("pt-bstar", {{"replicas", cap}}));
}

TEST(OptimizerRegistry, DescribeTableIsPinned) {
  // Every optimizer's name, encoding and (key, default, help) rows, as
  // `afp list-baselines` printed them before the registry wrappers were
  // folded into one adapter.  A change here is a user-visible change.
  struct Row {
    std::string key, value, help;
  };
  const std::string kSpacing = "congestion margin; < 0 = auto (one grid cell)";
  const std::vector<Row> sa = {{"iterations", "4000", "annealing move budget"},
                               {"t_start", "2", "initial temperature"},
                               {"t_end", "0.001", "final temperature"},
                               {"spacing_um", "-1", kSpacing}};
  const std::vector<Row> pt = {
      {"replicas", "3", "temperature-ladder size K (>= 2)"},
      {"iterations", "1333", "mean moves per replica (total = K * this)"},
      {"t_start", "0.5", "coldest chain's start temperature"},
      {"t_end", "0.001", "coldest chain's final temperature"},
      {"hot_factor", "8", "hottest/coldest multiplier"},
      {"budget_skew", "3", "cold-chain move-budget skew (1 = equal chains)"},
      {"swap_interval", "8", "cold-chain moves between exchange rounds"},
      {"spacing_um", "-1", kSpacing}};
  const std::vector<std::tuple<std::string, std::string, std::vector<Row>>>
      table = {
          {"ga", "sequence-pair",
           {{"population", "24", "individuals per generation"},
            {"generations", "60", "generation budget"},
            {"crossover_rate", "0.90000000000000002", "crossover probability"},
            {"mutation_rate", "0.29999999999999999", "mutation probability"},
            {"tournament", "3", "tournament selection size"},
            {"spacing_um", "-1", kSpacing}}},
          {"pso", "sequence-pair",
           {{"particles", "20", "swarm size"},
            {"iterations", "80", "synchronous sweep budget"},
            {"inertia", "0.71999999999999997", "velocity inertia weight"},
            {"c1", "1.5", "cognitive coefficient"},
            {"c2", "1.5", "social coefficient"},
            {"spacing_um", "-1", kSpacing}}},
          {"pt", "sequence-pair", pt},
          {"pt-bstar", "b*-tree", pt},
          {"rlsa", "sequence-pair",
           {{"iterations", "4000", "annealing move budget"},
            {"t_start", "2", "initial temperature"},
            {"t_end", "0.001", "final temperature"},
            {"learning_rate", "0.10000000000000001",
             "REINFORCE step for the move-type policy"},
            {"spacing_um", "-1", kSpacing}}},
          {"rlsp", "sequence-pair",
           {{"episodes", "160", "policy-gradient episode budget"},
            {"steps_per_episode", "60", "moves per episode"},
            {"learning_rate", "0.050000000000000003",
             "policy-gradient step size"},
            {"spacing_um", "-1", kSpacing}}},
          {"sa", "sequence-pair", sa},
          {"sab", "b*-tree", sa}};
  ASSERT_EQ(metaheur::optimizer_names().size(), table.size());
  for (const auto& [name, encoding, rows] : table) {
    const auto opt = metaheur::make_optimizer(name);
    EXPECT_STREQ(opt->name(), name.c_str());
    EXPECT_EQ(opt->encoding(), encoding) << name;
    const auto specs = opt->describe();
    ASSERT_EQ(specs.size(), rows.size()) << name;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(specs[i].key, rows[i].key) << name << " row " << i;
      EXPECT_EQ(specs[i].value, rows[i].value) << name << " " << rows[i].key;
      EXPECT_EQ(specs[i].help, rows[i].help) << name << " " << rows[i].key;
    }
  }
}

TEST(OptimizerOptions, BudgetOverridesPrimaryKnob) {
  const auto nl = netlist::make_ota_small();
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  const auto inst = floorplan::make_instance(g);
  auto by_option = metaheur::make_optimizer("sa", {{"iterations", "77"}});
  auto by_budget = metaheur::make_optimizer("sa");
  std::mt19937_64 r1(5), r2(5);
  const auto a = by_option->run(inst, {}, r1);
  const auto b = by_budget->run(inst, {/*iterations=*/77, 0.0}, r2);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.rects, b.rects);
}

TEST(RegistryParity, EveryBuiltinMatchesItsDirectCall) {
  // The adapter's budget override must land on each struct's primary knob
  // and nowhere else: a registry run with budget.iterations = N equals the
  // run_* call with that knob set to N, bit for bit.
  const auto nl = netlist::make_bias1();
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  const auto inst = floorplan::make_instance(g);
  using Direct = std::function<metaheur::BaselineResult(std::mt19937_64&)>;
  const int n = 12;
  const std::vector<std::pair<std::string, Direct>> cases = {
      {"sa",
       [&](std::mt19937_64& r) {
         metaheur::SAParams p;
         p.iterations = n;
         return metaheur::run_sa(inst, p, r);
       }},
      {"sab",
       [&](std::mt19937_64& r) {
         metaheur::SAParams p;
         p.iterations = n;
         return metaheur::run_sa_bstar(inst, p, r);
       }},
      {"ga",
       [&](std::mt19937_64& r) {
         metaheur::GAParams p;
         p.generations = n;
         return metaheur::run_ga(inst, p, r);
       }},
      {"pso",
       [&](std::mt19937_64& r) {
         metaheur::PSOParams p;
         p.iterations = n;
         return metaheur::run_pso(inst, p, r);
       }},
      {"rlsa",
       [&](std::mt19937_64& r) {
         metaheur::RLSAParams p;
         p.iterations = n;
         return metaheur::run_rlsa(inst, p, r);
       }},
      {"rlsp",
       [&](std::mt19937_64& r) {
         metaheur::RLSPParams p;
         p.episodes = n;
         return metaheur::run_rlsp(inst, p, r);
       }},
      {"pt",
       [&](std::mt19937_64& r) {
         metaheur::PTParams p;
         p.iterations = n;
         return metaheur::run_pt(inst, p, r);
       }},
      {"pt-bstar", [&](std::mt19937_64& r) {
         metaheur::PTParams p;
         p.iterations = n;
         p.representation = metaheur::Representation::kBStarTree;
         return metaheur::run_pt(inst, p, r);
       }}};
  ASSERT_EQ(cases.size(), metaheur::optimizer_names().size());
  for (const auto& [name, direct] : cases) {
    metaheur::SearchBudget budget;
    budget.iterations = n;
    std::mt19937_64 r1(11), r2(11);
    const auto via_registry =
        metaheur::make_optimizer(name)->run(inst, budget, r1);
    const auto legacy = direct(r2);
    EXPECT_EQ(via_registry.rects, legacy.rects) << name;
    EXPECT_EQ(via_registry.evaluations, legacy.evaluations) << name;
    EXPECT_EQ(via_registry.method, legacy.method) << name;
    EXPECT_EQ(r1(), r2()) << name << ": rng streams diverged";
  }
}

TEST(RegistryParity, PtBstarMatchesDirectLegacyCall) {
  const auto nl = netlist::make_ota2();
  for (const int threads : {1, 4}) {
    num::set_num_threads(threads);
    core::PipelineConfig cfg;
    cfg.optimizer = "pt-bstar";
    cfg.options = {{"replicas", "3"}, {"iterations", "60"}};
    core::FloorplanPipeline pipe(cfg);
    std::mt19937_64 r_registry(42);
    const auto via_registry = pipe.run(nl, r_registry);

    // Legacy call: what pre-registry code did for PT over B*-trees.
    std::mt19937_64 r_legacy(42);
    const auto prep = pipe.prepare(nl, r_legacy);
    metaheur::PTParams p;
    p.representation = metaheur::Representation::kBStarTree;
    p.replicas = 3;
    p.iterations = 60;
    const auto legacy = metaheur::run_pt(prep.instance, p, r_legacy);
    ASSERT_EQ(via_registry.rects.size(), legacy.rects.size());
    for (std::size_t i = 0; i < legacy.rects.size(); ++i) {
      EXPECT_EQ(via_registry.rects[i], legacy.rects[i])
          << "rect " << i << " @" << threads << " threads";
    }
    EXPECT_EQ(via_registry.evaluations, legacy.evaluations);
  }
  num::set_num_threads(0);
}

}  // namespace
}  // namespace afp
