#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>

#include "core/training.hpp"
#include "netlist/library.hpp"
#include "numeric/simd.hpp"
#include "rl/agent.hpp"
#include "rl/curriculum.hpp"

namespace afp::rl {
namespace {

graphir::CircuitGraph graph_of(const std::string& name) {
  netlist::Netlist nl;
  for (const auto& e : netlist::circuit_registry()) {
    if (e.name == name) nl = e.make();
  }
  return graphir::build_graph(nl, structrec::recognize(nl));
}

TEST(PolicyConfig, PaperArchitectureParameters) {
  std::mt19937_64 rng(1);
  const PolicyConfig cfg = PolicyConfig::paper();
  EXPECT_EQ(cfg.conv_channels, (std::vector<int>{16, 32, 32, 64, 64}));
  EXPECT_EQ(cfg.deconv_channels, (std::vector<int>{32, 16, 8}));
  EXPECT_EQ(cfg.feat_dim, 512);
  ActorCritic net(cfg, rng);
  EXPECT_EQ(net.action_space(), 3072);
  // The 64ch * 32 * 32 flatten into 512 dominates (~33.5M params).
  EXPECT_GT(net.parameter_count(), 30000000);
}

TEST(ActorCritic, FastForwardShapes) {
  std::mt19937_64 rng(2);
  ActorCritic net(PolicyConfig::fast(), rng);
  const int B = 3;
  num::Tensor masks = num::Tensor::randn({B, 6, 32, 32}, rng, 0.5f);
  num::Tensor node = num::Tensor::randn({B, 32}, rng);
  num::Tensor graph = num::Tensor::randn({B, 32}, rng);
  const auto out = net.forward(masks, node, graph);
  EXPECT_EQ(out.logits.shape(), (num::Shape{B, 3072}));
  EXPECT_EQ(out.value.shape(), (num::Shape{B}));
  for (int i = 0; i < B; ++i) EXPECT_TRUE(std::isfinite(out.value.at(i)));
}

TEST(ActorCritic, RejectsMismatchedDeconvChain) {
  std::mt19937_64 rng(3);
  PolicyConfig cfg = PolicyConfig::fast();
  cfg.deconv_channels = {8, 8};  // 4 -> 16 != 32
  EXPECT_THROW(ActorCritic(cfg, rng), std::invalid_argument);
}

TEST(Task, EmbeddingsCachedPerBlock) {
  std::mt19937_64 rng(4);
  rgcn::RewardModel encoder(rng);
  const TaskContext task = make_task(encoder, graph_of("ota2"));
  EXPECT_EQ(task.instance.num_blocks(), 8);
  EXPECT_EQ(task.node_emb.size(),
            static_cast<std::size_t>(8 * rgcn::kEmbeddingDim));
  EXPECT_EQ(task.graph_emb.size(),
            static_cast<std::size_t>(rgcn::kEmbeddingDim));
  // node_row indexes rows correctly.
  EXPECT_EQ(task.node_row(2),
            task.node_emb.data() + 2 * rgcn::kEmbeddingDim);
}

TEST(Task, HpwlRefOverride) {
  std::mt19937_64 rng(5);
  rgcn::RewardModel encoder(rng);
  const TaskContext t1 = make_task(encoder, graph_of("ota_small"), 123.0);
  EXPECT_DOUBLE_EQ(t1.instance.hpwl_ref, 123.0);
  const TaskContext t2 =
      make_task(encoder, graph_of("ota_small"), 0.0, 2.0);
  ASSERT_TRUE(t2.instance.target_aspect.has_value());
  EXPECT_DOUBLE_EQ(*t2.instance.target_aspect, 2.0);
}

TEST(RunEpisode, CompletesAndScores) {
  std::mt19937_64 rng(6);
  rgcn::RewardModel encoder(rng);
  ActorCritic net(PolicyConfig::fast(), rng);
  const TaskContext task = make_task(encoder, graph_of("ota_small"));
  const EpisodeResult res = run_episode(net, task, rng);
  EXPECT_FALSE(res.violated);
  ASSERT_EQ(res.rects.size(), 3u);
  EXPECT_DOUBLE_EQ(geom::total_pairwise_overlap(res.rects), 0.0);
  EXPECT_GT(res.runtime_s, 0.0);
  EXPECT_TRUE(std::isfinite(res.eval.reward));
}

TEST(RunEpisode, DeterministicIsRepeatable) {
  std::mt19937_64 rng(7);
  rgcn::RewardModel encoder(rng);
  ActorCritic net(PolicyConfig::fast(), rng);
  const TaskContext task = make_task(encoder, graph_of("ota1"));
  const auto r1 = run_episode(net, task, rng, true);
  const auto r2 = run_episode(net, task, rng, true);
  ASSERT_EQ(r1.rects.size(), r2.rects.size());
  for (std::size_t i = 0; i < r1.rects.size(); ++i) {
    EXPECT_EQ(r1.rects[i], r2.rects[i]);
  }
}

TEST(BestOfEpisodes, NeverWorseThanDeterministic) {
  std::mt19937_64 rng(8);
  rgcn::RewardModel encoder(rng);
  ActorCritic net(PolicyConfig::fast(), rng);
  const TaskContext task = make_task(encoder, graph_of("ota1"));
  std::mt19937_64 r1(9), r2(9);
  const auto det = run_episode(net, task, r1, true);
  const auto best = best_of_episodes(net, task, 4, r2);
  EXPECT_GE(best.eval.reward, det.eval.reward - 1e-9);
}

TEST(PPOTrainer, IterateProducesFiniteStatsAndEpisodes) {
  std::mt19937_64 rng(10);
  rgcn::RewardModel encoder(rng);
  ActorCritic net(PolicyConfig::fast(), rng);
  PPOConfig cfg;
  cfg.n_envs = 2;
  cfg.n_steps = 8;
  cfg.minibatch = 8;
  cfg.epochs = 2;
  PPOTrainer trainer(net, {make_task(encoder, graph_of("ota_small"))}, cfg);
  const auto stats = trainer.iterate(rng);
  EXPECT_GT(stats.episodes, 0);
  EXPECT_TRUE(std::isfinite(stats.policy_loss));
  EXPECT_TRUE(std::isfinite(stats.value_loss));
  EXPECT_TRUE(std::isfinite(stats.approx_kl));
  EXPECT_GT(stats.entropy, 0.0);
  EXPECT_EQ(trainer.episodes_done(), stats.episodes);
}

TEST(PPOTrainer, LearningImprovesSmallCircuitReward) {
  // Smoke-level learning check: with a tiny budget the mean episode
  // reward on the 3-block OTA should not collapse, and the policy should
  // keep producing valid floorplans.
  std::mt19937_64 rng(11);
  rgcn::RewardModel encoder(rng);
  ActorCritic net(PolicyConfig::fast(), rng);
  PPOConfig cfg;
  cfg.n_envs = 2;
  cfg.n_steps = 12;
  cfg.minibatch = 12;
  cfg.epochs = 2;
  PPOTrainer trainer(net, {make_task(encoder, graph_of("ota_small"))}, cfg);
  double first = 0.0, last = 0.0;
  const int iters = 6;
  for (int i = 0; i < iters; ++i) {
    const auto s = trainer.iterate(rng);
    if (i == 0) first = s.mean_episode_reward;
    last = s.mean_episode_reward;
    EXPECT_LE(s.violation_rate, 1.0);
  }
  EXPECT_TRUE(std::isfinite(first));
  EXPECT_TRUE(std::isfinite(last));
  EXPECT_GT(last, -60.0);
}

TEST(PPOTrainer, NextTaskHookSwapsCircuits) {
  std::mt19937_64 rng(12);
  rgcn::RewardModel encoder(rng);
  ActorCritic net(PolicyConfig::fast(), rng);
  PPOConfig cfg;
  cfg.n_envs = 1;
  cfg.n_steps = 8;
  cfg.minibatch = 8;
  cfg.epochs = 1;
  PPOTrainer trainer(net, {make_task(encoder, graph_of("ota_small"))}, cfg);
  int swaps = 0;
  trainer.next_task = [&](int) {
    ++swaps;
    return std::optional<TaskContext>(
        make_task(encoder, graph_of("bias_small")));
  };
  (void)trainer.iterate(rng);
  EXPECT_GT(swaps, 0);
}

TEST(FineTune, RunsRequestedEpisodes) {
  std::mt19937_64 rng(13);
  rgcn::RewardModel encoder(rng);
  ActorCritic net(PolicyConfig::fast(), rng);
  PPOConfig cfg;
  cfg.n_envs = 2;
  cfg.n_steps = 8;
  cfg.minibatch = 8;
  cfg.epochs = 1;
  const auto task = make_task(encoder, graph_of("ota_small"));
  const auto stats = fine_tune(net, task, 6, rng, cfg);
  EXPECT_FALSE(stats.empty());
  long total = 0;
  for (const auto& s : stats) total += s.episodes;
  EXPECT_GE(total, 6);
}

TEST(Hcl, ScheduleProgressesThroughStages) {
  std::mt19937_64 rng(14);
  rgcn::RewardModel encoder(rng);
  HclConfig cfg;
  cfg.circuits = {"ota_small", "bias_small"};
  cfg.episodes_per_circuit = 4;
  HclScheduler sched(cfg, encoder, rng);
  EXPECT_FALSE(sched.finished());
  std::vector<std::string> names;
  for (int i = 0; i < 8; ++i) {
    names.push_back(sched.next_task(rng).instance.name);
  }
  EXPECT_TRUE(sched.finished());
  // First half of stage 0 is purely the stage circuit.
  EXPECT_EQ(names[0], "ota_small");
  EXPECT_EQ(names[1], "ota_small");
  // Stage 1 first half is purely bias_small.
  EXPECT_EQ(names[4], "bias_small");
  EXPECT_EQ(names[5], "bias_small");
}

TEST(Hcl, SecondHalfSamplesSeenCircuits) {
  std::mt19937_64 rng(15);
  rgcn::RewardModel encoder(rng);
  HclConfig cfg;
  cfg.circuits = {"ota_small", "bias_small"};
  cfg.episodes_per_circuit = 40;
  cfg.p_circuit = 1.0;  // always resample in the mixing phase
  HclScheduler sched(cfg, encoder, rng);
  // Skip to the mixing half of stage 1.
  for (int i = 0; i < 61; ++i) (void)sched.next_task(rng);
  std::set<std::string> seen;
  for (int i = 0; i < 15; ++i) seen.insert(sched.next_task(rng).instance.name);
  EXPECT_GE(seen.size(), 2u);  // revisits earlier circuits
}

TEST(Hcl, ConstraintProbabilityActivates) {
  std::mt19937_64 rng(16);
  rgcn::RewardModel encoder(rng);
  HclConfig cfg;
  cfg.circuits = {"ota_small"};
  cfg.episodes_per_circuit = 60;
  cfg.p_constraint = 1.0;
  HclScheduler sched(cfg, encoder, rng);
  for (int i = 0; i < 30; ++i) {
    EXPECT_TRUE(sched.next_task(rng).instance.constraints.empty());
  }
  bool constrained_seen = false;
  for (int i = 0; i < 30; ++i) {
    constrained_seen = constrained_seen ||
                       !sched.next_task(rng).instance.constraints.empty();
  }
  EXPECT_TRUE(constrained_seen);
}

TEST(Hcl, UnknownCircuitThrows) {
  std::mt19937_64 rng(17);
  rgcn::RewardModel encoder(rng);
  HclConfig cfg;
  cfg.circuits = {"no_such_circuit"};
  HclScheduler sched(cfg, encoder, rng);
  EXPECT_THROW(sched.next_task(rng), std::invalid_argument);
}

// ------------------------------------------------------------ agent golden ---
// Pins the agent's bits across commits: a change to the environment's masks,
// rewards or the rollout must leave every action, reward, rect and trained
// weight bit where it was.  Each run is reduced to a 64-bit FNV-1a
// fingerprint and compared with the recorded table; a mismatch prints the
// rows to re-record, which a change that moves the agent on purpose does.

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
  void add(float x) {
    std::uint32_t u = 0;
    std::memcpy(&u, &x, sizeof u);
    add(static_cast<std::uint64_t>(u));
  }
  void add(const geom::Rect& r) {
    add(r.x);
    add(r.y);
    add(r.w);
    add(r.h);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Pins the portable scalar kernel tier for its scope: the tiers agree only
/// to a tolerance, and the binary may run under AFP_KERNEL_TIER=naive.
class ScalarTier {
 public:
  ScalarTier() : entry_(num::kernel_tier()) {
    num::set_kernel_tier(num::KernelTier::kScalar);
  }
  ~ScalarTier() { num::set_kernel_tier(entry_); }
  ScalarTier(const ScalarTier&) = delete;
  ScalarTier& operator=(const ScalarTier&) = delete;

 private:
  num::KernelTier entry_;
};

/// Rolls out one episode as run_episode does and folds every action and
/// reward, then the finished rects, into `f`.
void fold_rollout(const ActorCritic& policy, const TaskContext& task,
                  std::mt19937_64& rng, bool deterministic, Fnv& f) {
  const int n = policy.config().grid;
  const int emb = rgcn::kEmbeddingDim;
  env::FloorplanEnv environment(task.instance);
  env::Observation obs = environment.reset();
  num::NoGradGuard ng;
  while (!obs.done) {
    const float* nrow = task.node_row(obs.current_block);
    const auto out = policy.forward(
        num::Tensor::from_vector({1, environment.mask_channels(), n, n},
                                 obs.masks),
        num::Tensor::from_vector({1, emb},
                                 std::vector<float>(nrow, nrow + emb)),
        num::Tensor::from_vector({1, emb}, task.graph_emb));
    nn::MaskedCategorical dist(out.logits, obs.action_mask);
    const int action = deterministic ? dist.mode()[0] : dist.sample(rng)[0];
    env::StepResult res = environment.step(action);
    f.add(static_cast<std::uint64_t>(action));
    f.add(res.reward);
    f.add(static_cast<std::uint64_t>(res.violated));
    if (res.done && res.final_eval) {
      for (const auto& r : environment.grid().rects()) f.add(r);
    }
    obs = std::move(res.obs);
  }
}

TaskContext constrained_task(const rgcn::RewardModel& encoder,
                             const std::string& name) {
  graphir::CircuitGraph g = graph_of(name);
  graphir::apply_constraints(g, graphir::default_constraints(g));
  return make_task(encoder, std::move(g));
}

std::string golden_row(const std::string& key, std::uint64_t fp) {
  char row[96];
  std::snprintf(row, sizeof row, "    {\"%s\", 0x%016llxull},\n", key.c_str(),
                static_cast<unsigned long long>(fp));
  return row;
}

// Recorded before the environment's masks dropped their per-cell rescans.
const std::map<std::string, std::uint64_t> kEpisodeGolden = {
    {"ota1", 0xdb80206a6921e3caull},
    {"ota2", 0xbbfceb0a98aa853cull},
    {"bias1", 0x358a0d4349ac3816ull},
    {"rs_latch", 0x040e37c425400019ull},
    {"driver", 0x8dea62bcb280532eull},
    {"bias2", 0xb82f1e4e356578ceull},
};

TEST(AgentGolden, EpisodesMatchRecordedFingerprints) {
  // An untrained fast policy on the constrained Table I circuits: one
  // deterministic and three sampled rollouts per circuit, then
  // best_of_episodes (deterministic first, then sampled) on a fresh stream.
  const ScalarTier tier;
  std::mt19937_64 init(21);
  rgcn::RewardModel encoder(init);
  const ActorCritic net(PolicyConfig::fast(), init);
  std::string mismatches;
  std::uint64_t seed = 100;
  for (const char* name :
       {"ota1", "ota2", "bias1", "rs_latch", "driver", "bias2"}) {
    const TaskContext task = constrained_task(encoder, name);
    ASSERT_FALSE(task.instance.constraints.empty()) << name;
    Fnv f;
    std::mt19937_64 rng(seed);
    for (int k = 0; k < 4; ++k) fold_rollout(net, task, rng, k == 0, f);
    std::mt19937_64 best_rng(seed + 1);
    const EpisodeResult best = best_of_episodes(net, task, 4, best_rng);
    f.add(best.total_reward);
    f.add(best.eval.reward);
    f.add(static_cast<std::uint64_t>(best.violated));
    for (const auto& r : best.rects) f.add(r);
    seed += 2;
    const auto it = kEpisodeGolden.find(name);
    if (it == kEpisodeGolden.end() || it->second != f.value()) {
      mismatches += golden_row(name, f.value());
    }
  }
  EXPECT_TRUE(mismatches.empty())
      << "agent episodes moved; re-record only for an intended change:\n"
      << mismatches;
}

// Recorded before the environment's masks dropped their per-cell rescans.
constexpr std::uint64_t kTrainingGolden = 0x5c213dafb7ad65c8ull;

TEST(AgentGolden, ShortHclRunMatchesRecordedParameters) {
  // A short seeded HCL/PPO run through core::train_agent (the path behind
  // `afp train`), with constraints on in every mixing half.  The
  // fingerprint covers every encoder and policy parameter bit and the
  // per-iteration episode counts and mean rewards.
  const ScalarTier tier;
  core::TrainOptions opt = core::TrainOptions::fast(/*seed=*/5);
  opt.hcl.episodes_per_circuit = 6;
  opt.hcl.p_constraint = 1.0;
  const core::TrainedAgent agent = core::train_agent(opt);
  Fnv f;
  for (const nn::Module* m :
       {static_cast<const nn::Module*>(agent.encoder.get()),
        static_cast<const nn::Module*>(agent.policy.get())}) {
    for (const auto& p : m->parameters()) {
      for (std::int64_t i = 0; i < p.size(); ++i) f.add(p.data()[i]);
    }
  }
  for (const auto& s : agent.rl_history) {
    f.add(static_cast<std::uint64_t>(s.episodes));
    f.add(s.mean_episode_reward);
  }
  EXPECT_EQ(f.value(), kTrainingGolden)
      << "trained parameters moved; re-record only for an intended change:\n"
      << golden_row("training", f.value());
}

}  // namespace
}  // namespace afp::rl
