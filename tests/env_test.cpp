#include <gtest/gtest.h>

#include <type_traits>

#include "env/vec_env.hpp"
#include "netlist/library.hpp"

namespace afp::env {
namespace {

floorplan::Instance instance_of(const std::string& name,
                                bool constrained = false) {
  netlist::Netlist nl;
  for (const auto& e : netlist::circuit_registry()) {
    if (e.name == name) nl = e.make();
  }
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  if (constrained) {
    graphir::apply_constraints(g, graphir::default_constraints(g));
  }
  return floorplan::make_instance(g);
}

/// First valid flat action per the observation's action mask.
int first_valid(const Observation& obs) {
  for (std::size_t i = 0; i < obs.action_mask.size(); ++i) {
    if (obs.action_mask[i] > 0.5f) return static_cast<int>(i);
  }
  return -1;
}

// The grid keeps a pointer to the environment's own instance, so an
// environment must stay where it was built.
static_assert(!std::is_copy_constructible_v<FloorplanEnv>);
static_assert(!std::is_copy_assignable_v<FloorplanEnv>);
static_assert(!std::is_move_constructible_v<FloorplanEnv>);
static_assert(!std::is_move_assignable_v<FloorplanEnv>);

TEST(Env, ActionEncodingRoundTrip) {
  FloorplanEnv env(instance_of("ota_small"));
  for (int a : {0, 31, 1023, 1024, 2047, 3071}) {
    EXPECT_EQ(env.encode(env.decode(a)), a);
  }
  EXPECT_THROW(env.decode(-1), std::out_of_range);
  EXPECT_THROW(env.decode(3072), std::out_of_range);
  EXPECT_EQ(env.action_space(), 3072);
}

TEST(Env, ResetProducesConsistentObservation) {
  FloorplanEnv env(instance_of("ota1"));
  const Observation obs = env.reset();
  EXPECT_FALSE(obs.done);
  EXPECT_EQ(obs.steps_done, 0);
  EXPECT_GE(obs.current_block, 0);
  EXPECT_EQ(obs.masks.size(), static_cast<std::size_t>(6 * 32 * 32));
  EXPECT_EQ(obs.action_mask.size(), static_cast<std::size_t>(3 * 32 * 32));
  // Empty grid: occupancy all zero; some actions valid.
  for (int i = 0; i < 32 * 32; ++i) EXPECT_FLOAT_EQ(obs.masks[i], 0.0f);
  EXPECT_GE(first_valid(obs), 0);
  // The fp channels in the observation equal the action mask.
  const std::size_t plane = 32 * 32;
  for (std::size_t i = 0; i < 3 * plane; ++i) {
    EXPECT_FLOAT_EQ(obs.masks[3 * plane + i], obs.action_mask[i]);
  }
}

TEST(Env, CurrentBlockFollowsDecreasingAreaOrder) {
  const auto inst = instance_of("bias1");
  FloorplanEnv env(inst);
  Observation obs = env.reset();
  const auto order = inst.placement_order();
  EXPECT_EQ(obs.current_block, order[0]);
  const auto res = env.step(first_valid(obs));
  EXPECT_EQ(res.obs.current_block, order[1]);
}

TEST(Env, FullEpisodeTerminatesWithEvaluation) {
  FloorplanEnv env(instance_of("ota2"));
  Observation obs = env.reset();
  int steps = 0;
  StepResult last;
  while (!obs.done) {
    const int a = first_valid(obs);
    ASSERT_GE(a, 0);
    last = env.step(a);
    obs = last.obs;
    ++steps;
    ASSERT_LE(steps, 8);
  }
  EXPECT_EQ(steps, 8);  // one step per block
  EXPECT_TRUE(last.done);
  ASSERT_TRUE(last.final_eval.has_value());
  EXPECT_FALSE(last.violated);
  EXPECT_TRUE(last.final_eval->constraints_ok);
  EXPECT_GT(last.final_eval->area, 0.0);
}

TEST(Env, IntermediateRewardMatchesEq4) {
  // Placing the second block far away must yield a lower intermediate
  // reward than abutting it.
  const auto inst = instance_of("ota_small");
  FloorplanEnv near_env(inst), far_env(inst);
  Observation obs_n = near_env.reset();
  Observation obs_f = far_env.reset();
  (void)near_env.step(first_valid(obs_n));
  (void)far_env.step(first_valid(obs_f));

  // Choose, for the second block, the nearest vs farthest valid cell.
  obs_n = near_env.reset();  // restart to align states
  obs_f = far_env.reset();
  auto run2 = [&](FloorplanEnv& e, bool nearest) {
    Observation o = e.reset();
    (void)e.step(first_valid(o));
    o.masks.clear();
    const Observation cur = [&] {
      Observation tmp = e.reset();
      StepResult r = e.step(first_valid(tmp));
      return r.obs;
    }();
    int pick = -1;
    if (nearest) {
      pick = first_valid(cur);
    } else {
      for (int i = static_cast<int>(cur.action_mask.size()) - 1; i >= 0; --i) {
        if (cur.action_mask[static_cast<std::size_t>(i)] > 0.5f) {
          pick = i;
          break;
        }
      }
    }
    return e.step(pick).reward;
  };
  EXPECT_GT(run2(near_env, true), run2(far_env, false));
}

TEST(Env, InvalidActionYieldsViolationPenalty) {
  FloorplanEnv env(instance_of("ota_small"));
  Observation obs = env.reset();
  (void)env.step(first_valid(obs));
  // Re-take the same action: cell now occupied -> violation path.
  obs = env.reset();
  const int a = first_valid(obs);
  (void)env.step(a);
  const auto res = env.step(a);
  EXPECT_TRUE(res.done);
  EXPECT_TRUE(res.violated);
  EXPECT_LE(res.reward, -50.0 + 1e-9);
}

TEST(Env, StepAfterDoneThrows) {
  FloorplanEnv env(instance_of("ota_small"));
  Observation obs = env.reset();
  while (!obs.done) {
    obs = env.step(first_valid(obs)).obs;
  }
  EXPECT_THROW(env.step(0), std::logic_error);
}

TEST(Env, ConstrainedEpisodeMasksRespectSymmetry) {
  FloorplanEnv env(instance_of("ota2", /*constrained=*/true));
  Observation obs = env.reset();
  int guard = 0;
  bool finished_clean = false;
  while (!obs.done && guard++ < 16) {
    const int a = first_valid(obs);
    if (a < 0) break;
    const auto res = env.step(a);
    if (res.done && res.final_eval) {
      finished_clean = res.final_eval->constraints_ok;
    }
    obs = res.obs;
  }
  // Mask-following either completes with constraints intact or dead-ends
  // with the -50 penalty; it must never finish with violated constraints.
  if (finished_clean) {
    SUCCEED();
  } else {
    EXPECT_TRUE(obs.done);
  }
}

TEST(Env, MaskChannelsCanBeDisabled) {
  EnvConfig cfg;
  cfg.use_wire_mask = false;
  cfg.use_dead_space_mask = false;
  FloorplanEnv env(instance_of("ota_small"), cfg);
  Observation obs = env.reset();
  (void)env.step(first_valid(obs));
  obs = env.reset();
  const auto res = env.step(first_valid(obs));
  const std::size_t plane = 32 * 32;
  for (std::size_t i = 0; i < plane; ++i) {
    EXPECT_FLOAT_EQ(res.obs.masks[plane + i], 0.0f);      // fw off
    EXPECT_FLOAT_EQ(res.obs.masks[2 * plane + i], 0.0f);  // fds off
  }
}

TEST(Env, SetInstanceSwapsCircuit) {
  FloorplanEnv env(instance_of("ota_small"));
  EXPECT_EQ(env.episode_length(), 3);
  env.set_instance(instance_of("bias1"));
  EXPECT_EQ(env.episode_length(), 9);
  const Observation obs = env.reset();
  EXPECT_FALSE(obs.done);
}

TEST(VecEnv, AutoResetAndEpisodeHook) {
  int hook_calls = 0;
  VecEnv venv(
      2, [](int) { return instance_of("ota_small"); });
  venv.on_episode_end = [&hook_calls](int, const StepResult&) {
    ++hook_calls;
    return std::optional<floorplan::Instance>(instance_of("bias_small"));
  };
  auto obs = venv.reset_all();
  ASSERT_EQ(obs.size(), 2u);
  // Drive env 0 to completion.
  int steps = 0;
  Observation cur = obs[0];
  while (steps++ < 10) {
    const auto res = venv.step(0, first_valid(cur));
    cur = res.obs;
    if (res.done) break;
  }
  EXPECT_EQ(hook_calls, 1);
  // After the hook, env 0 hosts the replacement circuit.
  EXPECT_EQ(venv.env(0).episode_length(), 3);
  EXPECT_EQ(venv.env(0).instance().name, "bias_small");
}

}  // namespace
}  // namespace afp::env
