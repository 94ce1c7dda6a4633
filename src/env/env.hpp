// Floorplanning MDP (Section IV-A).
//
// One episode places every block of an Instance, in decreasing-area order.
// The observation combines six 32x32 grid masks — occupancy fg, wire mask
// fw, dead-space mask fds and three per-shape positional masks fp — with
// the identity of the block to place (the agent looks up its R-GCN node
// embedding).  An action jointly selects (shape, column, row), flattened
// as a = shape * n * n + row * n + col over the 3 x n x n action space.
//
// Rewards: Eq. (4) intermediate (-Δdead_space - ΔHPWL, wirelength
// normalized by the canvas half-perimeter so both terms are O(1)); Eq. (5)
// terminal; -50 when the episode dead-ends with no admissible action.
#pragma once

#include <optional>
#include <random>

#include "floorplan/grid.hpp"

namespace afp::env {

struct EnvConfig {
  int grid = 32;
  floorplan::RewardWeights weights{};
  /// Shape channel used for the single-channel fw / fds masks
  /// (the paper keeps one mask; we use the middle candidate shape).
  int representative_shape = 1;
  /// Include fds in the observation (ablation A1 switches it off).
  bool use_dead_space_mask = true;
  /// Include fw in the observation.
  bool use_wire_mask = true;
  /// Append a 7th RUDY congestion channel (paper Section VI future work:
  /// conditioning placement on expected routing density).
  bool use_congestion_mask = false;
};

constexpr int kMaskChannels = 6;  ///< fg, fw, fds, fp0, fp1, fp2 (base set)

/// Decoded action.
struct Action {
  int shape = 0;
  int col = 0;
  int row = 0;
};

struct Observation {
  /// [C, n, n] row-major channel-major masks; C = 6, or 7 with the
  /// congestion extension (fcong appended last).
  std::vector<float> masks;
  /// Flat {0,1} action mask of size 3 * n * n (fp channels).
  std::vector<float> action_mask;
  int current_block = -1;  ///< graph node to place next, -1 when done
  int steps_done = 0;
  bool done = false;
};

struct StepResult {
  Observation obs;
  double reward = 0.0;
  bool done = false;
  bool violated = false;                    ///< dead-end / constraint failure
  std::optional<floorplan::Evaluation> final_eval;  ///< set on clean finish
};

class FloorplanEnv {
 public:
  FloorplanEnv(floorplan::Instance inst, EnvConfig cfg = {});
  // grid_ points at inst_, so a copied or moved environment would read the
  // source's instance; hold environments by unique_ptr (see VecEnv).
  FloorplanEnv(const FloorplanEnv&) = delete;
  FloorplanEnv& operator=(const FloorplanEnv&) = delete;
  FloorplanEnv(FloorplanEnv&&) = delete;
  FloorplanEnv& operator=(FloorplanEnv&&) = delete;

  Observation reset();
  /// `flat_action` indexes the 3*n*n action space; must be valid per the
  /// current action mask.
  StepResult step(int flat_action);

  Action decode(int flat_action) const;
  int encode(const Action& a) const;

  const floorplan::Instance& instance() const { return inst_; }
  const floorplan::GridFloorplan& grid() const { return grid_; }
  int grid_size() const { return cfg_.grid; }
  int action_space() const { return 3 * cfg_.grid * cfg_.grid; }
  /// Observation channel count (6, or 7 with the congestion extension).
  int mask_channels() const {
    return kMaskChannels + (cfg_.use_congestion_mask ? 1 : 0);
  }
  int episode_length() const { return inst_.num_blocks(); }

  /// Replaces the instance (used by the curriculum) and resets.
  Observation set_instance(floorplan::Instance inst);

 private:
  Observation observe() const;

  floorplan::Instance inst_;
  EnvConfig cfg_;
  floorplan::GridFloorplan grid_;
  std::vector<int> order_;  ///< decreasing-area placement order
  int cursor_ = 0;          ///< next index into order_
  double prev_ds_ = 0.0;
  double prev_hpwl_ = 0.0;
  bool done_ = true;
};

}  // namespace afp::env
