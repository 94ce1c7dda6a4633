// Floorplanning problem instance: blocks with candidate shapes, block-level
// nets, positional constraints and the placement canvas.
//
// Shared by the RL environment and all metaheuristic baselines so that
// every algorithm is scored by exactly the same metric code.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "geom/geom.hpp"
#include "graphir/graph.hpp"

namespace afp::floorplan {

/// Continuous block dimensions in um.
struct Shape {
  double w = 0.0;
  double h = 0.0;
  double area() const { return w * h; }
};

constexpr int kNumShapes = 3;  ///< candidate shapes per block (Section IV-A)

/// Three area-preserving aspect-ratio variants for a block, reflecting the
/// internal placement styles (common-centroid, interdigitated, stacked) the
/// multi-shape configuration step generates.  Matched pairs and mirrors
/// prefer wide layouts; power devices are strongly widened.
std::array<Shape, kNumShapes> candidate_shapes(double area_um2,
                                               structrec::StructureType type);

struct Block {
  std::string name;
  structrec::StructureType type = structrec::StructureType::kUnknown;
  double area_um2 = 0.0;
  std::array<Shape, kNumShapes> shapes{};
};

/// The full problem instance.
struct Instance {
  std::string name;
  std::vector<Block> blocks;
  std::vector<std::vector<int>> nets;  ///< block indices per net
  graphir::ConstraintSpec constraints;
  double canvas_w = 0.0;  ///< W (um), Section IV-D1
  double canvas_h = 0.0;  ///< H (um)
  double hpwl_ref = 1.0;  ///< HPWLmin estimate for reward standardization
  std::optional<double> target_aspect;  ///< optional fixed-outline R*

  int num_blocks() const { return static_cast<int>(blocks.size()); }
  double total_block_area() const;

  /// Placement order heuristic: indices by decreasing area (Section IV-D1).
  std::vector<int> placement_order() const;
};

/// Builds an instance from a circuit graph (Rmax = 11 per the paper).
/// hpwl_ref defaults to a per-net lower-bound estimate and is typically
/// overwritten with a metaheuristic estimate by the caller.
Instance make_instance(const graphir::CircuitGraph& g, double r_max = 11.0);

/// Metric record of a finished floorplan.
struct Evaluation {
  double area = 0.0;         ///< bounding-box area (um^2)
  double dead_space = 0.0;   ///< 1 - sum(Ai)/area
  double hpwl = 0.0;         ///< block-center half-perimeter wirelength (um)
  double aspect = 1.0;       ///< bounding-box aspect ratio
  double reward = 0.0;       ///< Eq. (5) with alpha=1, beta=5, gamma=5
  bool constraints_ok = true;
  /// Violation breakdown behind constraints_ok: violated / total constraint
  /// items (see constraint_violations).  0/0 for unconstrained instances.
  int constraint_violations = 0;
  int constraint_items = 0;
};

/// Reward weights of Eq. (5).
struct RewardWeights {
  double alpha = 1.0;
  double beta = 5.0;
  double gamma = 5.0;
  double violation_penalty = -50.0;
};

/// Scores continuous block rectangles (one per block, all placed).
/// The Eq. (5) terms are zero-referenced (perfect packing at reference
/// wirelength scores 0) so rewards are comparable across circuits.
/// `constraint_tol` is the geometric tolerance for constraint checking:
/// exact (1e-6) for continuous optimizers; grid-produced floorplans pass
/// half a grid cell, the alignment quantum of the 32x32 discretization.
Evaluation evaluate_floorplan(const Instance& inst,
                              const std::vector<geom::Rect>& rects,
                              const RewardWeights& w = {},
                              double constraint_tol = 1e-6);

/// The Eq. (5) cost, zero-referenced, of a placement with bounding box
/// `bb` and wirelength `hpwl`: alpha (area / block_area - 1) + beta (hpwl /
/// hpwl_ref - 1) + gamma (R* - R)^2, the last term only when the instance
/// has a target aspect ratio R*.  `block_area` is inst.total_block_area(),
/// passed in so that callers scoring many placements can cache it.  A
/// constraint-clean floorplan's reward is its negation.
double eq5_cost(const Instance& inst, const geom::Rect& bb, double hpwl,
                double block_area, const RewardWeights& w = {});

/// HPWL over block centers for the instance's nets.
double hpwl_of(const Instance& inst, const std::vector<geom::Rect>& rects);

/// Cached per-net HPWL bounding boxes: after a move, only the nets touching
/// moved blocks are rescanned (O(moved pins)), then the per-net extents are
/// re-summed in net order so the total is bitwise identical to hpwl_of.
/// The caller owns the invalidation contract: `moved` must cover every block
/// whose rect center changed since the previous update()/recompute() on the
/// same rects vector (a superset is fine, it only costs rescans).
class HpwlCache {
 public:
  /// Binds the cache to an instance: builds the block -> nets adjacency and
  /// clears all per-net boxes.  `inst` must outlive the cache.
  void reset(const Instance& inst);

  /// Rescans every net; equivalent to hpwl_of(inst, rects).
  double recompute(const std::vector<geom::Rect>& rects);

  /// Rescans only the nets adjacent to `moved` blocks, then re-sums all
  /// nets.  Requires a prior recompute() on the same instance.
  double update(const std::vector<geom::Rect>& rects,
                const std::vector<int>& moved);

 private:
  struct NetBox {
    double x0 = 0.0, x1 = 0.0, y0 = 0.0, y1 = 0.0;
  };
  void rescan(std::size_t net, const std::vector<geom::Rect>& rects);
  double sum() const;

  const Instance* inst_ = nullptr;
  std::vector<std::vector<int>> block_nets_;  ///< nets adjacent to a block
  std::vector<NetBox> boxes_;
  std::vector<char> dirty_;  ///< per-net scratch flag for update()
};

/// Counts violated constraint items with tolerance `tol` (um).  One item
/// per constraint element: each self-symmetry, symmetry pair, alignment
/// follower, matching follower, keep-out region and pre-placed pin.  The
/// item total (written to `total_items` when non-null) depends only on the
/// constraint spec, never on the placement, so violated/total is a stable
/// violation fraction.
int constraint_violations(const Instance& inst,
                          const std::vector<geom::Rect>& rects, double tol,
                          int* total_items = nullptr);

/// Graded soft penalty for the metaheuristic cost: 0 when satisfied, up to
/// 10.0 when every item is violated.  Proportional to the violation
/// fraction so annealers can repair constraints one element at a time
/// instead of facing a flat cliff.  Shared by sp_cost and the incremental
/// evaluator so both produce bitwise-identical costs.
inline double constraint_penalty(int violated, int total_items) {
  if (violated <= 0) return 0.0;
  return 10.0 * static_cast<double>(violated) /
         static_cast<double>(total_items < 1 ? 1 : total_items);
}

}  // namespace afp::floorplan
