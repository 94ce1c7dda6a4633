// Incremental evaluation engine for the metaheuristic search loops.
//
// Every SA/PT/RL-SA step perturbs one or two blocks, yet the legacy path
// re-packs the whole floorplan (sequence-pair: O(n^2) longest-path
// relaxation; B*-tree: a full contour pass) and rescans every net's every
// pin for HPWL.  The evaluators here keep the previous packing and update
// only what a move invalidated:
//
//  * SpEvaluator diffs the new sequence pair against the cached one, finds
//    the first position whose match positions or shape changed, and
//    re-relaxes the longest paths from there with two Fenwick prefix-max
//    passes.  The first evaluation runs the same two passes from position
//    0 with every block marked changed; there is no private copy of
//    pack()'s O(n^2) loops.  max over the same contributions is bit-exact,
//    so results are bitwise identical to pack().  Its hpwl() runs the same
//    repack for the wirelength-only HPWL reference (estimate_hpwl_min)
//    from kHpwlDeltaMinBlocks blocks up.
//  * BStarEvaluator re-packs with the one B*-tree contour pass
//    (BStarPacker, shared with pack_bstar) over reusable buffers and
//    reports which blocks' rects moved.  A B* move disturbs the preorder
//    early, so replaying only a suffix measured no faster (16-250 blocks).
//  * floorplan::HpwlCache re-scans only nets adjacent to moved blocks.
//
// Mode selection follows the simd_parity harness pattern: AFP_EVAL=
// full|delta|check (default delta).  `full` is the legacy recompute,
// `delta` the incremental path, and `check` runs both on every evaluation
// and throws std::logic_error on any cost or rectangle mismatch — the
// parity oracle the property suite and the sanitizer CI leg run under.
// Both evaluators' cost() run one shared dispatch over these three modes.
#pragma once

#include <vector>

#include "metaheur/bstar.hpp"
#include "metaheur/sequence_pair.hpp"

namespace afp::metaheur {

enum class EvalMode : int { kFull = 0, kDelta = 1, kCheck = 2 };

/// Process-wide evaluation mode; first call reads AFP_EVAL (full|delta|
/// check, default delta; unknown values warn and fall back to delta).
EvalMode eval_mode();
/// Runtime override (tests); later eval_mode() calls observe it.
void set_eval_mode(EvalMode mode);
const char* to_string(EvalMode mode);

/// A stub kept only because the benchmark's traced pass
/// (afpbench/replica.cpp) still constructs one and reads its counters; the
/// search reads no cache, so it counts no lookups.  Delete it, and
/// SearchBudget::tt, once the benchmark stops using them.
class TranspositionCache {
 public:
  long hits() const { return 0; }
  long misses() const { return 0; }
};

namespace detail {

/// Shared rect -> cost scoring with the per-net HPWL cache.  Mirrors the
/// arithmetic of sp_cost(evaluate_floorplan(...)) term by term so the
/// result is bitwise identical without re-deriving a relaxed instance on
/// every constraint violation.
class RectScorer {
 public:
  void bind(const floorplan::Instance& inst);
  /// `moved` lists blocks whose rect changed since the last call; pass
  /// full = true (first evaluation / fallback repack) to rescan all nets.
  double cost(const std::vector<geom::Rect>& rects,
              const std::vector<int>& moved, bool full);
  /// The HPWL term of cost() alone, bitwise equal to hpwl_of(inst, rects);
  /// same `moved` / `full` contract.
  double hpwl(const std::vector<geom::Rect>& rects,
              const std::vector<int>& moved, bool full);

 private:
  const floorplan::Instance* inst_ = nullptr;
  double total_area_ = 0.0;
  floorplan::HpwlCache hpwl_;
};

}  // namespace detail

/// Incremental cost evaluator over sequence pairs.  One evaluator serves
/// one (instance, spacing) pair and one search chain: it carries the
/// previous packing as state.  Feeding it arbitrary states stays correct —
/// the diff is computed against whatever was evaluated last — it is only
/// fastest when successive states differ by a move or two.
class SpEvaluator {
 public:
  SpEvaluator(const floorplan::Instance& inst, double spacing);

  /// Cost of `sp`, bitwise equal to sp_cost(inst, pack(inst, sp, spacing))
  /// in every mode.  In check mode both paths run and must agree exactly.
  double cost(const SequencePair& sp);

  /// Wirelength of `sp`, bitwise equal to
  /// floorplan::hpwl_of(inst, pack(inst, sp, spacing)) in every mode: the
  /// Fenwick repack below plus the per-net HPWL cache, so one move costs
  /// O(n log n) instead of pack()'s O(n^2).  `full` runs pack() + hpwl_of;
  /// `check` runs both paths and throws on any mismatch.
  double hpwl(const SequencePair& sp);

 private:
  double eval_delta(const SequencePair& sp);
  /// Fenwick repack of the suffix a move disturbed; the first evaluation
  /// runs both passes from position 0 with every block changed.
  void repack(const SequencePair& sp);

  const floorplan::Instance& inst_;
  double spacing_;
  detail::RectScorer scorer_;

  bool has_state_ = false;
  bool full_rescan_ = false;  ///< this eval rebuilt everything
  SequencePair cached_;
  std::vector<int> pos1_, pos2_;
  std::vector<double> w_, h_, x_, y_;
  std::vector<geom::Rect> rects_;
  std::vector<int> moved_;  ///< blocks whose rect changed in the last eval
  // Scratch (kept across evals to avoid reallocation).
  std::vector<int> npos1_, npos2_;
  std::vector<char> changed_;
  std::vector<int> touched_;
  /// Fenwick (binary indexed) trees holding running prefix maxima of block
  /// contributions (coord + extent), one per axis.  They turn each pass of
  /// the suffix re-relaxation into O(n log n): a block's packed coordinate
  /// is exactly the max contribution over its already-inserted
  /// predecessors, and max over the same set of doubles is bit-exact
  /// regardless of association order.
  std::vector<double> fenx_, feny_;
};

/// Block count from which estimate_hpwl_min anneals through
/// SpEvaluator::hpwl() rather than pack() + hpwl_of().  Below it the delta
/// bookkeeping costs more than the O(n^2) pack it saves.  Measured as
/// full time / delta time of the 2000-step annealing loop on the four
/// scenario families, modes alternating in one process (Release, 4-vCPU
/// Xeon VM): 0.75-0.81x at 5-9 blocks, 0.86-0.93x at 12-16, 0.97-1.01x at
/// 18-19, 1.01-1.05x at 20, 1.17-1.22x at 24, 2.7-2.8x at 80, 7.5-8.0x at
/// 200 and 25-29x at 500.
inline constexpr int kHpwlDeltaMinBlocks = 20;

/// Cost evaluator over B*-trees: one BStarPacker pass per evaluation into
/// reusable member buffers, then HPWL is rescanned only for nets adjacent to
/// blocks whose rect moved.
class BStarEvaluator {
 public:
  BStarEvaluator(const floorplan::Instance& inst, double spacing);

  /// Bitwise equal to sp_cost(inst, pack_bstar(inst, tree, spacing)).
  double cost(const BStarTree& tree);

 private:
  double eval_delta(const BStarTree& tree);

  const floorplan::Instance& inst_;
  double spacing_;
  detail::RectScorer scorer_;
  BStarPacker packer_;
  std::vector<geom::Rect> rects_;
  std::vector<int> moved_;  ///< blocks whose rect changed in the last eval
};

}  // namespace afp::metaheur
