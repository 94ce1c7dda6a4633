#include "metaheur/eval_cache.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

namespace afp::metaheur {

namespace {

constexpr std::size_t z(int v) { return static_cast<std::size_t>(v); }

EvalMode parse_eval_mode(const char* s) {
  const std::string v = s == nullptr ? "" : s;
  if (v.empty() || v == "delta") return EvalMode::kDelta;
  if (v == "full") return EvalMode::kFull;
  if (v == "check") return EvalMode::kCheck;
  std::fprintf(stderr, "afp: unknown AFP_EVAL=%s, using delta\n", v.c_str());
  return EvalMode::kDelta;
}

// -1 = uninitialized; lazily reads AFP_EVAL on first use (simd_parity
// pattern: an env probe plus a test override through the same atomic).
std::atomic<int> g_eval_mode{-1};

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

bool same_bits(double a, double b) { return bits_of(a) == bits_of(b); }

bool same_rect(const geom::Rect& a, const geom::Rect& b) {
  return same_bits(a.x, b.x) && same_bits(a.y, b.y) && same_bits(a.w, b.w) &&
         same_bits(a.h, b.h);
}

void check_parity(const char* tag, double full_cost, double delta_cost,
                  const std::vector<geom::Rect>& full_rects,
                  const std::vector<geom::Rect>& delta_rects) {
  const auto fail = [tag](const std::string& what) {
    throw std::logic_error(std::string("eval_cache parity violation (") +
                           tag + "): " + what);
  };
  if (!same_bits(full_cost, delta_cost)) {
    fail("full=" + std::to_string(full_cost) +
         " delta=" + std::to_string(delta_cost));
  }
  if (full_rects.size() != delta_rects.size()) fail("rect count mismatch");
  for (std::size_t b = 0; b < full_rects.size(); ++b) {
    if (!same_rect(full_rects[b], delta_rects[b])) {
      fail("rect mismatch at block " + std::to_string(b));
    }
  }
}

/// The one mode dispatch behind SpEvaluator::cost and BStarEvaluator::cost.
/// `full_pack()` runs the legacy packer; `delta()` runs the incremental
/// path and leaves its rects in `delta_rects`.
template <typename FullPack, typename Delta>
double dispatch_cost(const floorplan::Instance& inst, const char* tag,
                     const FullPack& full_pack, const Delta& delta,
                     const std::vector<geom::Rect>& delta_rects) {
  const EvalMode mode = eval_mode();
  // Full: the pure legacy path, no incremental state — the honest baseline
  // the bench compares against.
  if (mode == EvalMode::kFull) return sp_cost(inst, full_pack());
  if (mode == EvalMode::kDelta) return delta();
  // Check mode: run the oracle and the delta path on every evaluation.
  const auto full_rects = full_pack();
  const double full_cost = sp_cost(inst, full_rects);
  const double delta_cost = delta();
  check_parity(tag, full_cost, delta_cost, full_rects, delta_rects);
  return full_cost;
}

}  // namespace

EvalMode eval_mode() {
  int m = g_eval_mode.load(std::memory_order_acquire);
  if (m < 0) {
    m = static_cast<int>(parse_eval_mode(std::getenv("AFP_EVAL")));
    int expected = -1;
    if (!g_eval_mode.compare_exchange_strong(expected, m,
                                             std::memory_order_acq_rel)) {
      m = expected;  // another thread initialized first; use its value
    }
  }
  return static_cast<EvalMode>(m);
}

void set_eval_mode(EvalMode mode) {
  g_eval_mode.store(static_cast<int>(mode), std::memory_order_release);
}

const char* to_string(EvalMode mode) {
  switch (mode) {
    case EvalMode::kFull:
      return "full";
    case EvalMode::kDelta:
      return "delta";
    case EvalMode::kCheck:
      return "check";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// RectScorer

namespace detail {

void RectScorer::bind(const floorplan::Instance& inst) {
  inst_ = &inst;
  total_area_ = inst.total_block_area();
  hpwl_.reset(inst);
}

double RectScorer::cost(const std::vector<geom::Rect>& rects,
                        const std::vector<int>& moved, bool full) {
  // Mirrors sp_cost(evaluate_floorplan(inst, rects)) term by term.  On the
  // satisfied branch sp_cost returns -(-r) == r bitwise (IEEE negation is a
  // sign-bit flip); on the violated branch it re-evaluates a copied instance
  // with constraints stripped, whose reward terms are identical to ours, and
  // adds the soft penalty.  Using the cached total area and the incremental
  // HPWL keeps every contributing double bit-identical to the legacy path.
  const floorplan::RewardWeights w;
  const geom::Rect bb = geom::bounding_box(rects);
  const double area = bb.area();
  const double hpwl = this->hpwl(rects, moved, full);
  int total = 0;
  const int violated = floorplan::constraint_violations(*inst_, rects, 1e-6,
                                                        &total);
  double r = w.alpha * (area / std::max(1e-12, total_area_) - 1.0) +
             w.beta * (hpwl / inst_->hpwl_ref - 1.0);
  if (inst_->target_aspect) {
    const double d = *inst_->target_aspect - geom::aspect_ratio(bb);
    r += w.gamma * d * d;
  }
  return r + floorplan::constraint_penalty(violated, total);
}

double RectScorer::hpwl(const std::vector<geom::Rect>& rects,
                        const std::vector<int>& moved, bool full) {
  // When most blocks moved, nearly every net is dirty and the per-net flag
  // bookkeeping of update() costs more than rescanning everything; both
  // paths run the same per-net min/max chain, so the sum is bit-identical.
  const bool rescan_all = full || 2 * moved.size() >= rects.size();
  return rescan_all ? hpwl_.recompute(rects) : hpwl_.update(rects, moved);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// SpEvaluator

SpEvaluator::SpEvaluator(const floorplan::Instance& inst, double spacing)
    : inst_(inst), spacing_(spacing) {
  scorer_.bind(inst);
}

double SpEvaluator::cost(const SequencePair& sp) {
  return dispatch_cost(
      inst_, "sequence-pair", [&] { return pack(inst_, sp, spacing_); },
      [&] { return eval_delta(sp); }, rects_);
}

double SpEvaluator::hpwl(const SequencePair& sp) {
  const EvalMode mode = eval_mode();
  if (mode == EvalMode::kFull) {
    return floorplan::hpwl_of(inst_, pack(inst_, sp, spacing_));
  }
  repack(sp);
  const double delta = scorer_.hpwl(rects_, moved_, full_rescan_);
  if (mode == EvalMode::kDelta) return delta;
  const auto full_rects = pack(inst_, sp, spacing_);
  const double full = floorplan::hpwl_of(inst_, full_rects);
  check_parity("sequence-pair hpwl", full, delta, full_rects, rects_);
  return full;
}

double SpEvaluator::eval_delta(const SequencePair& sp) {
  repack(sp);
  return scorer_.cost(rects_, moved_, full_rescan_);
}

void SpEvaluator::repack(const SequencePair& sp) {
  const int n = sp.size();
  const bool first = !has_state_ || cached_.size() != n;
  touched_.clear();
  int startx = n;
  int starty = n;
  if (first) {
    // Nothing to diff against: every block is changed and both passes
    // below run from position 0, i.e. a full pack in O(n log n).
    pos1_.resize(z(n));
    pos2_.resize(z(n));
    npos1_.resize(z(n));
    npos2_.resize(z(n));
    w_.resize(z(n));
    h_.resize(z(n));
    x_.assign(z(n), 0.0);
    y_.assign(z(n), 0.0);
    changed_.assign(z(n), 1);
    rects_.assign(z(n), {});
    for (int b = 0; b < n; ++b) {
      const auto& sh = inst_.blocks[z(b)].shapes[z(sp.shapes[z(b)])];
      w_[z(b)] = sh.w + 2.0 * spacing_;
      h_[z(b)] = sh.h + 2.0 * spacing_;
      touched_.push_back(b);
    }
    startx = starty = 0;
  }
  for (int i = 0; i < n; ++i) {
    npos1_[z(sp.s1[z(i)])] = i;
    npos2_[z(sp.s2[z(i)])] = i;
  }
  // Diff against the cached state to find where the packing can first
  // diverge.  A block whose match positions moved disturbs both axes from
  // the earlier of its old and new positions; a shape change disturbs an
  // axis from just after the block's position (its own coordinate cannot
  // change, only its successors').  Everything left of the first
  // disturbance is frozen: no predecessor set or contribution there can
  // have changed, so those coordinates are provably identical.
  for (int b = 0; b < n && !first; ++b) {
    if (npos1_[z(b)] != pos1_[z(b)] || npos2_[z(b)] != pos2_[z(b)]) {
      startx = std::min(startx, std::min(pos1_[z(b)], npos1_[z(b)]));
      starty = std::min(starty, std::min(pos2_[z(b)], npos2_[z(b)]));
    }
    if (sp.shapes[z(b)] != cached_.shapes[z(b)]) {
      const auto& sh = inst_.blocks[z(b)].shapes[z(sp.shapes[z(b)])];
      const double nw = sh.w + 2.0 * spacing_;
      const double nh = sh.h + 2.0 * spacing_;
      if (!same_bits(nw, w_[z(b)])) {
        w_[z(b)] = nw;
        startx = std::min(startx, npos1_[z(b)] + 1);
      }
      if (!same_bits(nh, h_[z(b)])) {
        h_[z(b)] = nh;
        starty = std::min(starty, npos2_[z(b)] + 1);
      }
      changed_[z(b)] = 1;
      touched_.push_back(b);
    }
  }

  // Suffix re-relaxation, one Fenwick prefix-max tree per axis.  pack()
  // computes x[b] = max over predecessors a (earlier in both s1 and s2) of
  // x[a] + w[a]; walking s1 in order and inserting each block's
  // contribution keyed by its s2 position makes that exactly a prefix-max
  // query.  std::max over the same set of doubles is bit-exact however it
  // is associated, so every coordinate matches a from-scratch pack bit for
  // bit.  Positions left of the first disturbance skip the query (their
  // coordinates are frozen) but still insert, seeding the tree for the
  // suffix.  No diff-size fallback is needed: a restart-sized diff simply
  // degenerates to the full O(n log n) re-relaxation.
  if (startx < n) {
    fenx_.assign(z(n + 1), 0.0);
    for (int i = 0; i < n; ++i) {
      const int b = sp.s1[z(i)];
      if (i >= startx) {
        double xb = 0.0;
        for (int k = npos2_[z(b)]; k > 0; k -= k & -k) {
          xb = std::max(xb, fenx_[z(k)]);
        }
        if (!same_bits(xb, x_[z(b)])) {
          x_[z(b)] = xb;
          if (changed_[z(b)] == 0) {
            changed_[z(b)] = 1;
            touched_.push_back(b);
          }
        }
      }
      const double contrib = x_[z(b)] + w_[z(b)];
      for (int k = npos2_[z(b)] + 1; k <= n; k += k & -k) {
        fenx_[z(k)] = std::max(fenx_[z(k)], contrib);
      }
    }
  }

  // Symmetric y pass over s2: "b below a" means earlier in s2 and later in
  // s1, so the key order is reversed (n - npos1) to turn the successor
  // test into a prefix-max query.
  if (starty < n) {
    feny_.assign(z(n + 1), 0.0);
    for (int i = 0; i < n; ++i) {
      const int a = sp.s2[z(i)];
      if (i >= starty) {
        double ya = 0.0;
        for (int k = n - npos1_[z(a)] - 1; k > 0; k -= k & -k) {
          ya = std::max(ya, feny_[z(k)]);
        }
        if (!same_bits(ya, y_[z(a)])) {
          y_[z(a)] = ya;
          if (changed_[z(a)] == 0) {
            changed_[z(a)] = 1;
            touched_.push_back(a);
          }
        }
      }
      const double contrib = y_[z(a)] + h_[z(a)];
      for (int k = n - npos1_[z(a)]; k <= n; k += k & -k) {
        feny_[z(k)] = std::max(feny_[z(k)], contrib);
      }
    }
  }

  moved_.clear();
  for (int b : touched_) {
    changed_[z(b)] = 0;
    const auto& sh = inst_.blocks[z(b)].shapes[z(sp.shapes[z(b)])];
    const geom::Rect r{x_[z(b)] + spacing_, y_[z(b)] + spacing_, sh.w, sh.h};
    if (first || !same_rect(r, rects_[z(b)])) {
      rects_[z(b)] = r;
      moved_.push_back(b);
    }
  }
  std::swap(pos1_, npos1_);
  std::swap(pos2_, npos2_);
  cached_ = sp;
  has_state_ = true;
  full_rescan_ = first;
}

// ---------------------------------------------------------------------------
// BStarEvaluator

BStarEvaluator::BStarEvaluator(const floorplan::Instance& inst, double spacing)
    : inst_(inst), spacing_(spacing) {
  scorer_.bind(inst);
}

double BStarEvaluator::cost(const BStarTree& tree) {
  return dispatch_cost(
      inst_, "b*-tree", [&] { return pack_bstar(inst_, tree, spacing_); },
      [&] { return eval_delta(tree); }, rects_);
}

double BStarEvaluator::eval_delta(const BStarTree& tree) {
  const bool first = rects_.size() != static_cast<std::size_t>(tree.size());
  packer_.pack(inst_, tree, spacing_, &rects_, &moved_);
  return scorer_.cost(rects_, moved_, first);
}

}  // namespace afp::metaheur
