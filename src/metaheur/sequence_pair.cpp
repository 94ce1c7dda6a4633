#include "metaheur/sequence_pair.hpp"

#include <algorithm>
#include <numeric>

namespace afp::metaheur {

SequencePair SequencePair::initial(int num_blocks) {
  SequencePair sp;
  sp.s1.resize(static_cast<std::size_t>(num_blocks));
  std::iota(sp.s1.begin(), sp.s1.end(), 0);
  sp.s2 = sp.s1;
  sp.shapes.assign(static_cast<std::size_t>(num_blocks), 1);
  return sp;
}

SequencePair SequencePair::random(int num_blocks, std::mt19937_64& rng) {
  SequencePair sp = initial(num_blocks);
  std::shuffle(sp.s1.begin(), sp.s1.end(), rng);
  std::shuffle(sp.s2.begin(), sp.s2.end(), rng);
  std::uniform_int_distribution<int> shape(0, floorplan::kNumShapes - 1);
  for (int& s : sp.shapes) s = shape(rng);
  return sp;
}

std::vector<geom::Rect> pack(const floorplan::Instance& inst,
                             const SequencePair& sp, double spacing_um) {
  const int n = sp.size();
  std::vector<int> pos1(static_cast<std::size_t>(n)), pos2(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    pos1[static_cast<std::size_t>(sp.s1[static_cast<std::size_t>(i)])] = i;
    pos2[static_cast<std::size_t>(sp.s2[static_cast<std::size_t>(i)])] = i;
  }
  std::vector<double> w(static_cast<std::size_t>(n)), h(static_cast<std::size_t>(n));
  for (int b = 0; b < n; ++b) {
    const auto& sh = inst.blocks[static_cast<std::size_t>(b)]
                         .shapes[static_cast<std::size_t>(
                             sp.shapes[static_cast<std::size_t>(b)])];
    w[static_cast<std::size_t>(b)] = sh.w + 2.0 * spacing_um;
    h[static_cast<std::size_t>(b)] = sh.h + 2.0 * spacing_um;
  }

  // x: process blocks in s1 order; all left-of predecessors come earlier.
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    const int b = sp.s1[static_cast<std::size_t>(i)];
    double xb = 0.0;
    for (int j = 0; j < i; ++j) {
      const int a = sp.s1[static_cast<std::size_t>(j)];
      if (pos2[static_cast<std::size_t>(a)] < pos2[static_cast<std::size_t>(b)]) {
        xb = std::max(xb, x[static_cast<std::size_t>(a)] + w[static_cast<std::size_t>(a)]);
      }
    }
    x[static_cast<std::size_t>(b)] = xb;
  }
  // y: process in s2 order; "a above b" (pos1(a)<pos1(b), pos2(a)>pos2(b))
  // means every block below a precedes it in s2.
  std::vector<double> y(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    const int a = sp.s2[static_cast<std::size_t>(i)];
    double ya = 0.0;
    for (int j = 0; j < i; ++j) {
      const int b = sp.s2[static_cast<std::size_t>(j)];
      if (pos1[static_cast<std::size_t>(a)] < pos1[static_cast<std::size_t>(b)]) {
        ya = std::max(ya, y[static_cast<std::size_t>(b)] + h[static_cast<std::size_t>(b)]);
      }
    }
    y[static_cast<std::size_t>(a)] = ya;
  }

  std::vector<geom::Rect> rects(static_cast<std::size_t>(n));
  for (int b = 0; b < n; ++b) {
    const auto& sh = inst.blocks[static_cast<std::size_t>(b)]
                         .shapes[static_cast<std::size_t>(
                             sp.shapes[static_cast<std::size_t>(b)])];
    // Center the true rectangle inside its padded slot.
    rects[static_cast<std::size_t>(b)] = {
        x[static_cast<std::size_t>(b)] + spacing_um,
        y[static_cast<std::size_t>(b)] + spacing_um, sh.w, sh.h};
  }
  return rects;
}

void apply_move(SequencePair& sp, Move move, std::mt19937_64& rng) {
  const int n = sp.size();
  if (n < 2) return;
  std::uniform_int_distribution<int> pick(0, n - 1);
  int i = pick(rng);
  int j = pick(rng);
  while (j == i) j = pick(rng);
  switch (move) {
    case Move::kSwapS1:
      std::swap(sp.s1[static_cast<std::size_t>(i)], sp.s1[static_cast<std::size_t>(j)]);
      break;
    case Move::kSwapS2:
      std::swap(sp.s2[static_cast<std::size_t>(i)], sp.s2[static_cast<std::size_t>(j)]);
      break;
    case Move::kSwapBoth: {
      // Swap the same *blocks* in both sequences.
      const int a = sp.s1[static_cast<std::size_t>(i)];
      const int b = sp.s1[static_cast<std::size_t>(j)];
      std::swap(sp.s1[static_cast<std::size_t>(i)], sp.s1[static_cast<std::size_t>(j)]);
      auto ita = std::find(sp.s2.begin(), sp.s2.end(), a);
      auto itb = std::find(sp.s2.begin(), sp.s2.end(), b);
      std::iter_swap(ita, itb);
      break;
    }
    case Move::kChangeShape: {
      // Draw from the other shapes only; re-rolling the current shape would
      // make the move a no-op (and waste an SA evaluation) 1/kNumShapes of
      // the time.
      std::uniform_int_distribution<int> shape(0, floorplan::kNumShapes - 2);
      int s = shape(rng);
      if (s >= sp.shapes[static_cast<std::size_t>(i)]) ++s;
      sp.shapes[static_cast<std::size_t>(i)] = s;
      break;
    }
  }
}

double sp_cost(const floorplan::Instance& inst,
               const std::vector<geom::Rect>& rects) {
  // Score geometry without the -50 cliff: metaheuristics need a smooth
  // landscape, so constraint violations add a graded penalty (proportional
  // to the violated-item fraction) instead — repairing one more symmetry
  // pair or matching follower always lowers the cost.
  int total = 0;
  const int violated = floorplan::constraint_violations(inst, rects, 1e-6,
                                                        &total);
  return floorplan::eq5_cost(inst, geom::bounding_box(rects),
                             floorplan::hpwl_of(inst, rects),
                             inst.total_block_area()) +
         floorplan::constraint_penalty(violated, total);
}

}  // namespace afp::metaheur
