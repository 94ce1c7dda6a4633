#include "numeric/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "numeric/parallel.hpp"
#include "numeric/scratch.hpp"
#include "numeric/simd.hpp"

namespace afp::num {

namespace {

using detail::Node;
using NodePtr = std::shared_ptr<Node>;

void check(bool cond, const std::string& msg) {
  if (!cond) throw std::invalid_argument(msg);
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  check(a.shape() == b.shape(), std::string(op) + ": shape mismatch " +
                                    shape_str(a.shape()) + " vs " +
                                    shape_str(b.shape()));
}

const std::vector<float>& V(const NodePtr& n) { return *n->value; }
std::vector<float>& G(const NodePtr& n) { return *n->grad; }

/// Accumulates g into n->grad.  Callers must have checked requires_grad —
/// gradient buffers are lazily allocated and only exist for graph nodes.
void acc(const NodePtr& n, std::size_t i, float g) { (*n->grad)[i] += g; }

/// Minimum elements per chunk for elementwise parallel loops.
constexpr std::int64_t kEwGrain = 1 << 14;

/// Chunk grain that targets ~32k inner operations per chunk when every
/// outer index costs `work_per_index` operations.
std::int64_t grain_for(std::int64_t work_per_index) {
  return std::max<std::int64_t>(
      1, (std::int64_t{1} << 15) / std::max<std::int64_t>(1, work_per_index));
}

// ====================================================================== GEMM
//
// All three kernels are row-parallel over their output matrix: each output
// row is produced entirely by one chunk with a fixed accumulation order, so
// results do not depend on the thread count.  The inner loops dispatch to
// the active micro-kernel tier (numeric/simd.hpp).

/// C[M,N] (+)= A[M,K] · B[K,N].
void gemm_nn(std::int64_t M, std::int64_t K, std::int64_t N, const float* A,
             const float* B, float* C, bool accumulate) {
  const auto rows = simd::kernels().gemm_nn_rows;
  parallel_for(M, grain_for(K * N), [=](std::int64_t i0, std::int64_t i1) {
    rows(i0, i1, K, N, A, K, B, N, C, N, accumulate);
  });
}

/// C[M,N] (+)= A[M,K] · B[N,K]ᵀ (rows of B are dotted against rows of A).
void gemm_nt(std::int64_t M, std::int64_t K, std::int64_t N, const float* A,
             const float* B, float* C, bool accumulate) {
  const auto rows = simd::kernels().gemm_nt_rows;
  parallel_for(M, grain_for(K * N), [=](std::int64_t i0, std::int64_t i1) {
    rows(i0, i1, K, N, A, K, B, K, C, N, accumulate);
  });
}

/// C[K,N] (+)= A[M,K]ᵀ · B[M,N].  Row-parallel over C (i.e. over K).
void gemm_tn(std::int64_t M, std::int64_t K, std::int64_t N, const float* A,
             const float* B, float* C, bool accumulate) {
  const auto rows = simd::kernels().gemm_tn_rows;
  parallel_for(K, grain_for(M * N), [=](std::int64_t k0, std::int64_t k1) {
    rows(k0, k1, M, N, A, K, B, N, C, N, accumulate);
  });
}

/// C[M,N] += Σ_b A_b[M,K]·B_b[N,K]ᵀ where A and B store image b's block at
/// column offset b*K of a [.., BATCH*K] row-major matrix (the conv im2col /
/// channel-major layout).  Parallel over the batch with per-image partials
/// in thread scratch, then a fixed-order (b ascending) reduction — bitwise
/// identical for any thread count, unlike parallelizing the K loop.
void gemm_nt_batched_acc(std::int64_t BATCH, std::int64_t M, std::int64_t K,
                         std::int64_t N, const float* A, const float* B,
                         float* C) {
  // The split must depend only on the shape — never on the thread count —
  // or the summation order (and hence the bits) would change with the pool
  // size.  BATCH == 1 degenerates to a plain row-parallel contraction.
  if (BATCH <= 1) {
    gemm_nt(M, BATCH * K, N, A, B, C, /*accumulate=*/true);
    return;
  }
  const auto rows = simd::kernels().gemm_nt_rows;
  const std::int64_t part = M * N;
  ScratchLease partials(static_cast<std::size_t>(BATCH * part));
  float* P = partials.data();
  parallel_for(BATCH, grain_for(M * K * N),
               [=](std::int64_t b0, std::int64_t b1) {
                 for (std::int64_t b = b0; b < b1; ++b) {
                   rows(0, M, K, N, A + b * K, BATCH * K, B + b * K, BATCH * K,
                        P + b * part, N, /*accumulate=*/false);
                 }
               });
  const auto acc = simd::kernels().acc;
  for (std::int64_t b = 0; b < BATCH; ++b) acc(C, P + b * part, part);
}

// ================================================================ im2col ===
//
// Batched layout: col is [IC*KH*KW, B*OH*OW]; column index is
// b*OH*OW + oh*OW + ow.  The whole batch lowers to ONE GEMM per conv.

void im2col(const float* X, int B, int IC, int H, int W, int KH, int KW,
            int OH, int OW, int stride, int pad, float* col) {
  const std::int64_t CK = static_cast<std::int64_t>(IC) * KH * KW;
  const std::int64_t cols = static_cast<std::int64_t>(B) * OH * OW;
  parallel_for(CK, grain_for(cols), [=](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      const int kw = static_cast<int>(r % KW);
      const int kh = static_cast<int>((r / KW) % KH);
      const int ic = static_cast<int>(r / (static_cast<std::int64_t>(KW) * KH));
      float* dst = col + r * cols;
      for (int b = 0; b < B; ++b) {
        const float* src =
            X + (static_cast<std::int64_t>(b) * IC + ic) * H * W;
        float* d = dst + static_cast<std::int64_t>(b) * OH * OW;
        for (int oh = 0; oh < OH; ++oh, d += OW) {
          const int ih = oh * stride - pad + kh;
          if (ih < 0 || ih >= H) {
            std::fill(d, d + OW, 0.0f);
            continue;
          }
          const float* srow = src + static_cast<std::int64_t>(ih) * W;
          for (int ow = 0; ow < OW; ++ow) {
            const int iw = ow * stride - pad + kw;
            d[ow] = (iw >= 0 && iw < W) ? srow[iw] : 0.0f;
          }
        }
      }
    }
  });
}

/// Scatters col (same layout as im2col) back into X, accumulating.
/// Parallel over the batch: each image is owned by one chunk.
void col2im_acc(const float* col, int B, int IC, int H, int W, int KH, int KW,
                int OH, int OW, int stride, int pad, float* dX) {
  const std::int64_t CK = static_cast<std::int64_t>(IC) * KH * KW;
  const std::int64_t cols = static_cast<std::int64_t>(B) * OH * OW;
  parallel_for(B, grain_for(CK * OH * OW),
               [=](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b) {
      for (std::int64_t r = 0; r < CK; ++r) {
        const int kw = static_cast<int>(r % KW);
        const int kh = static_cast<int>((r / KW) % KH);
        const int ic =
            static_cast<int>(r / (static_cast<std::int64_t>(KW) * KH));
        const float* src = col + r * cols + b * OH * OW;
        float* dst = dX + (b * IC + ic) * H * W;
        for (int oh = 0; oh < OH; ++oh) {
          const int ih = oh * stride - pad + kh;
          if (ih < 0 || ih >= H) continue;
          float* drow = dst + static_cast<std::int64_t>(ih) * W;
          const float* srow = src + static_cast<std::int64_t>(oh) * OW;
          for (int ow = 0; ow < OW; ++ow) {
            const int iw = ow * stride - pad + kw;
            if (iw >= 0 && iw < W) drow[iw] += srow[ow];
          }
        }
      }
    }
  });
}

/// Gathers NCHW x into channel-major x_mat [C, B*H*W] (column b*HW + i).
void to_channel_major(const float* X, int B, int C, std::int64_t HW,
                      float* Xmat) {
  const std::int64_t total = static_cast<std::int64_t>(B) * C;
  parallel_for(total, grain_for(HW), [=](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t b = t / C, c = t % C;
      std::copy(X + (b * C + c) * HW, X + (b * C + c) * HW + HW,
                Xmat + c * (B * HW) + b * HW);
    }
  });
}

/// Scatters channel-major mat [C, B*H*W] back to NCHW, accumulating.
void from_channel_major_acc(const float* Xmat, int B, int C, std::int64_t HW,
                            float* X) {
  const std::int64_t total = static_cast<std::int64_t>(B) * C;
  parallel_for(total, grain_for(HW), [=](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t b = t / C, c = t % C;
      const float* src = Xmat + c * (B * HW) + b * HW;
      float* dst = X + (b * C + c) * HW;
      for (std::int64_t i = 0; i < HW; ++i) dst[i] += src[i];
    }
  });
}

// ============================================================ elementwise ===

template <class Fwd>
detail::BufferPtr ew_forward(const Tensor& a, Fwd&& f) {
  auto out = detail::acquire_buffer(a.values().size());
  const float* in = a.data();
  float* o = out->data();
  parallel_for(static_cast<std::int64_t>(out->size()), kEwGrain,
               [&](std::int64_t i0, std::int64_t i1) {
                 for (std::int64_t i = i0; i < i1; ++i)
                   o[i] = f(in[static_cast<std::size_t>(i)]);
               });
  return out;
}

/// Like ew_forward but streams subranges through a tier kernel of the form
/// k(in, out, n) instead of a per-element lambda.
template <class Kernel>
detail::BufferPtr ew_forward_kernel(const Tensor& a, Kernel k) {
  auto out = detail::acquire_buffer(a.values().size());
  const float* in = a.data();
  float* o = out->data();
  parallel_for(static_cast<std::int64_t>(out->size()), kEwGrain,
               [&](std::int64_t i0, std::int64_t i1) {
                 k(in + i0, o + i0, i1 - i0);
               });
  return out;
}

/// Binary elementwise op with tier-dispatched forward and accumulate-style
/// backward kernels.  `fwd(a, b, o, n)` writes the subrange; `bwd_a`/`bwd_b`
/// accumulate the full gradient (they run once, on the backward thread).
template <class Fwd, class BwdA, class BwdB>
Tensor ew_binary(const char* name, const Tensor& a, const Tensor& b, Fwd fwd,
                 BwdA bwd_a, BwdB bwd_b) {
  check_same_shape(a, b, name);
  auto out = detail::acquire_buffer(a.values().size());
  const float* pa = a.data();
  const float* pb = b.data();
  float* o = out->data();
  parallel_for(static_cast<std::int64_t>(out->size()), kEwGrain,
               [&](std::int64_t i0, std::int64_t i1) {
                 fwd(pa + i0, pb + i0, o + i0, i1 - i0);
               });
  NodePtr an = a.node(), bn = b.node();
  return make_result(a.shape(), std::move(out), {a, b},
                     [an, bn, bwd_a, bwd_b](const std::vector<float>& g) {
                       const std::int64_t n =
                           static_cast<std::int64_t>(g.size());
                       if (an->requires_grad) bwd_a(an, g.data(), n);
                       if (bn->requires_grad) bwd_b(bn, g.data(), n);
                     });
}

}  // namespace

// ---------------------------------------------------------------- binary ---

Tensor add(const Tensor& a, const Tensor& b) {
  return ew_binary(
      "add", a, b, simd::kernels().add,
      [](const NodePtr& n, const float* g, std::int64_t sz) {
        simd::kernels().acc(G(n).data(), g, sz);
      },
      [](const NodePtr& n, const float* g, std::int64_t sz) {
        simd::kernels().acc(G(n).data(), g, sz);
      });
}

Tensor sub(const Tensor& a, const Tensor& b) {
  return ew_binary(
      "sub", a, b, simd::kernels().sub,
      [](const NodePtr& n, const float* g, std::int64_t sz) {
        simd::kernels().acc(G(n).data(), g, sz);
      },
      [](const NodePtr& n, const float* g, std::int64_t sz) {
        simd::kernels().acc_scaled(G(n).data(), g, -1.0f, sz);
      });
}

Tensor mul(const Tensor& a, const Tensor& b) {
  NodePtr an = a.node(), bn = b.node();
  return ew_binary(
      "mul", a, b, simd::kernels().mul,
      [bn](const NodePtr& n, const float* g, std::int64_t sz) {
        simd::kernels().acc_mul(G(n).data(), g, V(bn).data(), sz);
      },
      [an](const NodePtr& n, const float* g, std::int64_t sz) {
        simd::kernels().acc_mul(G(n).data(), g, V(an).data(), sz);
      });
}

Tensor div(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "div");
  auto out = detail::acquire_buffer(a.values().size());
  const float* pa = a.data();
  const float* pb = b.data();
  float* o = out->data();
  for (std::size_t i = 0; i < out->size(); ++i) o[i] = pa[i] / pb[i];
  NodePtr an = a.node(), bn = b.node();
  return make_result(a.shape(), std::move(out), {a, b},
                     [an, bn](const std::vector<float>& g) {
                       const bool da = an->requires_grad,
                                  db = bn->requires_grad;
                       for (std::size_t i = 0; i < g.size(); ++i) {
                         const float inv = 1.0f / V(bn)[i];
                         if (da) acc(an, i, g[i] * inv);
                         if (db) acc(bn, i, -g[i] * V(an)[i] * inv * inv);
                       }
                     });
}

Tensor minimum(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "minimum");
  auto out = detail::acquire_buffer(a.values().size());
  for (std::size_t i = 0; i < out->size(); ++i)
    (*out)[i] = std::min(a.at(static_cast<std::int64_t>(i)),
                         b.at(static_cast<std::int64_t>(i)));
  NodePtr an = a.node(), bn = b.node();
  return make_result(a.shape(), std::move(out), {a, b},
                     [an, bn](const std::vector<float>& g) {
                       const bool da = an->requires_grad,
                                  db = bn->requires_grad;
                       for (std::size_t i = 0; i < g.size(); ++i) {
                         if (V(an)[i] <= V(bn)[i]) {
                           if (da) acc(an, i, g[i]);
                         } else if (db) {
                           acc(bn, i, g[i]);
                         }
                       }
                     });
}

Tensor maximum(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "maximum");
  auto out = detail::acquire_buffer(a.values().size());
  for (std::size_t i = 0; i < out->size(); ++i)
    (*out)[i] = std::max(a.at(static_cast<std::int64_t>(i)),
                         b.at(static_cast<std::int64_t>(i)));
  NodePtr an = a.node(), bn = b.node();
  return make_result(a.shape(), std::move(out), {a, b},
                     [an, bn](const std::vector<float>& g) {
                       const bool da = an->requires_grad,
                                  db = bn->requires_grad;
                       for (std::size_t i = 0; i < g.size(); ++i) {
                         if (V(an)[i] >= V(bn)[i]) {
                           if (da) acc(an, i, g[i]);
                         } else if (db) {
                           acc(bn, i, g[i]);
                         }
                       }
                     });
}

// ---------------------------------------------------------------- scalar ---

Tensor add_scalar(const Tensor& a, float s) {
  auto out = ew_forward(a, [s](float v) { return v + s; });
  NodePtr an = a.node();
  return make_result(a.shape(), std::move(out), {a},
                     [an](const std::vector<float>& g) {
                       simd::kernels().acc(G(an).data(), g.data(),
                                           static_cast<std::int64_t>(g.size()));
                     });
}

Tensor mul_scalar(const Tensor& a, float s) {
  const auto vscale = simd::kernels().scale;
  auto out = ew_forward_kernel(
      a, [vscale, s](const float* in, float* o, std::int64_t n) {
        vscale(in, s, o, n);
      });
  NodePtr an = a.node();
  return make_result(a.shape(), std::move(out), {a},
                     [an, s](const std::vector<float>& g) {
                       simd::kernels().acc_scaled(
                           G(an).data(), g.data(), s,
                           static_cast<std::int64_t>(g.size()));
                     });
}

// ----------------------------------------------------------------- unary ---

Tensor neg(const Tensor& a) { return mul_scalar(a, -1.0f); }

Tensor relu(const Tensor& a) {
  auto out = ew_forward_kernel(a, simd::kernels().relu);
  NodePtr an = a.node();
  return make_result(a.shape(), std::move(out), {a},
                     [an](const std::vector<float>& g) {
                       simd::kernels().relu_bwd_acc(
                           V(an).data(), g.data(), G(an).data(),
                           static_cast<std::int64_t>(g.size()));
                     });
}

Tensor tanh_op(const Tensor& a) {
  auto out = ew_forward(a, [](float v) { return std::tanh(v); });
  NodePtr an = a.node();
  // Share the output buffer with the closure instead of copying: no op
  // mutates a result's values, so the saved handle stays valid.
  detail::BufferPtr saved = out;  // tanh'(x) = 1 - tanh(x)^2
  return make_result(a.shape(), std::move(out), {a},
                     [an, saved = std::move(saved)](const std::vector<float>& g) {
                       const std::vector<float>& s = *saved;
                       for (std::size_t i = 0; i < g.size(); ++i)
                         acc(an, i, g[i] * (1.0f - s[i] * s[i]));
                     });
}

Tensor sigmoid(const Tensor& a) {
  auto out =
      ew_forward(a, [](float v) { return 1.0f / (1.0f + std::exp(-v)); });
  NodePtr an = a.node();
  detail::BufferPtr saved = out;
  return make_result(a.shape(), std::move(out), {a},
                     [an, saved = std::move(saved)](const std::vector<float>& g) {
                       const std::vector<float>& s = *saved;
                       for (std::size_t i = 0; i < g.size(); ++i)
                         acc(an, i, g[i] * s[i] * (1.0f - s[i]));
                     });
}

Tensor exp_op(const Tensor& a) {
  auto out = ew_forward(a, [](float v) { return std::exp(v); });
  NodePtr an = a.node();
  detail::BufferPtr saved = out;
  return make_result(a.shape(), std::move(out), {a},
                     [an, saved = std::move(saved)](const std::vector<float>& g) {
                       const std::vector<float>& s = *saved;
                       for (std::size_t i = 0; i < g.size(); ++i)
                         acc(an, i, g[i] * s[i]);
                     });
}

Tensor log_op(const Tensor& a, float eps) {
  auto out = detail::acquire_buffer(a.values().size());
  std::vector<float> safe(a.values().size());
  for (std::size_t i = 0; i < out->size(); ++i) {
    safe[i] = std::max(a.at(static_cast<std::int64_t>(i)), eps);
    (*out)[i] = std::log(safe[i]);
  }
  NodePtr an = a.node();
  return make_result(a.shape(), std::move(out), {a},
                     [an, safe = std::move(safe)](const std::vector<float>& g) {
                       for (std::size_t i = 0; i < g.size(); ++i)
                         acc(an, i, g[i] / safe[i]);
                     });
}

Tensor square(const Tensor& a) {
  auto out = ew_forward(a, [](float v) { return v * v; });
  NodePtr an = a.node();
  return make_result(a.shape(), std::move(out), {a},
                     [an](const std::vector<float>& g) {
                       for (std::size_t i = 0; i < g.size(); ++i)
                         acc(an, i, 2.0f * g[i] * V(an)[i]);
                     });
}

Tensor clamp(const Tensor& a, float lo, float hi) {
  auto out = ew_forward(a, [lo, hi](float v) { return std::clamp(v, lo, hi); });
  NodePtr an = a.node();
  return make_result(a.shape(), std::move(out), {a},
                     [an, lo, hi](const std::vector<float>& g) {
                       for (std::size_t i = 0; i < g.size(); ++i)
                         if (V(an)[i] > lo && V(an)[i] < hi)
                           acc(an, i, g[i]);
                     });
}

// ------------------------------------------------------------------ shape ---

Tensor reshape(const Tensor& a, Shape new_shape) {
  check(numel(new_shape) == a.size(),
        "reshape: element count mismatch " + shape_str(a.shape()) + " -> " +
            shape_str(new_shape));
  NodePtr an = a.node();
  // Alias the input's value buffer: a reshape is a view, not a copy.
  return make_result(std::move(new_shape), an->value, {a},
                     [an](const std::vector<float>& g) {
                       for (std::size_t i = 0; i < g.size(); ++i)
                         acc(an, i, g[i]);
                     });
}

Tensor concat_cols(const std::vector<Tensor>& parts) {
  check(!parts.empty(), "concat_cols: no inputs");
  const int rows = parts[0].shape()[0];
  int total_cols = 0;
  for (const Tensor& p : parts) {
    check(p.dim() == 2, "concat_cols: inputs must be 2-D");
    check(p.shape()[0] == rows, "concat_cols: row count mismatch");
    total_cols += p.shape()[1];
  }
  std::vector<float> out(static_cast<std::size_t>(rows) * total_cols);
  std::vector<NodePtr> nodes;
  std::vector<int> widths;
  for (const Tensor& p : parts) {
    nodes.push_back(p.node());
    widths.push_back(p.shape()[1]);
  }
  int col0 = 0;
  for (std::size_t k = 0; k < parts.size(); ++k) {
    const int w = widths[k];
    for (int r = 0; r < rows; ++r)
      for (int c = 0; c < w; ++c)
        out[static_cast<std::size_t>(r) * total_cols + col0 + c] =
            parts[k].at(static_cast<std::int64_t>(r) * w + c);
    col0 += w;
  }
  return make_result(
      {rows, total_cols}, std::move(out), parts,
      [nodes, widths, rows, total_cols](const std::vector<float>& g) {
        int c0 = 0;
        for (std::size_t k = 0; k < nodes.size(); ++k) {
          const int w = widths[k];
          if (nodes[k]->requires_grad) {
            for (int r = 0; r < rows; ++r)
              for (int c = 0; c < w; ++c)
                acc(nodes[k], static_cast<std::size_t>(r) * w + c,
                    g[static_cast<std::size_t>(r) * total_cols + c0 + c]);
          }
          c0 += w;
        }
      });
}

Tensor concat_rows(const std::vector<Tensor>& parts) {
  check(!parts.empty(), "concat_rows: no inputs");
  const int cols = parts[0].shape()[1];
  int total_rows = 0;
  for (const Tensor& p : parts) {
    check(p.dim() == 2, "concat_rows: inputs must be 2-D");
    check(p.shape()[1] == cols, "concat_rows: column count mismatch");
    total_rows += p.shape()[0];
  }
  std::vector<float> out;
  out.reserve(static_cast<std::size_t>(total_rows) * cols);
  std::vector<NodePtr> nodes;
  std::vector<int> heights;
  for (const Tensor& p : parts) {
    nodes.push_back(p.node());
    heights.push_back(p.shape()[0]);
    out.insert(out.end(), p.values().begin(), p.values().end());
  }
  return make_result({total_rows, cols}, std::move(out), parts,
                     [nodes, heights, cols](const std::vector<float>& g) {
                       std::size_t off = 0;
                       for (std::size_t k = 0; k < nodes.size(); ++k) {
                         const std::size_t n =
                             static_cast<std::size_t>(heights[k]) * cols;
                         if (nodes[k]->requires_grad) {
                           for (std::size_t i = 0; i < n; ++i)
                             acc(nodes[k], i, g[off + i]);
                         }
                         off += n;
                       }
                     });
}

// --------------------------------------------------------------- lin. alg ---

namespace {

/// Original scalar matmul (seed kernel), kept as the reference path.
Tensor matmul_naive(const Tensor& a, const Tensor& b) {
  const int m = a.shape()[0], k = a.shape()[1], n = b.shape()[1];
  std::vector<float> out(static_cast<std::size_t>(m) * n, 0.0f);
  const float* A = a.data();
  const float* B = b.data();
  for (int i = 0; i < m; ++i) {
    for (int kk = 0; kk < k; ++kk) {
      const float av = A[static_cast<std::size_t>(i) * k + kk];
      if (av == 0.0f) continue;
      const float* brow = B + static_cast<std::size_t>(kk) * n;
      float* orow = out.data() + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
  NodePtr an = a.node(), bn = b.node();
  return make_result(
      {m, n}, std::move(out), {a, b},
      [an, bn, m, k, n](const std::vector<float>& g) {
        // dA = g @ B^T ; dB = A^T @ g (per-element scatter form).
        const bool da = an->requires_grad, db = bn->requires_grad;
        for (int i = 0; i < m; ++i) {
          for (int j = 0; j < n; ++j) {
            const float gv = g[static_cast<std::size_t>(i) * n + j];
            if (gv == 0.0f) continue;
            for (int kk = 0; kk < k; ++kk) {
              if (da)
                G(an)[static_cast<std::size_t>(i) * k + kk] +=
                    gv * V(bn)[static_cast<std::size_t>(kk) * n + j];
              if (db)
                G(bn)[static_cast<std::size_t>(kk) * n + j] +=
                    gv * V(an)[static_cast<std::size_t>(i) * k + kk];
            }
          }
        }
      });
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  check(a.dim() == 2 && b.dim() == 2, "matmul: inputs must be 2-D");
  const int m = a.shape()[0], k = a.shape()[1];
  check(b.shape()[0] == k, "matmul: inner dimension mismatch " +
                               shape_str(a.shape()) + " x " +
                               shape_str(b.shape()));
  const int n = b.shape()[1];
  if (kernel_tier() == KernelTier::kNaive) return matmul_naive(a, b);

  auto out = detail::acquire_buffer(static_cast<std::size_t>(m) * n);
  gemm_nn(m, k, n, a.data(), b.data(), out->data(), /*accumulate=*/false);
  NodePtr an = a.node(), bn = b.node();
  return make_result(
      {m, n}, std::move(out), {a, b},
      [an, bn, m, k, n](const std::vector<float>& g) {
        // Two proper GEMM passes into row-partitioned outputs.
        if (an->requires_grad) {
          // dA[M,K] += g[M,N] · B[K,N]ᵀ
          gemm_nt(m, n, k, g.data(), V(bn).data(), G(an).data(),
                  /*accumulate=*/true);
        }
        if (bn->requires_grad) {
          // dB[K,N] += A[M,K]ᵀ · g[M,N]
          gemm_tn(m, k, n, V(an).data(), g.data(), G(bn).data(),
                  /*accumulate=*/true);
        }
      });
}

Tensor add_rowvec(const Tensor& x, const Tensor& v) {
  check(x.dim() == 2, "add_rowvec: x must be 2-D");
  const int rows = x.shape()[0], cols = x.shape()[1];
  check(v.size() == cols, "add_rowvec: vector length mismatch");
  auto out = detail::acquire_buffer(x.values().size());
  const float* px = x.data();
  const float* pv = v.data();
  float* o = out->data();
  const auto vadd = simd::kernels().add;
  parallel_for(rows, grain_for(cols), [=](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r)
      vadd(px + r * cols, pv, o + r * cols, cols);
  });
  NodePtr xn = x.node(), vn = v.node();
  return make_result(
      {rows, cols}, std::move(out), {x, v},
      [xn, vn, rows, cols](const std::vector<float>& g) {
        if (xn->requires_grad) {
          float* gx = G(xn).data();
          const float* pg = g.data();
          const auto vacc = simd::kernels().acc;
          parallel_for(static_cast<std::int64_t>(g.size()), kEwGrain,
                       [=](std::int64_t i0, std::int64_t i1) {
                         vacc(gx + i0, pg + i0, i1 - i0);
                       });
        }
        if (vn->requires_grad) {
          // Column sums, accumulated row by row (r ascending) so the order
          // is fixed; each column segment is owned by one chunk.
          float* gv = G(vn).data();
          const float* pg = g.data();
          const auto vacc = simd::kernels().acc;
          parallel_for(cols, grain_for(rows),
                       [=](std::int64_t c0, std::int64_t c1) {
                         for (int r = 0; r < rows; ++r)
                           vacc(gv + c0,
                                pg + static_cast<std::int64_t>(r) * cols + c0,
                                c1 - c0);
                       });
        }
      });
}

Tensor linear(const Tensor& x, const Tensor& w, const Tensor& b) {
  return add_rowvec(matmul(x, w), b);
}

Tensor linear_relu(const Tensor& x, const Tensor& w, const Tensor& b) {
  check(x.dim() == 2 && w.dim() == 2, "linear_relu: inputs must be 2-D");
  const int m = x.shape()[0], k = x.shape()[1], n = w.shape()[1];
  check(w.shape()[0] == k, "linear_relu: inner dimension mismatch " +
                               shape_str(x.shape()) + " x " +
                               shape_str(w.shape()));
  check(b.size() == n, "linear_relu: bias size mismatch");
  // The naive tier has no fused kernel: compose the reference ops so the
  // parity tests can diff against it.
  if (kernel_tier() == KernelTier::kNaive) return relu(linear(x, w, b));

  auto out = detail::acquire_buffer(static_cast<std::size_t>(m) * n);
  {
    const auto rows = simd::kernels().gemm_nn_rows;
    const auto epilogue = simd::kernels().bias_relu_row;
    const float* X = x.data();
    const float* W = w.data();
    const float* B = b.data();
    float* O = out->data();
    parallel_for(m, grain_for(static_cast<std::int64_t>(k) * n),
                 [=](std::int64_t i0, std::int64_t i1) {
                   rows(i0, i1, k, n, X, k, W, n, O, n, /*accumulate=*/false);
                   for (std::int64_t i = i0; i < i1; ++i)
                     epilogue(O + i * n, B, O + i * n, n);
                 });
  }
  NodePtr xn = x.node(), wn = w.node(), bn = b.node();
  detail::BufferPtr saved = out;  // post-relu activations, shared not copied
  return make_result(
      {m, n}, std::move(out), {x, w, b},
      [xn, wn, bn, m, k, n, saved = std::move(saved)](
          const std::vector<float>& g) {
        // Mask the upstream gradient through the relu once, in scratch.
        const std::int64_t total = static_cast<std::int64_t>(m) * n;
        ScratchLease gm(static_cast<std::size_t>(total));
        std::fill(gm.data(), gm.data() + total, 0.0f);
        simd::kernels().relu_bwd_acc(saved->data(), g.data(), gm.data(),
                                     total);
        if (bn->requires_grad) {
          // db = column sums of the masked gradient, r ascending.
          simd::Kernels const& kr = simd::kernels();
          float* gb = G(bn).data();
          for (int r = 0; r < m; ++r)
            kr.acc(gb, gm.data() + static_cast<std::int64_t>(r) * n, n);
        }
        if (xn->requires_grad) {
          // dx[M,K] += gm[M,N] · W[K,N]ᵀ
          gemm_nt(m, n, k, gm.data(), V(wn).data(), G(xn).data(),
                  /*accumulate=*/true);
        }
        if (wn->requires_grad) {
          // dW[K,N] += X[M,K]ᵀ · gm[M,N]
          gemm_tn(m, k, n, V(xn).data(), gm.data(), G(wn).data(),
                  /*accumulate=*/true);
        }
      });
}

// -------------------------------------------------------------- reductions ---

Tensor sum_all(const Tensor& a) {
  const float s = simd::kernels().reduce_sum(a.data(), a.size());
  NodePtr an = a.node();
  return make_result({1}, {s}, {a}, [an](const std::vector<float>& g) {
    simd::kernels().acc_const(G(an).data(), g[0],
                              static_cast<std::int64_t>(G(an).size()));
  });
}

Tensor mean_all(const Tensor& a) {
  const float inv = 1.0f / static_cast<float>(a.size());
  const float s = simd::kernels().reduce_sum(a.data(), a.size());
  NodePtr an = a.node();
  return make_result({1}, {s * inv}, {a},
                     [an, inv](const std::vector<float>& g) {
                       simd::kernels().acc_const(
                           G(an).data(), g[0] * inv,
                           static_cast<std::int64_t>(G(an).size()));
                     });
}

Tensor mean_axis0(const Tensor& a) {
  check(a.dim() == 2, "mean_axis0: input must be 2-D");
  const int rows = a.shape()[0], cols = a.shape()[1];
  const float inv = 1.0f / static_cast<float>(rows);
  std::vector<float> out(static_cast<std::size_t>(cols), 0.0f);
  const simd::Kernels& kr = simd::kernels();
  for (int r = 0; r < rows; ++r)  // r ascending: fixed accumulation order
    kr.acc(out.data(), a.data() + static_cast<std::int64_t>(r) * cols, cols);
  kr.scale(out.data(), inv, out.data(), cols);
  NodePtr an = a.node();
  return make_result({1, cols}, std::move(out), {a},
                     [an, rows, cols, inv](const std::vector<float>& g) {
                       for (int r = 0; r < rows; ++r)
                         simd::kernels().acc_scaled(
                             G(an).data() +
                                 static_cast<std::int64_t>(r) * cols,
                             g.data(), inv, cols);
                     });
}

Tensor sum_axis1(const Tensor& a) {
  check(a.dim() == 2, "sum_axis1: input must be 2-D");
  const int rows = a.shape()[0], cols = a.shape()[1];
  std::vector<float> out(static_cast<std::size_t>(rows), 0.0f);
  const simd::Kernels& kr = simd::kernels();
  for (int r = 0; r < rows; ++r)
    out[static_cast<std::size_t>(r)] =
        kr.reduce_sum(a.data() + static_cast<std::int64_t>(r) * cols, cols);
  NodePtr an = a.node();
  return make_result({rows, 1}, std::move(out), {a},
                     [an, rows, cols](const std::vector<float>& g) {
                       for (int r = 0; r < rows; ++r)
                         simd::kernels().acc_const(
                             G(an).data() +
                                 static_cast<std::int64_t>(r) * cols,
                             g[static_cast<std::size_t>(r)], cols);
                     });
}

// ----------------------------------------------------------------- softmax ---

Tensor softmax_rows(const Tensor& a) {
  check(a.dim() == 2, "softmax_rows: input must be 2-D");
  const int rows = a.shape()[0], cols = a.shape()[1];
  auto out = detail::acquire_buffer(a.values().size());
  const float* pa = a.data();
  float* po = out->data();
  const auto row_kernel = simd::kernels().softmax_row;
  parallel_for(rows, grain_for(cols), [=](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r)
      row_kernel(pa + r * cols, po + r * cols, cols);
  });
  NodePtr an = a.node();
  detail::BufferPtr saved = out;  // softmax probabilities, shared not copied
  return make_result(
      a.shape(), std::move(out), {a},
      [an, rows, cols, saved = std::move(saved)](const std::vector<float>& g) {
        // dx = p * g - p * sum(g * p) per row, two vector passes.
        float* ga = G(an).data();
        const float* ps = saved->data();
        const float* pg = g.data();
        const simd::Kernels& kr = simd::kernels();
        parallel_for(rows, grain_for(cols),
                     [=](std::int64_t r0, std::int64_t r1) {
          for (std::int64_t r = r0; r < r1; ++r) {
            const float* p = ps + r * cols;
            const float* gr = pg + r * cols;
            const float dot = kr.dot(gr, p, cols);
            kr.acc_mul(ga + r * cols, p, gr, cols);
            kr.acc_scaled(ga + r * cols, p, -dot, cols);
          }
        });
      });
}

Tensor log_softmax_rows(const Tensor& a) {
  check(a.dim() == 2, "log_softmax_rows: input must be 2-D");
  const int rows = a.shape()[0], cols = a.shape()[1];
  auto out = detail::acquire_buffer(a.values().size());
  const float* pa = a.data();
  float* po = out->data();
  const auto row_kernel = simd::kernels().log_softmax_row;
  parallel_for(rows, grain_for(cols), [=](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r)
      row_kernel(pa + r * cols, po + r * cols, cols);
  });
  NodePtr an = a.node();
  detail::BufferPtr saved = out;  // log p, shared not copied
  return make_result(
      a.shape(), std::move(out), {a},
      [an, rows, cols, saved = std::move(saved)](const std::vector<float>& g) {
        // dx = g - softmax * sum(g) per row.
        float* ga = G(an).data();
        const float* ps = saved->data();
        const float* pg = g.data();
        const simd::Kernels& kr = simd::kernels();
        parallel_for(rows, grain_for(cols),
                     [=](std::int64_t r0, std::int64_t r1) {
          // exp(log p) is recovered per chunk in thread-local scratch.
          ScratchLease probs(static_cast<std::size_t>(cols));
          for (std::int64_t r = r0; r < r1; ++r) {
            const float* lp = ps + r * cols;
            const float* gr = pg + r * cols;
            const float gsum = kr.reduce_sum(gr, cols);
            for (int c = 0; c < cols; ++c) probs.data()[c] = std::exp(lp[c]);
            kr.acc(ga + r * cols, gr, cols);
            kr.acc_scaled(ga + r * cols, probs.data(), -gsum, cols);
          }
        });
      });
}

// ---------------------------------------------------------------- indexing ---

Tensor gather_rows(const Tensor& x, const std::vector<int>& rows) {
  check(x.dim() == 2, "gather_rows: x must be 2-D");
  const int n = x.shape()[0], d = x.shape()[1];
  for (int r : rows)
    check(r >= 0 && r < n, "gather_rows: row index out of range");
  std::vector<float> out(rows.size() * static_cast<std::size_t>(d));
  for (std::size_t k = 0; k < rows.size(); ++k)
    for (int c = 0; c < d; ++c)
      out[k * d + c] = x.at(static_cast<std::int64_t>(rows[k]) * d + c);
  NodePtr xn = x.node();
  return make_result({static_cast<int>(rows.size()), d}, std::move(out), {x},
                     [xn, rows, d](const std::vector<float>& g) {
                       for (std::size_t k = 0; k < rows.size(); ++k)
                         for (int c = 0; c < d; ++c)
                           G(xn)[static_cast<std::size_t>(rows[k]) * d + c] +=
                               g[k * d + c];
                     });
}

Tensor gather_per_row(const Tensor& x, const std::vector<int>& cols) {
  check(x.dim() == 2, "gather_per_row: x must be 2-D");
  const int b = x.shape()[0], n = x.shape()[1];
  check(static_cast<int>(cols.size()) == b,
        "gather_per_row: one column index per row required");
  for (int c : cols)
    check(c >= 0 && c < n, "gather_per_row: column index out of range");
  std::vector<float> out(static_cast<std::size_t>(b));
  for (int r = 0; r < b; ++r)
    out[static_cast<std::size_t>(r)] =
        x.at(static_cast<std::int64_t>(r) * n + cols[static_cast<std::size_t>(r)]);
  NodePtr xn = x.node();
  return make_result({b}, std::move(out), {x},
                     [xn, cols, n](const std::vector<float>& g) {
                       for (std::size_t r = 0; r < cols.size(); ++r)
                         G(xn)[r * n + cols[r]] += g[r];
                     });
}

// ------------------------------------------------------------ convolutions ---

namespace {

/// Original scalar conv2d (seed kernel), kept as the reference path.
Tensor conv2d_naive(const Tensor& x, const Tensor& w, const Tensor& b,
                    int stride, int pad) {
  const int B = x.shape()[0], IC = x.shape()[1], H = x.shape()[2],
            W = x.shape()[3];
  const int OC = w.shape()[0], KH = w.shape()[2], KW = w.shape()[3];
  const int OH = (H + 2 * pad - KH) / stride + 1;
  const int OW = (W + 2 * pad - KW) / stride + 1;

  std::vector<float> out(static_cast<std::size_t>(B) * OC * OH * OW, 0.0f);
  const float* X = x.data();
  const float* Wt = w.data();
  const float* Bs = b.data();
  auto xi = [&](int bb, int c, int i, int j) {
    return ((static_cast<std::size_t>(bb) * IC + c) * H + i) * W + j;
  };
  auto wi = [&](int oc, int ic, int i, int j) {
    return ((static_cast<std::size_t>(oc) * IC + ic) * KH + i) * KW + j;
  };
  auto oi = [&](int bb, int oc, int i, int j) {
    return ((static_cast<std::size_t>(bb) * OC + oc) * OH + i) * OW + j;
  };
  for (int bb = 0; bb < B; ++bb)
    for (int oc = 0; oc < OC; ++oc)
      for (int oh = 0; oh < OH; ++oh)
        for (int ow = 0; ow < OW; ++ow) {
          float accv = Bs[oc];
          const int ih0 = oh * stride - pad;
          const int iw0 = ow * stride - pad;
          for (int ic = 0; ic < IC; ++ic)
            for (int kh = 0; kh < KH; ++kh) {
              const int ih = ih0 + kh;
              if (ih < 0 || ih >= H) continue;
              for (int kw = 0; kw < KW; ++kw) {
                const int iw = iw0 + kw;
                if (iw < 0 || iw >= W) continue;
                accv += X[xi(bb, ic, ih, iw)] * Wt[wi(oc, ic, kh, kw)];
              }
            }
          out[oi(bb, oc, oh, ow)] = accv;
        }

  NodePtr xn = x.node(), wn = w.node(), bn = b.node();
  return make_result(
      {B, OC, OH, OW}, std::move(out), {x, w, b},
      [xn, wn, bn, B, IC, H, W, OC, KH, KW, OH, OW, stride,
       pad](const std::vector<float>& g) {
        auto xi = [&](int bb, int c, int i, int j) {
          return ((static_cast<std::size_t>(bb) * IC + c) * H + i) * W + j;
        };
        auto wi = [&](int oc, int ic, int i, int j) {
          return ((static_cast<std::size_t>(oc) * IC + ic) * KH + i) * KW + j;
        };
        auto oi = [&](int bb, int oc, int i, int j) {
          return ((static_cast<std::size_t>(bb) * OC + oc) * OH + i) * OW + j;
        };
        const bool dx = xn->requires_grad, dw = wn->requires_grad,
                   db = bn->requires_grad;
        for (int bb = 0; bb < B; ++bb)
          for (int oc = 0; oc < OC; ++oc)
            for (int oh = 0; oh < OH; ++oh)
              for (int ow = 0; ow < OW; ++ow) {
                const float gv = g[oi(bb, oc, oh, ow)];
                if (gv == 0.0f) continue;
                if (db) G(bn)[static_cast<std::size_t>(oc)] += gv;
                const int ih0 = oh * stride - pad;
                const int iw0 = ow * stride - pad;
                for (int ic = 0; ic < IC; ++ic)
                  for (int kh = 0; kh < KH; ++kh) {
                    const int ih = ih0 + kh;
                    if (ih < 0 || ih >= H) continue;
                    for (int kw = 0; kw < KW; ++kw) {
                      const int iw = iw0 + kw;
                      if (iw < 0 || iw >= W) continue;
                      if (dx)
                        G(xn)[xi(bb, ic, ih, iw)] +=
                            gv * V(wn)[wi(oc, ic, kh, kw)];
                      if (dw)
                        G(wn)[wi(oc, ic, kh, kw)] +=
                            gv * V(xn)[xi(bb, ic, ih, iw)];
                    }
                  }
              }
      });
}

/// Original scalar conv_transpose2d (seed kernel), reference path.
Tensor conv_transpose2d_naive(const Tensor& x, const Tensor& w,
                              const Tensor& b, int stride, int pad) {
  const int B = x.shape()[0], IC = x.shape()[1], H = x.shape()[2],
            W = x.shape()[3];
  const int OC = w.shape()[1], KH = w.shape()[2], KW = w.shape()[3];
  const int OH = (H - 1) * stride - 2 * pad + KH;
  const int OW = (W - 1) * stride - 2 * pad + KW;

  std::vector<float> out(static_cast<std::size_t>(B) * OC * OH * OW, 0.0f);
  auto xi = [&](int bb, int c, int i, int j) {
    return ((static_cast<std::size_t>(bb) * IC + c) * H + i) * W + j;
  };
  auto wi = [&](int ic, int oc, int i, int j) {
    return ((static_cast<std::size_t>(ic) * OC + oc) * KH + i) * KW + j;
  };
  auto oi = [&](int bb, int oc, int i, int j) {
    return ((static_cast<std::size_t>(bb) * OC + oc) * OH + i) * OW + j;
  };
  for (int bb = 0; bb < B; ++bb)
    for (int oc = 0; oc < OC; ++oc)
      for (int oh = 0; oh < OH; ++oh)
        for (int ow = 0; ow < OW; ++ow) out[oi(bb, oc, oh, ow)] = b.at(oc);
  for (int bb = 0; bb < B; ++bb)
    for (int ic = 0; ic < IC; ++ic)
      for (int ih = 0; ih < H; ++ih)
        for (int iw = 0; iw < W; ++iw) {
          const float xv = x.at(static_cast<std::int64_t>(xi(bb, ic, ih, iw)));
          if (xv == 0.0f) continue;
          for (int oc = 0; oc < OC; ++oc)
            for (int kh = 0; kh < KH; ++kh) {
              const int oh = ih * stride - pad + kh;
              if (oh < 0 || oh >= OH) continue;
              for (int kw = 0; kw < KW; ++kw) {
                const int ow = iw * stride - pad + kw;
                if (ow < 0 || ow >= OW) continue;
                out[oi(bb, oc, oh, ow)] += xv * w.at(static_cast<std::int64_t>(
                                                wi(ic, oc, kh, kw)));
              }
            }
        }

  NodePtr xn = x.node(), wn = w.node(), bn = b.node();
  return make_result(
      {B, OC, OH, OW}, std::move(out), {x, w, b},
      [xn, wn, bn, B, IC, H, W, OC, KH, KW, OH, OW, stride,
       pad](const std::vector<float>& g) {
        auto xi = [&](int bb, int c, int i, int j) {
          return ((static_cast<std::size_t>(bb) * IC + c) * H + i) * W + j;
        };
        auto wi = [&](int ic, int oc, int i, int j) {
          return ((static_cast<std::size_t>(ic) * OC + oc) * KH + i) * KW + j;
        };
        auto oi = [&](int bb, int oc, int i, int j) {
          return ((static_cast<std::size_t>(bb) * OC + oc) * OH + i) * OW + j;
        };
        const bool dx = xn->requires_grad, dw = wn->requires_grad,
                   db = bn->requires_grad;
        // Bias gradient: sum over batch and spatial dims.
        if (db) {
          for (int bb = 0; bb < B; ++bb)
            for (int oc = 0; oc < OC; ++oc)
              for (int oh = 0; oh < OH; ++oh)
                for (int ow = 0; ow < OW; ++ow)
                  G(bn)[static_cast<std::size_t>(oc)] += g[oi(bb, oc, oh, ow)];
        }
        for (int bb = 0; bb < B; ++bb)
          for (int ic = 0; ic < IC; ++ic)
            for (int ih = 0; ih < H; ++ih)
              for (int iw = 0; iw < W; ++iw) {
                const float xv = V(xn)[xi(bb, ic, ih, iw)];
                float dxv = 0.0f;
                for (int oc = 0; oc < OC; ++oc)
                  for (int kh = 0; kh < KH; ++kh) {
                    const int oh = ih * stride - pad + kh;
                    if (oh < 0 || oh >= OH) continue;
                    for (int kw = 0; kw < KW; ++kw) {
                      const int ow = iw * stride - pad + kw;
                      if (ow < 0 || ow >= OW) continue;
                      const float gv = g[oi(bb, oc, oh, ow)];
                      dxv += gv * V(wn)[wi(ic, oc, kh, kw)];
                      if (dw) G(wn)[wi(ic, oc, kh, kw)] += gv * xv;
                    }
                  }
                if (dx) G(xn)[xi(bb, ic, ih, iw)] += dxv;
              }
      });
}

}  // namespace

Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor& b, int stride,
              int pad) {
  check(x.dim() == 4, "conv2d: input must be NCHW");
  check(w.dim() == 4, "conv2d: weight must be [OC, IC, KH, KW]");
  const int B = x.shape()[0], IC = x.shape()[1], H = x.shape()[2],
            W = x.shape()[3];
  const int OC = w.shape()[0], KH = w.shape()[2], KW = w.shape()[3];
  check(w.shape()[1] == IC, "conv2d: channel mismatch");
  check(b.size() == OC, "conv2d: bias size mismatch");
  const int OH = (H + 2 * pad - KH) / stride + 1;
  const int OW = (W + 2 * pad - KW) / stride + 1;
  check(OH > 0 && OW > 0, "conv2d: output would be empty");
  if (kernel_tier() == KernelTier::kNaive) {
    return conv2d_naive(x, w, b, stride, pad);
  }

  const std::int64_t CK = static_cast<std::int64_t>(IC) * KH * KW;
  const std::int64_t ohw = static_cast<std::int64_t>(OH) * OW;
  const std::int64_t cols = static_cast<std::int64_t>(B) * ohw;

  // Y[OC, B*OH*OW] = Wmat[OC, CK] · im2col(x); then scatter + bias.  The
  // workspace comes from the scratch arena, so the im2col column buffer
  // persists across training iterations instead of cycling the pool.
  ScratchLease col(static_cast<std::size_t>(CK * cols));
  im2col(x.data(), B, IC, H, W, KH, KW, OH, OW, stride, pad, col.data());
  ScratchLease ymat(static_cast<std::size_t>(OC * cols));
  gemm_nn(OC, CK, cols, w.data(), col.data(), ymat.data(),
          /*accumulate=*/false);

  auto out = detail::acquire_buffer(static_cast<std::size_t>(B) * OC * ohw);
  {
    const float* ym = ymat.data();
    const float* bias = b.data();
    float* po = out->data();
    parallel_for(static_cast<std::int64_t>(B) * OC, grain_for(ohw),
                 [=](std::int64_t t0, std::int64_t t1) {
      for (std::int64_t t = t0; t < t1; ++t) {
        const std::int64_t bb = t / OC, oc = t % OC;
        const float* src = ym + oc * cols + bb * ohw;
        float* dst = po + (bb * OC + oc) * ohw;
        const float bv = bias[oc];
        for (std::int64_t i = 0; i < ohw; ++i) dst[i] = src[i] + bv;
      }
    });
  }

  NodePtr xn = x.node(), wn = w.node(), bn = b.node();
  return make_result(
      {B, OC, OH, OW}, std::move(out), {x, w, b},
      [xn, wn, bn, B, IC, H, W, OC, KH, KW, OH, OW, stride, pad, CK, ohw,
       cols](const std::vector<float>& g) {
        // Gather g into channel-major [OC, B*OH*OW].
        ScratchLease gmat(static_cast<std::size_t>(OC * cols));
        to_channel_major(g.data(), B, OC, ohw, gmat.data());

        if (bn->requires_grad) {
          float* gb = G(bn).data();
          const float* gm = gmat.data();
          const auto rsum = simd::kernels().reduce_sum;
          for (int oc = 0; oc < OC; ++oc)
            gb[oc] += rsum(gm + static_cast<std::int64_t>(oc) * cols, cols);
        }
        if (wn->requires_grad) {
          // dW[OC, CK] += g_mat · colᵀ — recompute col from the saved input,
          // then accumulate image by image so the contraction parallelizes
          // across the batch (not just over the OC rows).
          ScratchLease col(static_cast<std::size_t>(CK * cols));
          im2col(V(xn).data(), B, IC, H, W, KH, KW, OH, OW, stride, pad,
                 col.data());
          gemm_nt_batched_acc(B, OC, ohw, CK, gmat.data(), col.data(),
                              G(wn).data());
        }
        if (xn->requires_grad) {
          // dcol[CK, B*OH*OW] = Wmatᵀ · g_mat; then col2im-accumulate.
          ScratchLease dcol(static_cast<std::size_t>(CK * cols));
          gemm_tn(OC, CK, cols, V(wn).data(), gmat.data(), dcol.data(),
                  /*accumulate=*/false);
          col2im_acc(dcol.data(), B, IC, H, W, KH, KW, OH, OW, stride, pad,
                     G(xn).data());
        }
      });
}

Tensor conv_transpose2d(const Tensor& x, const Tensor& w, const Tensor& b,
                        int stride, int pad) {
  check(x.dim() == 4, "conv_transpose2d: input must be NCHW");
  check(w.dim() == 4, "conv_transpose2d: weight must be [IC, OC, KH, KW]");
  const int B = x.shape()[0], IC = x.shape()[1], H = x.shape()[2],
            W = x.shape()[3];
  const int OC = w.shape()[1], KH = w.shape()[2], KW = w.shape()[3];
  check(w.shape()[0] == IC, "conv_transpose2d: channel mismatch");
  check(b.size() == OC, "conv_transpose2d: bias size mismatch");
  const int OH = (H - 1) * stride - 2 * pad + KH;
  const int OW = (W - 1) * stride - 2 * pad + KW;
  check(OH > 0 && OW > 0, "conv_transpose2d: output would be empty");
  if (kernel_tier() == KernelTier::kNaive) {
    return conv_transpose2d_naive(x, w, b, stride, pad);
  }

  // The transposed conv is conv2d's input-gradient: with Wmat viewed as
  // [IC, OC*KH*KW], col[OC*KH*KW, B*H*W] = Wmatᵀ · x_mat, and the output is
  // col2im(col) over the OUTPUT grid (patch positions indexed by the input).
  const std::int64_t CK = static_cast<std::int64_t>(OC) * KH * KW;
  const std::int64_t hw = static_cast<std::int64_t>(H) * W;
  const std::int64_t cols = static_cast<std::int64_t>(B) * hw;
  const std::int64_t ohw = static_cast<std::int64_t>(OH) * OW;

  ScratchLease xmat(static_cast<std::size_t>(IC * cols));
  to_channel_major(x.data(), B, IC, hw, xmat.data());
  ScratchLease col(static_cast<std::size_t>(CK * cols));
  gemm_tn(IC, CK, cols, w.data(), xmat.data(), col.data(),
          /*accumulate=*/false);

  auto out = detail::acquire_buffer(static_cast<std::size_t>(B) * OC * ohw);
  {
    // Initialize with bias, then scatter the column buffer.  col2im_acc
    // with swapped roles: the "output grid" is H x W, the image is OH x OW.
    const float* bias = b.data();
    float* po = out->data();
    parallel_for(static_cast<std::int64_t>(B) * OC, grain_for(ohw),
                 [=](std::int64_t t0, std::int64_t t1) {
      for (std::int64_t t = t0; t < t1; ++t) {
        const std::int64_t oc = t % OC;
        std::fill(po + t * ohw, po + (t + 1) * ohw, bias[oc]);
      }
    });
  }
  col2im_acc(col.data(), B, OC, OH, OW, KH, KW, H, W, stride, pad,
             out->data());

  NodePtr xn = x.node(), wn = w.node(), bn = b.node();
  return make_result(
      {B, OC, OH, OW}, std::move(out), {x, w, b},
      [xn, wn, bn, B, IC, H, W, OC, KH, KW, OH, OW, stride, pad, CK, hw, cols,
       ohw](const std::vector<float>& g) {
        if (bn->requires_grad) {
          float* gb = G(bn).data();
          const auto rsum = simd::kernels().reduce_sum;
          for (int oc = 0; oc < OC; ++oc) {
            float s = 0.0f;
            for (int bb = 0; bb < B; ++bb)
              s += rsum(g.data() +
                            (static_cast<std::int64_t>(bb) * OC + oc) * ohw,
                        ohw);
            gb[oc] += s;
          }
        }
        if (!xn->requires_grad && !wn->requires_grad) return;
        // dcol = im2col(g) over the input grid positions.
        ScratchLease dcol(static_cast<std::size_t>(CK * cols));
        im2col(g.data(), B, OC, OH, OW, KH, KW, H, W, stride, pad,
               dcol.data());
        if (xn->requires_grad) {
          // dx_mat[IC, B*H*W] = Wmat · dcol, scattered back to NCHW.
          ScratchLease dxmat(static_cast<std::size_t>(IC * cols));
          gemm_nn(IC, CK, cols, V(wn).data(), dcol.data(), dxmat.data(),
                  /*accumulate=*/false);
          from_channel_major_acc(dxmat.data(), B, IC, hw, G(xn).data());
        }
        if (wn->requires_grad) {
          // dWmat[IC, CK] += x_mat · dcolᵀ, accumulated image by image so
          // the contraction parallelizes across the batch.
          ScratchLease xmat(static_cast<std::size_t>(IC * cols));
          to_channel_major(V(xn).data(), B, IC, hw, xmat.data());
          gemm_nt_batched_acc(B, IC, hw, CK, xmat.data(), dcol.data(),
                              G(wn).data());
        }
      });
}

// ------------------------------------------------------------------- losses ---

Tensor mse_loss(const Tensor& pred, const Tensor& target) {
  check_same_shape(pred, target, "mse_loss");
  return mean_all(square(sub(pred, target)));
}

}  // namespace afp::num
