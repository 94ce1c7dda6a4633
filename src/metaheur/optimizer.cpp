#include "metaheur/optimizer.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <climits>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace afp::metaheur {

namespace {

std::string format_double(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

bool parse_int(const std::string& s, int* out) {
  long long v = 0;
  if (!parse_strict_int(s, &v) || v < INT_MIN || v > INT_MAX) return false;
  *out = static_cast<int>(v);
  return true;
}

}  // namespace

bool parse_strict_int(const std::string& s, long long* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool parse_strict_uint(const std::string& s, std::uint64_t* out) {
  // strtoull silently wraps negative input, so reject it explicitly.
  if (s.empty() || s.front() == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool parse_strict_double(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  if (!std::isfinite(v)) return false;  // inf/nan are never valid options
  *out = v;
  return true;
}

// ------------------------------------------------------------ OptionBinder

void OptionBinder::bind(const std::string& key, int* v,
                        const std::string& help, int min_value,
                        int max_value) {
  entries_.push_back({key, Kind::kInt, v, help, min_value, max_value});
}

void OptionBinder::bind(const std::string& key, double* v,
                        const std::string& help) {
  entries_.push_back({key, Kind::kDouble, v, help, INT_MIN, INT_MAX});
}

void OptionBinder::apply(const Options& opts, const std::string& owner) const {
  for (const auto& [key, value] : opts) {
    const auto it =
        std::find_if(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.key == key; });
    if (it == entries_.end()) {
      std::string known;
      for (const auto& e : entries_) {
        known += (known.empty() ? "" : ", ") + e.key;
      }
      throw std::invalid_argument("optimizer '" + owner +
                                  "': unknown option '" + key +
                                  "' (known: " + known + ")");
    }
    bool ok = false;
    switch (it->kind) {
      case Kind::kInt: {
        int parsed = 0;
        ok = parse_int(value, &parsed);
        if (ok && parsed < it->min_value) {
          throw std::invalid_argument(
              "optimizer '" + owner + "': option '" + key + "' must be >= " +
              std::to_string(it->min_value) + ", got '" + value + "'");
        }
        if (ok && parsed > it->max_value) {
          throw std::invalid_argument(
              "optimizer '" + owner + "': option '" + key + "' must be <= " +
              std::to_string(it->max_value) + ", got '" + value + "'");
        }
        if (ok) *static_cast<int*>(it->ptr) = parsed;
        break;
      }
      case Kind::kDouble:
        ok = parse_strict_double(value, static_cast<double*>(it->ptr));
        break;
    }
    if (!ok) {
      throw std::invalid_argument("optimizer '" + owner + "': option '" +
                                  key + "' has malformed value '" + value +
                                  "'");
    }
  }
}

std::vector<OptionSpec> OptionBinder::specs() const {
  std::vector<OptionSpec> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) {
    std::string value;
    switch (e.kind) {
      case Kind::kInt:
        value = std::to_string(*static_cast<int*>(e.ptr));
        break;
      case Kind::kDouble:
        value = format_double(*static_cast<double*>(e.ptr));
        break;
    }
    out.push_back({e.key, value, e.help});
  }
  return out;
}

// --------------------------------------------------------------- Optimizer

void Optimizer::configure(const Options& opts) {
  OptionBinder b;
  bind(b);
  b.apply(opts, name());
  check();
}

Options Optimizer::options() {
  Options out;
  for (const auto& s : describe()) out[s.key] = s.value;
  return out;
}

std::vector<OptionSpec> Optimizer::describe() {
  OptionBinder b;
  bind(b);
  return b.specs();
}

// ------------------------------------------------------ built-in optimizers
//
// One option list per parameter struct; the adapter binds spacing_um (from
// SearchParams) after it, last.

namespace {

void bind_options(OptionBinder& b, SAParams& p) {
  b.bind("iterations", &p.iterations, "annealing move budget", 0);
  b.bind("t_start", &p.t_start, "initial temperature");
  b.bind("t_end", &p.t_end, "final temperature");
}

void bind_options(OptionBinder& b, GAParams& p) {
  b.bind("population", &p.population, "individuals per generation", 1,
         kMaxPopulation);
  b.bind("generations", &p.generations, "generation budget", 0);
  b.bind("crossover_rate", &p.crossover_rate, "crossover probability");
  b.bind("mutation_rate", &p.mutation_rate, "mutation probability");
  b.bind("tournament", &p.tournament, "tournament selection size", 1);
}

void bind_options(OptionBinder& b, PSOParams& p) {
  b.bind("particles", &p.particles, "swarm size", 1, kMaxPopulation);
  b.bind("iterations", &p.iterations, "synchronous sweep budget", 0);
  b.bind("inertia", &p.inertia, "velocity inertia weight");
  b.bind("c1", &p.c1, "cognitive coefficient");
  b.bind("c2", &p.c2, "social coefficient");
}

void bind_options(OptionBinder& b, RLSAParams& p) {
  b.bind("iterations", &p.iterations, "annealing move budget", 0);
  b.bind("t_start", &p.t_start, "initial temperature");
  b.bind("t_end", &p.t_end, "final temperature");
  b.bind("learning_rate", &p.learning_rate,
         "REINFORCE step for the move-type policy");
}

void bind_options(OptionBinder& b, RLSPParams& p) {
  b.bind("episodes", &p.episodes, "policy-gradient episode budget", 0);
  b.bind("steps_per_episode", &p.steps_per_episode, "moves per episode", 0);
  b.bind("learning_rate", &p.learning_rate, "policy-gradient step size");
}

void bind_options(OptionBinder& b, PTParams& p) {
  b.bind("replicas", &p.replicas, "temperature-ladder size K (>= 2)", 2,
         kMaxPopulation);
  b.bind("iterations", &p.iterations,
         "mean moves per replica (total = K * this)", 0);
  b.bind("t_start", &p.t_start, "coldest chain's start temperature");
  b.bind("t_end", &p.t_end, "coldest chain's final temperature");
  b.bind("hot_factor", &p.hot_factor, "hottest/coldest multiplier");
  b.bind("budget_skew", &p.budget_skew,
         "cold-chain move-budget skew (1 = equal chains)");
  b.bind("swap_interval", &p.swap_interval,
         "cold-chain moves between exchange rounds", 1);
}

/// The one registry adapter: a run_* entry point over its parameter struct
/// P.  run() copies the configured struct, lets budget.iterations override
/// the primary budget knob only and threads the budget's stop token
/// through, so a registry run is bitwise identical to calling run_*
/// directly.
template <typename P>
class ParamsOptimizer final : public Optimizer {
 public:
  using RunFn = BaselineResult (*)(const floorplan::Instance&, const P&,
                                   std::mt19937_64&);

  ParamsOptimizer(const char* name, const char* encoding, RunFn run,
                  int P::*budget_knob, P defaults)
      : name_(name),
        encoding_(encoding),
        run_(run),
        budget_knob_(budget_knob),
        p_(defaults) {}

  const char* name() const override { return name_; }
  const char* encoding() const override { return encoding_; }
  BaselineResult run(const floorplan::Instance& inst,
                     const SearchBudget& budget,
                     std::mt19937_64& rng) const override {
    P p = p_;
    if (budget.iterations > 0) p.*budget_knob_ = budget.iterations;
    p.stop = budget.stop;
    return run_(inst, p, rng);
  }

 protected:
  void bind(OptionBinder& b) override {
    bind_options(b, p_);
    b.bind("spacing_um", &p_.spacing_um,
           "congestion margin; < 0 = auto (one grid cell)");
  }
  void check() const override { p_.check(); }

 private:
  const char* name_;
  const char* encoding_;
  RunFn run_;
  int P::*budget_knob_;
  P p_;
};

template <typename P>
std::unique_ptr<Optimizer> adapt(const char* name, const char* encoding,
                                 typename ParamsOptimizer<P>::RunFn run,
                                 int P::*budget_knob, P defaults = {}) {
  return std::make_unique<ParamsOptimizer<P>>(name, encoding, run,
                                              budget_knob, defaults);
}

constexpr const char* kSeqPair = "sequence-pair";
constexpr const char* kBStar = "b*-tree";

}  // namespace

// ---------------------------------------------------------------- registry

OptimizerRegistry::OptimizerRegistry() {
  add("sa", [] {
    return adapt("sa", kSeqPair, &run_sa, &SAParams::iterations);
  });
  add("ga", [] {
    return adapt("ga", kSeqPair, &run_ga, &GAParams::generations);
  });
  add("pso", [] {
    return adapt("pso", kSeqPair, &run_pso, &PSOParams::iterations);
  });
  add("rlsa", [] {
    return adapt("rlsa", kSeqPair, &run_rlsa, &RLSAParams::iterations);
  });
  add("rlsp", [] {
    return adapt("rlsp", kSeqPair, &run_rlsp, &RLSPParams::episodes);
  });
  add("sab", [] {
    return adapt("sab", kBStar, &run_sa_bstar, &SAParams::iterations);
  });
  add("pt", [] {
    return adapt("pt", kSeqPair, &run_pt, &PTParams::iterations);
  });
  add("pt-bstar", [] {
    PTParams p;
    p.representation = Representation::kBStarTree;
    return adapt("pt-bstar", kBStar, &run_pt, &PTParams::iterations, p);
  });
}

OptimizerRegistry& OptimizerRegistry::global() {
  static OptimizerRegistry registry;
  return registry;
}

void OptimizerRegistry::add(const std::string& name,
                            OptimizerFactory factory) {
  if (factories_.count(name)) {
    throw std::invalid_argument("OptimizerRegistry: duplicate name '" + name +
                                "'");
  }
  factories_[name] = factory;
}

bool OptimizerRegistry::contains(const std::string& name) const {
  return factories_.count(name) > 0;
}

std::vector<std::string> OptimizerRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;
}

std::unique_ptr<Optimizer> OptimizerRegistry::create(
    const std::string& name, const Options& opts) const {
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    std::string known;
    for (const auto& n : names()) known += (known.empty() ? "" : ", ") + n;
    throw std::invalid_argument("unknown optimizer '" + name +
                                "' (registered: " + known + ")");
  }
  auto opt = it->second();
  opt->configure(opts);
  return opt;
}

std::unique_ptr<Optimizer> make_optimizer(const std::string& name,
                                          const Options& opts) {
  return OptimizerRegistry::global().create(name, opts);
}

std::vector<std::string> optimizer_names() {
  return OptimizerRegistry::global().names();
}

}  // namespace afp::metaheur
