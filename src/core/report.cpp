#include "core/report.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace afp::core {

namespace {

std::string num(double v) {
  // JSON has no inf/nan literals; a non-finite metric (degenerate
  // instance) becomes null — never a bare `nan` token that breaks parsers,
  // and never a silently-wrong 0.  JobService::validate_result additionally
  // flags such results as a kInternal JobError.
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string error_json(const JobError& err) {
  std::ostringstream os;
  os << "{\"kind\": \"" << to_string(err.kind) << "\", \"message\": \""
     << json_escape(err.message) << "\", \"quantum\": " << err.quantum << "}";
  return os.str();
}

std::string options_json(const metaheur::Options& options) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [key, value] : options) {
    os << (first ? "" : ", ") << "\"" << json_escape(key) << "\": \""
       << json_escape(value) << "\"";
    first = false;
  }
  os << "}";
  return os.str();
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string report_json(const PipelineResult& res, const std::string& circuit,
                        const std::string& optimizer,
                        const metaheur::Options& options,
                        const SearchConfig& search, std::uint64_t seed) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema_version\": 1,\n";
  os << "  \"circuit\": \"" << json_escape(circuit) << "\",\n";
  os << "  \"optimizer\": \"" << json_escape(optimizer) << "\",\n";
  os << "  \"options\": " << options_json(options) << ",\n";
  os << "  \"seed\": " << seed << ",\n";
  os << "  \"search\": {\"restarts\": " << search.restarts
     << ", \"base_seed\": " << search.base_seed
     << ", \"iterations\": " << search.budget.iterations
     << ", \"wall_clock_s\": " << num(search.budget.wall_clock_s)
     << ", \"deadline_s\": " << num(search.budget.deadline_s)
     << ", \"quanta\": " << search.budget.quanta
     << ", \"max_retries\": " << search.retry.max_retries << "},\n";
  os << "  \"evaluations\": " << res.evaluations << ",\n";
  os << "  \"quanta\": " << res.quanta << ",\n";
  os << "  \"cost\": " << num(metaheur::sp_cost(res.instance, res.rects))
     << ",\n";
  os << "  \"eval\": {\"area\": " << num(res.eval.area)
     << ", \"dead_space\": " << num(res.eval.dead_space)
     << ", \"hpwl\": " << num(res.eval.hpwl)
     << ", \"reward\": " << num(res.eval.reward) << ", \"constraints_ok\": "
     << (res.eval.constraints_ok ? "true" : "false")
     << ", \"constraint_violations\": " << res.eval.constraint_violations
     << ", \"constraint_items\": " << res.eval.constraint_items << "},\n";
  os << "  \"route\": {\"wirelength\": " << num(res.route.total_wirelength)
     << ", \"failed_nets\": " << res.route.failed_nets
     << ", \"expanded\": " << res.route.expanded << "},\n";
  os << "  \"layout\": {\"wires\": " << res.layout.wires.size()
     << ", \"vias\": " << res.layout.vias.size() << ", \"drc_clean\": "
     << (res.drc.clean() ? "true" : "false") << ", \"lvs_clean\": "
     << (res.lvs.clean() ? "true" : "false") << "},\n";
  // One line, so bitwise comparisons can blank it: with no time budget, no
  // other member varies between runs of one job.
  os << "  \"timings\": {\"recognition_s\": " << num(res.timings.recognition_s)
     << ", \"hpwl_ref_s\": " << num(res.timings.hpwl_ref_s)
     << ", \"floorplan_s\": " << num(res.timings.floorplan_s)
     << ", \"route_s\": " << num(res.timings.route_s)
     << ", \"layout_s\": " << num(res.timings.layout_s) << "},\n";
  os << "  \"rects\": [";
  for (std::size_t i = 0; i < res.rects.size(); ++i) {
    const auto& r = res.rects[i];
    os << (i ? ", " : "") << "[" << num(r.x) << ", " << num(r.y) << ", "
       << num(r.w) << ", " << num(r.h) << "]";
  }
  os << "]\n";
  os << "}";
  return os.str();
}

std::string job_report_json(const JobReport& job) {
  std::ostringstream os;
  os << "{\"name\": \"" << json_escape(job.name) << "\", \"status\": \""
     << to_string(job.status) << "\", \"seed\": " << job.seed
     << ", \"runtime_s\": " << num(job.runtime_s)
     << ", \"attempts\": " << job.attempts << ", \"error\": "
     << (job.error.ok() ? "null" : error_json(job.error)) << ", \"report\": ";
  if (job.status == JobStatus::kDone) {
    // Nested single-run report; re-indentation is cosmetic only, so the
    // inner newlines are kept as-is.
    os << report_json(job.result, job.name, job.optimizer, job.options,
                      job.search, job.seed);
  } else {
    os << "null";
  }
  os << "}";
  return os.str();
}

std::string batch_report_json(const std::vector<JobReport>& reports,
                              std::uint64_t base_seed, double time_budget_s,
                              int threads) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema_version\": 1,\n";
  os << "  \"batch\": {\"jobs\": " << reports.size()
     << ", \"base_seed\": " << base_seed
     << ", \"time_budget_s\": " << num(time_budget_s)
     << ", \"threads\": " << threads << "},\n";
  os << "  \"jobs\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    os << "    " << job_report_json(reports[i])
       << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}";
  return os.str();
}

}  // namespace afp::core
