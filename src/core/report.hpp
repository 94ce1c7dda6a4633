// Machine-readable JSON emission for pipeline configs and run reports.
//
// Two top-level shapes, both schema_version 1 and validated in CI against
// cmake/report_schema.json (see cmake/check_report_json.py):
//
//   * report_json       — one pipeline run: optimizer + options (config
//                         provenance), metrics, routing/layout summaries,
//                         stage timings and the packed rectangles,
//   * batch_report_json — a JobService batch: batch metadata plus one entry
//                         per job (status, seed, runtime, nested report).
//
// Numbers are emitted at full precision (%.17g) so reports double as
// reproducibility artifacts.  Timings are included but live in their own
// one-line object, which determinism checks blank: with no time budget, no
// other member varies between runs of one job.
#pragma once

#include <string>
#include <vector>

#include "core/job_service.hpp"

namespace afp::core {

/// JSON string escaping (quotes, backslashes, control characters).
std::string json_escape(const std::string& s);

/// Single-run report.  `circuit` is the run's input label; `optimizer`,
/// `options` and `search` record the full resolved search configuration
/// (registry key, option map, restarts/base_seed/budget overrides), so the
/// artifact alone reproduces the run given the seed.
std::string report_json(const PipelineResult& res, const std::string& circuit,
                        const std::string& optimizer,
                        const metaheur::Options& options,
                        const SearchConfig& search, std::uint64_t seed);

/// One job as a JSON object — the per-entry shape of batch_report_json and
/// the body of the daemon's `result` frames (shared emitter, so a served
/// job's bytes match the equivalent batch entry exactly).  `report` is
/// always the *last* member: a consumer that wants the nested single-run
/// report verbatim can slice from its key to the closing brace without
/// re-serializing (the daemon protocol documents this).  Jobs that did not
/// finish carry a null report.
std::string job_report_json(const JobReport& job);

/// Batch report: metadata + one entry per job in job order.
std::string batch_report_json(const std::vector<JobReport>& reports,
                              std::uint64_t base_seed, double time_budget_s,
                              int threads);

}  // namespace afp::core
