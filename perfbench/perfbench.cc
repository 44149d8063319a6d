// In-process benchmark for the EaseIO reproduction.
//
// One process runs one named workload by calling the libraries' public entry points
// directly, on at most four worker threads:
//
//   exhaust2-fir      chk::Explore with exhaust=2 on fir/easeio (prune-safe: state
//                     dedup and partial-order reduction retire most schedules)
//   exhaust2-weather  chk::Explore with exhaust=2 on weather/easeio (a live Timely
//                     window switches pruning off: every schedule executes)
//   certify-corpus    easec::Compile, lint::Lint (v2), lint::ConfirmWitnesses and
//                     lint::Certify (exhaust=2) on every corpus program
//   paper-sweep       report::RunSweep over the Figs 7/8, 10/11, 12, 13 and Table 4
//                     cells (all paper apps under every runtime, plus the harvester)
//
// A run sets up several times (setup_s is the median), then repeats passes until
// --seconds have elapsed. Every pass's outputs are checked; one operation is one
// exploration, one corpus program or one sweep cell, and an operation fails when
// any of its checks fails. --trace=0 reports the end-to-end metrics from untraced
// passes. --trace=1 alternates untraced and traced passes and reports the per-layer
// metrics plus the tracing overhead. --smoke swaps in a tiny input per workload.
// The last line of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
// Usage: perfbench --root=DIR --workload=NAME --seed=N --seconds=S
//                  --trace=0|1 [--smoke]

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/registry.h"
#include "apps/runtime_factory.h"
#include "chk/explorer.h"
#include "easec/lint/certify.h"
#include "easec/lint/lint.h"
#include "easec/lint/witness.h"
#include "easec/program.h"
#include "obs/metrics.h"
#include "platform/parallel.h"
#include "platform/rng.h"
#include "report/experiment.h"
#include "sim/device.h"
#include "sim/probe.h"

namespace easeio::perfbench {
namespace {

namespace fs = std::filesystem;
namespace lint = easec::lint;

constexpr uint32_t kMaxJobs = 4;
constexpr int kSetupRepeats = 5;

// Tolerance of the exhaust layer-sum check: the phase timers may overshoot
// workers x wall by clock granularity only, and leave at most this share unattributed.
constexpr double kLayerSumSlack = 0.02;
constexpr double kMaxUnattributedShare = 0.30;
constexpr double kLayerSumMinWallS = 1.0;

uint32_t Jobs() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, kMaxJobs);
}

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Linear interpolation between closest ranks (q in [0, 1]).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

std::string Num(double v) {
  if (!std::isfinite(v)) {
    v = 0;
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string StripTrailingNewlines(std::string s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) {
    s.pop_back();
  }
  return s;
}

// --- Output checks ------------------------------------------------------------------

// The checks of one operation; it failed if any expectation did not hold.
class OpCheck {
 public:
  explicit OpCheck(std::string op) : op_(std::move(op)) {}

  void Expect(bool ok, const std::string& what) {
    if (!ok) {
      errors_.push_back(what);
    }
  }
  bool ok() const { return errors_.empty(); }
  const std::string& op() const { return op_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::string op_;
  std::vector<std::string> errors_;
};

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(const OpCheck& check) {
    ++attempted;
    if (!check.ok()) {
      ++failed;
      for (const std::string& e : check.errors()) {
        std::fprintf(stderr, "CHECK FAILED [%s]: %s\n", check.op().c_str(), e.c_str());
      }
    }
  }
};

// --- Metric catalogs -----------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// Exact counters must repeat bit-for-bit across passes, runs and jobs counts; every
// other per-layer metric is timing-class.
struct LayerMetricDef {
  const char* name;
  const char* unit;
  bool exact;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"wall_s", "s"},
    {"schedules_per_s", "1/s"}, {"experiments_per_s", "1/s"},
    {"verdict_ms.p50", "ms"},   {"verdict_ms.p90", "ms"},
    {"peak_rss_mb", "MB"},
};

constexpr LayerMetricDef kPerLayer[] = {
    {"chk.resume_cpu_s", "s", false},
    {"chk.resume_us_per_trial", "us", false},
    {"chk.judge_cpu_s", "s", false},
    {"chk.judge_us_per_trial", "us", false},
    {"chk.capture_cpu_s", "s", false},
    {"chk.enumerate_cpu_s", "s", false},
    {"chk.unattributed_share", "share", false},
    {"chk.trials_executed", "count", true},
    {"chk.states_deduped", "count", true},
    {"chk.por_collapsed", "count", true},
    {"chk.reduction_ratio", "ratio", true},
    {"chk.trial_us.p50", "us", false},
    {"chk.trial_us.p99", "us", false},
    {"sim.pages_copied", "count", true},
    {"sim.pages_per_trial", "count", true},
    {"sim.pool_hits", "count", false},
    {"sim.prefix_us_saved", "us", true},
    {"easec.compile_ms", "ms", false},
    {"lint.fixpoint_ms", "ms", false},
    {"lint.fixpoint_iterations", "count", true},
    {"lint.cfg_nodes", "count", true},
    {"lint.witness_ms", "ms", false},
    {"lint.witness_confirmed", "count", true},
    {"lint.witness_downgraded", "count", true},
    {"lint.certify_replay_ms", "ms", false},
    {"lint.certify_trials", "count", true},
    {"lint.certify_collapsed", "count", true},
    {"lint.certify_us_per_trial", "us", false},
    {"report.cell_ms.p50", "ms", false},
    {"report.cell_ms.p90", "ms", false},
    {"report.experiment_us.p50", "us", false},
    {"report.experiment_us.p90", "us", false},
    {"report.sim_s_per_host_s", "s/s", false},
    {"core.cell_ms", "ms", false},
    {"baselines.cell_ms", "ms", false},
    {"sim.harvester_cell_ms", "ms", false},
    {"sim.events", "count", true},
    {"sim.reboots", "count", true},
    {"kernel.task_commits", "count", true},
    {"sim.ns_per_event", "ns", false},
    {"obs.trace_overhead_share", "share", false},
};

// What one pass produced.
struct PassResult {
  double wall_s = 0;
  std::vector<double> verdict_ms;  // host time to each verdict the pass produced
  double schedules = 0;            // failure schedules whose outcome was established
  double executions = 0;           // simulator executions paid for
  double sim_s = 0;                // simulated seconds (paper-sweep only)
  std::map<std::string, double> layer;  // per-layer values, traced passes only
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the inputs and warms the stack; repeated, and timed as setup_s.
  virtual void Setup(Tally& tally) = 0;
  virtual PassResult Pass(bool traced, Tally& tally) = 0;
  // Anything to report once the measurement is over (stderr only).
  virtual void Finish() {}
};

// --- exhaust2-* ----------------------------------------------------------------------

// Reads a registry histogram's percentile by interpolating inside the bucket that
// holds the rank; the +Inf bucket reports its lower bound.
double HistogramPercentile(const obs::Sample& s, double q) {
  if (s.count == 0) {
    return 0;
  }
  const double rank = q * static_cast<double>(s.count);
  uint64_t prev = 0;
  for (size_t i = 0; i < s.cumulative.size(); ++i) {
    if (static_cast<double>(s.cumulative[i]) >= rank && s.cumulative[i] > prev) {
      const double lo = i == 0 ? 0.0 : static_cast<double>(s.bounds[i - 1]);
      if (i >= s.bounds.size()) {
        return lo;
      }
      const double hi = static_cast<double>(s.bounds[i]);
      const double frac =
          (rank - static_cast<double>(prev)) / static_cast<double>(s.cumulative[i] - prev);
      return lo + frac * (hi - lo);
    }
    prev = s.cumulative[i];
  }
  return 0;
}

class ExhaustWorkload : public Workload {
 public:
  ExhaustWorkload(std::string name, apps::AppKind app, uint32_t exhaust, uint64_t seed)
      : name_(std::move(name)), app_(app), exhaust_(exhaust), seed_(seed) {}

  void Setup(Tally& tally) override {
    // Warm-up: the depth-1 exhaust of the same cell (golden run, trunk, judge) on one
    // worker. With several workers this sub-second exploration runs 1x-5x slower
    // depending on the calling thread's stack alignment (README.md, "Known defects"),
    // which would make setup_s bimodal from process to process.
    chk::ExploreConfig warm = Config(1);
    warm.jobs = 1;
    const chk::ExploreResult r = chk::Explore(warm);
    OpCheck check(name_ + " warm-up");
    CheckCertificate(r, 1, check);
    tally.Add(check);
  }

  PassResult Pass(bool traced, Tally& tally) override {
    obs::Registry registry;
    chk::ExploreConfig cfg = Config(exhaust_);
    if (traced) {
      cfg.metrics = &registry;
    }
    const double t0 = Now();
    const chk::ExploreResult r = chk::Explore(cfg);
    PassResult out;
    out.wall_s = Now() - t0;
    out.verdict_ms.push_back(out.wall_s * 1e3);
    out.schedules = static_cast<double>(r.certificate.schedules_covered);
    out.executions = static_cast<double>(r.certificate.trials_executed);

    OpCheck check(name_ + (traced ? " traced pass" : " pass"));
    CheckCertificate(r, exhaust_, check);
    // Non-timing output must not change between passes (traced or not).
    const std::string json = chk::ToJson(r, /*include_timing=*/false);
    if (reference_json_.empty()) {
      reference_json_ = json;
      reference_ = r;
    }
    check.Expect(json == reference_json_, "non-timing ToJson changed between passes");
    // pages_copied and prefix_us_saved are exact (they repeat across runs and jobs
    // counts); pool_hits depends on how chunks fall to workers, so it is not checked.
    check.Expect(r.pages_copied == reference_.pages_copied &&
                     r.prefix_us_saved == reference_.prefix_us_saved,
                 "snapshot counters (pages_copied/prefix_us_saved) changed");
    if (traced) {
      FillLayers(r, registry, out, check);
    }
    tally.Add(check);
    return out;
  }

 private:
  chk::ExploreConfig Config(uint32_t exhaust) const {
    chk::ExploreConfig cfg;
    cfg.app = app_;
    cfg.runtime = apps::RuntimeKind::kEaseio;
    cfg.seed = seed_;
    cfg.exhaust = exhaust;
    cfg.jobs = Jobs();
    return cfg;
  }

  // The certificate identities the CI pruning job asserts, plus a clean verdict.
  static void CheckCertificate(const chk::ExploreResult& r, uint32_t exhaust,
                               OpCheck& check) {
    const auto& c = r.certificate;
    check.Expect(r.has_certificate && c.exhaust == exhaust, "missing coverage certificate");
    check.Expect(c.schedules_covered == r.schedules, "covered != schedules");
    check.Expect(r.schedules_skipped == 0, "schedules skipped");
    check.Expect(c.trials_executed == c.d1_classes + c.pair_classes - c.states_deduped,
                 "trials_executed != d1_classes + pair_classes - states_deduped");
    check.Expect(c.reduction_ratio >= 1.0, "reduction_ratio < 1");
    check.Expect(r.violations.empty(), "EaseIO cell reports violations");
  }

  void FillLayers(const chk::ExploreResult& r, const obs::Registry& registry, PassResult& out,
                  OpCheck& check) const {
    std::map<std::string, double> phase_s;
    double phase_sum_s = 0;
    for (const obs::Sample& s : registry.Snapshot()) {
      if (s.name == "easechk_phase_ns") {
        for (const auto& [key, value] : s.labels) {
          if (key == "phase") {
            phase_s[value] = static_cast<double>(s.value) * 1e-9;
            phase_sum_s += static_cast<double>(s.value) * 1e-9;
          }
        }
      } else if (s.name == "easechk_trial_us") {
        out.layer["chk.trial_us.p50"] = HistogramPercentile(s, 0.50);
        out.layer["chk.trial_us.p99"] = HistogramPercentile(s, 0.99);
      }
    }
    const auto& c = r.certificate;
    const double trials = static_cast<double>(c.trials_executed);
    std::map<std::string, double>& L = out.layer;
    L["chk.resume_cpu_s"] = phase_s["resume"];
    L["chk.resume_us_per_trial"] = phase_s["resume"] * 1e6 / trials;
    L["chk.judge_cpu_s"] = phase_s["judge"];
    L["chk.judge_us_per_trial"] = phase_s["judge"] * 1e6 / trials;
    L["chk.capture_cpu_s"] = phase_s["snapshot-capture"];
    L["chk.enumerate_cpu_s"] = phase_s["enumerate"];
    const double share = 1.0 - phase_sum_s / (Jobs() * out.wall_s);
    L["chk.unattributed_share"] = share;
    L["chk.trials_executed"] = trials;
    L["chk.states_deduped"] = static_cast<double>(c.states_deduped);
    L["chk.por_collapsed"] =
        static_cast<double>(c.d1_members_collapsed + c.pair_members_collapsed);
    L["chk.reduction_ratio"] = c.reduction_ratio;
    L["sim.pages_copied"] = static_cast<double>(r.pages_copied);
    L["sim.pages_per_trial"] = static_cast<double>(r.pages_copied) / trials;
    L["sim.pool_hits"] = static_cast<double>(r.pool_hits);
    L["sim.prefix_us_saved"] = static_cast<double>(r.prefix_us_saved);
    // Layer-sum check: the phase timers plus the unattributed share account for
    // workers x wall by construction, so what is checked is that the share is a
    // plausible residue (ParallelMap imbalance, the golden run, thread start-up).
    // Those are fixed costs that dominate sub-second explorations, so short passes
    // are exempt.
    check.Expect(out.wall_s < kLayerSumMinWallS ||
                     (share >= -kLayerSumSlack && share <= kMaxUnattributedShare),
                 "phase timers do not account for workers x wall (unattributed share " +
                     Num(share) + ")");
  }

  std::string name_;
  apps::AppKind app_;
  uint32_t exhaust_;
  uint64_t seed_;
  std::string reference_json_;
  chk::ExploreResult reference_;
};

// --- certify-corpus ------------------------------------------------------------------

struct CorpusProgram {
  std::string name;  // file stem, e.g. "war_dma"
  std::string path;  // relative to the root, echoed into the reports as the source name
  std::string source;
  // Checked-in goldens (lint corpus only) and the schema they were rendered with.
  std::string golden_lint;
  std::string golden_witness;
  int golden_schema = 0;  // 0 = no golden
  // Pinned by the CI certify matrix; empty = only "not unsound" is required.
  std::string expected_verdict;
  // Reference outputs from the first pass.
  std::string ref_lint_json;
  std::string ref_certify_json;
};

// The verdict matrix .github/workflows/ci.yml asserts for --lint-v2 --certify.
const std::map<std::string, std::string>& CiVerdicts() {
  static const std::map<std::string, std::string> verdicts = {
      {"clean_control", "clean-certified"},  {"clean_loop", "clean-certified"},
      {"clean_relay", "clean-certified"},    {"taint_cross_task", "findings-witnessed"},
      {"war_dma", "findings-witnessed"},     {"loop_war", "findings-witnessed"},
      {"war_dead", "clean-certified"},
  };
  return verdicts;
}

// examples/programs/weather.ec certifies as "unsound" on this code base: lint
// downgrades its taint-loop-carried finding, yet the exhaust replay finds violating
// schedules. A workload that fails on unchanged code cannot serve as a baseline, so
// the file is left out of the timed corpus and certified once per run after the
// measurement instead, with the verdict on stderr (see Finish and README.md).
constexpr const char* kKnownUnsound = "weather";

class CertifyWorkload : public Workload {
 public:
  CertifyWorkload(fs::path root, uint64_t seed, bool smoke)
      : root_(std::move(root)), seed_(seed), smoke_(smoke) {}

  void Setup(Tally& tally) override {
    programs_.clear();
    std::vector<fs::path> files;
    for (const char* dir : {"examples/programs", "examples/programs/lint"}) {
      for (const fs::directory_entry& e : fs::directory_iterator(root_ / dir)) {
        if (e.is_regular_file() && e.path().extension() == ".ec") {
          files.push_back(fs::relative(e.path(), root_));
        }
      }
    }
    std::sort(files.begin(), files.end());
    for (const fs::path& rel : files) {
      const std::string name = rel.stem().string();
      if (name == kKnownUnsound && rel.parent_path() == "examples/programs") {
        known_unsound_ = rel;
        continue;
      }
      if (smoke_ && name != "clean_control") {
        continue;
      }
      CorpusProgram p;
      p.name = name;
      p.path = rel.string();
      p.source = ReadFile(root_ / rel);
      const fs::path golden = root_ / rel.parent_path() / "golden";
      if (fs::exists(golden / (name + ".lint.json"))) {
        p.golden_lint = StripTrailingNewlines(ReadFile(golden / (name + ".lint.json")));
        p.golden_witness = StripTrailingNewlines(ReadFile(golden / (name + ".witness.json")));
        p.golden_schema =
            p.golden_lint.find("\"schema\":\"easeio-lint/2\"") != std::string::npos ? 2 : 1;
      }
      const auto it = CiVerdicts().find(name);
      if (it != CiVerdicts().end()) {
        p.expected_verdict = it->second;
      }
      programs_.push_back(std::move(p));
    }
    // The seed fixes the order the programs are certified in.
    Xorshift64Star rng(seed_);
    for (size_t i = programs_.size(); i > 1; --i) {
      std::swap(programs_[i - 1], programs_[rng.NextInRange(0, i - 1)]);
    }
    OpCheck corpus("corpus");
    corpus.Expect(!programs_.empty(), "no .ec programs under examples/programs");
    tally.Add(corpus);
    // Goldens, in the mode each was rendered with (easelint [--lint-v2] [--witness]).
    for (const CorpusProgram& p : programs_) {
      if (p.golden_schema == 0) {
        continue;
      }
      OpCheck check(p.path + " goldens");
      const easec::CompileResult compiled = easec::Compile(p.source);
      check.Expect(compiled.ok, "compile failed: " + compiled.errors);
      if (compiled.ok) {
        lint::LintOptions options;
        options.v2 = p.golden_schema == 2;
        lint::LintResult suggested = lint::Lint(compiled, options);
        lint::LintResult witnessed = suggested;
        lint::SuggestSchedules(compiled, suggested);
        lint::ConfirmWitnesses(compiled, witnessed);
        check.Expect(lint::RenderJson(suggested, p.path) == p.golden_lint,
                     "lint JSON differs from golden/" + p.name + ".lint.json");
        check.Expect(lint::RenderJson(witnessed, p.path) == p.golden_witness,
                     "witness JSON differs from golden/" + p.name + ".witness.json");
      }
      tally.Add(check);
    }
  }

  PassResult Pass(bool traced, Tally& tally) override {
    PassResult out;
    double compile_ms = 0, fixpoint_ms = 0, witness_ms = 0, certify_ms = 0;
    uint64_t iterations = 0, cfg_nodes = 0, confirmed = 0, downgraded = 0;
    uint64_t trials = 0, collapsed = 0;
    const double pass_t0 = Now();
    for (CorpusProgram& p : programs_) {
      OpCheck check(p.path);
      const double t0 = Now();
      const easec::CompileResult compiled = easec::Compile(p.source);
      const double t1 = Now();
      if (!compiled.ok) {
        check.Expect(false, "compile failed: " + compiled.errors);
        tally.Add(check);
        continue;
      }
      lint::LintOptions lint_options;
      lint_options.v2 = true;
      lint::LintResult result = lint::Lint(compiled, lint_options);
      const double t2 = Now();
      lint::ConfirmWitnesses(compiled, result);
      const double t3 = Now();
      lint::CertifyOptions options;
      options.exhaust = smoke_ ? 1 : 2;
      options.jobs = Jobs();
      options.v2 = true;
      const lint::CertifyReport report = lint::Certify(compiled, options, &result);
      const std::string lint_json = lint::RenderJson(result, p.path);
      const std::string certify_json = lint::RenderCertifyJson(report, p.path);
      const double t4 = Now();
      out.verdict_ms.push_back((t4 - t0) * 1e3);
      out.schedules += static_cast<double>(report.candidate_instants +
                                           report.collapsed_instants + report.pair_schedules);
      out.executions += static_cast<double>(report.trials);

      check.Expect(report.verdict != "unsound", "certify verdict is unsound");
      check.Expect(p.expected_verdict.empty() || report.verdict == p.expected_verdict,
                   "verdict " + report.verdict + " != CI matrix " + p.expected_verdict);
      check.Expect(report.trials > 0, "certify replayed no trials");
      if (p.golden_schema == 2) {
        check.Expect(lint_json == p.golden_witness,
                     "lint-v2 JSON differs from golden/" + p.name + ".witness.json");
      }
      if (p.ref_lint_json.empty()) {
        p.ref_lint_json = lint_json;
        p.ref_certify_json = certify_json;
      }
      check.Expect(lint_json == p.ref_lint_json && certify_json == p.ref_certify_json,
                   "lint/certify JSON changed between passes");
      tally.Add(check);

      compile_ms += (t1 - t0) * 1e3;
      fixpoint_ms += (t2 - t1) * 1e3;
      witness_ms += (t3 - t2) * 1e3;
      certify_ms += (t4 - t3) * 1e3;
      iterations += result.analysis.fixpoint_iterations;
      cfg_nodes += result.analysis.cfg_nodes;
      confirmed += report.confirmed_findings;
      downgraded += report.downgraded_findings;
      trials += report.trials;
      collapsed += report.collapsed_instants;
    }
    out.wall_s = Now() - pass_t0;
    // This binary times each call itself, so the clock reads are the tracing cost.
    if (traced) {
      std::map<std::string, double>& L = out.layer;
      L["easec.compile_ms"] = compile_ms;
      L["lint.fixpoint_ms"] = fixpoint_ms;
      L["lint.fixpoint_iterations"] = static_cast<double>(iterations);
      L["lint.cfg_nodes"] = static_cast<double>(cfg_nodes);
      L["lint.witness_ms"] = witness_ms;
      L["lint.witness_confirmed"] = static_cast<double>(confirmed);
      L["lint.witness_downgraded"] = static_cast<double>(downgraded);
      L["lint.certify_replay_ms"] = certify_ms;
      L["lint.certify_trials"] = static_cast<double>(trials);
      L["lint.certify_collapsed"] = static_cast<double>(collapsed);
      L["lint.certify_us_per_trial"] =
          trials > 0 ? certify_ms * 1e3 / static_cast<double>(trials) : 0;
    }
    return out;
  }

  void Finish() override {
    if (known_unsound_.empty()) {
      return;
    }
    const easec::CompileResult compiled = easec::Compile(ReadFile(root_ / known_unsound_));
    if (!compiled.ok) {
      return;
    }
    lint::CertifyOptions options;
    options.jobs = Jobs();
    const lint::CertifyReport report = lint::Certify(compiled, options);
    std::fprintf(stderr,
                 "known defect (not in the timed corpus): %s certifies as %s "
                 "(%llu violating depth-1 schedules)\n",
                 known_unsound_.c_str(), report.verdict.c_str(),
                 static_cast<unsigned long long>(report.violations));
  }

 private:
  fs::path root_;
  uint64_t seed_;
  bool smoke_;
  std::vector<CorpusProgram> programs_;
  fs::path known_unsound_;
};

// --- paper-sweep ---------------------------------------------------------------------

enum class CellGroup { kCore, kBaselines, kHarvester };

struct SweepCell {
  std::string label;
  report::ExperimentConfig config;
  uint32_t runs = 0;
  CellGroup group = CellGroup::kCore;
  std::string reference;  // serialized Aggregate from the first pass
};

// Counts probe events by kind; one per worker, so no synchronisation.
class CountingSink : public sim::ProbeSink {
 public:
  void OnProbeBatch(const sim::ProbeBatch& batch) override {
    events += batch.count;
    for (size_t i = 0; i < batch.count; ++i) {
      reboots += batch.kinds[i] == sim::ProbeKind::kReboot ? 1 : 0;
      commits += batch.kinds[i] == sim::ProbeKind::kTaskCommit ? 1 : 0;
    }
  }
  uint64_t events = 0;
  uint64_t reboots = 0;
  uint64_t commits = 0;
};

std::string Serialize(const report::Aggregate& a) {
  std::string s;
  for (double v : {a.total_us, a.app_us, a.overhead_us, a.wasted_us, a.energy_mj, a.wall_us}) {
    s += Num(v) + ",";
  }
  for (uint64_t v : {uint64_t{a.runs}, a.power_failures, a.io_reexecutions, a.io_skipped,
                     uint64_t{a.correct}, uint64_t{a.incorrect}, uint64_t{a.completed}}) {
    s += std::to_string(v) + ",";
  }
  return s;
}

// The fold report::RunSweep applies, replayed over the traced pass's per-seed results
// so the instrumented Aggregate can be compared byte-for-byte with the untraced one.
report::Aggregate Fold(const std::vector<report::ExperimentResult>& slots) {
  report::Aggregate agg;
  agg.runs = static_cast<uint32_t>(slots.size());
  for (const report::ExperimentResult& r : slots) {
    agg.total_us += r.run.stats.TotalUs();
    agg.app_us += r.run.stats.app_us;
    agg.overhead_us += r.run.stats.overhead_us;
    agg.wasted_us += r.run.stats.wasted_us;
    agg.energy_mj += r.run.energy_j * 1e3;
    agg.wall_us += static_cast<double>(r.run.wall_us);
    agg.power_failures += r.run.stats.power_failures;
    agg.io_reexecutions += r.run.stats.io_redundant + r.run.stats.dma_redundant;
    agg.io_skipped += r.run.stats.io_skipped + r.run.stats.dma_skipped;
    agg.completed += r.run.completed ? 1 : 0;
    agg.correct += r.consistent ? 1 : 0;
    agg.incorrect += r.consistent ? 0 : 1;
  }
  if (agg.runs > 0) {
    const double n = agg.runs;
    agg.total_us /= n;
    agg.app_us /= n;
    agg.overhead_us /= n;
    agg.wasted_us /= n;
    agg.energy_mj /= n;
    agg.wall_us /= n;
  }
  return agg;
}

class SweepWorkload : public Workload {
 public:
  SweepWorkload(uint64_t seed, bool smoke) : seed_(seed), smoke_(smoke) {}

  void Setup(Tally& tally) override {
    BuildCells();
    // Warm-up: one experiment per cell, cold stack each (Device construction).
    OpCheck check("sweep warm-up");
    for (const SweepCell& c : cells_) {
      const report::ExperimentResult r = report::RunExperiment(c.config);
      check.Expect(r.run.completed || c.config.runtime != apps::RuntimeKind::kEaseio,
                   c.label + ": EaseIO warm-up run did not complete");
    }
    tally.Add(check);
  }

  PassResult Pass(bool traced, Tally& tally) override {
    PassResult out;
    std::vector<double> cell_ms_all, experiment_us;
    double group_ms[3] = {0, 0, 0};
    uint64_t events = 0, reboots = 0, commits = 0;
    double experiment_ns_total = 0;
    const double pass_t0 = Now();
    for (SweepCell& c : cells_) {
      const double t0 = Now();
      report::Aggregate agg;
      if (traced) {
        agg = TracedSweep(c, experiment_us, events, reboots, commits, experiment_ns_total);
      } else {
        agg = report::RunSweep(c.config, c.runs, Jobs());
      }
      const double cell_ms = (Now() - t0) * 1e3;
      cell_ms_all.push_back(cell_ms);
      group_ms[static_cast<int>(c.group)] += cell_ms;
      out.schedules += agg.runs;
      out.executions += agg.runs;
      out.sim_s += agg.wall_us * agg.runs * 1e-6;

      OpCheck check(c.label + (traced ? " traced" : ""));
      const std::string s = Serialize(agg);
      if (c.reference.empty()) {
        c.reference = s;
      }
      check.Expect(s == c.reference, "Aggregate changed between passes");
      check.Expect(agg.correct + agg.incorrect == agg.runs, "correct + incorrect != runs");
      if (c.config.runtime == apps::RuntimeKind::kEaseio ||
          c.config.runtime == apps::RuntimeKind::kEaseioOp) {
        check.Expect(agg.correct == agg.runs, "EaseIO cell has incorrect runs");
      }
      tally.Add(check);
    }
    out.wall_s = Now() - pass_t0;
    // The sweep's verdict (every EaseIO cell correct, every Aggregate as before) needs
    // the whole pass. Per-cell times are too heterogeneous for a steady percentile;
    // they are reported per layer instead.
    out.verdict_ms.push_back(out.wall_s * 1e3);
    if (traced) {
      std::map<std::string, double>& L = out.layer;
      L["report.cell_ms.p50"] = Percentile(cell_ms_all, 0.5);
      L["report.cell_ms.p90"] = Percentile(cell_ms_all, 0.9);
      L["report.experiment_us.p50"] = Percentile(experiment_us, 0.5);
      L["report.experiment_us.p90"] = Percentile(experiment_us, 0.9);
      L["core.cell_ms"] = group_ms[static_cast<int>(CellGroup::kCore)];
      L["baselines.cell_ms"] = group_ms[static_cast<int>(CellGroup::kBaselines)];
      L["sim.harvester_cell_ms"] = group_ms[static_cast<int>(CellGroup::kHarvester)];
      L["sim.events"] = static_cast<double>(events);
      L["sim.reboots"] = static_cast<double>(reboots);
      L["kernel.task_commits"] = static_cast<double>(commits);
      L["sim.ns_per_event"] = events > 0 ? experiment_ns_total / static_cast<double>(events) : 0;
    }
    return out;
  }

 private:
  void BuildCells() {
    cells_.clear();
    // Sweep seeds are base + {0 .. runs-1}; the workload seed picks the base.
    const uint64_t base = 1 + seed_ * 100'003;
    auto add = [&](apps::AppKind app, apps::RuntimeKind rt, double distance_in) {
      SweepCell c;
      c.runs = smoke_ ? 4 : distance_in > 0 ? kHarvesterRuns : kTimerRuns;
      c.config.app = app;
      c.config.runtime = rt;
      c.config.seed = base;
      c.config.app_options.single_buffer = false;  // Fig 10/11: double-buffered weather
      if (distance_in > 0) {
        c.config.app_options.jobs = 10;  // Fig 13: ten back-to-back DMA jobs
        c.config.rf_distance_in = distance_in;
      }
      c.group = distance_in > 0 ? CellGroup::kHarvester
                : (rt == apps::RuntimeKind::kEaseio || rt == apps::RuntimeKind::kEaseioOp)
                    ? CellGroup::kCore
                    : CellGroup::kBaselines;
      c.label = std::string(apps::ToString(app)) + "/" + apps::ToString(rt) +
                (distance_in > 0 ? "@" + Num(distance_in) + "in" : "");
      cells_.push_back(std::move(c));
    };
    using apps::AppKind;
    using apps::RuntimeKind;
    if (smoke_) {
      add(AppKind::kDma, RuntimeKind::kEaseio, 0);
      return;
    }
    // Figs 7/8 and Table 4 (Samoyed: the extension baseline on the same apps).
    for (AppKind app : apps::kUnitaskApps) {
      for (RuntimeKind rt : {RuntimeKind::kAlpaca, RuntimeKind::kInk, RuntimeKind::kSamoyed,
                             RuntimeKind::kEaseio}) {
        add(app, rt, 0);
      }
    }
    // Figs 10/11 (Fig 12's FIR cells are the same configurations).
    for (AppKind app : {AppKind::kFir, AppKind::kWeather}) {
      for (RuntimeKind rt : {RuntimeKind::kAlpaca, RuntimeKind::kInk, RuntimeKind::kEaseio,
                             RuntimeKind::kEaseioOp}) {
        add(app, rt, 0);
      }
    }
    // Fig 13: the RF harvester across transmitter distances.
    for (double d : {52.0, 55.0, 58.0, 61.0, 64.0}) {
      for (RuntimeKind rt : {RuntimeKind::kEaseioOp, RuntimeKind::kAlpaca, RuntimeKind::kInk,
                             RuntimeKind::kEaseio}) {
        add(AppKind::kDma, rt, d);
      }
    }
  }

  // RunSweep's schedule (per-worker reused device, seeds base + i) with a counting
  // probe sink attached through RunHooks and every experiment timed.
  report::Aggregate TracedSweep(const SweepCell& c, std::vector<double>& experiment_us,
                                uint64_t& events, uint64_t& reboots, uint64_t& commits,
                                double& experiment_ns_total) {
    struct Worker {
      std::unique_ptr<sim::Device> device;
      CountingSink sink;
    };
    struct Slot {
      report::ExperimentResult result;
      double ns = 0;
      uint64_t events = 0, reboots = 0, commits = 0;
    };
    std::vector<Slot> slots(c.runs);
    platform::ParallelForWithState(
        Jobs(), c.runs, [] { return std::make_unique<Worker>(); },
        [&](std::unique_ptr<Worker>& w, size_t i) {
          report::ExperimentConfig config = c.config;
          config.seed = c.config.seed + i;
          report::RunHooks hooks;
          hooks.sink = &w->sink;
          const uint64_t e0 = w->sink.events, r0 = w->sink.reboots, k0 = w->sink.commits;
          const double t0 = Now();
          slots[i].result = report::RunExperiment(config, w->device, hooks);
          slots[i].ns = (Now() - t0) * 1e9;
          slots[i].events = w->sink.events - e0;
          slots[i].reboots = w->sink.reboots - r0;
          slots[i].commits = w->sink.commits - k0;
        });
    std::vector<report::ExperimentResult> results;
    results.reserve(slots.size());
    for (Slot& s : slots) {
      experiment_us.push_back(s.ns * 1e-3);
      experiment_ns_total += s.ns;
      events += s.events;
      reboots += s.reboots;
      commits += s.commits;
      results.push_back(std::move(s.result));
    }
    return Fold(results);
  }

  // A harvester run (ten DMA jobs with recharge gaps) costs about 25 timer runs. At
  // 2000:200 the harvester cells take about two thirds of a pass, leaving the timer
  // cells (the baselines and EaseIO proper) a share a change to them can move.
  static constexpr uint32_t kTimerRuns = 2000;
  static constexpr uint32_t kHarvesterRuns = 200;

  uint64_t seed_;
  bool smoke_;
  std::vector<SweepCell> cells_;
};

// --- Runner --------------------------------------------------------------------------

struct Args {
  std::string root = ".";
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* key) -> const char* {
      const std::string prefix = std::string(key) + "=";
      return a.rfind(prefix, 0) == 0 ? argv[i] + prefix.size() : nullptr;
    };
    try {
      if (const char* v = value("--root")) {
        args.root = v;
      } else if (const char* v = value("--workload")) {
        args.workload = v;
      } else if (const char* v = value("--seed")) {
        args.seed = std::stoull(v);
      } else if (const char* v = value("--seconds")) {
        args.seconds = std::stod(v);
      } else if (const char* v = value("--trace")) {
        args.trace = std::stoi(v) != 0;
      } else if (a == "--smoke") {
        args.smoke = true;
      } else {
        std::fprintf(stderr, "perfbench: unknown argument %s\n", a.c_str());
        return false;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "perfbench: bad value in %s\n", a.c_str());
      return false;
    }
  }
  return true;
}

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  const uint32_t exhaust = args.smoke ? 1 : 2;
  if (args.workload == "exhaust2-fir") {
    return std::make_unique<ExhaustWorkload>(
        args.workload, args.smoke ? apps::AppKind::kTemp : apps::AppKind::kFir, exhaust,
        args.seed);
  }
  if (args.workload == "exhaust2-weather") {
    return std::make_unique<ExhaustWorkload>(
        args.workload, args.smoke ? apps::AppKind::kTemp : apps::AppKind::kWeather, exhaust,
        args.seed);
  }
  if (args.workload == "certify-corpus") {
    return std::make_unique<CertifyWorkload>(args.root, args.seed, args.smoke);
  }
  if (args.workload == "paper-sweep") {
    return std::make_unique<SweepWorkload>(args.seed, args.smoke);
  }
  return nullptr;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  Tally tally;
  std::vector<double> setups;
  for (int i = 0; i < (args.smoke ? 1 : kSetupRepeats); ++i) {
    const double t0 = Now();
    workload->Setup(tally);
    setups.push_back(Now() - t0);
  }
  std::fprintf(stderr, "setup repeats (s):");
  for (double t : setups) {
    std::fprintf(stderr, " %s", Num(t).c_str());
  }
  std::fprintf(stderr, "\n");

  // Untraced and (with --trace=1) traced passes alternate, so slow drift in the
  // machine's speed lands on both sides of the overhead ratio.
  std::vector<PassResult> plain, traced;
  const double start = Now();
  do {
    plain.push_back(workload->Pass(false, tally));
    if (args.trace) {
      traced.push_back(workload->Pass(true, tally));
    }
  } while (!args.smoke && Now() - start < args.seconds);
  workload->Finish();
  std::fprintf(stderr, "pass walls (s):");
  for (const PassResult& p : plain) {
    std::fprintf(stderr, " %s", Num(p.wall_s).c_str());
  }
  std::fprintf(stderr, "\n");

  auto median_of = [](const std::vector<PassResult>& passes, auto&& get) {
    std::vector<double> v;
    for (const PassResult& p : passes) {
      v.push_back(get(p));
    }
    return Median(v);
  };
  const double wall = median_of(plain, [](const PassResult& p) { return p.wall_s; });

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  if (!args.trace) {
    // Each operation's median over the passes first, then the percentile across
    // operations: pooling every sample instead lets the noise of the two operations
    // next to the rank decide it.
    std::vector<double> verdicts;
    for (size_t i = 0; i < plain.front().verdict_ms.size(); ++i) {
      std::vector<double> v;
      for (const PassResult& p : plain) {
        if (i < p.verdict_ms.size()) {
          v.push_back(p.verdict_ms[i]);
        }
      }
      verdicts.push_back(Median(v));
    }
    std::fprintf(stderr, "verdict medians (ms):");
    for (double t : verdicts) {
      std::fprintf(stderr, " %s", Num(t).c_str());
    }
    std::fprintf(stderr, "\n");
    const std::map<std::string, double> values = {
        {"setup_s", Median(setups)},
        {"wall_s", wall},
        {"schedules_per_s",
         median_of(plain, [](const PassResult& p) { return p.schedules / p.wall_s; })},
        {"experiments_per_s",
         median_of(plain, [](const PassResult& p) { return p.executions / p.wall_s; })},
        {"verdict_ms.p50", Percentile(verdicts, 0.5)},
        {"verdict_ms.p90", Percentile(verdicts, 0.9)},
        {"peak_rss_mb", PeakRssMb()},
    };
    for (const MetricDef& m : kEndToEnd) {
      metrics.push_back({m.name, {values.at(m.name), m.unit}});
    }
  } else {
    OpCheck exact("exact per-layer counters");
    for (const LayerMetricDef& m : kPerLayer) {
      std::vector<double> v;
      for (const PassResult& p : traced) {
        const auto it = p.layer.find(m.name);
        v.push_back(it != p.layer.end() ? it->second : 0.0);
      }
      double value = Median(v);
      if (m.exact) {
        exact.Expect(std::all_of(v.begin(), v.end(), [&](double x) { return x == v[0]; }),
                     std::string(m.name) + " differs between traced passes");
      }
      const std::string name = m.name;
      if (name == "obs.trace_overhead_share") {
        value = median_of(traced, [](const PassResult& p) { return p.wall_s; }) / wall - 1.0;
      } else if (name == "report.sim_s_per_host_s") {
        value = median_of(plain, [](const PassResult& p) { return p.sim_s / p.wall_s; });
      }
      metrics.push_back({m.name, {value, m.unit}});
    }
    tally.Add(exact);
  }

  std::printf("workload %s seed %llu: %zu untraced + %zu traced passes, %u workers\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), plain.size(),
              traced.size(), Jobs());
  std::string json = "{\"correct\": " + std::string(tally.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(tally.attempted) +
                     ", \"failed\": " + std::to_string(tally.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, vu] = metrics[i];
    std::printf("%-28s %s %s\n", name.c_str(), Num(vu.first).c_str(), vu.second.c_str());
    json += (i > 0 ? ", \"" : "\"") + name + "\": {\"value\": " + Num(vu.first) +
            ", \"unit\": \"" + vu.second + "\"}";
  }
  json += "}}";
  std::printf("failed_share %s (%llu of %llu operations)\n",
              Num(static_cast<double>(tally.failed) / static_cast<double>(tally.attempted))
                  .c_str(),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace easeio::perfbench

int main(int argc, char** argv) { return easeio::perfbench::Main(argc, argv); }
