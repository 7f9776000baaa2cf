#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/bips.hpp"
#include "core/cobra.hpp"
#include "core/estimators.hpp"
#include "core/frontier_kernel.hpp"
#include "graph/binary_io.hpp"
#include "graph/spec.hpp"
#include "rng/stream.hpp"
#include "runner/cell.hpp"
#include "runner/journal.hpp"
#include "runner/registry.hpp"
#include "runner/sweep.hpp"
#include "spectral/spectral.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"

namespace perfbench {
namespace fs = std::filesystem;
using namespace cobra;

namespace {

constexpr std::size_t kMaxFailureMessages = 8;

// Each workload's calibration exponent k (probe.hpp). Fitted on 30 runs per
// workload, three sets of ten seeds: the run-level spread of op time was
// smallest at these values.
constexpr double kRegistryExponent = 1.5;
constexpr double kExpanderExponent = 2.0;
constexpr double kTorusExponent = 1.0;

constexpr const char* kUnquiet = "background work overlapped its probes";

void fail(Outcome& out, const std::string& why) {
  if (out.failures.size() < kMaxFailureMessages) out.failures.push_back(why);
}

// One set-up interval holding `batch` set-ups. It counts as one attempted
// op, which fails when background work overlapped its probes.
void add_setup(Outcome& out, const Timed& t, int batch) {
  out.setup_cal_s.push_back(t.cal_s / batch);
  out.setup_raw_s.push_back(t.raw_s / batch);
  ++out.attempted;
  if (!t.quiet) {
    ++out.failed;
    fail(out, std::string("set-up: ") + kUnquiet);
  }
}

// The session knobs every workload pins, so nothing in the environment of
// the calling shell can change what is measured.
void pin_session(double scale, std::uint64_t seed, int mc_threads) {
  util::set_scale_override(scale);
  util::set_seed_override(seed);
  util::set_threads_override(mc_threads);
  util::set_kernel_threads_override(1);
  util::set_metrics_override("off");
  util::set_engine_override("auto");
  util::set_graphs_override("");
}

std::string read_bytes(const std::string& path, std::uintmax_t from) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  in.seekg(static_cast<std::streamoff>(from));
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::uintmax_t size_or_zero(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  return ec ? 0 : size;
}

std::string digest_of(const std::string& bytes) {
  return hex64(fnv1a(bytes.data(), bytes.size()));
}

template <typename T>
std::uint64_t hash_values(const std::vector<T>& values, std::uint64_t h) {
  return fnv1a(values.data(), values.size() * sizeof(T), h);
}

// Runs whole passes of a workload's fixed op list: seconds / nominal_s of
// them (at least one), so the amount of work depends only on the run's
// arguments and never on how fast the machine happens to be. A traced run
// makes exactly two: one untraced (the reference for trace.overhead_frac)
// and one traced.
void run_passes(const Config& config, double nominal_s,
                const std::function<void(std::size_t, bool)>& pass) {
  if (config.trace) {
    pass(0, false);
    pass(1, true);
    return;
  }
  const auto passes = static_cast<std::size_t>(
      std::max(1.0, std::floor(config.seconds / nominal_s)));
  for (std::size_t p = 0; p < passes; ++p) pass(p, false);
}

struct PassTotals {
  double cal = 0.0;
  double raw = 0.0;
};

void add_op(Outcome& out, PassTotals& totals, const Timed& t, bool traced) {
  totals.cal += t.cal_s;
  totals.raw += t.raw_s;
  if (traced) return;
  out.op_cal_s.push_back(t.cal_s);
  out.op_raw_s.push_back(t.raw_s);
}

void end_pass(Outcome& out, const PassTotals& totals, bool traced,
              double* traced_cal) {
  if (traced) {
    *traced_cal = totals.cal;
    return;
  }
  out.pass_cal_s.push_back(totals.cal);
  out.pass_raw_s.push_back(totals.raw);
}

// Per-round timing of one process driven from outside, one step() at a
// time: the `core` layer's per-layer figures.
struct RoundStats {
  double rounds = 0.0;
  double dense_rounds = 0.0;
  double sparse_s = 0.0;
  double dense_s = 0.0;
  double transmissions = 0.0;
  double first_visits = 0.0;
  double replays = 0.0;

  template <typename Process, typename Done>
  void step_until(Process& process, rng::Rng& rng, std::uint64_t cap,
                  Done done) {
    while (!done() && process.round() < cap) {
      const std::uint64_t dense_before = process.dense_rounds();
      const double t0 = now_s();
      process.step(rng);
      const double dt = now_s() - t0;
      rounds += 1.0;
      if (process.dense_rounds() > dense_before) {
        dense_rounds += 1.0;
        dense_s += dt;
      } else {
        sparse_s += dt;
      }
    }
    replays += 1.0;
  }

  /// Adds one replay's raw figures, with its times calibrated by `scale`.
  void add(const RoundStats& one, double scale) {
    rounds += one.rounds;
    dense_rounds += one.dense_rounds;
    sparse_s += one.sparse_s * scale;
    dense_s += one.dense_s * scale;
    transmissions += one.transmissions;
    first_visits += one.first_visits;
    replays += one.replays;
  }

  void report(Metrics& m) const {
    const double sparse_rounds = rounds - dense_rounds;
    m["core.rounds"] = {replays > 0 ? rounds / replays : 0.0, "count"};
    m["core.dense_round_frac"] = {rounds > 0 ? dense_rounds / rounds : 0.0,
                                  "frac"};
    m["core.sparse_round_us"] = {
        sparse_rounds > 0 ? sparse_s / sparse_rounds * 1e6 : 0.0, "us"};
    m["core.dense_round_us"] = {
        dense_rounds > 0 ? dense_s / dense_rounds * 1e6 : 0.0, "us"};
    m["core.transmissions"] = {
        replays > 0 ? transmissions / replays : 0.0, "count"};
    m["core.ns_per_transmission"] = {
        transmissions > 0 ? (sparse_s + dense_s) / transmissions * 1e9 : 0.0,
        "ns"};
    m["core.useful_frac"] = {
        transmissions > 0 ? first_visits / transmissions : 0.0, "frac"};
  }
};

// Every per-layer metric a workload does not exercise reads 0: the layer
// did no work there.
void zero_layers(Metrics& m) {
  for (const char* name :
       {"graph.build_s", "graph.load_ms", "graph.csr_mb",
        "graph.cache_hits", "graph.cache_misses", "rng.sampler_build_ms",
        "sim.estimator_ms", "sim.serial_estimator_ms", "sim.scaling_eff",
        "sim.cpu_util", "spectral.cache_hits", "spectral.cache_misses",
        "runner.io_ms_per_cell"}) {
    m[name] = {0.0, ""};
  }
  m["graph.build_s"].unit = "s";
  m["graph.load_ms"].unit = "ms";
  m["graph.csr_mb"].unit = "MB";
  m["graph.cache_hits"].unit = "count";
  m["graph.cache_misses"].unit = "count";
  m["rng.sampler_build_ms"].unit = "ms";
  m["sim.estimator_ms"].unit = "ms";
  m["sim.serial_estimator_ms"].unit = "ms";
  m["sim.scaling_eff"].unit = "frac";
  m["sim.cpu_util"].unit = "frac";
  m["spectral.cache_hits"].unit = "count";
  m["spectral.cache_misses"].unit = "count";
  m["runner.io_ms_per_cell"].unit = "ms";
  RoundStats{}.report(m);
  for (const std::string& name : registry_experiments())
    m["runner.exp_ms." + name] = {0.0, "ms"};
}

double csr_mb(const graph::Graph& g) {
  const double bytes =
      static_cast<double>(g.offsets().size()) * sizeof(std::uint64_t) +
      static_cast<double>(g.adjacency().size()) * sizeof(graph::VertexId);
  return bytes / (1024.0 * 1024.0);
}

}  // namespace

// ---------------------------------------------------------------- Checker

Checker::Checker(const Config& config, std::uint64_t seed,
                 const std::string& size)
    : config_(config), seed_(seed), size_(size) {
  const std::string& path = config.expected_path;
  if (path.empty()) return;
  std::ifstream in(path);
  if (!in) throw SetupError("cannot read recording " + path);
  std::string kind;
  std::uint64_t file_seed = 0;
  std::string size_tag;
  if (!(in >> kind >> file_seed) || kind != "seed" ||
      !(in >> kind >> size_tag) || kind != "size") {
    throw SetupError("recording " + path +
                     " does not start with \"seed N\" and \"size S\"");
  }
  if (size_tag != size) {
    throw SetupError("recording " + path + " is for size " + size_tag +
                     ", this run is " + size);
  }
  std::map<std::string, std::string> ops;
  std::map<std::string, std::string> files;
  std::string digest;
  std::string name;
  while (in >> kind) {
    if (!(in >> digest) || !std::getline(in >> std::ws, name) ||
        (kind != "op" && kind != "file")) {
      throw SetupError("recording " + path + " has a malformed line after " +
                       std::to_string(ops.size() + files.size()) +
                       " entries");
    }
    (kind == "op" ? ops : files)[name] = digest;
  }
  if (file_seed != seed) {
    std::printf("# recording %s not applied: recorded seed %llu, run seed "
                "%llu; checks that hold at every seed only\n",
                path.c_str(), static_cast<unsigned long long>(file_seed),
                static_cast<unsigned long long>(seed));
    return;
  }
  active_ = true;
  expected_ops_ = std::move(ops);
  expected_files_ = std::move(files);
  std::printf("# recording %s applied: %zu ops, %zu files\n", path.c_str(),
              expected_ops_.size(), expected_files_.size());
}

bool Checker::op(const std::string& name, const std::string& digest,
                 std::string* why) {
  const auto seen = seen_ops_.find(name);
  if (seen != seen_ops_.end()) {
    if (seen->second != digest) {
      *why = "result differs from the first pass";
      return false;
    }
  } else {
    seen_ops_[name] = digest;
  }
  if (!active_) return true;
  const auto it = expected_ops_.find(name);
  if (it == expected_ops_.end() || it->second != digest) {
    *why = "result " + digest +
           " != recorded " +
           (it == expected_ops_.end() ? std::string("(none)") : it->second);
    return false;
  }
  return true;
}

bool Checker::file(const std::string& name, const std::string& digest,
                   std::string* why) {
  seen_files_[name] = digest;
  if (!active_) return true;
  const auto it = expected_files_.find(name);
  if (it == expected_files_.end() || it->second != digest) {
    *why = "file " + name + " digest " + digest + " != recorded";
    return false;
  }
  return true;
}

void Checker::finish() const {
  if (config_.record_path.empty()) return;
  std::ofstream out(config_.record_path);
  if (!out) throw std::runtime_error("cannot write " + config_.record_path);
  out << "seed " << seed_ << "\nsize " << size_ << "\n";
  for (const auto& [name, digest] : seen_ops_)
    out << "op " << digest << " " << name << "\n";
  for (const auto& [name, digest] : seen_files_)
    out << "file " << digest << " " << name << "\n";
}

const std::vector<std::string>& registry_experiments() {
  static const std::vector<std::string> names = {
      "baselines",   "bips_growth",    "branching",    "cover_profile",
      "duality",     "families",       "general_bound", "hypercube",
      "lazy_bipartite", "lower_bound", "martingale",   "mixing",
      "regular_bound", "whp",          "workload"};
  return names;
}

// --------------------------------------------------------- paper_registry

namespace {

// Formats a cell's rows exactly as the runner appends them to a table CSV
// (the writer's header line removed), for the engine cross-check.
std::string format_rows(const runner::TableDef& table,
                        const std::vector<runner::CellRow>& rows,
                        const std::string& scratch) {
  {
    util::CsvWriter writer(scratch, table.columns);
    for (const runner::CellRow& row : rows) {
      writer.row();
      for (const runner::CellValue& value : row) writer.add(value.csv_text);
    }
    writer.close();
  }
  const std::string text = read_bytes(scratch, 0);
  const std::size_t header_end = text.find('\n');
  return header_end == std::string::npos ? std::string()
                                         : text.substr(header_end + 1);
}

std::size_t count_lines(const std::string& text) {
  return static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
}

}  // namespace

Outcome run_paper_registry(const Config& config, Probe& probe,
                           Tracer& tracer) {
  Outcome out;
  // Every cell draws its randomness from the program's default experiment
  // seed, so the archives are the paper's and can be checked byte for byte
  // at every benchmark seed. The benchmark seed permutes the order in which
  // the experiments run: the same cells, meeting caches, allocator and
  // file-system state in another order.
  pin_session(config.tiny ? 0.02 : 1.0, 20170724ULL, 1);
  const std::string out_dir = config.work_dir + "/registry";
  const std::string scratch = config.work_dir + "/recheck.csv";
  Checker checker(config, 0, config.tiny ? "tiny" : "full");
  CalibratedClock clock(probe, 1, kRegistryExponent);

  // Set-up: enumerate every experiment's cells and prepare a clean output
  // directory. One round takes well under a millisecond, so each timed
  // interval holds a batch of rounds and reports their mean.
  std::vector<const runner::ExperimentDef*> defs;
  std::vector<std::vector<runner::CellDef>> cells;
  const int batch = config.tiny ? 2 : 40;
  for (int rep = 0; rep < (config.tiny ? 3 : 15); ++rep) {
    const Timed t = clock.time([&] {
      for (int b = 0; b < batch; ++b) {
        defs = runner::Registry::instance().all();
        std::uint64_t state = config.seed;
        for (std::size_t i = defs.size(); i > 1; --i) {
          state = mix64(state);
          std::swap(defs[i - 1], defs[state % i]);
        }
        cells.clear();
        for (const runner::ExperimentDef* def : defs)
          cells.push_back(def->cells());
        fs::remove_all(out_dir);
        fs::create_directories(out_dir);
      }
    });
    add_setup(out, t, batch);
  }

  std::map<std::string, double> exp_ms;
  std::vector<double> io_ms;
  double traced_cal = 0.0;

  // Two passes per 20 s run: every cell is timed twice, which steadies the
  // op percentiles of a list whose costs span four orders of magnitude.
  run_passes(config, 10.0, [&](std::size_t pass, bool traced) {
    // Every pass starts from the same state: no archives, cold caches.
    fs::remove_all(out_dir);
    fs::create_directories(out_dir);
    spectral::clear_spectral_cache();
    graph::clear_graph_cache();
    clock.invalidate();
    PassTotals totals;
    std::size_t op_index = 0;
    for (std::size_t e = 0; e < defs.size(); ++e) {
      const runner::ExperimentDef& def = *defs[e];
      const std::string journal_path =
          runner::Journal::path_for(out_dir, def.name, 1, 1);
      for (std::size_t c = 0; c < cells[e].size(); ++c, ++op_index) {
        std::vector<std::string> paths;
        std::vector<std::uintmax_t> before;
        for (const runner::TableDef& table : def.tables) {
          paths.push_back(runner::fragment_path(out_dir, table, 1, 1));
          before.push_back(size_or_zero(paths.back()));
        }
        runner::SweepConfig sweep;
        sweep.out_dir = out_dir;
        sweep.resume = true;
        sweep.max_cells = 1;
        sweep.console = false;
        runner::SweepResult result;
        std::string error;
        const double start = now_s();
        const Timed t = clock.time([&] {
          try {
            result = runner::run_experiment(def, sweep);
          } catch (const std::exception& ex) {
            error = ex.what();
          }
        });
        add_op(out, totals, t, traced);
        ++out.attempted;
        const std::string op_name = def.name + "/" + cells[e][c].id;

        // Correctness, outside the timed interval.
        std::string why;
        if (error.empty() && !t.quiet) error = kUnquiet;
        if (error.empty() && result.cells_run != 1)
          error = "cell did not run";
        std::vector<std::string> appended(def.tables.size());
        std::uint64_t digest = 0xcbf29ce484222325ULL;
        if (error.empty()) {
          const auto [header, entries] = runner::Journal::read(journal_path);
          const runner::JournalEntry& entry = entries.back();
          for (std::size_t t_i = 0; t_i < def.tables.size(); ++t_i) {
            appended[t_i] = read_bytes(paths[t_i], before[t_i]);
            // The first cell of an experiment also writes the header.
            if (c == 0) {
              const std::size_t eol = appended[t_i].find('\n');
              appended[t_i] = eol == std::string::npos
                                  ? std::string()
                                  : appended[t_i].substr(eol + 1);
            }
            if (count_lines(appended[t_i]) != entry.rows_per_table[t_i]) {
              error = "CSV rows of " + def.tables[t_i].id +
                      " disagree with the journal";
            }
            digest = fnv1a(appended[t_i].data(), appended[t_i].size(),
                           digest ^ t_i);
          }
          if (traced) {
            const double body_raw = static_cast<double>(entry.wall_us) * 1e-6;
            const double body_cal = clock.calibrate(body_raw, t.probe_ms);
            io_ms.push_back((t.cal_s - body_cal) * 1e3);
            exp_ms[def.name] += t.cal_s * 1e3;
            const std::int64_t parent = tracer.add(
                {"runner.run_experiment", op_index, -1, start,
                 start + t.raw_s, t.cal_s});
            tracer.add({"runner.cell_body", op_index, parent, start,
                        start + body_raw, body_cal});
          }
        }
        if (error.empty() && !checker.op(op_name, hex64(digest), &why))
          error = why;
        // Every 10th op of the first pass: the cell re-run directly under
        // the sparse and the dense engine must reproduce the archived rows
        // bit for bit. (Later passes repeat the same cells, whose results
        // must match the first pass.)
        if (error.empty() && pass == 0 && op_index % 10 == 0) {
          for (const char* engine : {"sparse", "dense"}) {
            util::set_engine_override(engine);
            runner::CellContext context(def.tables.size());
            cells[e][c].run(context);
            for (std::size_t t_i = 0; t_i < def.tables.size(); ++t_i) {
              if (format_rows(def.tables[t_i], context.tables()[t_i],
                              scratch) != appended[t_i]) {
                error = std::string("engine ") + engine +
                        " rows differ in " + def.tables[t_i].id;
              }
            }
          }
          util::set_engine_override("auto");
          clock.invalidate();
        }
        if (!error.empty()) {
          ++out.failed;
          fail(out, op_name + ": " + error);
        }
      }
    }
    // The canonical archives must be byte-identical to the recording.
    if (pass == 0) {
      for (const runner::ExperimentDef* def : defs) {
        for (const runner::TableDef& table : def->tables) {
          const std::string path =
              runner::fragment_path(out_dir, table, 1, 1);
          std::string why;
          if (!checker.file(table.id, digest_of(read_bytes(path, 0)), &why)) {
            if (out.failed < out.attempted) ++out.failed;
            fail(out, why);
          }
        }
      }
    }
    end_pass(out, totals, traced, &traced_cal);
  });
  checker.finish();

  if (config.trace) {
    Metrics& m = out.layers;
    zero_layers(m);
    for (const std::string& name : registry_experiments())
      m["runner.exp_ms." + name] = {exp_ms[name], "ms"};
    m["runner.io_ms_per_cell"] = {mean(io_ms), "ms"};
    const graph::GraphCacheStats gstats = graph::graph_cache_stats();
    m["graph.cache_hits"] = {static_cast<double>(gstats.hits), "count"};
    m["graph.cache_misses"] = {static_cast<double>(gstats.misses), "count"};
    const spectral::SpectralCacheStats sstats =
        spectral::spectral_cache_stats();
    m["spectral.cache_hits"] = {static_cast<double>(sstats.hits), "count"};
    m["spectral.cache_misses"] = {static_cast<double>(sstats.misses),
                                  "count"};
    m["trace.overhead_frac"] = {
        (traced_cal - out.pass_cal_s.front()) / out.pass_cal_s.front(),
        "frac"};
  }
  return out;
}

// --------------------------------------------------------- expander_cover

Outcome run_expander_cover(const Config& config, Probe& probe,
                           Tracer& tracer) {
  Outcome out;
  const std::string spec =
      config.tiny ? "regular_4096_r8" : "regular_131072_r8";
  const std::size_t ops_per_pass = config.tiny ? 12 : 200;
  const int setups = config.tiny ? 2 : 3;
  constexpr std::uint64_t kReplicates = 8;
  constexpr std::uint64_t kRoundCap = 2000;
  pin_session(1.0, 20170724ULL, 2);
  Checker checker(config, config.seed, config.tiny ? "tiny" : "full");
  CalibratedClock clock1(probe, 1, kExpanderExponent);
  CalibratedClock clock2(probe, 2, kExpanderExponent);

  // Set-up: build the graph from its spec and the shared alias sampler.
  std::shared_ptr<const graph::Graph> g;
  std::shared_ptr<const core::NeighborSampler> sampler;
  std::vector<double> build_s, sampler_ms;
  for (int rep = 0; rep < setups; ++rep) {
    double build_raw = 0.0;
    double sampler_raw = 0.0;
    const Timed t = clock1.time([&] {
      sampler.reset();
      const double t0 = now_s();
      g = std::make_shared<const graph::Graph>(graph::build_graph_spec(spec));
      const double t1 = now_s();
      sampler = std::make_shared<const core::NeighborSampler>(*g, 0.0);
      build_raw = t1 - t0;
      sampler_raw = now_s() - t1;
    });
    add_setup(out, t, 1);
    build_s.push_back(clock1.calibrate(build_raw, t.probe_ms));
    sampler_ms.push_back(clock1.calibrate(sampler_raw, t.probe_ms) * 1e3);
  }
  const graph::VertexId n = g->num_vertices();

  RoundStats rounds;
  std::vector<double> estimator_ms, serial_ms, cpu_util;
  double estimator_raw = 0.0;
  double serial_raw = 0.0;
  double traced_cal = 0.0;

  run_passes(config, 20.0, [&](std::size_t, bool traced) {
    clock2.invalidate();
    PassTotals totals;
    for (std::size_t i = 0; i < ops_per_pass; ++i) {
      const graph::VertexId start =
          static_cast<graph::VertexId>(mix64(config.seed * 1000003 + i) % n);
      const std::uint64_t est_seed = mix64(mix64(config.seed) ^ (i + 1));
      core::ProcessOptions options;
      options.kernel_threads = 1;
      options.sampler = sampler;
      core::TimeSamples result;
      std::string error;
      double cpu = 0.0;
      const double begin = now_s();
      const Timed t = clock2.time([&] {
        const double c0 = process_cpu_s();
        try {
          result = core::estimate_cobra_cover(*g, options, start, kReplicates,
                                              est_seed, kRoundCap);
        } catch (const std::exception& ex) {
          error = ex.what();
        }
        cpu = process_cpu_s() - c0;
      });
      add_op(out, totals, t, traced);
      ++out.attempted;

      auto digest = [](const core::TimeSamples& r) {
        std::uint64_t h = hash_values(r.rounds, 0xcbf29ce484222325ULL);
        h = hash_values(r.transmissions, h);
        return hex64(fnv1a(&r.timeouts, sizeof(r.timeouts), h));
      };
      std::string why;
      if (error.empty() && !t.quiet) error = kUnquiet;
      if (error.empty() &&
          (result.timeouts != 0 || result.rounds.size() != kReplicates)) {
        error = std::to_string(result.timeouts) + " replicates timed out";
      }
      const std::string d = error.empty() ? digest(result) : "";
      if (error.empty() && !checker.op(std::to_string(i), d, &why)) error = why;
      if (error.empty() && i % 10 == 0) {
        for (const core::Engine engine :
             {core::Engine::kSparse, core::Engine::kDense}) {
          core::ProcessOptions other = options;
          other.engine = engine;
          if (digest(core::estimate_cobra_cover(*g, other, start, kReplicates,
                                                est_seed, kRoundCap)) != d) {
            error = std::string("engine ") + core::engine_name(engine) +
                    " disagrees";
          }
        }
        clock2.invalidate();
      }
      // The serial re-run and the step-by-step replay cost as much as the
      // op itself, so the traced pass samples every 5th op.
      if (error.empty() && traced && i % 5 == 0) {
        estimator_ms.push_back(t.cal_s * 1e3);
        cpu_util.push_back(cpu / (2.0 * t.raw_s));
        tracer.add({"sim.estimate_cobra_cover", i, -1, begin,
                    begin + t.raw_s, t.cal_s});
        util::set_threads_override(1);
        const Timed serial = clock1.time([&] {
          core::estimate_cobra_cover(*g, options, start, kReplicates,
                                     est_seed, kRoundCap);
        });
        util::set_threads_override(2);
        serial_ms.push_back(serial.cal_s * 1e3);
        estimator_raw += t.raw_s;
        serial_raw += serial.raw_s;
        // Replicate 0 again, one step() at a time.
        core::CobraProcess process(*g, options);
        process.reset(start);
        rng::Rng rng = rng::make_stream(est_seed, 0);
        RoundStats one;
        const double replay_begin = now_s();
        const Timed replay = clock1.time([&] {
          one.step_until(process, rng, kRoundCap,
                         [&] { return process.all_visited(); });
        });
        one.transmissions = static_cast<double>(process.transmissions());
        one.first_visits = process.num_visited() - 1.0;
        rounds.add(one, replay.cal_s / replay.raw_s);
        tracer.add({"core.step_replay", i, -1, replay_begin,
                    replay_begin + replay.raw_s, replay.cal_s});
        if (one.rounds != result.rounds.front() ||
            static_cast<double>(process.transmissions()) !=
                result.transmissions.front()) {
          error = "step-by-step replay of replicate 0 disagrees";
        }
        clock2.invalidate();
      }
      if (!error.empty()) {
        ++out.failed;
        fail(out, "op " + std::to_string(i) + ": " + error);
      }
    }
    end_pass(out, totals, traced, &traced_cal);
  });
  checker.finish();

  if (config.trace) {
    Metrics& m = out.layers;
    zero_layers(m);
    m["graph.build_s"] = {median(build_s), "s"};
    m["graph.csr_mb"] = {csr_mb(*g), "MB"};
    m["rng.sampler_build_ms"] = {median(sampler_ms), "ms"};
    rounds.report(m);
    m["sim.estimator_ms"] = {mean(estimator_ms), "ms"};
    m["sim.serial_estimator_ms"] = {mean(serial_ms), "ms"};
    // From raw times: the two calls ran back to back but under probes of
    // different widths, whose calibrations are not interchangeable.
    m["sim.scaling_eff"] = {
        estimator_raw > 0 ? serial_raw / (2.0 * estimator_raw) : 0.0,
        "frac"};
    m["sim.cpu_util"] = {mean(cpu_util), "frac"};
    m["trace.overhead_frac"] = {
        (traced_cal - out.pass_cal_s.front()) / out.pass_cal_s.front(),
        "frac"};
  }
  return out;
}

// -------------------------------------------------------------- torus_bips

Outcome run_torus_bips(const Config& config, Probe& probe, Tracer& tracer) {
  Outcome out;
  const std::string spec = config.tiny ? "torus_16_d2" : "torus_128_d2";
  const std::size_t ops_per_pass = config.tiny ? 12 : 150;
  const int setups = config.tiny ? 3 : 15;
  constexpr std::uint64_t kRoundCap = 100000;
  pin_session(1.0, 20170724ULL, 1);
  Checker checker(config, config.seed, config.tiny ? "tiny" : "full");
  CalibratedClock clock(probe, 1, kTorusExponent);

  // Untimed preparation: generate the torus and write its .cgr file.
  const std::string path = config.work_dir + "/" + spec + ".cgr";
  double build_s = 0.0;
  {
    graph::Graph built;
    const Timed t = clock.time([&] { built = graph::build_graph_spec(spec); });
    build_s = t.cal_s;
    graph::write_cgr_file(built, path);
  }

  // Set-up: mmap-load the file and build the lazy alias sampler. One
  // load takes ~0.1 ms, so each timed interval holds a batch of loads and
  // reports their mean; the median is over batches.
  std::shared_ptr<const graph::Graph> g;
  std::shared_ptr<const core::NeighborSampler> sampler;
  std::vector<double> load_ms, sampler_ms;
  const int batch = config.tiny ? 2 : 40;
  for (int rep = 0; rep < setups; ++rep) {
    double load_raw = 0.0;
    double sampler_raw = 0.0;
    const Timed t = clock.time([&] {
      for (int b = 0; b < batch; ++b) {
        sampler.reset();
        const double t0 = now_s();
        g = std::make_shared<const graph::Graph>(
            graph::load_cgr_file(path, graph::CgrLoadMode::kMapped));
        const double t1 = now_s();
        sampler = std::make_shared<const core::NeighborSampler>(*g, 0.5);
        load_raw += t1 - t0;
        sampler_raw += now_s() - t1;
      }
    });
    add_setup(out, t, batch);
    load_ms.push_back(clock.calibrate(load_raw / batch, t.probe_ms) * 1e3);
    sampler_ms.push_back(clock.calibrate(sampler_raw / batch, t.probe_ms) *
                         1e3);
  }
  const graph::VertexId n = g->num_vertices();

  core::BipsOptions options;
  options.process.branching = core::Branching::one_plus_rho(0.5);
  options.process.laziness = 0.5;
  options.process.kernel_threads = 1;
  options.process.sampler = sampler;
  options.kernel = core::BipsKernel::kSampling;

  RoundStats rounds;
  double traced_cal = 0.0;

  run_passes(config, 20.0, [&](std::size_t, bool traced) {
    clock.invalidate();
    PassTotals totals;
    for (std::size_t i = 0; i < ops_per_pass; ++i) {
      const graph::VertexId source =
          static_cast<graph::VertexId>(mix64(config.seed * 1000003 + i) % n);
      const std::uint64_t op_seed = mix64(mix64(config.seed) ^ (i + 1));
      std::optional<std::uint64_t> finished;
      bool full = false;
      std::string error;
      RoundStats one;
      const double begin = now_s();
      const Timed t = clock.time([&] {
        try {
          core::BipsProcess process(*g, source, options);
          rng::Rng rng = rng::make_stream(op_seed, 0);
          if (traced) {
            one.step_until(process, rng, kRoundCap,
                           [&] { return process.fully_infected(); });
            if (process.fully_infected()) finished = process.round();
          } else {
            finished = process.run_until_full(rng, kRoundCap);
          }
          full = process.fully_infected();
        } catch (const std::exception& ex) {
          error = ex.what();
        }
      });
      add_op(out, totals, t, traced);
      ++out.attempted;

      std::string why;
      if (error.empty() && !t.quiet) error = kUnquiet;
      if (error.empty() && (!finished || !full))
        error = "not fully infected within the round cap";
      const std::string d =
          error.empty() ? hex64(fnv1a(&*finished, sizeof(*finished))) : "";
      if (error.empty() && !checker.op(std::to_string(i), d, &why)) error = why;
      if (error.empty() && i % 10 == 0) {
        // The infected-count trajectory must agree bit for bit between
        // the sparse and the dense engine, and end where the op ended.
        std::vector<std::vector<std::uint32_t>> paths;
        for (const core::Engine engine :
             {core::Engine::kSparse, core::Engine::kDense}) {
          core::BipsOptions other = options;
          other.process.engine = engine;
          core::BipsProcess process(*g, source, other);
          rng::Rng rng = rng::make_stream(op_seed, 0);
          std::vector<std::uint32_t> sizes{process.infected_count()};
          while (!process.fully_infected() && process.round() < kRoundCap) {
            process.step(rng);
            sizes.push_back(process.infected_count());
          }
          paths.push_back(std::move(sizes));
        }
        if (paths[0] != paths[1] || paths[0].size() != *finished + 1)
          error = "sparse and dense engines disagree";
        clock.invalidate();
      }
      if (error.empty() && traced) {
        rounds.add(one, t.cal_s / t.raw_s);
        tracer.add({"core.bips_run", i, -1, begin, begin + t.raw_s, t.cal_s});
      }
      if (!error.empty()) {
        ++out.failed;
        fail(out, "op " + std::to_string(i) + ": " + error);
      }
    }
    end_pass(out, totals, traced, &traced_cal);
  });
  checker.finish();

  if (config.trace) {
    Metrics& m = out.layers;
    zero_layers(m);
    m["graph.build_s"] = {build_s, "s"};
    m["graph.load_ms"] = {median(load_ms), "ms"};
    m["graph.csr_mb"] = {csr_mb(*g), "MB"};
    m["rng.sampler_build_ms"] = {median(sampler_ms), "ms"};
    rounds.report(m);
    m["trace.overhead_frac"] = {
        (traced_cal - out.pass_cal_s.front()) / out.pass_cal_s.front(),
        "frac"};
  }
  return out;
}

}  // namespace perfbench
