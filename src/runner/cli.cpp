#include "runner/cli.hpp"

#include <chrono>
#include <exception>
#include <filesystem>
#include <iostream>
#include <thread>
#include <vector>

#include "runner/graph_cmd.hpp"
#include "runner/options.hpp"
#include "runner/registry.hpp"
#include "runner/supervisor.hpp"
#include "runner/sweep.hpp"
#include "runner/telemetry.hpp"
#include "util/env.hpp"

namespace cobra::runner {

namespace {

std::vector<const ExperimentDef*> select_experiments(
    const RunnerOptions& options, const std::vector<std::string>& names,
    std::string& error) {
  std::vector<const ExperimentDef*> selected;
  if (!names.empty()) {
    for (const std::string& name : names) {
      const ExperimentDef* def = Registry::instance().find(name);
      if (def == nullptr) {
        error = "unknown experiment: " + name + " (try `cobra list`)";
        return {};
      }
      selected.push_back(def);
    }
    return selected;
  }
  selected = Registry::instance().match(options.filter);
  if (selected.empty()) {
    error = options.filter.empty()
                ? std::string("no experiments registered")
                : "no experiment matches --filter " + options.filter;
  }
  return selected;
}

int cmd_list(const RunnerOptions& options) {
  for (const ExperimentDef* def : Registry::instance().match(
           options.filter)) {
    std::cout << def->name << "  (" << def->cells().size() << " cells)\n"
              << "    " << def->description << '\n';
  }
  return 0;
}

int cmd_run(const RunnerOptions& options,
            const std::vector<std::string>& names) {
  std::string error;
  const auto selected = select_experiments(options, names, error);
  if (selected.empty()) {
    std::cerr << "cobra: " << error << '\n';
    return 2;
  }

  if (options.list) {
    // Dry run: show the cells this invocation would execute.
    for (const ExperimentDef* def : selected) {
      const auto cells = def->cells();
      const auto slice = slice_for(cells, options.shard_index,
                                   options.shard_count, options.costs);
      std::cout << def->name << " shard " << options.shard_index << "/"
                << options.shard_count << ": " << slice.size() << " of "
                << cells.size() << " cells\n";
      for (const std::size_t index : slice)
        std::cout << "  [" << index << "] " << cells[index].id << '\n';
    }
    return 0;
  }

  bool all_complete = true;
  for (const ExperimentDef* def : selected) {
    SweepConfig config;
    config.out_dir = options.out_dir;
    config.shard_index = options.shard_index;
    config.shard_count = options.shard_count;
    config.resume = options.resume;
    config.max_cells = options.max_cells;
    config.console = true;
    config.log = &std::cout;
    config.costs_path = options.costs;
    const SweepResult result = run_experiment(*def, config);
    std::cout << def->name << ": " << result.cells_run << " run, "
              << result.cells_skipped << " resumed, "
              << result.cells_remaining << " remaining";
    if (result.cells_run > 0)
      std::cout << " (" << format_wall_time(result.wall_us_run)
                << " cell wall time)";
    std::cout << '\n';
    all_complete = all_complete && result.complete();
  }
  return all_complete ? 0 : 3;  // 3: interrupted by --max-cells
}

int cmd_sweep(const RunnerOptions& options,
              const std::vector<std::string>& names) {
  if (options.status) {
    // Fleet view of an existing run directory; spawns nothing.
    if (render_fleet_status(options.out_dir, std::cout) == 0) {
      std::cerr << "cobra: no run journals under " << options.out_dir
                << '\n';
      return 2;
    }
    return 0;
  }
  std::string error;
  const auto selected = select_experiments(options, names, error);
  if (selected.empty()) {
    std::cerr << "cobra: " << error << '\n';
    return 2;
  }
  if (options.shard_count != 1 || options.resume ||
      options.max_cells >= 0) {
    std::cerr << "cobra: sweep manages --shard/--resume/--max-cells "
                 "itself; drop them (see --help)\n";
    return 2;
  }
  const int workers = options.jobs > 0 ? options.jobs : 2;

  if (options.list) {
    // Dry run: show how the sweep would slice its shards, run nothing.
    for (const ExperimentDef* def : selected) {
      const auto cells = def->cells();
      const auto costs = cell_costs(cells, options.costs);
      const auto partition = partition_for(cells.size(), workers, costs);
      std::cout << def->name << " sweep -j " << workers << " ("
                << (costs.empty()
                        ? std::string("round-robin slices")
                        : "cost-weighted slices from " + options.costs)
                << "):\n";
      for (int i = 1; i <= workers; ++i) {
        const auto& slice = partition[static_cast<std::size_t>(i - 1)];
        std::cout << "  shard " << i << "/" << workers << ": "
                  << slice.size() << " of " << cells.size() << " cells\n";
        for (const std::size_t index : slice)
          std::cout << "    [" << index << "] " << cells[index].id << '\n';
      }
    }
    return 0;
  }

  // The workers are this very binary, re-invoked as `cobra run ...`.
  std::error_code ec;
  const auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) {
    std::cerr << "cobra: cannot resolve own binary path for sweep "
                 "workers: " << ec.message() << '\n';
    return 1;
  }

  for (const ExperimentDef* def : selected) {
    SupervisorConfig config;
    config.out_dir = options.out_dir;
    config.workers = workers;
    config.worker_binary = self.string();
    config.costs_path = options.costs;
    config.heartbeat_timeout_s = options.heartbeat_timeout;
    config.max_restarts = options.max_restarts;
    config.inject_kill_shard = options.inject_kill;
    if (options.threads) {
      config.worker_args = {"--threads",
                            std::to_string(*options.threads)};
    }
    config.log = &std::cout;
    const SupervisorResult result = supervise_experiment(*def, config);
    std::cout << def->name << ": swept by " << result.workers
              << " workers (" << result.restarts_total << " respawns, "
              << result.wedges_total << " wedges); merged "
              << result.merge.cells << " cells, "
              << format_wall_time(result.merge.total_wall_us)
              << " cell wall time";
    if (!result.merge.slowest.empty()) {
      std::cout << "; slowest:";
      for (std::size_t i = 0; i < result.merge.slowest.size(); ++i) {
        std::cout << (i ? ", " : " ") << result.merge.slowest[i].first
                  << " (" << format_wall_time(result.merge.slowest[i].second)
                  << ")";
      }
    }
    std::cout << '\n';
  }
  return 0;
}

int cmd_top(const RunnerOptions& options,
            const std::vector<std::string>& names) {
  // `cobra top <out-dir>`: the directory may come positionally or via
  // --out-dir; positional wins.
  const std::string out_dir = names.empty() ? options.out_dir : names[0];
  for (;;) {
    if (render_fleet_status(out_dir, std::cout) == 0) {
      std::cerr << "cobra: no run journals under " << out_dir << '\n';
      return 2;
    }
    if (options.watch <= 0) return 0;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options.watch));
    std::cout << "---\n";
  }
}

int cmd_report(const RunnerOptions& options,
               const std::vector<std::string>& names) {
  const std::string out_dir = names.empty() ? options.out_dir : names[0];
  if (render_metrics_report(out_dir, std::cout) == 0) {
    std::cerr << "cobra: no metrics sidecars under " << out_dir
              << " (run with --metrics summary|rounds to archive them)\n";
    return 2;
  }
  return 0;
}

int cmd_merge(const RunnerOptions& options,
              const std::vector<std::string>& names) {
  std::string error;
  const auto selected = select_experiments(options, names, error);
  if (selected.empty()) {
    std::cerr << "cobra: " << error << '\n';
    return 2;
  }
  for (const ExperimentDef* def : selected)
    merge_experiment(*def, options.out_dir, &std::cout);
  return 0;
}

}  // namespace

int cli_main(int argc, const char* const* argv) {
  RunnerOptions options;
  std::vector<std::string> args(argv, argv + argc);
  if (const auto error = parse_args(args, options)) {
    std::cerr << "cobra: " << *error << '\n';
    return 2;
  }
  if (options.help ||
      (options.positional.empty() && !options.list)) {
    std::cout << usage();
    return options.help ? 0 : 2;
  }

  apply_env_overrides(options);

  std::string command = "run";
  std::vector<std::string> names = options.positional;
  if (!names.empty() &&
      (names[0] == "list" || names[0] == "run" || names[0] == "sweep" ||
       names[0] == "merge" || names[0] == "graph" || names[0] == "top" ||
       names[0] == "report")) {
    command = names[0];
    names.erase(names.begin());
  }

  try {
    if (command == "list") return cmd_list(options);
    if (command == "sweep") return cmd_sweep(options, names);
    if (command == "merge") return cmd_merge(options, names);
    if (command == "graph") return cmd_graph(options, names);
    if (command == "top") return cmd_top(options, names);
    if (command == "report") return cmd_report(options, names);
    // `cobra run [NAME...] --list` dry-runs the cell selection (all
    // experiments when no NAME) in cmd_run; `cobra list` is the
    // experiment catalogue.
    return cmd_run(options, names);
  } catch (const std::exception& e) {
    std::cerr << "cobra: " << e.what() << '\n';
    return 1;
  }
}

}  // namespace cobra::runner
