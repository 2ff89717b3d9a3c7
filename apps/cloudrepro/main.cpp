// cloudrepro — scenario-catalog orchestrator CLI.
//
// Stream discipline: stdout carries ONLY the deterministic experiment
// output (canonical summary JSON for `run`, one summary per line for
// `suite`, canonical spec JSON for `describe`). Everything operational —
// cache hit state, executed/resumed counts, progress — goes to stderr.
// That split is what lets CI run a scenario twice and `cmp` the stdout
// bytes regardless of cache state or thread count.
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error,
//             3 campaign interrupted (resumable) — by --max-measurements
//               or by SIGINT/SIGTERM, which flush the journal first.

#include <csignal>

#include <atomic>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/metrics.h"
#include "scenario/registry.h"
#include "scenario/result_store.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/socket.h"
#include "serve/worker.h"

namespace {

// SIGINT/SIGTERM request cooperative cancellation: the campaign stops
// starting new measurements, finishes and journals the in-flight ones,
// closes the journal, and run_one returns 3 (resumable) — the same
// contract as --max-measurements exhaustion. Only async-signal-safe
// atomics are touched in the handler.
volatile std::sig_atomic_t g_signal = 0;
std::atomic<bool> g_cancel{false};

extern "C" void handle_interrupt(int sig) {
  g_signal = sig;
  g_cancel.store(true, std::memory_order_relaxed);
}

void install_signal_handlers() {
  std::signal(SIGINT, handle_interrupt);
  std::signal(SIGTERM, handle_interrupt);
}

using cloudrepro::scenario::ResultStore;
using cloudrepro::scenario::RunOptions;
using cloudrepro::scenario::ScenarioRegistry;
using cloudrepro::scenario::ScenarioSpec;

int usage(std::ostream& os, int code) {
  os << "usage: cloudrepro <command> [options]\n"
        "\n"
        "commands:\n"
        "  list                     catalog scenarios and suites\n"
        "  describe <scenario>      canonical spec JSON (stdout) + shape (stderr)\n"
        "  run <scenario>           run one scenario; summary JSON on stdout\n"
        "  suite <suite>            run every scenario of a suite (one summary per line)\n"
        "  cache stats              list cache entries\n"
        "  cache verify             integrity-check every entry (exit 1 on damage)\n"
        "  cache clear              remove every cache entry\n"
        "  cache evict <scenario>   remove one scenario's entry\n"
        "  serve                    result-serving daemon over the cache (TCP,\n"
        "                           line-delimited JSON; concurrent GETs for an\n"
        "                           uncached scenario run its campaign once)\n"
        "  fetch <scenario>         GET a summary from a running serve daemon;\n"
        "                           stdout bytes identical to `run`\n"
        "  work                     shard worker: pull campaign cells from a\n"
        "                           serve coordinator, run them, push journal\n"
        "                           records back\n"
        "\n"
        "<scenario> is a catalog name, a path ending in .json, or - (stdin).\n"
        "\n"
        "options (run / suite / cache):\n"
        "  --threads N              campaign workers; 0 = all cores (default 0).\n"
        "                           For suite, the N workers are ONE shared\n"
        "                           pool across every member scenario (output\n"
        "                           bytes unchanged)\n"
        "  --seed S                 master seed (default: the scenario's)\n"
        "  --cache-dir PATH         result cache root (default: $CLOUDREPRO_CACHE_DIR\n"
        "                           or .cloudrepro-cache)\n"
        "  --no-cache               run without the result store\n"
        "  --cache-max-bytes N      LRU-evict cache entries to keep the cache\n"
        "                           under N bytes (0 = unbounded, the default)\n"
        "  --max-measurements N     stop after N new measurements (journal resumes)\n"
        "  --adaptive               adaptive CONFIRM stopping: each cell runs until\n"
        "                           its quantile-CI relative half-width meets the\n"
        "                           scenario's confirm.error_bound (repetitions\n"
        "                           becomes a cap); changes the content hash, so it\n"
        "                           caches separately (run / suite / describe /\n"
        "                           cache evict)\n"
        "  --error-bound B          override confirm.error_bound (implies --adaptive)\n"
        "  --out FILE               write the summary to FILE instead of stdout\n"
        "  --csv FILE               write config,treatment,repetition,value CSV; for\n"
        "                           suite, one file with every member's rows under\n"
        "                           a leading scenario column\n"
        "\n"
        "options (serve):\n"
        "  --listen HOST:PORT       bind address (default 127.0.0.1:9119;\n"
        "                           port 0 = ephemeral, printed on stderr)\n"
        "  --max-connections N      connection table bound (default 64)\n"
        "  --max-inflight N         concurrent campaign bound; GETs beyond it\n"
        "                           get a \"busy\" error (default 16)\n"
        "\n"
        "options (fetch):\n"
        "  --server HOST:PORT       serve daemon address (default 127.0.0.1:9119)\n"
        "  --list                   print the server's catalog + cache (JSON)\n"
        "  --stats                  print the server's metrics snapshot (JSON)\n"
        "  --timeout SECS           per-request wall-clock budget (default 600);\n"
        "                           a hung server exits 3 (retryable)\n"
        "\n"
        "options (work):\n"
        "  --coordinator HOST:PORT  serve daemon to pull assignments from\n"
        "                           (default 127.0.0.1:9119)\n"
        "  --worker-id NAME         worker name in coordinator logs\n"
        "                           (default worker-<pid>)\n"
        "  --threads T              threads per assigned cell (default 1)\n"
        "  --max-idle N             exit after N consecutive idle polls\n"
        "                           (default 0 = keep polling until signalled)\n";
  return code;
}

struct Cli {
  int threads = 0;
  std::optional<std::uint64_t> seed;
  std::filesystem::path cache_dir;
  bool no_cache = false;
  std::uint64_t cache_max_bytes = 0;
  int max_measurements = 0;
  bool adaptive = false;
  std::optional<double> error_bound;
  std::string out_path;
  std::string csv_path;
  std::string listen = "127.0.0.1:9119";
  std::string server = "127.0.0.1:9119";
  int max_connections = 64;
  int max_inflight = 16;
  bool fetch_list = false;
  bool fetch_stats = false;
  std::string coordinator = "127.0.0.1:9119";
  std::string worker_id;
  int max_idle = 0;
  int timeout_s = 600;
  std::vector<std::string> positional;
};

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  std::uint64_t value = 0;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

std::optional<int> parse_int(std::string_view text) {
  int value = 0;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || value < 0) return std::nullopt;
  return value;
}

/// Parses everything after the command name. Returns false on a bad flag
/// (message already printed).
bool parse_cli(int argc, char** argv, int first, Cli& cli) {
  const auto need = [&](int i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "cloudrepro: " << argv[i] << " needs a value\n";
      return nullptr;
    }
    return argv[i + 1];
  };
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--threads") {
      const char* v = need(i);
      if (!v) return false;
      const auto n = parse_int(v);
      if (!n) {
        std::cerr << "cloudrepro: bad --threads \"" << v << "\"\n";
        return false;
      }
      cli.threads = *n;
      ++i;
    } else if (arg == "--seed") {
      const char* v = need(i);
      if (!v) return false;
      const auto s = parse_u64(v);
      if (!s) {
        std::cerr << "cloudrepro: bad --seed \"" << v << "\"\n";
        return false;
      }
      cli.seed = *s;
      ++i;
    } else if (arg == "--cache-dir") {
      const char* v = need(i);
      if (!v) return false;
      cli.cache_dir = v;
      ++i;
    } else if (arg == "--no-cache") {
      cli.no_cache = true;
    } else if (arg == "--cache-max-bytes") {
      const char* v = need(i);
      if (!v) return false;
      const auto n = parse_u64(v);
      if (!n) {
        std::cerr << "cloudrepro: bad --cache-max-bytes \"" << v << "\"\n";
        return false;
      }
      cli.cache_max_bytes = *n;
      ++i;
    } else if (arg == "--max-measurements") {
      const char* v = need(i);
      if (!v) return false;
      const auto n = parse_int(v);
      if (!n) {
        std::cerr << "cloudrepro: bad --max-measurements \"" << v << "\"\n";
        return false;
      }
      cli.max_measurements = *n;
      ++i;
    } else if (arg == "--adaptive") {
      cli.adaptive = true;
    } else if (arg == "--error-bound") {
      const char* v = need(i);
      if (!v) return false;
      char* end = nullptr;
      const double b = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(b > 0.0)) {
        std::cerr << "cloudrepro: bad --error-bound \"" << v << "\"\n";
        return false;
      }
      cli.error_bound = b;
      cli.adaptive = true;
      ++i;
    } else if (arg == "--out") {
      const char* v = need(i);
      if (!v) return false;
      cli.out_path = v;
      ++i;
    } else if (arg == "--csv") {
      const char* v = need(i);
      if (!v) return false;
      cli.csv_path = v;
      ++i;
    } else if (arg == "--listen") {
      const char* v = need(i);
      if (!v) return false;
      cli.listen = v;
      ++i;
    } else if (arg == "--server") {
      const char* v = need(i);
      if (!v) return false;
      cli.server = v;
      ++i;
    } else if (arg == "--max-connections") {
      const char* v = need(i);
      if (!v) return false;
      const auto n = parse_int(v);
      if (!n || *n == 0) {
        std::cerr << "cloudrepro: bad --max-connections \"" << v << "\"\n";
        return false;
      }
      cli.max_connections = *n;
      ++i;
    } else if (arg == "--max-inflight") {
      const char* v = need(i);
      if (!v) return false;
      const auto n = parse_int(v);
      if (!n || *n == 0) {
        std::cerr << "cloudrepro: bad --max-inflight \"" << v << "\"\n";
        return false;
      }
      cli.max_inflight = *n;
      ++i;
    } else if (arg == "--list") {
      cli.fetch_list = true;
    } else if (arg == "--stats") {
      cli.fetch_stats = true;
    } else if (arg == "--coordinator") {
      const char* v = need(i);
      if (!v) return false;
      cli.coordinator = v;
      ++i;
    } else if (arg == "--worker-id") {
      const char* v = need(i);
      if (!v) return false;
      cli.worker_id = v;
      ++i;
    } else if (arg == "--max-idle") {
      const char* v = need(i);
      if (!v) return false;
      const auto n = parse_int(v);
      if (!n) {
        std::cerr << "cloudrepro: bad --max-idle \"" << v << "\"\n";
        return false;
      }
      cli.max_idle = *n;
      ++i;
    } else if (arg == "--timeout") {
      const char* v = need(i);
      if (!v) return false;
      const auto n = parse_int(v);
      if (!n || *n == 0) {
        std::cerr << "cloudrepro: bad --timeout \"" << v << "\"\n";
        return false;
      }
      cli.timeout_s = *n;
      ++i;
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout, 0);
      std::exit(0);
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "cloudrepro: unknown option \"" << arg << "\"\n";
      return false;
    } else {
      cli.positional.emplace_back(arg);
    }
  }
  return true;
}

std::filesystem::path cache_root(const Cli& cli) {
  if (!cli.cache_dir.empty()) return cli.cache_dir;
  if (const char* env = std::getenv("CLOUDREPRO_CACHE_DIR"); env && *env) {
    return env;
  }
  return ".cloudrepro-cache";
}

ResultStore make_store(const Cli& cli) {
  ResultStore::Options options;
  options.max_bytes = cli.cache_max_bytes;
  return ResultStore{cache_root(cli), nullptr, nullptr, options};
}

/// Resolves a scenario argument: catalog name, path to a spec JSON file
/// (anything ending in .json), or "-" for stdin.
ScenarioSpec resolve_scenario(const std::string& arg) {
  if (arg == "-") {
    std::ostringstream text;
    text << std::cin.rdbuf();
    return ScenarioSpec::parse(text.str());
  }
  if (arg.size() > 5 && arg.compare(arg.size() - 5, 5, ".json") == 0) {
    std::ifstream in{arg, std::ios::binary};
    if (!in) throw std::runtime_error{"cannot open scenario file \"" + arg + "\""};
    std::ostringstream text;
    text << in.rdbuf();
    return ScenarioSpec::parse(text.str());
  }
  return ScenarioRegistry::builtin().at(arg);
}

/// Applies `--adaptive` / `--error-bound` to a resolved spec. Mutating the
/// ConfirmSpec changes the content hash, so an adaptive run caches under its
/// own key and never collides with the fixed-repetition entry.
ScenarioSpec apply_overrides(ScenarioSpec spec, const Cli& cli) {
  if (cli.adaptive) {
    spec.confirm.enabled = true;
    spec.confirm.adaptive = true;
  }
  if (cli.error_bound) spec.confirm.error_bound = *cli.error_bound;
  return spec;
}

void emit(const std::string& out_path, const std::string& payload) {
  if (out_path.empty()) {
    std::cout << payload << "\n";
    return;
  }
  std::ofstream out{out_path, std::ios::binary | std::ios::trunc};
  if (!out) throw std::runtime_error{"cannot write \"" + out_path + "\""};
  out << payload << "\n";
}

RunOptions run_options(const Cli& cli, ResultStore* store) {
  RunOptions options;
  options.threads = cli.threads;
  options.seed = cli.seed;
  options.store = store;
  options.max_measurements = cli.max_measurements;
  options.need_values = !cli.csv_path.empty();
  options.cancel = &g_cancel;
  return options;
}

/// Reports the scenarios of a `run` or `suite`: their operational lines on
/// stderr and, with --csv, their values. The CSV file is opened once: a
/// suite writes every member's rows under one header, each led by the
/// member's scenario name.
class Reporter {
 public:
  Reporter(const Cli& cli, bool cache_enabled, bool suite)
      : cli_(cli), cache_enabled_(cache_enabled), suite_(suite) {
    if (cli.csv_path.empty()) return;
    csv_.open(cli.csv_path, std::ios::binary | std::ios::trunc);
    if (!csv_) throw std::runtime_error{"cannot write \"" + cli.csv_path + "\""};
  }

  void started(const ScenarioSpec& spec) const {
    std::cerr << "cloudrepro: " << spec.name << " hash=" << spec.content_hash()
              << " seed=" << cli_.seed.value_or(spec.seed) << "\n";
  }

  void finished(const ScenarioSpec& spec,
                const cloudrepro::scenario::ScenarioRunResult& result) {
    std::cerr << "cloudrepro: cache " << ResultStore::to_string(result.hit_state)
              << (cache_enabled_ ? "" : " (disabled)") << ", executed "
              << result.executed_measurements << ", resumed "
              << result.resumed_measurements << " of "
              << result.total_measurements << " measurements\n";
    if (!csv_.is_open()) return;
    if (!suite_) {
      result.campaign.write_csv(csv_);
      return;
    }
    std::ostringstream text;
    result.campaign.write_csv(text);
    std::istringstream rows{text.str()};
    std::string line;
    std::getline(rows, line);  // The header.
    if (!wrote_header_) csv_ << "scenario," << line << "\n";
    wrote_header_ = true;
    while (std::getline(rows, line)) csv_ << spec.name << ',' << line << "\n";
  }

 private:
  const Cli& cli_;
  bool cache_enabled_;
  bool suite_;
  std::ofstream csv_;
  bool wrote_header_ = false;
};

/// Runs one scenario and emits its summary. Returns 0 (complete) or 3
/// (interrupted, resumable).
int run_one(const ScenarioSpec& spec, const Cli& cli, ResultStore* store) {
  Reporter report{cli, store != nullptr, /*suite=*/false};
  report.started(spec);
  const auto result =
      cloudrepro::scenario::run_scenario(spec, run_options(cli, store));
  report.finished(spec, result);
  emit(cli.out_path, result.summary);

  if (!result.complete) {
    if (g_signal != 0) {
      std::cerr << "cloudrepro: interrupted by "
                << (g_signal == SIGTERM ? "SIGTERM" : "SIGINT")
                << "; journal flushed, rerun the same command to resume\n";
    } else {
      std::cerr << "cloudrepro: interrupted by --max-measurements; rerun the "
                   "same command to resume\n";
    }
    return 3;
  }
  return 0;
}

int cmd_list() {
  const auto& registry = ScenarioRegistry::builtin();
  std::size_t width = 4;
  for (const auto& spec : registry.scenarios()) {
    width = std::max(width, spec.name.size());
  }
  std::cout << std::left << std::setw(static_cast<int>(width) + 2) << "NAME"
            << std::setw(7) << "CELLS" << std::setw(7) << "MEAS"
            << std::setw(12) << "PAPER" << "TITLE\n";
  for (const auto& spec : registry.scenarios()) {
    std::cout << std::left << std::setw(static_cast<int>(width) + 2) << spec.name
              << std::setw(7) << spec.cell_count() << std::setw(7)
              << spec.total_measurements() << std::setw(12) << spec.paper_ref
              << spec.title << "\n";
  }
  std::cout << "\nsuites:\n";
  for (const auto& [name, members] : registry.suites()) {
    std::cout << "  " << name << ":";
    for (const auto& member : members) std::cout << " " << member;
    std::cout << "\n";
  }
  return 0;
}

int cmd_describe(const Cli& cli) {
  if (cli.positional.size() != 1) {
    std::cerr << "cloudrepro: describe needs exactly one scenario\n";
    return 2;
  }
  const ScenarioSpec spec =
      apply_overrides(resolve_scenario(cli.positional.front()), cli);
  std::cerr << "cloudrepro: " << spec.name << " — " << spec.title << "\n"
            << "cloudrepro: hash=" << spec.content_hash()
            << " seed=" << spec.seed << "\n"
            << "cloudrepro: " << spec.workloads.size() << " workloads x "
            << spec.treatment_count() << " treatments x " << spec.repetitions
            << " repetitions = " << spec.total_measurements()
            << " measurements\n";
  emit(cli.out_path, spec.canonical_json());
  return 0;
}

int cmd_run(const Cli& cli) {
  if (cli.positional.size() != 1) {
    std::cerr << "cloudrepro: run needs exactly one scenario\n";
    return 2;
  }
  const ScenarioSpec spec =
      apply_overrides(resolve_scenario(cli.positional.front()), cli);
  std::optional<ResultStore> store;
  if (!cli.no_cache) store.emplace(make_store(cli));
  return run_one(spec, cli, store ? &*store : nullptr);
}

int cmd_suite(const Cli& cli) {
  if (cli.positional.size() != 1) {
    std::cerr << "cloudrepro: suite needs exactly one suite name\n";
    return 2;
  }
  const auto& registry = ScenarioRegistry::builtin();
  const auto& members = registry.suite(cli.positional.front());
  std::optional<ResultStore> store;
  if (!cli.no_cache) store.emplace(make_store(cli));

  std::vector<ScenarioSpec> specs;
  specs.reserve(members.size());
  for (const auto& member : members) {
    specs.push_back(apply_overrides(registry.at(member), cli));
  }

  // Summaries stream to the sink as each member's prefix completes — a
  // suite interrupted at member k still has k complete summary lines on
  // disk / in the pipe, and a long suite shows progress instead of
  // buffering everything for one final write. With --threads N the members
  // share one pool (one thread budget for the whole suite), but emission
  // stays in member order, so the bytes are identical to the serial
  // reference: one canonical summary per line.
  std::ofstream out_file;
  if (!cli.out_path.empty()) {
    out_file.open(cli.out_path, std::ios::binary | std::ios::trunc);
    if (!out_file) {
      throw std::runtime_error{"cannot write \"" + cli.out_path + "\""};
    }
  }
  std::ostream& sink = cli.out_path.empty() ? std::cout : out_file;

  int rc = 0;
  Reporter report{cli, store.has_value(), /*suite=*/true};
  const auto on_member =
      [&](std::size_t i, const cloudrepro::scenario::ScenarioRunResult& result) {
        report.started(specs[i]);
        report.finished(specs[i], result);
        sink << result.summary << "\n" << std::flush;
        if (!result.complete) rc = 3;
      };

  cloudrepro::scenario::run_suite(specs, run_options(cli, store ? &*store : nullptr),
                                  on_member);
  if (g_cancel.load(std::memory_order_relaxed)) {
    std::cerr << "cloudrepro: suite interrupted; rerun to resume from the "
                 "cache\n";
  }
  return rc;
}

int cmd_cache(const Cli& cli) {
  if (cli.positional.empty()) {
    std::cerr << "cloudrepro: cache needs a subcommand (stats|verify|clear|evict)\n";
    return 2;
  }
  ResultStore store = make_store(cli);
  const std::string& sub = cli.positional.front();
  if (sub == "stats") {
    const auto entries = store.entries();
    std::cerr << "cloudrepro: cache root " << store.root().string() << ", "
              << entries.size() << " entries\n";
    for (const auto& entry : entries) {
      std::cout << entry.key << " "
                << (entry.complete ? "complete" : "partial") << " "
                << entry.journal_measurements << " measurements " << entry.bytes
                << " bytes\n";
    }
    return 0;
  }
  if (sub == "verify") {
    const auto reports = store.verify();
    int rc = 0;
    for (const auto& report : reports) {
      std::cout << report.key << " " << (report.ok ? "ok" : "CORRUPT")
                << (report.note.empty() ? "" : " (" + report.note + ")")
                << "\n";
      if (!report.ok) rc = 1;
    }
    std::cerr << "cloudrepro: verified " << reports.size() << " entries\n";
    return rc;
  }
  if (sub == "clear") {
    const auto removed = store.clear();
    std::cerr << "cloudrepro: evicted " << removed << " entries\n";
    return 0;
  }
  if (sub == "evict") {
    if (cli.positional.size() != 2) {
      std::cerr << "cloudrepro: cache evict needs exactly one scenario\n";
      return 2;
    }
    const ScenarioSpec spec =
        apply_overrides(resolve_scenario(cli.positional[1]), cli);
    const auto removed = store.evict(spec, cli.seed.value_or(spec.seed));
    std::cerr << "cloudrepro: evicted " << removed << " entries\n";
    return 0;
  }
  std::cerr << "cloudrepro: unknown cache subcommand \"" << sub << "\"\n";
  return 2;
}

int cmd_serve(const Cli& cli) {
  namespace serve = cloudrepro::serve;
  if (!cli.positional.empty()) {
    std::cerr << "cloudrepro: serve takes no positional arguments\n";
    return 2;
  }
  if (cli.no_cache) {
    std::cerr << "cloudrepro: serve needs the result cache (drop --no-cache)\n";
    return 2;
  }
  const auto [host, port] = serve::parse_endpoint(cli.listen);

  cloudrepro::obs::MetricsRegistry metrics;
  ResultStore::Options store_options;
  store_options.max_bytes = cli.cache_max_bytes;
  ResultStore store{cache_root(cli), &metrics, nullptr, store_options};

  serve::ServeOptions options;
  options.max_connections = static_cast<std::size_t>(cli.max_connections);
  options.max_inflight = static_cast<std::size_t>(cli.max_inflight);
  options.campaign_threads = cli.threads;

  serve::ServerCore core{store, metrics, options};
  serve::SocketServer socket_server{core, host, port};
  // The smoke scripts grep this exact line for the resolved ephemeral port.
  std::cerr << "cloudrepro: serving on " << host << ":" << socket_server.port()
            << " (cache " << store.root().string() << ")\n"
            << std::flush;
  socket_server.run(g_cancel);
  std::cerr << "cloudrepro: serve shut down cleanly\n";
  return 0;
}

int cmd_fetch(const Cli& cli) {
  namespace serve = cloudrepro::serve;
  const auto [host, port] = serve::parse_endpoint(cli.server);
  serve::FetchClient::Options client_options;
  client_options.timeout = std::chrono::seconds{cli.timeout_s};
  serve::FetchClient client{serve::connect_tcp(host, port), client_options};

  if (cli.fetch_list || cli.fetch_stats) {
    if (!cli.positional.empty()) {
      std::cerr << "cloudrepro: fetch --list/--stats takes no scenario\n";
      return 2;
    }
    const serve::Response response =
        cli.fetch_list ? client.list() : client.stats();
    if (!response.ok) {
      std::cerr << "cloudrepro: fetch failed: " << response.error_code << ": "
                << response.error_message << "\n";
      return 1;
    }
    emit(cli.out_path, response.body);
    return 0;
  }

  if (cli.positional.size() != 1) {
    std::cerr << "cloudrepro: fetch needs exactly one scenario "
                 "(or --list/--stats)\n";
    return 2;
  }
  const ScenarioSpec spec =
      apply_overrides(resolve_scenario(cli.positional.front()), cli);
  std::cerr << "cloudrepro: fetch " << spec.name << " hash="
            << spec.content_hash() << " seed=" << cli.seed.value_or(spec.seed)
            << " from " << host << ":" << port << "\n";
  const serve::Response response = client.get(spec, cli.seed);
  if (!response.ok) {
    std::cerr << "cloudrepro: fetch failed: " << response.error_code << ": "
              << response.error_message << "\n";
    // "busy" mirrors the interrupted/resumable contract: retry later.
    return response.error_code == "busy" ? 3 : 1;
  }
  std::cerr << "cloudrepro: served " << response.hit << "\n";
  // The summary bytes are the stored canonical document, so this stdout is
  // byte-identical to `cloudrepro run` of the same (scenario, seed).
  emit(cli.out_path, response.summary);
  return 0;
}

int cmd_work(const Cli& cli) {
  namespace serve = cloudrepro::serve;
  if (!cli.positional.empty()) {
    std::cerr << "cloudrepro: work takes no positional arguments\n";
    return 2;
  }
  const auto [host, port] = serve::parse_endpoint(cli.coordinator);

  serve::WorkerOptions options;
  options.name = cli.worker_id.empty()
                     ? "worker-" + std::to_string(::getpid())
                     : cli.worker_id;
  options.threads = std::max(1, cli.threads);
  options.max_idle_polls = cli.max_idle;
  options.cancel = &g_cancel;
  options.on_event = [](const std::string& line) {
    std::cerr << "cloudrepro: " << line << "\n" << std::flush;
  };

  // Outer loop: (re)connect and run the pull/push loop. Reconnecting after
  // transport loss keeps a worker useful across coordinator restarts; the
  // dial retries cover workers started before the coordinator is listening
  // (the CI ordering).
  int dials_left = 100;
  for (;;) {
    if (g_cancel.load(std::memory_order_relaxed)) return 3;
    std::unique_ptr<serve::SocketTransport> transport;
    try {
      transport = serve::connect_tcp(host, port);
    } catch (const std::exception& error) {
      if (--dials_left <= 0) {
        std::cerr << "cloudrepro: cannot reach coordinator " << host << ":"
                  << port << ": " << error.what() << "\n";
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      continue;
    }
    // The smoke scripts wait for this exact line before fetching.
    std::cerr << "cloudrepro: worker " << options.name << " connected to "
              << host << ":" << port << "\n"
              << std::flush;
    try {
      const serve::WorkerStats stats =
          serve::run_worker(std::move(transport), options);
      std::cerr << "cloudrepro: worker " << options.name << " done: "
                << stats.cells_completed << " cells completed, "
                << stats.cells_partial << " partial, " << stats.records_pushed
                << " records pushed\n";
      return g_cancel.load(std::memory_order_relaxed) ? 3 : 0;
    } catch (const std::exception& error) {
      if (g_cancel.load(std::memory_order_relaxed)) return 3;
      std::cerr << "cloudrepro: worker connection lost (" << error.what()
                << "); reconnecting\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(std::cerr, 2);
  const std::string_view command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    return usage(std::cout, 0);
  }

  Cli cli;
  if (!parse_cli(argc, argv, 2, cli)) return 2;

  try {
    if (command == "list") return cmd_list();
    if (command == "describe") return cmd_describe(cli);
    if (command == "run") {
      install_signal_handlers();
      return cmd_run(cli);
    }
    if (command == "suite") {
      install_signal_handlers();
      return cmd_suite(cli);
    }
    if (command == "cache") return cmd_cache(cli);
    if (command == "serve") {
      install_signal_handlers();
      return cmd_serve(cli);
    }
    if (command == "fetch") return cmd_fetch(cli);
    if (command == "work") {
      install_signal_handlers();
      return cmd_work(cli);
    }
    std::cerr << "cloudrepro: unknown command \"" << command << "\"\n";
    return usage(std::cerr, 2);
  } catch (const cloudrepro::serve::FetchTimeout& error) {
    // Deadline, not failure: the server may still be computing. Exit 3
    // mirrors the interrupted/resumable contract — retry later.
    std::cerr << "cloudrepro: " << error.what() << "\n";
    return 3;
  } catch (const std::exception& error) {
    std::cerr << "cloudrepro: " << error.what() << "\n";
    return 1;
  }
}
