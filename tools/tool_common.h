// Minimal flag parsing shared by the wtp_* command-line tools.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/telemetry.h"
#include "svm/kernel.h"

namespace wtp::tools {

/// Parses "--key value" pairs and bare "--flag" switches.  Unknown keys are
/// fine (validated by the caller via require/get).
class Args {
 public:
  Args(int argc, char** argv, std::string usage)
      : program_{argv[0]}, usage_{std::move(usage)} {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        die("unexpected positional argument '" + arg + "'");
      }
      arg = arg.substr(2);
      if (arg == "help") die("");
      if (i + 1 < argc && std::string{argv[i + 1]}.rfind("--", 0) != 0) {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "";  // bare switch
      }
    }
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.contains(key);
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  [[nodiscard]] std::string require(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end() || it->second.empty()) {
      die("missing required --" + key + " <value>");
    }
    return it->second;
  }

  [[nodiscard]] double get_double(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }

  [[nodiscard]] long get_int(const std::string& key, long fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stol(it->second);
  }

  [[noreturn]] void die(const std::string& message) const {
    if (!message.empty()) std::fprintf(stderr, "%s: %s\n", program_.c_str(), message.c_str());
    std::fprintf(stderr, "usage: %s %s\n", program_.c_str(), usage_.c_str());
    std::exit(message.empty() ? 0 : 2);
  }

 private:
  std::string program_;
  std::string usage_;
  std::map<std::string, std::string> values_;
};

/// Selects the kernel backend now, so a bad WTP_KERNEL_BACKEND is reported
/// with the usage text (exit 2) instead of failing the first kernel call.
inline void check_kernel_backend(const Args& args) {
  try {
    (void)svm::kernel_backend_name();
  } catch (const std::runtime_error& error) {
    args.die(error.what());
  }
}

/// The scoring tier from WTP_TRANSFORM_MODE ("exact" | "relaxed"; exact
/// when unset or empty) — the one place the variable is read.  Also checks
/// WTP_KERNEL_BACKEND.  An unknown value exits 2 with the usage text.
inline svm::TransformMode scoring_tier(const Args& args) {
  check_kernel_backend(args);
  const char* env = std::getenv("WTP_TRANSFORM_MODE");
  if (env == nullptr || *env == '\0') return svm::TransformMode::kExact;
  try {
    return svm::parse_transform_mode(env);
  } catch (const std::runtime_error&) {
    args.die("WTP_TRANSFORM_MODE: unknown mode '" + std::string{env} +
             "' (want exact|relaxed)");
  }
}

/// A tool's telemetry plane, from its --metrics-out FILE
/// [--metrics-interval S] and --trace-out FILE flags: the global registry
/// with the common and per-kernel metrics registered, a JSON snapshot of it
/// written every S seconds (default 1) and once at finish(), and tracing
/// on while the tool runs.
class Telemetry {
 public:
  explicit Telemetry(const Args& args) : args_{&args} {
    obs::register_common_metrics(registry());
    svm::set_kernel_metrics(&registry());
    if (args.has("metrics-out")) {
      writer_ = std::make_unique<obs::MetricsFileWriter>(
          registry(), args.require("metrics-out"),
          args.get_double("metrics-interval", 1.0));
    }
    if (args.has("trace-out")) obs::TraceRecorder::global().enable();
  }

  [[nodiscard]] static obs::Registry& registry() {
    return obs::Registry::global();
  }

  /// The tool's exit: stops the snapshot writer, writes the trace, and
  /// prints the run summary table to stderr when either flag was given.
  /// Returns `code`, or 1 in place of 0 when the trace could not be written.
  [[nodiscard]] int finish(int code) {
    if (writer_ != nullptr) writer_->stop();
    const bool tracing = args_->has("trace-out");
    if (tracing) {
      obs::TraceRecorder& recorder = obs::TraceRecorder::global();
      recorder.disable();
      if (!obs::write_trace_file(recorder, args_->require("trace-out")) &&
          code == 0) {
        code = 1;
      }
    }
    if (writer_ != nullptr || tracing) {
      std::fprintf(stderr, "%s",
                   obs::summary_table(registry().snapshot(false)).c_str());
    }
    return code;
  }

 private:
  const Args* args_;
  std::unique_ptr<obs::MetricsFileWriter> writer_;
};

/// Runs a tool's body and turns a library exception into `<tool>: <message>`
/// on stderr and exit 1, instead of std::terminate.
inline int run_tool(const char* tool, int (*body)(int, char**), int argc,
                    char** argv) {
  try {
    return body(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s: %s\n", tool, error.what());
    return 1;
  }
}

}  // namespace wtp::tools
