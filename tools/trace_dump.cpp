// trace_dump: run one seeded chaos campaign with structured tracing on and
// export the observability artifacts.
//
//   trace_dump --seed 7 --ftm PBR --delta on -o trace.json
//   trace_dump --seed 3 --ftm PBR --transition-to LFR -o trace.json
//              --metrics-out metrics.jsonl    (one command line)
//
// The trace is Chrome trace_event JSON — load it in chrome://tracing or
// https://ui.perfetto.dev. Each simulated host is a process row; request
// spans share a tid derived from the trace id, so one client request lines
// up with its Before/Proceed/After kernel phases across hosts. The metrics
// file is one JSON object per line (the bench_* convention): every counter,
// gauge and histogram the run touched, scoped by campaign label.
//
// Byte-determinism: the same seed and options produce byte-identical trace
// and metrics files, so artifacts can be diffed across code revisions.
//
// --check FILE (or `-` for stdin) validates an exported trace instead of
// producing one: the input must be complete, syntactically valid JSON with
// a top-level "traceEvents" array. Truncated or non-trace input fails with
// a one-line diagnostic and a nonzero exit, never undefined behavior.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "rcs/common/logging.hpp"
#include "rcs/core/chaos_campaign.hpp"
#include "runner_common.hpp"

namespace {

using rcs::tools::write_file;

struct Args {
  std::uint64_t seed{1};
  std::string ftm{"PBR"};
  std::string delta{"on"};
  std::string transition_to;
  std::string trace_out;    // empty: stdout
  std::string metrics_out;  // empty: none; `-`: stdout
  std::string check;  // validate this trace file (`-` = stdin) and exit
};

constexpr const char* kUsage =
    "usage: trace_dump [--seed S] [--ftm NAME] [--delta on|off]\n"
    "                  [--transition-to NAME] [-o|--trace-out FILE]\n"
    "                  [--metrics-out FILE|-]\n"
    "       trace_dump --check FILE|-\n"
    "\n"
    "Runs one traced chaos campaign and writes Chrome trace_event JSON\n"
    "(stdout by default) plus an optional JSON-lines metrics summary.\n"
    "--check validates a previously exported trace (`-` reads stdin):\n"
    "exit 0 iff the input is complete JSON with a traceEvents array.";

// --- Minimal JSON validator (for --check) ----------------------------------
//
// Recursive-descent syntax scan over the raw bytes: no DOM, bounded depth.
// On success, `events` holds the element count of the top-level
// "traceEvents" array (-1 if the key is absent).

struct JsonScan {
  const char* p;
  const char* end;
  std::string error;   // empty = ok so far
  long events{-1};
  int depth{0};

  static constexpr int kMaxDepth = 64;

  bool fail(const char* what) {
    if (error.empty()) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s at byte %zu", what,
                    static_cast<std::size_t>(p - begin));
      error = buf;
    }
    return false;
  }
  const char* begin{nullptr};

  void skip_ws() {
    while (p < end &&
           (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }

  bool value();

  bool literal(const char* text) {
    const std::size_t n = std::strlen(text);
    if (static_cast<std::size_t>(end - p) < n ||
        std::memcmp(p, text, n) != 0) {
      return fail("invalid literal");
    }
    p += n;
    return true;
  }

  bool string(std::string* out = nullptr) {
    if (p >= end || *p != '"') return fail("expected string");
    ++p;
    while (p < end && *p != '"') {
      if (*p == '\\') {
        ++p;
        if (p >= end) break;
      }
      if (out != nullptr) out->push_back(*p);
      ++p;
    }
    if (p >= end) return fail("unterminated string (truncated input?)");
    ++p;  // closing quote
    return true;
  }

  bool number() {
    const char* start = p;
    if (p < end && (*p == '-' || *p == '+')) ++p;
    while (p < end && ((*p >= '0' && *p <= '9') || *p == '.' || *p == 'e' ||
                       *p == 'E' || *p == '-' || *p == '+')) {
      ++p;
    }
    if (p == start) return fail("expected number");
    return true;
  }

  bool array(long* count = nullptr) {
    ++p;  // '['
    if (++depth > kMaxDepth) return fail("nesting too deep");
    long n = 0;
    skip_ws();
    if (p < end && *p == ']') {
      ++p;
      --depth;
      if (count != nullptr) *count = 0;
      return true;
    }
    while (true) {
      if (!value()) return false;
      ++n;
      skip_ws();
      if (p >= end) return fail("unterminated array (truncated input?)");
      if (*p == ',') {
        ++p;
        skip_ws();
        continue;
      }
      if (*p == ']') {
        ++p;
        --depth;
        if (count != nullptr) *count = n;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool object(bool top_level = false) {
    ++p;  // '{'
    if (++depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (p < end && *p == '}') {
      ++p;
      --depth;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!string(&key)) return false;
      skip_ws();
      if (p >= end || *p != ':') return fail("expected ':'");
      ++p;
      skip_ws();
      if (top_level && key == "traceEvents") {
        if (p >= end || *p != '[') return fail("traceEvents is not an array");
        long n = 0;
        if (!array(&n)) return false;
        events = n;
      } else if (!value()) {
        return false;
      }
      skip_ws();
      if (p >= end) return fail("unterminated object (truncated input?)");
      if (*p == ',') {
        ++p;
        continue;
      }
      if (*p == '}') {
        ++p;
        --depth;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }
};

bool JsonScan::value() {
  skip_ws();
  if (p >= end) return fail("unexpected end of input (truncated?)");
  switch (*p) {
    case '{': return object();
    case '[': return array();
    case '"': return string();
    case 't': return literal("true");
    case 'f': return literal("false");
    case 'n': return literal("null");
    default: return number();
  }
}

int check_trace(const std::string& source) {
  std::string data;
  if (source == "-") {
    char buf[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), stdin)) > 0) {
      data.append(buf, n);
    }
  } else {
    std::FILE* f = std::fopen(source.c_str(), "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "trace_dump: cannot open %s\n", source.c_str());
      return 1;
    }
    char buf[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
    std::fclose(f);
  }
  const char* label = source == "-" ? "<stdin>" : source.c_str();
  if (data.empty()) {
    std::fprintf(stderr, "trace_dump: %s: empty input (not a trace)\n", label);
    return 1;
  }
  JsonScan scan{data.data(), data.data() + data.size(), {}, -1, 0,
                data.data()};
  scan.skip_ws();
  if (scan.p >= scan.end || *scan.p != '{') {
    std::fprintf(stderr, "trace_dump: %s: not a trace (no top-level object)\n",
                 label);
    return 1;
  }
  if (!scan.object(/*top_level=*/true)) {
    std::fprintf(stderr, "trace_dump: %s: %s\n", label, scan.error.c_str());
    return 1;
  }
  scan.skip_ws();
  if (scan.p != scan.end) {
    std::fprintf(stderr,
                 "trace_dump: %s: trailing garbage at byte %zu\n", label,
                 static_cast<std::size_t>(scan.p - data.data()));
    return 1;
  }
  if (scan.events < 0) {
    std::fprintf(stderr,
                 "trace_dump: %s: valid JSON but no traceEvents array (not a "
                 "trace)\n",
                 label);
    return 1;
  }
  std::fprintf(stderr, "trace_dump: %s: ok — %ld trace events, %zu bytes\n",
               label, scan.events, data.size());
  return 0;
}

bool parse_args(int argc, char** argv, Args& args) {
  using rcs::tools::Flag;
  const Flag flags[] = {
      {"--seed", &args.seed, 0},
      {"--ftm", &args.ftm},
      {"--delta", &args.delta, {"on", "off"}},
      {"--transition-to", &args.transition_to},
      {"-o", &args.trace_out},
      {"--trace-out", &args.trace_out},
      {"--metrics-out", &args.metrics_out},
      {"--check", &args.check},
  };
  return rcs::tools::parse_flags(argc, argv, flags, kUsage);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return 2;
  rcs::log().set_level(rcs::LogLevel::kWarn);
  if (!args.check.empty()) return check_trace(args.check);

  rcs::core::ChaosCampaignOptions options;
  options.seed = args.seed;
  options.ftm = args.ftm;
  options.delta_checkpoint = args.delta == "on";
  options.transition_to = args.transition_to;
  options.record_trace = true;
  const auto result = rcs::core::run_campaign(options);

  if (args.trace_out.empty()) {
    std::fwrite(result.trace_json.data(), 1, result.trace_json.size(), stdout);
  } else if (!write_file(args.trace_out, result.trace_json, "trace")) {
    return 1;
  }
  if (args.metrics_out == "-") {
    std::fwrite(result.metrics_json.data(), 1, result.metrics_json.size(),
                stdout);
  } else if (!args.metrics_out.empty() &&
             !write_file(args.metrics_out, result.metrics_json, "metrics")) {
    return 1;
  }

  std::fprintf(stderr,
               "trace_dump: seed=%llu label=%s %s — trace %zu bytes, "
               "metrics %zu bytes\n",
               static_cast<unsigned long long>(result.seed),
               result.label.c_str(), result.passed ? "PASS" : "FAIL",
               result.trace_json.size(), result.metrics_json.size());
  return result.passed ? 0 : 1;
}
