#include "runner/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <type_traits>
#include <variant>

#include "comm/fault.hpp"
#include "runner/registry.hpp"
#include "serve/arrival.hpp"
#include "serve/batching.hpp"
#include "serve/server.hpp"
#include "support/check.hpp"
#include "support/telemetry.hpp"

namespace nadmm::runner {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> out;
  std::stringstream ss(value);
  std::string item;
  while (std::getline(ss, item, ',')) {
    item = trim(item);
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::int64_t parse_int(const std::string& key, const std::string& value) {
  try {
    std::size_t pos = 0;
    const std::int64_t v = std::stoll(value, &pos);
    NADMM_CHECK(pos == value.size(), "trailing characters");
    return v;
  } catch (const std::exception&) {
    throw InvalidArgument("sweep key '" + key + "': malformed integer '" +
                          value + "'");
  }
}

double parse_double(const std::string& key, const std::string& value) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    NADMM_CHECK(pos == value.size(), "trailing characters");
    return v;
  } catch (const std::exception&) {
    throw InvalidArgument("sweep key '" + key + "': malformed number '" +
                          value + "'");
  }
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// JSON has no inf/nan literals; report them as null.
std::string fmt_json_number(double v) {
  if (!std::isfinite(v)) return "null";
  return fmt_double(v);
}

std::string fmt_compact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// ';'-joined per-rank wait seconds ("0;1.5;0.25"), empty when the
/// solver reports none. Round-trips through the journal verbatim.
std::string fmt_rank_waits(const std::vector<double>& waits) {
  std::string out;
  for (std::size_t r = 0; r < waits.size(); ++r) {
    if (r > 0) out += ';';
    out += fmt_double(waits[r]);
  }
  return out;
}

/// Sparse "staleness:count" pairs ("0:24;2:7"), empty when unreported.
std::string fmt_staleness_hist(const std::vector<std::uint64_t>& hist) {
  std::string out;
  for (std::size_t s = 0; s < hist.size(); ++s) {
    if (hist[s] == 0) continue;
    if (!out.empty()) out += ';';
    out += std::to_string(s) + ':' + std::to_string(hist[s]);
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
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

// --------------------------------------------------------------- journal

constexpr const char* kJournalKind = "nadmm-sweep-journal";
// v2: partition axis in the expansion/tag and the peak_dataset_bytes
// column. v3: serving-mode columns (requests/batches/throughput/latency
// percentiles). v4: the scale/weak_scaling spec knobs entered the
// fingerprint serialization (the reproduction pipeline keys one journal
// per scale). v5: the faults axis plus kill/checkpoint_every base knobs
// entered the fingerprint, and the wire counters (retransmits /
// gaps_detected / messages_dropped / checkpoints / restores) entered
// the outcome records. v6: the five fixed wire-counter fields were
// replaced by the generic sparse "metrics" map ("name:value;…", sorted,
// non-zero entries only) mirroring core::RunResult::metrics. Older
// journals are rejected on --resume — their fingerprints no longer
// match either.
constexpr std::int64_t kJournalVersion = 6;
/// Journal records are keyed by scenario index under this name.
constexpr const char* kJournalIndexKey = "index";

/// RunResult::metrics as the journal/JSON wire form: "name:value;…" in
/// key order. The map never stores zero values (add_metric skips them),
/// so fresh runs and journal restores serialize identically.
std::string fmt_metrics(const std::map<std::string, std::uint64_t>& metrics) {
  std::ostringstream os;
  bool first = true;
  for (const auto& [name, value] : metrics) {
    if (!first) os << ';';
    first = false;
    os << name << ':' << value;
  }
  return os.str();
}

bool parse_metrics(const std::string& text,
                   std::map<std::string, std::uint64_t>& out) {
  out.clear();
  std::size_t pos = 0;
  while (pos < text.size()) {
    auto end = text.find(';', pos);
    if (end == std::string::npos) end = text.size();
    const std::string item = text.substr(pos, end - pos);
    const auto colon = item.rfind(':');
    if (colon == std::string::npos || colon == 0) return false;
    char* num_end = nullptr;
    const std::uint64_t value =
        std::strtoull(item.c_str() + colon + 1, &num_end, 10);
    if (num_end != item.c_str() + item.size()) return false;
    if (value != 0) out[item.substr(0, colon)] = value;
    pos = end + 1;
  }
  return true;
}

std::string journal_header_line(const std::string& fingerprint,
                                std::size_t scenarios) {
  std::ostringstream os;
  os << "{\"kind\": \"" << kJournalKind << "\", \"version\": "
     << kJournalVersion << ", \"fingerprint\": \"" << fingerprint << "\""
     << ", \"scenarios\": " << scenarios << '}';
  return os.str();
}

/// One journal value: a string's unescaped contents or a number's token.
struct JsonValue {
  std::string text;
  bool quoted = false;
};
using JsonFields = std::map<std::string, JsonValue>;

/// Split one journal line into key → value. The writer is this file, so
/// a line is a flat object of strings and bare numbers (`inf`/`nan`
/// included), separated by ", " and ": ". Returns nullopt for lines that
/// do not parse: only the final line of a killed run can be torn,
/// because the writer flushes per line, and a torn line lacks its
/// closing brace.
std::optional<JsonFields> split_journal_line(const std::string& line) {
  std::size_t pos = 1;
  const auto read_string = [&](std::string& out) {
    if (pos >= line.size() || line[pos] != '"') return false;
    out.clear();
    for (++pos; pos < line.size() && line[pos] != '"'; ++pos) {
      char c = line[pos];
      if (c == '\\' && pos + 1 < line.size()) {
        c = line[++pos];
        switch (c) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'u':
            // Only \u00XX is ever emitted (see json_escape).
            if (pos + 4 >= line.size()) return false;
            c = static_cast<char>(
                std::strtol(line.substr(pos + 1, 4).c_str(), nullptr, 16));
            pos += 4;
            break;
          default: break;
        }
      }
      out += c;
    }
    return pos++ < line.size();  // step past the closing quote
  };
  if (line.empty() || line[0] != '{') return std::nullopt;
  JsonFields fields;
  while (true) {
    std::string key;
    if (!read_string(key) || line.compare(pos, 2, ": ") != 0) {
      return std::nullopt;
    }
    pos += 2;
    JsonValue& value = fields[key];
    value.quoted = pos < line.size() && line[pos] == '"';
    if (value.quoted) {
      if (!read_string(value.text)) return std::nullopt;
    } else {
      const auto end = line.find_first_of(",}", pos);
      if (end == std::string::npos) return std::nullopt;
      value.text = line.substr(pos, end - pos);
      pos = end;
    }
    if (line.compare(pos, 2, ", ") != 0) break;
    pos += 2;
  }
  if (pos >= line.size() || line[pos] != '}' ||
      !trim(line.substr(pos + 1)).empty()) {
    return std::nullopt;
  }
  return fields;
}

// ------------------------------------------------------- report columns
//
// One table drives every serialization of a scenario outcome: the CSV
// report, the JSON report and the resume journal. The table is in JSON
// order, which the journal shares; `csv` places a column in the CSV.
// Outcome columns (kOk rows) hold what a successful run measured: JSON
// and the journal omit them on error rows and the CSV prints their zero
// value, so a fresh report and one restored from the journal agree on
// every row.
//
// Journal numbers are written with %.17g (round-trips doubles exactly;
// `inf`/`nan` appear as bare tokens, which strtod reads back) — that is
// what makes a resumed report byte-identical to an uninterrupted one.
// JSON has no inf/nan literals, so the JSON report writes them as null.

/// A column value; the alternatives follow Kind's order.
using Cell = std::variant<std::int64_t, std::uint64_t, double, std::string>;
enum Kind { kInt, kUint, kDouble, kString };

/// The rows that carry a column: every row, ok rows, or error rows.
enum Rows { kAll, kOk, kError };

/// The formats that carry a column (bit flags).
enum Format : unsigned { kCsv = 1, kJson = 2, kJournal = 4 };
constexpr unsigned kReports = kCsv | kJson;
constexpr unsigned kEverywhere = kCsv | kJson | kJournal;
constexpr int kNoCsv = -1;

struct Column {
  const char* name;
  Kind kind;
  Rows rows;
  unsigned formats;
  int csv;  ///< position in the CSV row; kNoCsv without kCsv
  /// Null for the CSV projections of result.metrics, read by name.
  Cell (*get)(const ScenarioOutcome&);
  /// Restores a journal column (false rejects the line). Journal columns
  /// without one are derived from the scenario and checked against it.
  bool (*set)(ScenarioOutcome&, const Cell&);
};

template <typename T>
using CellType = std::conditional_t<
    std::is_same_v<T, std::string>, std::string,
    std::conditional_t<std::is_floating_point_v<T>, double,
                       std::conditional_t<std::is_signed_v<T>, std::int64_t,
                                          std::uint64_t>>>;

template <typename T>
Cell to_cell(const T& value) {
  return Cell{static_cast<CellType<T>>(value)};
}

template <typename T>
bool from_cell(const Cell& cell, T& out) {
  out = static_cast<T>(std::get<CellType<T>>(cell));
  return true;
}

// Accessors for a column backed by one ScenarioOutcome member: read-only
// (GET) or also restored from the journal (FIELD).
#define GET(member) \
  [](const ScenarioOutcome& o) { return to_cell(o.member); }, nullptr
#define FIELD(member)                                          \
  [](const ScenarioOutcome& o) { return to_cell(o.member); }, \
      [](ScenarioOutcome& o, const Cell& v) { return from_cell(v, o.member); }

// The status column precedes every kOk/kError column: a journal restore
// learns from it which of them the line carries.
constexpr Column kColumns[] = {
    {"scenario", kInt, kAll, kReports, 0, GET(scenario.index)},
    {"tag", kString, kAll, kJson | kJournal, kNoCsv,
     [](const ScenarioOutcome& o) { return Cell{o.scenario.tag()}; }, nullptr},
    {"solver", kString, kAll, kReports, 1, GET(scenario.solver)},
    {"dataset", kString, kAll, kReports, 2, GET(scenario.config.dataset)},
    {"n_train", kUint, kAll, kReports, 3, GET(scenario.config.n_train)},
    {"n_test", kUint, kAll, kReports, 4, GET(scenario.config.n_test)},
    {"workers", kInt, kAll, kReports, 5, GET(scenario.config.workers)},
    {"device", kString, kAll, kReports, 6, GET(scenario.config.device)},
    {"network", kString, kAll, kReports, 7, GET(scenario.config.network)},
    {"penalty", kString, kAll, kReports, 8, GET(scenario.config.penalty)},
    {"lambda", kDouble, kAll, kReports, 9, GET(scenario.config.lambda)},
    {"straggler", kString, kAll, kReports, 10, GET(scenario.config.straggler)},
    {"partition", kString, kAll, kReports, 11, GET(scenario.config.partition)},
    {"fault", kString, kAll, kReports, 32, GET(scenario.config.fault)},
    {"kill", kString, kAll, kReports, 33, GET(scenario.config.kill)},
    {"checkpoint_every", kInt, kAll, kReports, 34,
     GET(scenario.config.checkpoint_every)},
    {"arrival", kString, kAll, kReports, 23, GET(scenario.arrival)},
    {"batch_policy", kString, kAll, kReports, 24, GET(scenario.batch)},
    {"status", kString, kAll, kEverywhere, 12,
     [](const ScenarioOutcome& o) { return Cell{o.ok ? "ok" : "error"}; },
     [](ScenarioOutcome& o, const Cell& v) {
       o.ok = std::get<std::string>(v) == "ok";
       return o.ok || std::get<std::string>(v) == "error";
     }},
    {"iterations", kInt, kOk, kEverywhere, 13, FIELD(result.iterations)},
    {"final_objective", kDouble, kOk, kEverywhere, 14,
     FIELD(result.final_objective)},
    {"final_test_accuracy", kDouble, kOk, kEverywhere, 15,
     FIELD(result.final_test_accuracy)},
    {"total_sim_seconds", kDouble, kOk, kEverywhere, 16,
     FIELD(result.total_sim_seconds)},
    {"avg_epoch_sim_seconds", kDouble, kOk, kEverywhere, 17,
     FIELD(result.avg_epoch_sim_seconds)},
    {"total_comm_sim_seconds", kDouble, kOk, kEverywhere, 18,
     FIELD(comm_sim_seconds)},
    {"max_wait_seconds", kDouble, kOk, kEverywhere, 19,
     FIELD(max_wait_seconds)},
    {"rank_wait_seconds", kString, kOk, kEverywhere, 20, FIELD(rank_waits)},
    {"staleness_hist", kString, kOk, kEverywhere, 21, FIELD(staleness_hist)},
    {"peak_dataset_bytes", kUint, kOk, kEverywhere, 22,
     FIELD(peak_dataset_bytes)},
    {"requests", kUint, kOk, kEverywhere, 25, FIELD(serve_requests)},
    {"batches", kUint, kOk, kEverywhere, 26, FIELD(serve_batches)},
    {"throughput_rps", kDouble, kOk, kEverywhere, 27, FIELD(throughput_rps)},
    {"mean_batch", kDouble, kOk, kEverywhere, 28, FIELD(mean_batch)},
    {"p50_latency_s", kDouble, kOk, kEverywhere, 29, FIELD(p50_latency_s)},
    {"p99_latency_s", kDouble, kOk, kEverywhere, 30, FIELD(p99_latency_s)},
    {"p999_latency_s", kDouble, kOk, kEverywhere, 31, FIELD(p999_latency_s)},
    {"metrics", kString, kOk, kJson | kJournal, kNoCsv,
     [](const ScenarioOutcome& o) {
       return Cell{fmt_metrics(o.result.metrics)};
     },
     [](ScenarioOutcome& o, const Cell& v) {
       return parse_metrics(std::get<std::string>(v), o.result.metrics);
     }},
    {"retransmits", kUint, kOk, kCsv, 35, nullptr, nullptr},
    {"gaps_detected", kUint, kOk, kCsv, 36, nullptr, nullptr},
    {"messages_dropped", kUint, kOk, kCsv, 37, nullptr, nullptr},
    {"checkpoints", kUint, kOk, kCsv, 38, nullptr, nullptr},
    {"restores", kUint, kOk, kCsv, 39, nullptr, nullptr},
    {"error", kString, kError, kJson | kJournal, kNoCsv, FIELD(error)},
};

#undef GET
#undef FIELD

bool carried(const Column& c, bool ok) {
  return c.rows == kAll || (c.rows == kOk) == ok;
}

Cell column_value(const Column& c, const ScenarioOutcome& o) {
  return c.get ? c.get(o) : Cell{o.result.metric(c.name)};
}

std::string format_cell(const Cell& cell, Format format) {
  switch (static_cast<Kind>(cell.index())) {
    case kInt: return std::to_string(std::get<std::int64_t>(cell));
    case kUint: return std::to_string(std::get<std::uint64_t>(cell));
    case kDouble:
      return format == kJson ? fmt_json_number(std::get<double>(cell))
                             : fmt_double(std::get<double>(cell));
    case kString: break;
  }
  const auto& s = std::get<std::string>(cell);
  return format == kCsv ? s : "\"" + json_escape(s) + "\"";
}

/// Parse `key` of a journal line as a `kind` value; false when it is
/// absent or malformed.
bool read_field(const JsonFields& fields, const std::string& key, Kind kind,
                Cell& out) {
  const auto it = fields.find(key);
  if (it == fields.end() || it->second.quoted != (kind == kString)) {
    return false;
  }
  const std::string& text = it->second.text;
  char* end = nullptr;
  switch (kind) {
    case kInt:
      out = static_cast<std::int64_t>(std::strtoll(text.c_str(), &end, 10));
      break;
    case kUint:
      out = static_cast<std::uint64_t>(std::strtoull(text.c_str(), &end, 10));
      break;
    case kDouble: out = std::strtod(text.c_str(), &end); break;
    case kString: out = text; return true;
  }
  return !text.empty() && end == text.c_str() + text.size();
}

/// The columns `format` carries on `o`'s row, as one JSON object.
std::string json_record(const ScenarioOutcome& o, Format format) {
  std::string out;
  const auto add = [&out](const char* name, const std::string& value) {
    out += (out.empty() ? "{\"" : ", \"") + std::string(name) + "\": " + value;
  };
  if (format == kJournal) {
    add(kJournalIndexKey, std::to_string(o.scenario.index));
  }
  for (const Column& c : kColumns) {
    if ((c.formats & format) != 0 && carried(c, o.ok)) {
      add(c.name, format_cell(column_value(c, o), format));
    }
  }
  return out + '}';
}

/// The CSV columns in CSV order.
const std::vector<const Column*>& csv_columns() {
  static const std::vector<const Column*> columns = [] {
    std::vector<const Column*> out;
    for (const Column& c : kColumns) {
      if ((c.formats & kCsv) != 0) out.push_back(&c);
    }
    std::sort(out.begin(), out.end(), [](const Column* a, const Column* b) {
      return a->csv < b->csv;
    });
    for (std::size_t k = 0; k < out.size(); ++k) {
      NADMM_ASSERT(out[k]->csv == static_cast<int>(k));
    }
    return out;
  }();
  return columns;
}

/// Parse one journal data line back into the outcome for its scenario.
/// Returns false (leaving `completed` untouched) on lines that do not
/// parse; throws when the line belongs to a different grid spec.
bool restore_outcome_line(const std::string& line,
                          const std::vector<Scenario>& scenarios,
                          std::vector<ScenarioOutcome>& outcomes,
                          std::vector<char>& completed) {
  const auto fields = split_journal_line(line);
  Cell index;
  if (!fields || !read_field(*fields, kJournalIndexKey, kInt, index)) {
    return false;
  }
  const auto i = static_cast<std::size_t>(std::get<std::int64_t>(index));
  if (i >= scenarios.size()) return false;  // negative indices wrap too
  ScenarioOutcome o;
  o.scenario = scenarios[i];
  o.from_journal = true;
  for (const Column& c : kColumns) {
    if ((c.formats & kJournal) == 0 || !carried(c, o.ok)) continue;
    Cell value;
    if (!read_field(*fields, c.name, c.kind, value)) return false;
    if (c.set) {
      if (!c.set(o, value)) return false;
      continue;
    }
    const Cell expected = c.get(o);
    NADMM_CHECK(value == expected,
                "sweep journal: scenario " + std::to_string(i) + " has " +
                    c.name + " '" + format_cell(value, kCsv) +
                    "' but the grid expands to '" +
                    format_cell(expected, kCsv) +
                    "' — journal is from a different spec");
  }
  if (o.ok) o.result.solver = o.scenario.solver;
  outcomes[i] = std::move(o);
  completed[i] = 1;
  return true;
}

}  // namespace

void apply_sweep_assignment(SweepSpec& spec, const std::string& raw_key,
                            const std::string& raw_value) {
  const std::string key = trim(raw_key);
  const std::string value = trim(raw_value);
  NADMM_CHECK(!key.empty(), "sweep key must not be empty");
  NADMM_CHECK(!value.empty(), "sweep key '" + key + "' has an empty value");

  const auto list = [&] { return split_list(value); };

  if (key == "solvers") {
    spec.solvers = list();
  } else if (key == "datasets") {
    spec.datasets = list();
  } else if (key == "workers") {
    spec.workers.clear();
    for (const auto& item : list()) {
      spec.workers.push_back(static_cast<int>(parse_int(key, item)));
    }
  } else if (key == "devices") {
    spec.devices = list();
  } else if (key == "networks") {
    spec.networks = list();
  } else if (key == "penalties") {
    spec.penalties = list();
  } else if (key == "lambdas") {
    spec.lambdas.clear();
    for (const auto& item : list()) {
      spec.lambdas.push_back(parse_double(key, item));
    }
  } else if (key == "stragglers") {
    spec.stragglers = list();
  } else if (key == "partitions") {
    spec.partitions = list();
    for (const auto& item : spec.partitions) {
      static_cast<void>(data::partition_mode_from_string(item));  // validate
    }
  } else if (key == "faults") {
    spec.faults = list();
    for (const auto& item : spec.faults) {
      static_cast<void>(comm::FaultSpec::parse(item));  // validate
    }
  } else if (key == "kill") {
    spec.base.kill = value;
  } else if (key == "checkpoint_every") {
    spec.base.checkpoint_every = static_cast<int>(parse_int(key, value));
    NADMM_CHECK(spec.base.checkpoint_every >= 0,
                "sweep key 'checkpoint_every': must be >= 0");
  } else if (key == "n_train") {
    spec.base.n_train = static_cast<std::size_t>(parse_int(key, value));
  } else if (key == "n_test") {
    spec.base.n_test = static_cast<std::size_t>(parse_int(key, value));
  } else if (key == "e18_features") {
    spec.base.e18_features = static_cast<std::size_t>(parse_int(key, value));
  } else if (key == "seed") {
    spec.base.seed = static_cast<std::uint64_t>(parse_int(key, value));
  } else if (key == "iterations") {
    spec.base.iterations = static_cast<int>(parse_int(key, value));
  } else if (key == "cg_iterations") {
    spec.base.cg_iterations = static_cast<int>(parse_int(key, value));
  } else if (key == "cg_tol") {
    spec.base.cg_tol = parse_double(key, value);
  } else if (key == "line_search_iterations") {
    spec.base.line_search_iterations = static_cast<int>(parse_int(key, value));
  } else if (key == "staleness") {
    spec.base.staleness = static_cast<int>(parse_int(key, value));
  } else if (key == "sync_every") {
    spec.base.sync_every = static_cast<int>(parse_int(key, value));
  } else if (key == "objective_target") {
    spec.base.objective_target = parse_double(key, value);
  } else if (key == "mode") {
    NADMM_CHECK(value == "train" || value == "serving",
                "sweep key 'mode': expected train|serving, got '" + value +
                    "'");
    spec.mode = value;
  } else if (key == "arrivals") {
    spec.arrivals = list();
    for (const auto& item : spec.arrivals) {
      static_cast<void>(serve::make_arrival(item));  // validate
    }
  } else if (key == "batch_policies") {
    spec.batch_policies = list();
    for (const auto& item : spec.batch_policies) {
      static_cast<void>(serve::make_batch_policy(item));  // validate
    }
  } else if (key == "scale") {
    spec.scale = parse_double(key, value);
    NADMM_CHECK(spec.scale > 0.0, "sweep key 'scale': must be > 0");
  } else if (key == "weak_scaling") {
    if (value == "true" || value == "1") {
      spec.weak_scaling = true;
    } else if (value == "false" || value == "0") {
      spec.weak_scaling = false;
    } else {
      throw InvalidArgument("sweep key 'weak_scaling': expected true|false, "
                            "got '" + value + "'");
    }
  } else if (key == "serve_requests") {
    spec.serve_requests = static_cast<std::size_t>(parse_int(key, value));
  } else if (key == "serve_model") {
    spec.serve_model = value;
  } else if (key == "dispatch_overhead") {
    spec.dispatch_overhead_s = parse_double(key, value);
    NADMM_CHECK(spec.dispatch_overhead_s >= 0.0,
                "sweep key 'dispatch_overhead': must be >= 0 seconds");
  } else {
    throw InvalidArgument(
        "unknown sweep key '" + key +
        "' (grid axes: solvers|datasets|workers|devices|networks|penalties|"
        "lambdas|stragglers|partitions|faults|arrivals|batch_policies; "
        "scalars: n_train|n_test|e18_features|seed|iterations|cg_iterations|"
        "cg_tol|line_search_iterations|staleness|sync_every|kill|"
        "checkpoint_every|objective_target|mode|scale|weak_scaling|"
        "serve_requests|serve_model|dispatch_overhead)");
  }
}

SweepSpec parse_sweep_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw RuntimeError("cannot open sweep spec: " + path);
  SweepSpec spec;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    if (trim(line).empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw InvalidArgument("sweep spec " + path + ":" +
                            std::to_string(line_no) +
                            ": expected 'key = value', got '" + trim(line) +
                            "'");
    }
    apply_sweep_assignment(spec, line.substr(0, eq), line.substr(eq + 1));
  }
  return spec;
}

namespace {

/// Map file-system-unsafe characters (e.g. from "libsvm:/path" dataset
/// sources, "p100+cpu" device lists, "1:4" straggler specs) to '-'.
std::string fs_safe(std::string s) {
  for (char& c : s) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
    if (!safe) c = '-';
  }
  return s;
}

}  // namespace

std::string Scenario::tag() const {
  // The index prefix keeps tags unique even after sanitization.
  char buf[512];
  if (serving) {
    std::snprintf(buf, sizeof buf, "%03d_serve_%s_%s_w%d_%s_%s_%s_%s", index,
                  solver.c_str(), fs_safe(config.dataset).c_str(),
                  config.workers, fs_safe(config.device).c_str(),
                  config.network.c_str(), fs_safe(arrival).c_str(),
                  fs_safe(batch).c_str());
    return buf;
  }
  std::snprintf(buf, sizeof buf, "%03d_%s_%s_w%d_%s_%s_%s_lam%s_st%s_%s",
                index, solver.c_str(), fs_safe(config.dataset).c_str(),
                config.workers, fs_safe(config.device).c_str(),
                config.network.c_str(), config.penalty.c_str(),
                fmt_compact(config.lambda).c_str(),
                fs_safe(config.straggler).c_str(), config.partition.c_str());
  std::string tag = buf;
  // Appended only when set, so pre-fault grids keep their tags (and
  // their journals) unchanged.
  if (!config.fault.empty() && config.fault != "none") {
    tag += "_f" + fs_safe(config.fault);
  }
  return tag;
}

namespace {

/// Sample count after the spec's paper-scale multiplier.
std::size_t scaled_count(std::size_t base, double scale) {
  return static_cast<std::size_t>(
      std::llround(static_cast<double>(base) * scale));
}

}  // namespace

std::vector<Scenario> expand_scenarios(const SweepSpec& spec) {
  NADMM_CHECK(!spec.solvers.empty(), "sweep needs at least one solver");
  NADMM_CHECK(!spec.datasets.empty(), "sweep needs at least one dataset");
  const std::size_t scaled_train =
      std::max<std::size_t>(1, scaled_count(spec.base.n_train, spec.scale));
  const std::size_t scaled_test = scaled_count(spec.base.n_test, spec.scale);
  if (spec.mode == "serving") {
    NADMM_CHECK(!spec.devices.empty(), "sweep needs at least one device");
    NADMM_CHECK(!spec.networks.empty(), "sweep needs at least one network");
    NADMM_CHECK(!spec.arrivals.empty(),
                "serving sweep needs at least one arrival model");
    NADMM_CHECK(!spec.batch_policies.empty(),
                "serving sweep needs at least one batch policy");
    // Fixed axis order (solver, dataset, device, network, arrival,
    // batch — rightmost fastest); the train-only axes stay at base.
    std::vector<Scenario> scenarios;
    int index = 0;
    for (const auto& solver : spec.solvers) {
      for (const auto& dataset : spec.datasets) {
        for (const auto& device : spec.devices) {
          for (const auto& network : spec.networks) {
            for (const auto& arrival : spec.arrivals) {
              for (const auto& batch : spec.batch_policies) {
                Scenario s;
                s.index = index++;
                s.solver = solver;
                s.config = spec.base;
                s.config.n_train = scaled_train;
                s.config.n_test = scaled_test;
                s.config.dataset = dataset;
                s.config.device = device;
                s.config.network = network;
                s.serving = true;
                s.arrival = arrival;
                s.batch = batch;
                scenarios.push_back(std::move(s));
              }
            }
          }
        }
      }
    }
    return scenarios;
  }
  NADMM_CHECK(!spec.workers.empty(), "sweep needs at least one worker count");
  NADMM_CHECK(!spec.devices.empty(), "sweep needs at least one device");
  NADMM_CHECK(!spec.networks.empty(), "sweep needs at least one network");
  NADMM_CHECK(!spec.penalties.empty(), "sweep needs at least one penalty");
  NADMM_CHECK(!spec.lambdas.empty(), "sweep needs at least one lambda");
  NADMM_CHECK(!spec.stragglers.empty(),
              "sweep needs at least one straggler entry ('none' disables)");
  NADMM_CHECK(!spec.partitions.empty(),
              "sweep needs at least one partition mode");
  NADMM_CHECK(!spec.faults.empty(),
              "sweep needs at least one fault entry ('none' disables)");

  std::vector<Scenario> scenarios;
  int index = 0;
  for (const auto& solver : spec.solvers) {
    for (const auto& dataset : spec.datasets) {
      for (const int workers : spec.workers) {
        for (const auto& device : spec.devices) {
          for (const auto& network : spec.networks) {
            for (const auto& penalty : spec.penalties) {
              for (const double lambda : spec.lambdas) {
                for (const auto& straggler : spec.stragglers) {
                  for (const auto& partition : spec.partitions) {
                    for (const auto& fault : spec.faults) {
                      Scenario s;
                      s.index = index++;
                      s.solver = solver;
                      s.config = spec.base;
                      // Weak scaling: base.n_train is the per-worker
                      // shard.
                      s.config.n_train =
                          spec.weak_scaling
                              ? scaled_train *
                                    static_cast<std::size_t>(workers)
                              : scaled_train;
                      s.config.n_test = scaled_test;
                      s.config.dataset = dataset;
                      s.config.workers = workers;
                      s.config.device = device;
                      s.config.network = network;
                      s.config.penalty = penalty;
                      s.config.lambda = lambda;
                      s.config.straggler = straggler;
                      s.config.partition = partition;
                      s.config.fault = fault;
                      scenarios.push_back(std::move(s));
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return scenarios;
}

std::string spec_fingerprint(const SweepSpec& spec) {
  std::ostringstream os;
  const auto join = [&os](const char* name, const auto& items,
                          auto&& format) {
    os << name << '=';
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i > 0) os << ',';
      os << format(items[i]);
    }
    os << ';';
  };
  const auto str = [](const std::string& s) { return s; };
  const auto integer = [](int v) { return std::to_string(v); };
  join("solvers", spec.solvers, str);
  join("datasets", spec.datasets, str);
  join("workers", spec.workers, integer);
  join("devices", spec.devices, str);
  join("networks", spec.networks, str);
  join("penalties", spec.penalties, str);
  join("lambdas", spec.lambdas, fmt_double);
  join("stragglers", spec.stragglers, str);
  join("partitions", spec.partitions, str);
  join("faults", spec.faults, str);
  // Every base knob that survives scenario expansion (the per-axis fields
  // are overwritten per scenario and already covered above).
  const auto& b = spec.base;
  os << "n_train=" << b.n_train << ";n_test=" << b.n_test
     << ";e18_features=" << b.e18_features << ";seed=" << b.seed
     << ";rho0=" << fmt_double(b.rho0) << ";iterations=" << b.iterations
     << ";cg_iterations=" << b.cg_iterations
     << ";cg_tol=" << fmt_double(b.cg_tol)
     << ";line_search_iterations=" << b.line_search_iterations
     << ";local_newton_steps=" << b.local_newton_steps
     << ";objective_target=" << fmt_double(b.objective_target)
     << ";evaluate_accuracy=" << b.evaluate_accuracy
     << ";sgd_batch=" << b.sgd_batch << ";sgd_step=" << fmt_double(b.sgd_step)
     << ";dane_epochs=" << b.dane_epochs << ";svrg_outer=" << b.svrg_outer
     << ";fo_step=" << fmt_double(b.fo_step)
     << ";gradient_tol=" << fmt_double(b.gradient_tol)
     << ";omp_threads=" << b.omp_threads
     << ";staleness=" << b.staleness << ";sync_every=" << b.sync_every
     << ";kill=" << b.kill << ";checkpoint_every=" << b.checkpoint_every
     << ';';
  os << "scale=" << fmt_double(spec.scale)
     << ";weak_scaling=" << spec.weak_scaling << ';';
  os << "mode=" << spec.mode << ';';
  join("arrivals", spec.arrivals, str);
  join("batch_policies", spec.batch_policies, str);
  os << "serve_requests=" << spec.serve_requests
     << ";serve_model=" << spec.serve_model
     << ";dispatch_overhead=" << fmt_double(spec.dispatch_overhead_s) << ';';
  const std::string canonical = os.str();
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a 64
  for (const char c : canonical) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::size_t SweepReport::failures() const {
  std::size_t n = 0;
  for (const auto& o : outcomes) n += o.ok ? 0 : 1;
  return n;
}

std::vector<std::string> SweepReport::csv_rows() const {
  const auto& columns = csv_columns();
  std::vector<std::string> rows;
  rows.reserve(outcomes.size() + 1);
  std::string header;
  for (const Column* c : columns) {
    if (!header.empty()) header += ',';
    header += c->name;
  }
  rows.push_back(std::move(header));
  for (const auto& o : outcomes) {
    std::string row;
    for (const Column* c : columns) {
      Cell value = column_value(*c, o);
      if (!carried(*c, o.ok)) std::visit([](auto& v) { v = {}; }, value);
      if (!row.empty()) row += ',';
      row += format_cell(value, kCsv);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void SweepReport::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw RuntimeError("cannot open sweep report for writing: " + path);
  for (const auto& row : csv_rows()) out << row << '\n';
}

void SweepReport::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw RuntimeError("cannot open sweep report for writing: " + path);
  out << "[\n";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    out << "  " << json_record(outcomes[i], kJson)
        << (i + 1 < outcomes.size() ? "," : "") << '\n';
  }
  out << "]\n";
}

SweepReport run_sweep(const SweepSpec& spec, const SweepOptions& options) {
  NADMM_CHECK(options.jobs >= 1, "sweep needs at least one scheduler thread");
  const std::vector<Scenario> scenarios = expand_scenarios(spec);
  const std::string fingerprint = spec_fingerprint(spec);

  if (!options.trace_dir.empty()) {
    std::filesystem::create_directories(options.trace_dir);
  }
  if (!options.trace_event_dir.empty()) {
    std::filesystem::create_directories(options.trace_event_dir);
  }

  SweepReport report;
  report.outcomes.resize(scenarios.size());
  std::vector<char> completed(scenarios.size(), 0);

  // Scenarios that agree on (dataset, n, p, seed) share one immutable
  // copy through the provider; budget 0 reverts to per-scenario
  // regeneration.
  data::DatasetProvider local_provider(options.cache_budget);
  data::DatasetProvider* provider =
      options.provider ? options.provider : &local_provider;
  const bool use_cache = options.provider != nullptr || options.cache_budget > 0;

  bool journal_needs_newline = false;
  if (options.resume && !options.journal_path.empty() &&
      std::filesystem::exists(options.journal_path)) {
    std::ifstream in(options.journal_path);
    if (!in) {
      throw RuntimeError("cannot open sweep journal: " + options.journal_path);
    }
    std::string line;
    // A kill inside the truncate-then-write-header window leaves an
    // empty or torn header; nothing restorable was lost, so treat that
    // as a fresh start rather than dead-ending --resume.
    const bool has_header =
        static_cast<bool>(std::getline(in, line)) &&
        line.find_last_not_of(" \t\r") != std::string::npos &&
        line[line.find_last_not_of(" \t\r")] == '}';
    if (has_header) {
      const auto header = split_journal_line(line);
      Cell kind, fp, count, version;
      NADMM_CHECK(header && read_field(*header, "kind", kString, kind) &&
                      std::get<std::string>(kind) == kJournalKind,
                  "sweep journal " + options.journal_path +
                      " has an unrecognized header");
      NADMM_CHECK(read_field(*header, "fingerprint", kString, fp) &&
                      read_field(*header, "scenarios", kInt, count) &&
                      read_field(*header, "version", kInt, version),
                  "sweep journal " + options.journal_path +
                      " has a malformed header");
      const auto& journal_fp = std::get<std::string>(fp);
      const auto journal_fp_scenarios = std::get<std::int64_t>(count);
      const auto journal_version = std::get<std::int64_t>(version);
      NADMM_CHECK(journal_version == kJournalVersion,
                  "sweep journal " + options.journal_path +
                      " has unsupported version " +
                      std::to_string(journal_version) +
                      " (expected " + std::to_string(kJournalVersion) +
                      ") — rerun without --resume to start fresh");
      NADMM_CHECK(journal_fp == fingerprint &&
                      journal_fp_scenarios ==
                          static_cast<std::int64_t>(scenarios.size()),
                  "sweep journal " + options.journal_path +
                      " was written for a different grid spec (fingerprint " +
                      journal_fp + ", expected " + fingerprint +
                      ") — rerun without --resume to start fresh");
      bool ends_with_newline = true;
      while (std::getline(in, line)) {
        ends_with_newline = !in.eof() || line.empty();
        restore_outcome_line(line, scenarios, report.outcomes, completed);
      }
      for (const char c : completed) report.resumed += c ? 1 : 0;
      journal_needs_newline = !ends_with_newline;
    }
  }

  std::ofstream journal;
  if (!options.journal_path.empty()) {
    const bool append = report.resumed > 0;
    journal.open(options.journal_path,
                 append ? std::ios::app : std::ios::trunc);
    if (!journal) {
      throw RuntimeError("cannot open sweep journal for writing: " +
                         options.journal_path);
    }
    if (!append) {
      journal << journal_header_line(fingerprint, scenarios.size()) << '\n';
      journal.flush();
    } else if (journal_needs_newline) {
      // A kill mid-write can leave a torn final line; terminate it so the
      // next appended record starts on its own line.
      journal << '\n';
      journal.flush();
    }
  }

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> claimed{0};
  std::atomic<std::size_t> done{0};
  std::mutex progress_mutex;
  const std::size_t to_execute = scenarios.size() - report.resumed;

  // Serving scenarios share one trained model per (solver, dataset):
  // training runs under the base cluster config, so the grid's
  // device/network axes rate only the serving plane, never the model.
  std::mutex model_mutex;
  std::map<std::string, std::shared_ptr<const serve::SavedModel>> model_cache;

  auto serve_model_for = [&](const Scenario& scenario,
                             const ExperimentConfig& config) {
    const std::string key = spec.serve_model.empty()
                                ? scenario.solver + "|" + config.dataset
                                : "@" + spec.serve_model;
    const std::scoped_lock lock(model_mutex);
    const auto it = model_cache.find(key);
    if (it != model_cache.end()) return it->second;
    std::shared_ptr<const serve::SavedModel> model;
    if (!spec.serve_model.empty()) {
      model = std::make_shared<serve::SavedModel>(
          serve::load_model(spec.serve_model));
    } else {
      ExperimentConfig train_config = config;
      train_config.device = spec.base.device;
      train_config.network = spec.base.network;
      const data::DatasetKey dkey = dataset_key(train_config);
      std::shared_ptr<const data::TrainTest> full;
      data::TrainTest full_owned;
      if (use_cache) {
        full = provider->get(dkey);
      } else {
        full_owned = data::generate_dataset(dkey);
      }
      const data::TrainTest& tt = use_cache ? *full : full_owned;
      comm::SimCluster cluster = make_cluster(train_config);
      const core::RunResult trained = SolverRegistry::instance().run(
          scenario.solver, cluster,
          shard_for_solver(scenario.solver, tt.train, &tt.test, train_config),
          train_config);
      auto m = std::make_shared<serve::SavedModel>();
      m->objective = "softmax";
      m->solver = scenario.solver;
      m->dataset = train_config.dataset;
      m->num_features = tt.train.num_features();
      m->num_classes = tt.train.num_classes();
      m->lambda = train_config.lambda;
      m->x = trained.x;
      model = m;
    }
    model_cache.emplace(key, model);
    return model;
  };

  auto run_one = [&](const Scenario& scenario) {
    ScenarioOutcome outcome;
    outcome.scenario = scenario;
    // One tracer per scenario: spans stamp virtual time only, so the
    // exported file is byte-identical no matter how many scheduler
    // threads ran the grid. The scope is thread-local, so concurrent
    // scenarios on other workers never share a tracer.
    std::unique_ptr<telem::Tracer> tracer;
    std::optional<telem::TracerScope> tracer_scope;
    if (!options.trace_event_dir.empty()) {
      tracer = std::make_unique<telem::Tracer>(scenario.tag());
      tracer_scope.emplace(*tracer);
    }
    const auto write_trace = [&] {
      if (!tracer || !outcome.ok) return;
      tracer_scope.reset();  // detach before export
      tracer->write_chrome_trace_file(options.trace_event_dir + "/" +
                                      scenario.tag() + ".trace.json");
    };
    try {
      ExperimentConfig config = scenario.config;
      if (options.deterministic) config.omp_threads = 1;
      if (scenario.serving) {
        const auto model = serve_model_for(scenario, config);
        // The request pool is the test split of the scenario's dataset.
        const data::DatasetKey dkey = dataset_key(config);
        std::shared_ptr<const data::TrainTest> full;
        data::TrainTest full_owned;
        if (use_cache) {
          full = provider->get(dkey);
        } else {
          full_owned = data::generate_dataset(dkey);
        }
        const data::TrainTest& tt = use_cache ? *full : full_owned;
        NADMM_CHECK(!tt.test.empty(),
                    "serving needs a non-empty test split (n_test > 0)");
        serve::ServeConfig sc;
        sc.arrival = scenario.arrival;
        sc.batch = scenario.batch;
        sc.requests = spec.serve_requests;
        sc.seed = config.seed;
        sc.device = config.device;
        sc.network = config.network;
        sc.dispatch_overhead_s = spec.dispatch_overhead_s;
        sc.omp_threads = config.omp_threads;
        const serve::ServeResult sr = serve::simulate(*model, tt.test, sc);
        outcome.serve_requests = sr.requests;
        outcome.serve_batches = sr.batches;
        outcome.throughput_rps = sr.throughput_rps;
        outcome.mean_batch = sr.mean_batch;
        outcome.p50_latency_s = sr.p50_latency_s;
        outcome.p99_latency_s = sr.p99_latency_s;
        outcome.p999_latency_s = sr.p999_latency_s;
        outcome.result.solver = scenario.solver;
        outcome.result.final_test_accuracy = sr.accuracy;
        outcome.result.total_sim_seconds = sr.total_sim_seconds;
        outcome.ok = true;
        write_trace();
        return outcome;
      }
      const SolverInfo& info =
          SolverRegistry::instance().info(scenario.solver);
      const data::DatasetKey key = dataset_key(config);
      // Distributed solvers run on pre-sharded data: zero-copy views of
      // the cached full dataset, or — for `libsvm:` sources — per-rank
      // shards streamed straight from the file so the full matrix never
      // materializes. Single-node solvers need the full splits, so they
      // keep the materialized path (a one-part plan).
      std::shared_ptr<const data::ShardedDataset> shared;
      data::ShardedDataset owned;
      if (info.kind == SolverKind::kSingleNode) {
        // Materialize (streamed shards carry no full matrix) and wrap in
        // a one-part plan to keep the uniform registry signature.
        std::shared_ptr<const data::TrainTest> full;
        data::TrainTest full_owned;
        if (use_cache) {
          full = provider->get(key);
        } else {
          full_owned = data::generate_dataset(key);
        }
        const data::TrainTest& tt = use_cache ? *full : full_owned;
        owned = data::make_sharded(tt.train, &tt.test, data::ShardPlan{});
      } else if (use_cache) {
        shared = provider->get_sharded(key, shard_plan(config));
      } else {
        owned = data::generate_sharded_dataset(key, shard_plan(config));
      }
      const data::ShardedDataset& sharded = shared ? *shared : owned;
      outcome.peak_dataset_bytes = sharded.resident_bytes;
      comm::SimCluster cluster = make_cluster(config);
      outcome.result = SolverRegistry::instance().run(scenario.solver, cluster,
                                                      sharded, config);
      if (!options.trace_dir.empty()) {
        write_trace_csv(outcome.result,
                        options.trace_dir + "/" + scenario.tag() + ".csv");
      }
      outcome.comm_sim_seconds = outcome.result.trace.empty()
                                     ? 0.0
                                     : outcome.result.trace.back()
                                           .comm_sim_seconds;
      outcome.max_wait_seconds = outcome.result.max_wait_seconds();
      outcome.rank_waits = fmt_rank_waits(outcome.result.rank_wait_seconds);
      outcome.staleness_hist =
          fmt_staleness_hist(outcome.result.staleness_hist);
      outcome.ok = true;
      write_trace();
    } catch (const std::exception& e) {
      outcome.ok = false;
      outcome.error = e.what();
    }
    return outcome;
  };

  auto worker = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= scenarios.size()) return;
      if (completed[i]) continue;
      if (options.max_scenarios > 0 &&
          claimed.fetch_add(1) >= options.max_scenarios) {
        return;
      }
      ScenarioOutcome outcome = run_one(scenarios[i]);
      {
        const std::scoped_lock lock(progress_mutex);
        report.outcomes[i] = std::move(outcome);
        ++report.executed;
        if (journal.is_open()) {
          journal << json_record(report.outcomes[i], kJournal) << '\n';
          journal.flush();
        }
        const std::size_t finished = done.fetch_add(1) + 1;
        if (options.on_scenario_done) {
          options.on_scenario_done(report.outcomes[i], finished, to_execute);
        }
      }
    }
  };

  const std::size_t pool_size = std::min<std::size_t>(
      static_cast<std::size_t>(options.jobs), to_execute > 0 ? to_execute : 1);
  if (pool_size <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(pool_size);
    for (std::size_t t = 0; t < pool_size; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  report.cache = provider->stats();
  return report;
}

}  // namespace nadmm::runner
