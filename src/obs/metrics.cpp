#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace rfidsim::obs {

namespace detail {

namespace {
EnvMode initial_mode() { return env_mode(std::getenv("RFIDSIM_OBS")); }
}  // namespace

std::atomic<bool>& metrics_flag() {
  static std::atomic<bool> flag{initial_mode().metrics};
  return flag;
}

std::atomic<bool>& trace_flag() {
  static std::atomic<bool> flag{initial_mode().trace};
  return flag;
}

std::atomic<bool>& profile_flag() {
  static std::atomic<bool> flag{initial_mode().profile};
  return flag;
}

}  // namespace detail

EnvMode env_mode(const char* value) {
  EnvMode mode;
  if (value == nullptr) return mode;
  const std::string v(value);
  if (v == "off" || v == "0" || v == "false" || v == "OFF") {
    mode.metrics = false;
    mode.trace = false;
  } else if (v == "trace") {
    mode.trace = true;
  } else if (v == "prof") {
    mode.profile = true;
  }
  return mode;
}

bool profile_requested() {
  return detail::profile_flag().load(std::memory_order_relaxed);
}
void set_profile_requested(bool on) {
  detail::profile_flag().store(on, std::memory_order_relaxed);
}

bool enabled() { return detail::metrics_flag().load(std::memory_order_relaxed); }
void set_enabled(bool on) {
  detail::metrics_flag().store(on, std::memory_order_relaxed);
}
bool trace_enabled() { return detail::trace_flag().load(std::memory_order_relaxed); }
void set_trace_enabled(bool on) {
  detail::trace_flag().store(on, std::memory_order_relaxed);
}

void Gauge::add(double delta) {
  double cur = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
  }
}

Histogram::Histogram(const HistogramSpec& spec)
    : spec_(spec), counts_(spec.buckets + 1) {
  require(spec.first_upper_bound > 0.0,
          "Histogram: first bucket bound must be positive");
  require(spec.growth > 1.0, "Histogram: bucket growth factor must exceed 1");
  require(spec.buckets > 0, "Histogram: need at least one finite bucket");
  edges_.reserve(spec.buckets);
  double edge = spec.first_upper_bound;
  for (std::size_t i = 0; i < spec.buckets; ++i) {
    edges_.push_back(edge);
    edge *= spec.growth;
  }
}

void Histogram::observe(double x) {
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), x);
  const auto bucket = static_cast<std::size_t>(it - edges_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + x, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::bucket_count(std::size_t i) const {
  require(i < counts_.size(), "Histogram: bucket index out of range");
  return counts_[i].load(std::memory_order_relaxed);
}

double Histogram::quantile(double q) const {
  require(q >= 0.0 && q <= 1.0, "Histogram: quantile must be in [0, 1]");
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  // Continuous rank: the q-quantile sits at rank q*n of the cumulative
  // bucket counts; inside the bracketing bucket we interpolate the rank
  // fraction geometrically between the bucket's log-scale edges.
  const double target = q * static_cast<double>(n);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const double in_bucket =
        static_cast<double>(counts_[i].load(std::memory_order_relaxed));
    if (in_bucket > 0.0 && cumulative + in_bucket >= target) {
      const double hi = edges_[i];
      const double lo = i == 0 ? edges_[0] / spec_.growth : edges_[i - 1];
      const double frac = std::max(target - cumulative, 0.0) / in_bucket;
      return lo * std::pow(hi / lo, frac);
    }
    cumulative += in_bucket;
  }
  // The rank falls in the +Inf bucket: no upper edge to interpolate
  // toward, so clamp to the last finite edge.
  return edges_.back();
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

namespace {

enum class Kind { Counter, Gauge, Histogram };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::Counter: return "counter";
    case Kind::Gauge: return "gauge";
    case Kind::Histogram: return "histogram";
  }
  return "?";
}

/// Exposition name: rfidsim_ prefix, non-alphanumerics to '_'.
std::string exposition_name(const std::string& name) {
  std::string out = "rfidsim_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9');
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// Shortest-round-trip-ish double formatting for exposition values and
/// bucket labels (%.9g keeps the log-scale edges unambiguous and stable).
std::string num_str(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

struct Metric {
  Kind kind;
  std::string labels;  ///< Canonical escaped `k="v",...` (empty when plain).
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

/// Separator between a family name and its canonical label string in the
/// registry's map keys. 0x1f sorts below every character legal in metric
/// names, so a family's children stay contiguous right after the plain
/// name in the sorted map (the exposition leans on that for # TYPE
/// grouping).
constexpr char kLabelSep = '\x1f';

/// Canonical label rendering: keys sorted, values escaped, `k="v",...`.
/// Canonicalisation makes the handle independent of the order the caller
/// listed the labels in.
std::string render_labels(std::initializer_list<Label> labels) {
  std::vector<std::pair<std::string_view, std::string_view>> sorted;
  sorted.reserve(labels.size());
  for (const Label& l : labels) sorted.emplace_back(l.key, l.value);
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    require(!sorted[i].first.empty(), "MetricsRegistry: label key must not be empty");
    require(i == 0 || sorted[i].first != sorted[i - 1].first,
            "MetricsRegistry: duplicate label key '" + std::string(sorted[i].first) +
                "'");
    if (i > 0) out.push_back(',');
    out.append(sorted[i].first);
    out.append("=\"");
    out.append(escape_label_value(sorted[i].second));
    out.push_back('"');
  }
  return out;
}

}  // namespace

bool write_file_atomically(const std::string& path, void (*write)(std::ostream&)) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    write(out);
    if (!out) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::string escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

void append_json_escaped(std::string& out, std::string_view value) {
  for (char c : value) {
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
          out.push_back(c);
        }
    }
  }
}

struct MetricsRegistry::Impl {
  mutable std::mutex mutex;
  std::map<std::string, Metric, std::less<>> metrics;  ///< Sorted for export.

  /// Finds or creates (payload included) under the registry lock, so
  /// concurrent first lookups of one name are safe. `labels` is the
  /// canonical rendering (empty for plain metrics); all children of one
  /// family must agree on kind.
  Metric& find_or_create(std::string_view name, std::string labels, Kind kind,
                         const HistogramSpec* spec = nullptr) {
    std::string key(name);
    if (!labels.empty()) {
      key.push_back(kLabelSep);
      key.append(labels);
    }
    std::lock_guard lock(mutex);
    const auto it = metrics.find(key);
    if (it != metrics.end()) {
      require(it->second.kind == kind,
              "MetricsRegistry: '" + std::string(name) + "' already registered as " +
                  kind_name(it->second.kind) + ", requested as " + kind_name(kind));
      return it->second;
    }
    // Kind consistency across the whole family: the plain name and every
    // labelled child sit contiguously at lower_bound(name).
    for (auto sibling = metrics.lower_bound(name); sibling != metrics.end();
         ++sibling) {
      const std::string& sk = sibling->first;
      const bool same_family =
          sk == name || (sk.size() > name.size() && sk.compare(0, name.size(), name) == 0 &&
                         sk[name.size()] == kLabelSep);
      if (!same_family) break;
      require(sibling->second.kind == kind,
              "MetricsRegistry: '" + std::string(name) + "' already registered as " +
                  kind_name(sibling->second.kind) + ", requested as " + kind_name(kind));
    }
    Metric m{.kind = kind,
             .labels = std::move(labels),
             .counter = nullptr,
             .gauge = nullptr,
             .histogram = nullptr};
    switch (kind) {
      case Kind::Counter: m.counter = std::make_unique<Counter>(); break;
      case Kind::Gauge: m.gauge = std::make_unique<Gauge>(); break;
      case Kind::Histogram:
        m.histogram = std::make_unique<Histogram>(spec ? *spec : HistogramSpec{});
        break;
    }
    return metrics.emplace(std::move(key), std::move(m)).first->second;
  }
};

MetricsRegistry::MetricsRegistry() : impl_(std::make_unique<Impl>()) {}
MetricsRegistry::~MetricsRegistry() = default;

Counter& MetricsRegistry::counter(std::string_view name) {
  return *impl_->find_or_create(name, {}, Kind::Counter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return *impl_->find_or_create(name, {}, Kind::Gauge).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      const HistogramSpec& spec) {
  return *impl_->find_or_create(name, {}, Kind::Histogram, &spec).histogram;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::initializer_list<Label> labels) {
  return *impl_->find_or_create(name, render_labels(labels), Kind::Counter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name,
                              std::initializer_list<Label> labels) {
  return *impl_->find_or_create(name, render_labels(labels), Kind::Gauge).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::initializer_list<Label> labels,
                                      const HistogramSpec& spec) {
  return *impl_->find_or_create(name, render_labels(labels), Kind::Histogram, &spec)
              .histogram;
}

void MetricsRegistry::reset() {
  Impl& im = *impl_;
  std::lock_guard lock(im.mutex);
  for (auto& [name, m] : im.metrics) {
    if (m.counter) m.counter->reset();
    if (m.gauge) m.gauge->reset();
    if (m.histogram) m.histogram->reset();
  }
}

void MetricsRegistry::write_exposition(std::ostream& out) const {
  Impl& im = *impl_;
  std::lock_guard lock(im.mutex);
  std::string last_family;
  bool first = true;
  for (const auto& [key, m] : im.metrics) {
    // Children of one labelled family share the key prefix before the
    // separator; the map's sort keeps them contiguous, so one # TYPE line
    // covers the family.
    const std::string family = key.substr(0, key.find(kLabelSep));
    const std::string ename = exposition_name(family);
    if (first || family != last_family) {
      out << "# TYPE " << ename << ' ' << kind_name(m.kind) << '\n';
      last_family = family;
      first = false;
    }
    // `{labels}` suffix for plain sample lines; histograms splice their
    // own le/quantile label after these.
    const std::string plain_labels = m.labels.empty() ? "" : "{" + m.labels + "}";
    switch (m.kind) {
      case Kind::Counter:
        out << ename << plain_labels << ' ' << m.counter->value() << '\n';
        break;
      case Kind::Gauge:
        out << ename << plain_labels << ' ' << num_str(m.gauge->value()) << '\n';
        break;
      case Kind::Histogram: {
        const Histogram& h = *m.histogram;
        const std::string lead = m.labels.empty() ? "{" : "{" + m.labels + ",";
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.edges().size(); ++i) {
          cumulative += h.bucket_count(i);
          out << ename << "_bucket" << lead << "le=\"" << num_str(h.edges()[i])
              << "\"} " << cumulative << '\n';
        }
        cumulative += h.bucket_count(h.edges().size());
        out << ename << "_bucket" << lead << "le=\"+Inf\"} " << cumulative << '\n';
        out << ename << "_sum" << plain_labels << ' ' << num_str(h.sum()) << '\n';
        out << ename << "_count" << plain_labels << ' ' << h.count() << '\n';
        // Summary-style quantile estimates from the log-bucket
        // interpolation, emitted as comments so strict text-format
        // parsers (which reject `quantile` on a histogram) skip them.
        for (double q : {0.5, 0.95, 0.99}) {
          out << "# " << ename << lead << "quantile=\"" << num_str(q) << "\"} "
              << num_str(h.quantile(q)) << '\n';
        }
        break;
      }
    }
  }
}

std::string MetricsRegistry::exposition() const {
  std::ostringstream out;
  write_exposition(out);
  return out.str();
}

MetricsRegistry& registry() {
  static MetricsRegistry instance;
  return instance;
}

}  // namespace rfidsim::obs
