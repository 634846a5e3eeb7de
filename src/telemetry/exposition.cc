#include "src/telemetry/exposition.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

namespace dynhist::telemetry {
namespace {

// Counters and bucket counts are integral in spirit; print them without
// a fractional part so dumps diff cleanly, everything else shortest.
void AppendNumber(std::string* out, double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else if (std::isinf(v)) {
    std::snprintf(buf, sizeof buf, v > 0 ? "+Inf" : "-Inf");
  } else {
    std::snprintf(buf, sizeof buf, "%.10g", v);
  }
  out->append(buf);
}

void AppendEscapedLabelValue(std::string* out, const std::string& v) {
  for (const char c : v) {
    if (c == '\\' || c == '"') {
      out->push_back('\\');
      out->push_back(c);
    } else if (c == '\n') {
      out->append("\\n");
    } else {
      out->push_back(c);
    }
  }
}

void AppendLabels(std::string* out, const Labels& labels,
                  const std::string* le = nullptr) {
  if (labels.empty() && le == nullptr) return;
  out->push_back('{');
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out->push_back(',');
    first = false;
    out->append(k);
    out->append("=\"");
    AppendEscapedLabelValue(out, v);
    out->push_back('"');
  }
  if (le != nullptr) {
    if (!first) out->push_back(',');
    out->append("le=\"");
    out->append(*le);
    out->push_back('"');
  }
  out->push_back('}');
}

struct Family {
  std::string help;
  const char* type = "untyped";
  std::vector<std::string> lines;
};

void RenderScalar(Family* family, const MetricSample& s) {
  std::string line = s.name;
  AppendLabels(&line, s.labels);
  line.push_back(' ');
  AppendNumber(&line, s.value);
  family->lines.push_back(std::move(line));
}

void RenderHistogram(Family* family, const HistogramSample& h) {
  // Sparse cumulative buckets: empty buckets are omitted (a valid, much
  // smaller exposition — le series need not be exhaustive), but the
  // closing le="+Inf" bucket always appears and equals _count.
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < h.snapshot.counts.size(); ++i) {
    if (h.snapshot.counts[i] == 0) continue;
    cumulative += h.snapshot.counts[i];
    const double bound = h.snapshot.bucketer.UpperBound(i);
    if (std::isinf(bound)) continue;  // folded into the +Inf line below
    std::string le;
    AppendNumber(&le, bound);
    std::string line = h.name + "_bucket";
    AppendLabels(&line, h.labels, &le);
    line.push_back(' ');
    AppendNumber(&line, static_cast<double>(cumulative));
    family->lines.push_back(std::move(line));
  }
  const std::string inf = "+Inf";
  std::string line = h.name + "_bucket";
  AppendLabels(&line, h.labels, &inf);
  line.push_back(' ');
  AppendNumber(&line, static_cast<double>(h.snapshot.count));
  family->lines.push_back(std::move(line));

  line = h.name + "_sum";
  AppendLabels(&line, h.labels);
  line.push_back(' ');
  AppendNumber(&line, static_cast<double>(h.snapshot.sum));
  family->lines.push_back(std::move(line));

  line = h.name + "_count";
  AppendLabels(&line, h.labels);
  line.push_back(' ');
  AppendNumber(&line, static_cast<double>(h.snapshot.count));
  family->lines.push_back(std::move(line));
}

}  // namespace

void WritePrometheus(const MetricsSnapshot& snapshot, std::string* out) {
  // Group samples into families (one HELP/TYPE header per name; all of a
  // family's series contiguous, as the format requires), sorted by name
  // for deterministic dumps.
  std::map<std::string, Family> families;
  for (const MetricSample& s : snapshot.samples) {
    Family& family = families[s.name];
    if (family.lines.empty()) {
      family.help = s.help;
      family.type =
          s.kind == MetricKind::kCounter ? "counter" : "gauge";
    }
    RenderScalar(&family, s);
  }
  for (const HistogramSample& h : snapshot.histograms) {
    Family& family = families[h.name];
    if (family.lines.empty()) {
      family.help = h.help;
      family.type = "histogram";
    }
    RenderHistogram(&family, h);
  }
  for (const auto& [name, family] : families) {
    if (!family.help.empty()) {
      out->append("# HELP ");
      out->append(name);
      out->push_back(' ');
      out->append(family.help);
      out->push_back('\n');
    }
    out->append("# TYPE ");
    out->append(name);
    out->push_back(' ');
    out->append(family.type);
    out->push_back('\n');
    for (const std::string& line : family.lines) {
      out->append(line);
      out->push_back('\n');
    }
  }
}

namespace {

// --- SelfCheckPrometheus parsing helpers --------------------------------

bool IsNameHead(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}
bool IsNameChar(char c) { return IsNameHead(c) || (c >= '0' && c <= '9'); }

// Parses a metric name at the front of `rest`, advancing it.
bool ParseName(std::string_view* rest, std::string* name) {
  if (rest->empty() || !IsNameHead(rest->front())) return false;
  std::size_t n = 1;
  while (n < rest->size() && IsNameChar((*rest)[n])) ++n;
  name->assign(rest->substr(0, n));
  rest->remove_prefix(n);
  return true;
}

// Parses `{k="v",...}` (escapes included), advancing `rest`.
bool ParseLabels(std::string_view* rest,
                 std::vector<std::pair<std::string, std::string>>* labels) {
  if (rest->empty() || rest->front() != '{') return true;  // no labels
  rest->remove_prefix(1);
  while (!rest->empty() && rest->front() != '}') {
    std::string key;
    if (!ParseName(rest, &key)) return false;
    if (rest->empty() || rest->front() != '=') return false;
    rest->remove_prefix(1);
    if (rest->empty() || rest->front() != '"') return false;
    rest->remove_prefix(1);
    std::string value;
    while (!rest->empty() && rest->front() != '"') {
      char c = rest->front();
      rest->remove_prefix(1);
      if (c == '\\') {
        if (rest->empty()) return false;
        const char esc = rest->front();
        rest->remove_prefix(1);
        c = esc == 'n' ? '\n' : esc;
      }
      value.push_back(c);
    }
    if (rest->empty()) return false;  // unterminated value
    rest->remove_prefix(1);           // closing quote
    labels->emplace_back(std::move(key), std::move(value));
    if (!rest->empty() && rest->front() == ',') rest->remove_prefix(1);
  }
  if (rest->empty()) return false;  // unterminated label set
  rest->remove_prefix(1);           // '}'
  return true;
}

bool ParseValue(std::string_view rest, double* value) {
  while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
  if (rest.empty()) return false;
  const std::string token(rest);
  char* end = nullptr;
  *value = std::strtod(token.c_str(), &end);
  return end != nullptr && *end == '\0' && end != token.c_str();
}

std::string LabelsKey(
    const std::vector<std::pair<std::string, std::string>>& labels,
    std::string_view skip) {
  std::vector<std::string> parts;
  for (const auto& [k, v] : labels) {
    if (k == skip) continue;
    parts.push_back(k + "=" + v);
  }
  std::sort(parts.begin(), parts.end());
  std::string joined;
  for (const std::string& p : parts) {
    joined.append(p);
    joined.push_back(';');
  }
  return joined;
}

bool Fail(std::string* error, std::size_t line_no, const std::string& why) {
  if (error != nullptr) {
    *error = "line " + std::to_string(line_no) + ": " + why;
  }
  return false;
}

}  // namespace

bool SelfCheckPrometheus(std::string_view text, std::string* error) {
  std::map<std::string, std::string> family_type;  // name -> TYPE
  struct BucketSeries {
    std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
    double count = -1.0;  // from _count, -1 until seen
    bool has_sum = false;
  };
  std::map<std::string, BucketSeries> series;  // family + labels key

  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    if (line.empty()) continue;
    if (line.front() == '#') {
      // "# TYPE <name> <type>" registers the family; other comments pass.
      if (line.rfind("# TYPE ", 0) == 0) {
        std::string_view rest = line.substr(7);
        std::string name;
        if (!ParseName(&rest, &name) || rest.empty() ||
            rest.front() != ' ') {
          return Fail(error, line_no, "malformed TYPE line");
        }
        rest.remove_prefix(1);
        const std::string type(rest);
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped") {
          return Fail(error, line_no, "unknown TYPE '" + type + "'");
        }
        family_type[name] = type;
      }
      continue;
    }

    std::string_view rest = line;
    std::string name;
    if (!ParseName(&rest, &name)) {
      return Fail(error, line_no, "malformed metric name");
    }
    std::vector<std::pair<std::string, std::string>> labels;
    if (!ParseLabels(&rest, &labels)) {
      return Fail(error, line_no, "malformed label set");
    }
    double value = 0.0;
    if (!ParseValue(rest, &value)) {
      return Fail(error, line_no, "malformed sample value");
    }

    // Resolve the family: histogram series use <family>_bucket/_sum/_count.
    std::string family = name;
    std::string suffix;
    for (const char* s : {"_bucket", "_sum", "_count"}) {
      if (name.size() > std::strlen(s) &&
          name.compare(name.size() - std::strlen(s), std::string::npos,
                       s) == 0) {
        const std::string base =
            name.substr(0, name.size() - std::strlen(s));
        const auto it = family_type.find(base);
        if (it != family_type.end() && it->second == "histogram") {
          family = base;
          suffix = s;
          break;
        }
      }
    }
    const auto type_it = family_type.find(family);
    if (type_it == family_type.end()) {
      return Fail(error, line_no, "sample '" + name + "' has no TYPE");
    }

    if (type_it->second == "histogram") {
      if (suffix.empty()) {
        return Fail(error, line_no,
                    "bare sample '" + name + "' in histogram family");
      }
      BucketSeries& bs = series[family + "|" + LabelsKey(labels, "le")];
      if (suffix == "_bucket") {
        std::string le;
        for (const auto& [k, v] : labels) {
          if (k == "le") le = v;
        }
        if (le.empty()) {
          return Fail(error, line_no, "_bucket sample without le label");
        }
        char* end = nullptr;
        const double bound = std::strtod(le.c_str(), &end);
        if (end == le.c_str() || *end != '\0') {
          return Fail(error, line_no, "unparseable le '" + le + "'");
        }
        bs.buckets.emplace_back(bound, value);
      } else if (suffix == "_count") {
        bs.count = value;
      } else {
        bs.has_sum = true;
      }
    }
  }

  for (const auto& [key, bs] : series) {
    const std::string where = "histogram '" + key + "'";
    if (bs.buckets.empty()) {
      return Fail(error, line_no, where + " has no buckets");
    }
    if (!std::isinf(bs.buckets.back().first)) {
      return Fail(error, line_no, where + " missing le=\"+Inf\" bucket");
    }
    for (std::size_t i = 0; i + 1 < bs.buckets.size(); ++i) {
      if (bs.buckets[i].first >= bs.buckets[i + 1].first) {
        return Fail(error, line_no, where + " le values not increasing");
      }
      if (bs.buckets[i].second > bs.buckets[i + 1].second) {
        return Fail(error, line_no,
                    where + " cumulative bucket counts decrease");
      }
    }
    if (!bs.has_sum) return Fail(error, line_no, where + " missing _sum");
    if (bs.count < 0.0) {
      return Fail(error, line_no, where + " missing _count");
    }
    if (bs.count != bs.buckets.back().second) {
      return Fail(error, line_no,
                  where + " _count != le=\"+Inf\" bucket value");
    }
  }
  if (error != nullptr) error->clear();
  return true;
}

}  // namespace dynhist::telemetry
