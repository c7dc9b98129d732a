#include "metrics_export.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/json.hpp"
#include "obs/profiler.hpp"
#include "obs/stats_registry.hpp"
#include "util/atomic_file.hpp"
#include "util/logging.hpp"

namespace solarcore::obs {

namespace {

/** OpenMetrics sample value: shortest round-trip, with the spec's
 *  spellings for the non-finite values JSON cannot carry. */
std::string
metricNumber(double v)
{
    if (std::isnan(v))
        return "NaN";
    if (std::isinf(v))
        return v > 0 ? "+Inf" : "-Inf";
    return jsonNumber(v);
}

bool
validMetricName(std::string_view name)
{
    if (name.empty())
        return false;
    auto head = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
            c == '_' || c == ':';
    };
    if (!head(name[0]))
        return false;
    for (const char c : name.substr(1))
        if (!head(c) && !(c >= '0' && c <= '9'))
            return false;
    return true;
}

} // namespace

std::string
openMetricsName(std::string_view dotted)
{
    std::string out = "solarcore_";
    for (const char c : dotted) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
            (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    return out;
}

std::string
openMetricsEscapeLabel(std::string_view value)
{
    std::string out;
    out.reserve(value.size());
    for (const char c : value) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '"':  out += "\\\""; break;
          case '\n': out += "\\n"; break;
          default:   out += c;
        }
    }
    return out;
}

std::string
openMetricsEscapeHelp(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          default:   out += c;
        }
    }
    return out;
}

// ------------------------------------------------------------- writer

void
OpenMetricsWriter::family(std::string_view name, std::string_view type,
                          std::string_view help)
{
    familyName_ = std::string(name);
    text_ += "# HELP ";
    text_ += familyName_;
    text_ += ' ';
    text_ += openMetricsEscapeHelp(help.empty() ? name : help);
    text_ += "\n# TYPE ";
    text_ += familyName_;
    text_ += ' ';
    text_ += type;
    text_ += '\n';
}

void
OpenMetricsWriter::sample(std::string_view suffix, const Labels &labels,
                          double value)
{
    sample(suffix, labels, value, MetricExemplar{});
}

void
OpenMetricsWriter::sample(std::string_view suffix, const Labels &labels,
                          double value, const MetricExemplar &exemplar)
{
    auto labelSet = [this](const Labels &set) {
        text_ += '{';
        for (std::size_t i = 0; i < set.size(); ++i) {
            if (i)
                text_ += ',';
            text_ += set[i].first;
            text_ += "=\"";
            text_ += openMetricsEscapeLabel(set[i].second);
            text_ += '"';
        }
        text_ += '}';
    };
    text_ += familyName_;
    text_ += suffix;
    if (!labels.empty())
        labelSet(labels);
    text_ += ' ';
    text_ += metricNumber(value);
    if (exemplar.valid) {
        // `value # {trace_id="..."} exemplar_value timestamp`
        text_ += " # ";
        labelSet(exemplar.labels);
        text_ += ' ';
        text_ += metricNumber(exemplar.value);
        if (exemplar.timestampSeconds > 0.0) {
            text_ += ' ';
            text_ += metricNumber(exemplar.timestampSeconds);
        }
    }
    text_ += '\n';
}

void
OpenMetricsWriter::gauge(std::string_view name, std::string_view help,
                         double value)
{
    family(name, "gauge", help);
    sample("", {}, value);
}

void
OpenMetricsWriter::counter(std::string_view name, std::string_view help,
                           double value)
{
    family(name, "counter", help);
    sample("_total", {}, value);
}

void
OpenMetricsWriter::histogram(std::string_view name, std::string_view help,
                             const std::vector<double> &upperBounds,
                             const std::vector<std::uint64_t> &counts,
                             std::uint64_t total, double sum)
{
    histogram(name, help, upperBounds, counts, total, sum, {});
}

void
OpenMetricsWriter::histogram(std::string_view name, std::string_view help,
                             const std::vector<double> &upperBounds,
                             const std::vector<std::uint64_t> &counts,
                             std::uint64_t total, double sum,
                             const std::vector<MetricExemplar> &exemplars)
{
    family(name, "histogram", help);
    auto exemplarAt = [&exemplars](std::size_t i) {
        return i < exemplars.size() ? exemplars[i] : MetricExemplar{};
    };
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < upperBounds.size(); ++i) {
        cumulative += i < counts.size() ? counts[i] : 0;
        sample("_bucket", {{"le", metricNumber(upperBounds[i])}},
               static_cast<double>(cumulative), exemplarAt(i));
    }
    // Everything past the last finite bound (the registry's clamped
    // top bin, the profiler's tail) lands in +Inf, which must equal
    // _count exactly.
    sample("_bucket", {{"le", "+Inf"}}, static_cast<double>(total),
           exemplarAt(upperBounds.size()));
    sample("_sum", {}, sum);
    sample("_count", {}, static_cast<double>(total));
}

void
OpenMetricsWriter::info(std::string_view name, std::string_view help,
                        const Labels &labels)
{
    family(name, "info", help);
    sample("_info", labels, 1.0);
}

std::string
OpenMetricsWriter::finish()
{
    if (!finished_) {
        text_ += "# EOF\n";
        finished_ = true;
    }
    return text_;
}

// ----------------------------------------------------------- registry

void
appendRegistry(OpenMetricsWriter &w, const StatsRegistry &reg)
{
    reg.forEach([&](const StatBase &stat) {
        const std::string name = openMetricsName(stat.name());
        if (const auto *s = dynamic_cast<const ScalarStat *>(&stat)) {
            w.gauge(name, stat.desc(), s->value());
        } else if (const auto *v =
                       dynamic_cast<const VectorStat *>(&stat)) {
            w.family(name, "gauge", stat.desc());
            for (std::size_t i = 0; i < v->lanes(); ++i)
                w.sample("", {{"lane", std::to_string(i)}}, v->lane(i));
        } else if (const auto *h =
                       dynamic_cast<const HistogramStat *>(&stat)) {
            // Finite edges stop at the second-to-last bin: the top bin
            // clamps out-of-range samples, so its honest bucket is
            // +Inf rather than `hi`.
            std::vector<double> bounds;
            std::vector<std::uint64_t> counts;
            for (std::size_t i = 0; i + 1 < h->bins(); ++i) {
                bounds.push_back(h->binLow(i + 1));
                counts.push_back(h->bin(i));
            }
            w.histogram(name, stat.desc(), bounds, counts, h->total(),
                        h->sum());
        } else if (const auto *f =
                       dynamic_cast<const FormulaStat *>(&stat)) {
            w.gauge(name, stat.desc(), f->value(reg));
        }
    });
}

namespace {

void
appendProfileNode(OpenMetricsWriter &w, const Profiler::Node &node,
                  std::string path)
{
    if (!node.name.empty()) {
        path = path.empty() ? node.name : path + ";" + node.name;
        if (node.count > 0) {
            // Log2(ns) buckets rendered as microsecond upper edges;
            // trim the unoccupied tail so the exposition stays small.
            std::size_t top = 0;
            for (std::size_t b = 0; b < Profiler::kHistBuckets; ++b)
                if (node.hist[b] > 0)
                    top = b + 1;
            std::uint64_t cumulative = 0;
            for (std::size_t b = 0; b < top; ++b) {
                cumulative += node.hist[b];
                w.sample("_bucket",
                         {{"scope", path},
                          {"le", metricNumber(
                                     static_cast<double>(1ull << (b + 1)) *
                                     1e-3)}},
                         static_cast<double>(cumulative));
            }
            w.sample("_bucket", {{"scope", path}, {"le", "+Inf"}},
                     static_cast<double>(node.count));
            w.sample("_sum", {{"scope", path}},
                     static_cast<double>(node.totalNs) * 1e-3);
            w.sample("_count", {{"scope", path}},
                     static_cast<double>(node.count));
        }
    }
    for (const auto &[name, child] : node.children)
        appendProfileNode(w, *child, path);
}

} // namespace

void
appendProfiler(OpenMetricsWriter &w, const Profiler &profiler)
{
    w.family("solarcore_profile_scope_us", "histogram",
             "scoped self-profiler latency, log2 buckets "
             "[microseconds]; scope is the collapsed stack path");
    appendProfileNode(w, profiler.root(), "");
}

// --------------------------------------------------------------- lint

namespace {

struct FamilyState
{
    std::string type;
    bool sawHelp = false;
    bool sawSample = false;
    // histogram accounting
    double lastLe = -std::numeric_limits<double>::infinity();
    std::string lastSeriesKey;
    double lastBucketCount = 0.0;
    bool sawInfBucket = false;
    double infCount = 0.0;
    bool sawSum = false;
    bool sawCount = false;
    double countValue = 0.0;
};

bool
parseSampleValue(std::string_view text, double &out)
{
    if (text == "NaN") {
        out = std::numeric_limits<double>::quiet_NaN();
        return true;
    }
    if (text == "+Inf" || text == "Inf") {
        out = std::numeric_limits<double>::infinity();
        return true;
    }
    if (text == "-Inf") {
        out = -std::numeric_limits<double>::infinity();
        return true;
    }
    char *end = nullptr;
    const std::string buf(text);
    out = std::strtod(buf.c_str(), &end);
    return end && *end == '\0' && !buf.empty();
}

/** Split `name{labels} value` into its parts; labels may be absent. */
bool
splitSample(std::string_view line, std::string_view &name,
            std::string_view &labels, std::string_view &value)
{
    std::size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ')
        ++i;
    name = line.substr(0, i);
    labels = {};
    if (i < line.size() && line[i] == '{') {
        // Scan to the matching close brace honoring escaped quotes.
        std::size_t j = i + 1;
        bool inString = false;
        while (j < line.size()) {
            const char c = line[j];
            if (inString) {
                if (c == '\\')
                    ++j;
                else if (c == '"')
                    inString = false;
            } else if (c == '"') {
                inString = true;
            } else if (c == '}') {
                break;
            }
            ++j;
        }
        if (j >= line.size())
            return false;
        labels = line.substr(i + 1, j - i - 1);
        i = j + 1;
    }
    if (i >= line.size() || line[i] != ' ')
        return false;
    value = line.substr(i + 1);
    return !value.empty();
}

/** Extract label @p key's unescaped value from a label body. */
bool
labelValue(std::string_view labels, std::string_view key,
           std::string &out, std::string &error)
{
    std::size_t i = 0;
    while (i < labels.size()) {
        std::size_t eq = labels.find('=', i);
        if (eq == std::string_view::npos) {
            error = "malformed label pair";
            return false;
        }
        const std::string_view name = labels.substr(i, eq - i);
        if (eq + 1 >= labels.size() || labels[eq + 1] != '"') {
            error = "label value not quoted";
            return false;
        }
        std::string decoded;
        std::size_t j = eq + 2;
        bool closed = false;
        while (j < labels.size()) {
            const char c = labels[j];
            if (c == '\\' && j + 1 < labels.size()) {
                const char n = labels[j + 1];
                decoded += n == 'n' ? '\n' : n;
                j += 2;
                continue;
            }
            if (c == '"') {
                closed = true;
                ++j;
                break;
            }
            decoded += c;
            ++j;
        }
        if (!closed) {
            error = "unterminated label value";
            return false;
        }
        if (name == key) {
            out = decoded;
            return true;
        }
        if (j < labels.size()) {
            if (labels[j] != ',') {
                error = "junk after label value";
                return false;
            }
            ++j;
        }
        i = j;
    }
    error = "";
    return false; // not found, but structurally fine
}

/**
 * Validate one exemplar section (everything after `value # `):
 * `{labelset} value [timestamp]` with a structurally sound label set
 * no longer than the spec's 128-character budget.
 */
bool
parseExemplar(std::string_view text, std::string &error)
{
    if (text.empty() || text[0] != '{') {
        error = "exemplar must start with a label set";
        return false;
    }
    std::size_t j = 1;
    bool inString = false;
    while (j < text.size()) {
        const char c = text[j];
        if (inString) {
            if (c == '\\')
                ++j;
            else if (c == '"')
                inString = false;
        } else if (c == '"') {
            inString = true;
        } else if (c == '}') {
            break;
        }
        ++j;
    }
    if (j >= text.size()) {
        error = "unterminated exemplar label set";
        return false;
    }
    const std::string_view body = text.substr(1, j - 1);
    if (!body.empty()) {
        std::string dummy, err;
        labelValue(body, "\x01", dummy, err);
        if (!err.empty()) {
            error = "exemplar " + err;
            return false;
        }
    }
    if (body.size() > 128) {
        error = "exemplar label set exceeds 128 characters";
        return false;
    }
    std::size_t i = j + 1;
    if (i >= text.size() || text[i] != ' ' || i + 1 >= text.size()) {
        error = "exemplar missing value";
        return false;
    }
    ++i;
    const std::size_t sp = text.find(' ', i);
    double v = 0.0;
    const std::string_view value_tok = text.substr(
        i, sp == std::string_view::npos ? std::string_view::npos : sp - i);
    if (!parseSampleValue(value_tok, v)) {
        error = "bad exemplar value '" + std::string(value_tok) + "'";
        return false;
    }
    if (sp != std::string_view::npos) {
        double ts = 0.0;
        const std::string_view ts_tok = text.substr(sp + 1);
        if (!parseSampleValue(ts_tok, ts)) {
            error = "bad exemplar timestamp '" + std::string(ts_tok) + "'";
            return false;
        }
    }
    return true;
}

} // namespace

bool
lintOpenMetrics(std::string_view text, std::vector<std::string> &errors)
{
    errors.clear();
    std::map<std::string, FamilyState, std::less<>> families;
    bool sawEof = false;
    std::size_t lineNo = 0;
    std::size_t pos = 0;

    auto fail = [&](const std::string &msg) {
        errors.push_back("line " + std::to_string(lineNo) + ": " + msg);
    };

    while (pos < text.size()) {
        std::size_t nl = text.find('\n', pos);
        if (nl == std::string_view::npos) {
            ++lineNo;
            errors.push_back("line " + std::to_string(lineNo) +
                             ": missing trailing newline");
            break;
        }
        const std::string_view line = text.substr(pos, nl - pos);
        pos = nl + 1;
        ++lineNo;
        if (sawEof) {
            fail("content after # EOF");
            break;
        }
        if (line.empty()) {
            fail("empty line");
            continue;
        }
        if (line == "# EOF") {
            sawEof = true;
            continue;
        }
        if (line.rfind("# HELP ", 0) == 0 ||
            line.rfind("# TYPE ", 0) == 0) {
            const bool isHelp = line[2] == 'H';
            const std::string_view rest = line.substr(7);
            const std::size_t sp = rest.find(' ');
            if (sp == std::string_view::npos || sp == 0) {
                fail("malformed # " +
                     std::string(isHelp ? "HELP" : "TYPE") + " line");
                continue;
            }
            const std::string name(rest.substr(0, sp));
            if (!validMetricName(name)) {
                fail("bad metric family name '" + name + "'");
                continue;
            }
            auto &fam = families[name];
            if (isHelp) {
                fam.sawHelp = true;
            } else {
                const std::string type(rest.substr(sp + 1));
                if (type != "gauge" && type != "counter" &&
                    type != "histogram" && type != "info" &&
                    type != "summary" && type != "unknown") {
                    fail("unknown metric type '" + type + "'");
                    continue;
                }
                if (!fam.type.empty())
                    fail("duplicate # TYPE for '" + name + "'");
                if (fam.sawSample)
                    fail("# TYPE after samples of '" + name + "'");
                fam.type = type;
            }
            continue;
        }
        if (line[0] == '#')
            continue; // free-form comment

        std::string_view name, labels, valueText;
        if (!splitSample(line, name, labels, valueText)) {
            fail("malformed sample line");
            continue;
        }
        if (!validMetricName(std::string(name))) {
            fail("bad metric name '" + std::string(name) + "'");
            continue;
        }
        // An exemplar rides after the value: `value # {...} v [ts]`.
        std::string_view exemplarText;
        bool hasExemplar = false;
        {
            const std::size_t hash = valueText.find(" # ");
            if (hash != std::string_view::npos) {
                exemplarText = valueText.substr(hash + 3);
                valueText = valueText.substr(0, hash);
                hasExemplar = true;
            }
        }
        double value = 0.0;
        if (!parseSampleValue(valueText, value)) {
            fail("bad sample value '" + std::string(valueText) + "'");
            continue;
        }
        // Resolve the family: strip a known suffix per declared type.
        std::string base(name);
        std::string suffix;
        for (const char *s : {"_bucket", "_total", "_count", "_sum",
                              "_info"}) {
            const std::string_view sv(s);
            if (base.size() > sv.size() &&
                base.compare(base.size() - sv.size(), sv.size(), s) ==
                    0) {
                const std::string candidate =
                    base.substr(0, base.size() - sv.size());
                const auto it = families.find(candidate);
                if (it != families.end()) {
                    base = candidate;
                    suffix = std::string(sv);
                    break;
                }
            }
        }
        const auto it = families.find(base);
        if (it == families.end() || it->second.type.empty()) {
            fail("sample '" + std::string(name) +
                 "' without a preceding # TYPE");
            continue;
        }
        FamilyState &fam = it->second;
        fam.sawSample = true;
        if (!fam.sawHelp)
            fail("family '" + base + "' has no # HELP");

        if (hasExemplar) {
            // Exemplars are only legal on histogram bucket samples.
            if (fam.type != "histogram" || suffix != "_bucket") {
                fail("exemplar on non-histogram-bucket sample '" +
                     std::string(name) + "'");
            } else {
                std::string err;
                if (!parseExemplar(exemplarText, err))
                    fail(err);
            }
        }

        if (fam.type == "counter") {
            if (suffix != "_total")
                fail("counter sample '" + std::string(name) +
                     "' must end in _total");
            if (value < 0.0)
                fail("counter '" + base + "' is negative");
        } else if (fam.type == "info") {
            if (suffix != "_info")
                fail("info sample must end in _info");
        } else if (fam.type == "histogram") {
            std::string err;
            if (suffix == "_bucket") {
                std::string le;
                if (!labelValue(labels, "le", le, err)) {
                    fail(err.empty()
                             ? "_bucket sample without le label"
                             : err);
                    continue;
                }
                // A new series (different non-le labels) restarts the
                // monotonicity tracking.
                std::string scope;
                labelValue(labels, "scope", scope, err);
                std::string lane;
                labelValue(labels, "lane", lane, err);
                const std::string seriesKey = scope + "\x1f" + lane;
                if (seriesKey != fam.lastSeriesKey) {
                    fam.lastSeriesKey = seriesKey;
                    fam.lastLe =
                        -std::numeric_limits<double>::infinity();
                    fam.lastBucketCount = 0.0;
                }
                double leValue = 0.0;
                if (!parseSampleValue(le, leValue)) {
                    fail("unparsable le '" + le + "'");
                    continue;
                }
                if (leValue <= fam.lastLe)
                    fail("bucket le '" + le +
                         "' not increasing in '" + base + "'");
                if (value + 1e-9 < fam.lastBucketCount)
                    fail("bucket counts of '" + base +
                         "' not cumulative");
                fam.lastLe = leValue;
                fam.lastBucketCount = value;
                if (std::isinf(leValue) && leValue > 0) {
                    fam.sawInfBucket = true;
                    fam.infCount = value;
                }
            } else if (suffix == "_sum") {
                fam.sawSum = true;
            } else if (suffix == "_count") {
                fam.sawCount = true;
                fam.countValue = value;
            } else {
                fail("histogram sample '" + std::string(name) +
                     "' must end in _bucket/_sum/_count");
            }
        }
    }

    if (!sawEof)
        errors.push_back("missing terminating # EOF");
    for (const auto &[name, fam] : families) {
        if (fam.type.empty())
            errors.push_back("family '" + name + "' has no # TYPE");
        if (fam.type == "histogram" && fam.sawSample) {
            if (!fam.sawInfBucket)
                errors.push_back("histogram '" + name +
                                 "' lacks a +Inf bucket");
            if (!fam.sawSum)
                errors.push_back("histogram '" + name + "' lacks _sum");
            if (!fam.sawCount)
                errors.push_back("histogram '" + name +
                                 "' lacks _count");
            else if (fam.sawInfBucket &&
                     fam.infCount != fam.countValue)
                errors.push_back("histogram '" + name +
                                 "': +Inf bucket != _count");
        }
    }
    return errors.empty();
}

// ----------------------------------------------------------- endpoint

MetricsEndpoint::MetricsEndpoint() = default;

MetricsEndpoint::~MetricsEndpoint()
{
    stop();
}

bool
MetricsEndpoint::start(int port)
{
    if (running_.load())
        return true;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        SC_WARN("metrics: socket() failed: ", std::strerror(errno));
        return false;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 8) != 0) {
        SC_WARN("metrics: cannot listen on 127.0.0.1:", port, ": ",
                std::strerror(errno));
        ::close(fd);
        return false;
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) ==
        0)
        port_ = ntohs(addr.sin_port);
    listenFd_ = fd;
    running_.store(true);
    server_ = std::thread([this] { serveLoop(); });
    return true;
}

void
MetricsEndpoint::serveLoop()
{
    while (running_.load()) {
        const int client = ::accept(listenFd_, nullptr, nullptr);
        if (client < 0) {
            if (!running_.load())
                break;
            continue;
        }
        timeval tv{};
        tv.tv_sec = 2;
        ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

        // Drain the request line + headers (we serve one document
        // regardless of the path) without trusting the client.
        char buf[1024];
        std::string request;
        while (request.find("\r\n\r\n") == std::string::npos &&
               request.size() < 8192) {
            const ssize_t n = ::recv(client, buf, sizeof(buf), 0);
            if (n <= 0)
                break;
            request.append(buf, static_cast<std::size_t>(n));
        }

        std::string body;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            body = payload_;
        }
        std::string response =
            "HTTP/1.0 200 OK\r\n"
            "Content-Type: application/openmetrics-text; "
            "version=1.0.0; charset=utf-8\r\n"
            "Content-Length: " +
            std::to_string(body.size()) +
            "\r\n"
            "Connection: close\r\n\r\n" +
            body;
        std::size_t sent = 0;
        while (sent < response.size()) {
            const ssize_t n = ::send(client, response.data() + sent,
                                     response.size() - sent, MSG_NOSIGNAL);
            if (n <= 0)
                break;
            sent += static_cast<std::size_t>(n);
        }
        ::close(client);
    }
}

void
MetricsEndpoint::update(std::string payload)
{
    std::lock_guard<std::mutex> lock(mutex_);
    payload_ = std::move(payload);
}

std::string
MetricsEndpoint::payload() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return payload_;
}

bool
MetricsEndpoint::writeSnapshot(const std::string &path) const
{
    std::string error;
    if (!util::writeFileAtomically(path, payload(), error)) {
        SC_WARN("metrics: ", error);
        return false;
    }
    return true;
}

void
MetricsEndpoint::stop()
{
    if (!running_.exchange(false))
        return;
    if (listenFd_ >= 0) {
        ::shutdown(listenFd_, SHUT_RDWR);
        ::close(listenFd_);
        listenFd_ = -1;
    }
    if (server_.joinable())
        server_.join();
    port_ = 0;
}

} // namespace solarcore::obs
