#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::vector<std::int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent == kNoParent)
            continue;
        if (s.parent >= spans.size())
            throw std::invalid_argument("selfTimes: dangling parent");
        kids[s.parent].emplace_back(s.startNs, s.endNs);
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t cursor = p.startNs;
        for (const auto &[lo, hi] : iv) {
            const std::int64_t a = std::max(lo, cursor);
            const std::int64_t b = std::min(hi, p.endNs);
            if (b > a) {
                covered += b - a;
                cursor = b;
            }
        }
        self[i] = (p.endNs - p.startNs) - covered;
    }
    return self;
}

std::uint32_t
Tracer::nameId(const std::string &name)
{
    auto it = ids_.find(name);
    if (it != ids_.end())
        return it->second;
    const auto id = static_cast<std::uint32_t>(names_.size());
    names_.push_back(name);
    ids_.emplace(name, id);
    return id;
}

std::uint32_t
Tracer::begin(std::uint32_t name, std::uint64_t run)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? kNoParent : open_.back();
    s.run = run;
    s.startNs = nowNs();
    const auto index = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(s);
    open_.push_back(index);
    return index;
}

void
Tracer::end(std::uint32_t index)
{
    const std::int64_t t = nowNs();
    if (open_.empty() || open_.back() != index)
        throw std::logic_error("Tracer::end: spans closed out of order");
    open_.pop_back();
    spans_[index].endNs = t;
}

void
Tracer::record(std::uint32_t name, std::uint64_t run, std::int64_t start_ns,
               std::int64_t end_ns, std::uint32_t parent)
{
    Span s;
    s.name = name;
    s.parent = parent;
    s.run = run;
    s.startNs = start_ns;
    s.endNs = end_ns;
    spans_.push_back(s);
}

std::map<std::string, Tracer::Row>
Tracer::table() const
{
    const std::vector<std::int64_t> self = selfTimes(spans_);
    std::map<std::string, Row> rows;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        Row &r = rows[names_[spans_[i].name]];
        ++r.calls;
        r.totalSeconds +=
            static_cast<double>(spans_[i].endNs - spans_[i].startNs) * 1e-9;
        r.selfSeconds += static_cast<double>(self[i]) * 1e-9;
    }
    return rows;
}

std::map<std::string, double>
Tracer::layerSelfSeconds(const std::map<std::string, Row> &table)
{
    std::map<std::string, double> layers;
    for (const auto &[name, row] : table)
        layers[name.substr(0, name.find('.'))] += row.selfSeconds;
    return layers;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    auto it = ids_.find(name);
    if (it == ids_.end())
        return out;
    for (const Span &s : spans_)
        if (s.name == it->second)
            out.push_back(static_cast<double>(s.endNs - s.startNs) * 1e-9);
    return out;
}

void
Tracer::writeCsv(std::ostream &out) const
{
    out << "name,start_ns,end_ns,parent,run\n";
    for (const Span &s : spans_) {
        out << names_[s.name] << ',' << s.startNs << ',' << s.endNs << ',';
        if (s.parent == kNoParent)
            out << "-1";
        else
            out << s.parent;
        out << ',' << s.run << '\n';
    }
}

} // namespace perfbench
