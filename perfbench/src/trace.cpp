#include "trace.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "util/json.hpp"

namespace perfbench {

Tracer::Tracer(bool enabled, std::string run)
    : enabled_(enabled), run_(std::move(run)),
      origin_(std::chrono::steady_clock::now())
{
}

double
Tracer::now_us() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

std::uint64_t
Tracer::open(const std::string& name)
{
    if (!enabled_)
        return 0;
    Span s;
    s.id = spans_.size() + 1;
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.name = name;
    s.run = run_;
    s.start_us = now_us();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
}

void
Tracer::close(std::uint64_t id)
{
    if (!enabled_)
        return;
    if (stack_.empty() || stack_.back() != id)
        throw std::logic_error("perfbench: span closed out of order");
    stack_.pop_back();
    spans_[id - 1].end_us = now_us();
}

std::vector<double>
self_times_us(const std::vector<Span>& spans)
{
    std::unordered_map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index.emplace(spans[i].id, i);
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span& s : spans) {
        auto it = index.find(s.parent);
        if (s.parent == 0 || it == index.end())
            continue;
        const Span& p = spans[it->second];
        const double lo = std::max(s.start_us, p.start_us);
        const double hi = std::min(s.end_us, p.end_us);
        if (hi > lo)
            children[it->second].emplace_back(lo, hi);
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto& iv = children[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double cur_lo = 0.0;
        double cur_hi = -1.0;
        for (const auto& [lo, hi] : iv) {
            if (lo > cur_hi) {
                if (cur_hi > cur_lo)
                    covered += cur_hi - cur_lo;
                cur_lo = lo;
                cur_hi = hi;
            } else {
                cur_hi = std::max(cur_hi, hi);
            }
        }
        if (cur_hi > cur_lo)
            covered += cur_hi - cur_lo;
        self[i] = spans[i].duration_us() - covered;
    }
    return self;
}

std::map<std::string, double>
self_time_by_name_us(const std::vector<Span>& spans)
{
    const std::vector<double> self = self_times_us(spans);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name] += self[i];
    return out;
}

std::string
spans_to_jsonl(const std::vector<Span>& spans)
{
    std::string out;
    for (const Span& s : spans) {
        out += hivemind::util::Json::object()
                   .kv("run", s.run)
                   .kv("id", s.id)
                   .kv("parent", s.parent)
                   .kv("name", s.name)
                   .kv("start_us", s.start_us)
                   .kv("end_us", s.end_us)
                   .str();
        out += '\n';
    }
    return out;
}

std::vector<Span>
spans_from_jsonl(const std::string& jsonl)
{
    std::vector<Span> spans;
    std::istringstream in(jsonl);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        hivemind::util::JsonCursor cur(line, "trace JSONL");
        Span s;
        int seen = 0;
        hivemind::util::parse_object(
            cur, [&](hivemind::util::JsonCursor& c, const std::string& key) {
                ++seen;
                if (key == "run")
                    s.run = c.parse_string();
                else if (key == "id")
                    s.id = static_cast<std::uint64_t>(c.parse_int());
                else if (key == "parent")
                    s.parent = static_cast<std::uint64_t>(c.parse_int());
                else if (key == "name")
                    s.name = c.parse_string();
                else if (key == "start_us")
                    s.start_us = c.parse_number();
                else if (key == "end_us")
                    s.end_us = c.parse_number();
                else
                    c.fail("unknown span key '" + key + "'");
            });
        if (!cur.done())
            cur.fail("trailing content on span line");
        if (seen != 6)
            cur.fail("span line needs exactly 6 keys");
        spans.push_back(std::move(s));
    }
    return spans;
}

}  // namespace perfbench
