#pragma once

/**
 * @file
 * Spans recorded by the benchmark around each public call it makes
 * into a simulator layer (platform.run, cloud.invoke, sim.run_until,
 * ...). Spans are kept in memory while the run goes and written as
 * JSONL when it ends. A span's self time is its duration minus the
 * part of it that its child spans cover.
 *
 * The tracer is single-threaded: it is only touched from the thread
 * that drives the benchmark, never from simulator shard or fleet
 * worker threads.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** One finished (or still open, end_us < 0) span. */
struct Span
{
    std::uint64_t id = 0;      ///< 1-based; 0 means "no parent".
    std::uint64_t parent = 0;  ///< Enclosing span, 0 for a root.
    std::string name;
    std::string run;           ///< Run id shared by one run's spans.
    double start_us = 0.0;     ///< Since the tracer was created.
    double end_us = -1.0;

    double duration_us() const { return end_us - start_us; }
    bool operator==(const Span&) const = default;
};

/** In-memory span recorder. Disabled tracers record nothing. */
class Tracer
{
  public:
    Tracer(bool enabled, std::string run);

    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open one; returns its id
     *  (0 when disabled). */
    std::uint64_t open(const std::string& name);
    /** Close span @p id, which must be the innermost open one. */
    void close(std::uint64_t id);

    const std::vector<Span>& spans() const { return spans_; }

  private:
    double now_us() const;

    bool enabled_;
    std::string run_;
    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<std::uint64_t> stack_;
};

/** RAII span: open on construction, close on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer& tracer, const std::string& name)
        : tracer_(tracer), id_(tracer.open(name))
    {
    }
    ~ScopedSpan() { tracer_.close(id_); }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    Tracer& tracer_;
    std::uint64_t id_;
};

/**
 * Self time of every span, in @p spans order: duration minus the
 * union of its direct children's intervals, each clipped to the
 * parent's interval.
 */
std::vector<double> self_times_us(const std::vector<Span>& spans);

/** Self time summed per span name. */
std::map<std::string, double> self_time_by_name_us(
    const std::vector<Span>& spans);

/** One JSON object per line, one line per span. */
std::string spans_to_jsonl(const std::vector<Span>& spans);

/** Inverse of spans_to_jsonl (strict keys; throws on malformed input). */
std::vector<Span> spans_from_jsonl(const std::string& jsonl);

}  // namespace perfbench
