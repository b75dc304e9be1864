/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is one call across a layer boundary: a name "<layer>.<what>",
 * start and end on the steady clock, the span that was open when it
 * began (its parent) and the id of the VQA run it belongs to. Spans
 * are kept in memory and written out once, when the benchmark ends.
 *
 * A span's self time is its duration minus the part of its interval
 * that its child spans cover; a layer's self time is the sum over the
 * spans whose name starts with "<layer>.".
 *
 * The recorder is single-threaded: every traced call is made from the
 * benchmark's own thread.
 */
#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/** Sentinel parent of a root span. */
inline constexpr std::uint32_t kNoParent = 0xffffffffu;

struct Span
{
    std::uint32_t name = 0;
    std::uint32_t parent = kNoParent;
    std::uint64_t run = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/** Nanoseconds on the steady clock. */
std::int64_t nowNs();

/**
 * Self time of every span, indexed like `spans`: its duration minus
 * the union of its children's intervals clipped to its own.
 */
std::vector<std::int64_t> selfTimes(const std::vector<Span> &spans);

class Tracer
{
  public:
    /** Id of a span name, interned on first use. */
    std::uint32_t nameId(const std::string &name);

    /** Open a span under the innermost open one; returns its index. */
    std::uint32_t begin(std::uint32_t name, std::uint64_t run);
    /** Close the innermost open span, which must be `index`. */
    void end(std::uint32_t index);
    /** Record a finished interval directly (poll-observed states). */
    void record(std::uint32_t name, std::uint64_t run, std::int64_t start_ns,
                std::int64_t end_ns, std::uint32_t parent = kNoParent);

    const std::vector<Span> &spans() const { return spans_; }

    /** Per-name totals: calls, summed duration, summed self time (s). */
    struct Row
    {
        std::uint64_t calls = 0;
        double totalSeconds = 0.0;
        double selfSeconds = 0.0;
    };
    std::map<std::string, Row> table() const;
    /** Sum of self time over names starting with "<layer>." (s). */
    static std::map<std::string, double>
    layerSelfSeconds(const std::map<std::string, Row> &table);
    /** Durations (s) of every span with the given name. */
    std::vector<double> durations(const std::string &name) const;

    /** CSV dump: name,start_ns,end_ns,parent,run (one span per line). */
    void writeCsv(std::ostream &out) const;

  private:
    std::vector<std::string> names_;
    std::map<std::string, std::uint32_t> ids_;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> open_;
};

/** RAII span: opens on construction, closes on destruction. */
class SpanScope
{
  public:
    SpanScope(Tracer &tracer, std::uint32_t name, std::uint64_t run)
        : tracer_(tracer), index_(tracer.begin(name, run))
    {
    }
    ~SpanScope() { tracer_.end(index_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer &tracer_;
    std::uint32_t index_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP
