/**
 * @file
 * The benchmark's own span recorder.
 *
 * Spans are recorded around calls into the program's public layers
 * (compiler, simulator, key generation, runtime, digest, serving, net)
 * from the benchmark's files only; nothing inside the program is
 * instrumented. When tracing is off every span is a no-op, so the
 * untraced run pays one branch per call site.
 */

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <map>
#include <string>
#include <vector>

#include "common/trace.h"

namespace perfbench {

class Spans
{
  public:
    explicit Spans(bool on) : on_(on) {}

    Spans(const Spans &) = delete;
    Spans &operator=(const Spans &) = delete;

    bool on() const { return on_; }

    /** The recorder (null when tracing is off). */
    cinnamon::TraceRecorder *recorder() { return on_ ? &rec_ : nullptr; }

    /** A span covering the caller's scope, on the calling thread's row. */
    cinnamon::ScopedSpan
    span(const char *name, const char *layer)
    {
        return cinnamon::ScopedSpan(recorder(), name, layer, 0,
                                    threadRow());
    }

    /** Record an interval measured elsewhere (e.g. a served request). */
    void record(const char *name, const char *layer, double ts_us,
                double dur_us, uint32_t row);

    /** Durations in ms of every recorded event, by span name. */
    std::map<std::string, std::vector<double>> durationsMs() const;

    /** Every event recorded so far. */
    std::vector<cinnamon::TraceEvent> recorderEvents() const
    {
        return rec_.events();
    }

    /** Write the Chrome trace; false on I/O failure. */
    bool write(const std::string &path) const
    {
        return rec_.writeFile(path);
    }

    /** A small per-thread row number for the trace viewer. */
    static uint32_t threadRow();

  private:
    bool on_;
    cinnamon::TraceRecorder rec_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H_
