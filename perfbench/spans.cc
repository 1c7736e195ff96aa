#include "spans.h"

#include <atomic>

namespace perfbench {

void
Spans::record(const char *name, const char *layer, double ts_us,
              double dur_us, uint32_t row)
{
    if (!on_)
        return;
    cinnamon::TraceEvent e;
    e.name = name;
    e.category = layer;
    e.pid = 0;
    e.tid = row;
    e.ts_us = ts_us;
    e.dur_us = dur_us;
    rec_.complete(std::move(e));
}

std::map<std::string, std::vector<double>>
Spans::durationsMs() const
{
    std::map<std::string, std::vector<double>> out;
    for (const auto &e : rec_.events())
        out[e.name].push_back(e.dur_us / 1e3);
    return out;
}

uint32_t
Spans::threadRow()
{
    static std::atomic<uint32_t> next{0};
    thread_local const uint32_t row = next++;
    return row;
}

} // namespace perfbench
