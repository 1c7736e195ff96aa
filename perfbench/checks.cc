#include "checks.h"

#include <algorithm>
#include <complex>
#include <sstream>

namespace perfbench {

namespace {

/** Report at most this many violations of one check. */
constexpr std::size_t kMaxMessages = 5;

void
add(Failures &out, const std::string &msg)
{
    if (out.size() < kMaxMessages)
        out.push_back(msg);
}

std::string
hex(uint64_t v)
{
    std::ostringstream os;
    os << std::hex << v;
    return os.str();
}

} // namespace

Failures
checkDigests(const std::map<uint64_t, uint64_t> &served,
             const std::map<uint64_t, uint64_t> &reference,
             const std::string &what)
{
    Failures out;
    for (const auto &[id, digest] : served) {
        auto it = reference.find(id);
        if (it == reference.end())
            add(out, what + ": request " + std::to_string(id) +
                         " has no reference digest");
        else if (it->second != digest)
            add(out, what + ": request " + std::to_string(id) +
                         " digest " + hex(digest) + " != reference " +
                         hex(it->second));
    }
    return out;
}

double
maxAbsError(const std::vector<cinnamon::fhe::Cplx> &a,
            const std::vector<cinnamon::fhe::Cplx> &b)
{
    double err = 0.0;
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i)
        err = std::max(err, std::abs(a[i] - b[i]));
    return a.size() == b.size() ? err : 1e300;
}

Failures
checkProbe(const std::vector<cinnamon::fhe::Cplx> &x,
           const std::vector<cinnamon::fhe::Cplx> &window_sum,
           const std::vector<cinnamon::fhe::Cplx> &square, double tol)
{
    const std::size_t s = x.size();
    std::vector<cinnamon::fhe::Cplx> want_window(s), want_square(s);
    for (std::size_t i = 0; i < s; ++i) {
        for (std::size_t k = 1; k <= 4; ++k)
            want_window[i] += x[(i + k) % s];
        want_square[i] = x[i] * x[i];
    }
    Failures out;
    const double ew = maxAbsError(want_window, window_sum);
    if (!(ew <= tol))
        add(out, "probe window_sum error " + std::to_string(ew) +
                     " > " + std::to_string(tol));
    const double es = maxAbsError(want_square, square);
    if (!(es <= tol))
        add(out, "probe square error " + std::to_string(es) + " > " +
                     std::to_string(tol));
    return out;
}

Failures
checkRotation(const std::vector<cinnamon::fhe::Cplx> &x,
              const std::vector<cinnamon::fhe::Cplx> &y, int steps,
              double tol)
{
    const std::size_t s = x.size();
    std::vector<cinnamon::fhe::Cplx> want(s);
    for (std::size_t i = 0; i < s; ++i)
        want[i] = x[(i + static_cast<std::size_t>(steps)) % s];
    Failures out;
    const double err = maxAbsError(want, y);
    if (!(err <= tol))
        add(out, "rotation by " + std::to_string(steps) + " error " +
                     std::to_string(err) + " > " + std::to_string(tol));
    return out;
}

Failures
checkAccounting(std::size_t submitted, std::size_t completed,
                std::size_t rejected, std::size_t expired,
                std::size_t failed)
{
    Failures out;
    const std::size_t fates = completed + rejected + expired + failed;
    if (fates != submitted)
        add(out, "accounting: submitted " + std::to_string(submitted) +
                     " != completed " + std::to_string(completed) +
                     " + rejected " + std::to_string(rejected) +
                     " + expired " + std::to_string(expired) +
                     " + failed " + std::to_string(failed));
    return out;
}

Failures
checkConservation(const cinnamon::sim::SimResult &result,
                  const cinnamon::sim::HardwareConfig &hw,
                  const std::string &what)
{
    Failures out;
    for (const auto &msg : result.checkConservation(hw))
        add(out, what + ": " + msg);
    return out;
}

Failures
checkNoSlower(const std::string &benchmark, double small_s,
              double large_s)
{
    Failures out;
    if (!(large_s <= small_s))
        add(out, benchmark + ": Cinnamon-12 " + std::to_string(large_s) +
                     " s slower than Cinnamon-4 " +
                     std::to_string(small_s) + " s");
    return out;
}

} // namespace perfbench
