/**
 * @file
 * The benchmark's correctness checks.
 *
 * Each check compares the program's output with a computation the
 * benchmark makes itself, or with a property the output must have,
 * and returns one message per violation (empty = the check holds).
 * They take plain values so the self-tests can feed them corrupted
 * inputs and watch them fail.
 */

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fhe/encoder.h"
#include "sim/simulator.h"

namespace perfbench {

using Failures = std::vector<std::string>;

/**
 * Every served request id must have a reference digest, and the two
 * must be equal. `what` names the pair in the messages.
 */
Failures checkDigests(const std::map<uint64_t, uint64_t> &served,
                      const std::map<uint64_t, uint64_t> &reference,
                      const std::string &what);

/**
 * The serving probe in plain doubles: window_sum[i] = x[i+1] + x[i+2]
 * + x[i+3] + x[i+4] and square[i] = x[i]^2 (slot indices mod the slot
 * count), each within `tol` of the decrypted output.
 */
Failures checkProbe(const std::vector<cinnamon::fhe::Cplx> &x,
                    const std::vector<cinnamon::fhe::Cplx> &window_sum,
                    const std::vector<cinnamon::fhe::Cplx> &square,
                    double tol);

/** y[i] must equal x[i + steps] within `tol`. */
Failures checkRotation(const std::vector<cinnamon::fhe::Cplx> &x,
                       const std::vector<cinnamon::fhe::Cplx> &y,
                       int steps, double tol);

/** submitted == completed + rejected + expired + failed. */
Failures checkAccounting(std::size_t submitted, std::size_t completed,
                         std::size_t rejected, std::size_t expired,
                         std::size_t failed);

/** The simulator's own conservation laws for one kernel. */
Failures checkConservation(const cinnamon::sim::SimResult &result,
                           const cinnamon::sim::HardwareConfig &hw,
                           const std::string &what);

/**
 * Fig 11: a wide benchmark must be no slower on the larger machine
 * (Cinnamon-12) than on the smaller one (Cinnamon-4).
 */
Failures checkNoSlower(const std::string &benchmark, double small_s,
                       double large_s);

/** Largest |a[i] - b[i]| (vectors must have equal length). */
double maxAbsError(const std::vector<cinnamon::fhe::Cplx> &a,
                   const std::vector<cinnamon::fhe::Cplx> &b);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H_
