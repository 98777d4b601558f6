/**
 * @file
 * In-process side of the benchmark: the service configuration
 * ref_serve builds for a workload, and helpers that drive an
 * AllocationService with the same protocol lines the server gets.
 */

#ifndef REFBENCH_REFERENCE_HH
#define REFBENCH_REFERENCE_HH

#include <string>
#include <vector>

#include "linalg/matrix.hh"
#include "svc/allocation_service.hh"
#include "svc/protocol.hh"
#include "workload.hh"

namespace refbench {

namespace linalg = ref::linalg;

/** ref_serve's capacity default (--capacity 24,12). */
inline const linalg::Vector kCapacity{24.0, 12.0};

/** The ServiceConfig ref_serve builds from the workload's flags;
 *  @p journalDir empty keeps it memory-only, otherwise it journals
 *  there under the durability check's fsync policy. */
ref::svc::ServiceConfig serviceConfig(const WorkloadSpec &spec,
                                      const std::string &journalDir);

/** " s0 s1 ..." in the protocol's shortest round-trip format, so two
 *  strings are equal exactly when the doubles are bit-identical. */
std::string formatShares(const linalg::Vector &shares);

/**
 * Execute @p line; false (with the reply in @p error) when the
 * service rejected it.
 */
bool execute(ref::svc::CommandSession &session, const std::string &line,
             std::string &error);

/** Remove @p dir and everything in it (no-op when missing). */
void removeTree(const std::string &dir);

} // namespace refbench

#endif // REFBENCH_REFERENCE_HH
