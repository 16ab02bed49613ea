/**
 * @file
 * CPU topology discovery: which logical CPUs are SMT siblings on the
 * same physical core.
 *
 * The paper's MP-HT design (Sec. 4.3) requires pinning the embedding
 * thread and the bottom-MLP thread to the two hyperthreads of one
 * physical core, and its thread-pool change gives each physical core
 * a private task queue. Both need the sibling map provided here.
 */

#ifndef DLRMOPT_SCHED_TOPOLOGY_HPP
#define DLRMOPT_SCHED_TOPOLOGY_HPP

#include <cstddef>
#include <vector>

namespace dlrmopt::sched
{

/**
 * Grouping of logical CPUs by physical core.
 */
class Topology
{
  public:
    /** Logical CPU ids belonging to physical core @p core. */
    const std::vector<int>&
    siblings(std::size_t core) const
    {
        return _cores[core];
    }

    std::size_t numPhysicalCores() const { return _cores.size(); }

    std::size_t
    numLogicalCpus() const
    {
        std::size_t n = 0;
        for (const auto& c : _cores)
            n += c.size();
        return n;
    }

    /** True when at least one core exposes two or more hyperthreads. */
    bool
    smtAvailable() const
    {
        for (const auto& c : _cores) {
            if (c.size() >= 2)
                return true;
        }
        return false;
    }

    /**
     * Reads the host topology from sysfs
     * (cpuN/topology/thread_siblings_list). Falls back to one logical
     * CPU per core using the online CPU count when sysfs is absent.
     */
    static Topology detect();

    /**
     * Splits the physical cores into @p n disjoint contiguous groups
     * of near-equal size (the first cores % n groups get one extra
     * core). Each group is a standalone Topology suitable for one
     * serving instance, so a cluster of N instances can give every
     * instance its own private core set with no sharing.
     *
     * @throws std::invalid_argument when n is zero or exceeds
     *         numPhysicalCores().
     */
    std::vector<Topology> partition(std::size_t n) const;

    /**
     * Builds a synthetic topology (used in tests and on hosts without
     * SMT to exercise the HT-aware code paths).
     *
     * @param cores Number of physical cores.
     * @param threads_per_core Hyperthreads per core.
     */
    static Topology synthetic(std::size_t cores,
                              std::size_t threads_per_core);

  private:
    std::vector<std::vector<int>> _cores;
};

/**
 * Pins the calling thread to logical CPU @p cpu.
 *
 * @retval true on success; false when affinity cannot be set (e.g.
 *         synthetic topologies or restricted containers), which is
 *         harmless — threads then float.
 */
bool pinThreadToCpu(int cpu);

} // namespace dlrmopt::sched

#endif // DLRMOPT_SCHED_TOPOLOGY_HPP
