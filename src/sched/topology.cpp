#include "sched/topology.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

namespace dlrmopt::sched
{

namespace
{

/**
 * Parses a sysfs cpulist string like "0-3,8,10-11" into ids.
 */
std::vector<int>
parseCpuList(const std::string& s)
{
    std::vector<int> out;
    std::stringstream ss(s);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
        const auto dash = tok.find('-');
        if (dash == std::string::npos) {
            if (!tok.empty())
                out.push_back(std::stoi(tok));
        } else {
            const int lo = std::stoi(tok.substr(0, dash));
            const int hi = std::stoi(tok.substr(dash + 1));
            for (int c = lo; c <= hi; ++c)
                out.push_back(c);
        }
    }
    return out;
}

} // namespace

Topology
Topology::detect()
{
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());

    // Group logical CPUs by their thread_siblings_list contents.
    std::map<std::string, std::vector<int>> groups;
    bool sysfs_ok = true;
    for (unsigned cpu = 0; cpu < n; ++cpu) {
        std::ifstream f("/sys/devices/system/cpu/cpu" +
                        std::to_string(cpu) +
                        "/topology/thread_siblings_list");
        std::string list;
        if (!f || !std::getline(f, list)) {
            sysfs_ok = false;
            break;
        }
        groups[list].push_back(static_cast<int>(cpu));
    }

    Topology t;
    if (sysfs_ok && !groups.empty()) {
        for (auto& [list, cpus] : groups) {
            // Prefer the canonical sibling order from sysfs itself.
            std::vector<int> sib = parseCpuList(list);
            if (sib.empty())
                sib = cpus;
            std::sort(sib.begin(), sib.end());
            t._cores.push_back(std::move(sib));
        }
        std::sort(t._cores.begin(), t._cores.end());
        return t;
    }

    // Fallback: assume one thread per core.
    for (unsigned cpu = 0; cpu < n; ++cpu)
        t._cores.push_back({static_cast<int>(cpu)});
    return t;
}

std::vector<Topology>
Topology::partition(std::size_t n) const
{
    if (n == 0 || n > _cores.size()) {
        throw std::invalid_argument(
            "Topology::partition: need 1.." +
            std::to_string(_cores.size()) + " groups, got " +
            std::to_string(n));
    }
    std::vector<Topology> groups(n);
    const std::size_t base = _cores.size() / n;
    const std::size_t extra = _cores.size() % n;
    std::size_t next = 0;
    for (std::size_t g = 0; g < n; ++g) {
        const std::size_t take = base + (g < extra ? 1 : 0);
        for (std::size_t c = 0; c < take; ++c)
            groups[g]._cores.push_back(_cores[next++]);
    }
    return groups;
}

Topology
Topology::synthetic(std::size_t cores, std::size_t threads_per_core)
{
    Topology t;
    int next = 0;
    for (std::size_t c = 0; c < cores; ++c) {
        std::vector<int> sib;
        for (std::size_t s = 0; s < threads_per_core; ++s)
            sib.push_back(next++);
        t._cores.push_back(std::move(sib));
    }
    return t;
}

bool
pinThreadToCpu(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (cpu < 0 || cpu >= CPU_SETSIZE)
        return false;
    CPU_SET(cpu, &set);
    return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

} // namespace dlrmopt::sched
