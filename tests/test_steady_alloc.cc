/**
 * @file
 * Steady-state allocation assertion: once the machine is warm, simulating
 * more operations must not allocate proportionally more heap.
 *
 * The global operator new below interposes the whole test binary, so the
 * counter sees every allocation the simulator library makes. For each
 * workload the test runs the same configuration twice -- once at the
 * base op count and once at 3x -- and asserts that the extra 2x of
 * simulated operations cost at most a small per-op allocation budget.
 * Before the pool/arena work, every op pushed nodes through std::deque
 * and built fresh vectors per speculation episode (several allocations
 * per op); with warm pools the marginal cost is page materialization for
 * new data and the occasional capacity doubling, far under one per op.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "harness/runner.hh"
#include "workloads/factory.hh"

static std::atomic<uint64_t> g_allocations{0};

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace sp;

uint64_t
allocationsDuring(const RunConfig &cfg)
{
    uint64_t before = g_allocations.load(std::memory_order_relaxed);
    RunResult r = runExperiment(cfg);
    EXPECT_TRUE(r.completed);
    return g_allocations.load(std::memory_order_relaxed) - before;
}

// Generous enough for page materialization (a growing tree touches new
// 4 KiB pages) and pow-2 container doublings, but far below the
// several-allocations-per-op cost of per-op container churn.
constexpr double kPerOpBudget = 1.0;
constexpr uint64_t kFixedSlack = 4096;

/** Run every workload at 1x and 3x ops and bound the marginal cost. */
void
expectMarginalOpsWithinBudget(uint32_t traceCategories,
                              bool checksums = false)
{
    for (WorkloadKind kind : allWorkloadKinds()) {
        RunConfig cfg =
            makeRunConfig(kind, PersistMode::kLogPSf, true, 256, 0.25);
        cfg.trace.categories = traceCategories;
        cfg.params.checksums = checksums;
        uint64_t baseOps = cfg.params.simOps;
        ASSERT_GT(baseOps, 0u);

        uint64_t allocsBase = allocationsDuring(cfg);
        cfg.params.simOps = baseOps * 3;
        uint64_t allocsLong = allocationsDuring(cfg);

        uint64_t extraOps = baseOps * 2;
        uint64_t budget = kFixedSlack +
            static_cast<uint64_t>(kPerOpBudget *
                                  static_cast<double>(extraOps));
        uint64_t delta =
            allocsLong > allocsBase ? allocsLong - allocsBase : 0;
        EXPECT_LE(delta, budget)
            << workloadKindName(kind) << ": " << extraOps
            << " extra ops cost " << delta << " allocations (base run "
            << allocsBase << ", long run " << allocsLong
            << ") -- per-op container churn has crept back in";
    }
}

TEST(SteadyStateAllocations, MarginalOpsStayWithinBudget)
{
    expectMarginalOpsWithinBudget(0);
}

TEST(SteadyStateAllocations, SummaryOnlyTracingStaysWithinBudget)
{
    // The Machine-owned tracer keeps only the summary, so publishing an
    // event (one per retired non-ALU op under kTraceRetire) must not
    // allocate: argument text is built only by the exporters.
    expectMarginalOpsWithinBudget(kTraceAll);
}

TEST(SteadyStateAllocations, ChecksummedRunsStayWithinBudget)
{
    // The checksummed log format CRCs every logged pre-image and
    // refreshes the CRC slots of every covered line at commit; both run
    // per transaction and must reuse their scratch.
    expectMarginalOpsWithinBudget(0, /*checksums=*/true);
}

} // namespace
