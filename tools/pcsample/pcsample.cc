/**
 * @file
 * Minimal sampling profiler, loaded with LD_PRELOAD.
 *
 *     LD_PRELOAD=build/tools/pcsample/libpcsample.so ./some_binary ...
 *     python3 tools/pcsample/pcsample_report.py pcsample.<pid>.txt
 *
 * Every SIGPROF (process CPU time, one per millisecond) records the
 * interrupted program counter into a fixed array; nothing is allocated
 * and nothing is unwound in the handler. At exit the library resolves
 * each distinct PC to its module and module-relative offset with
 * dladdr() and writes `count module offset` lines to
 * `pcsample.<pid>.txt` in the working directory. The report script
 * turns offsets into functions and source lines with addr2line.
 *
 * Unlike a `-pg` build, the profiled binary is the unmodified optimized
 * build (add `-g` for line info), so inlining and code layout are the
 * ones being measured, and a single hot instruction -- a load that waits
 * on a store-forwarding stall, say -- shows up as its own line.
 *
 * A forked child starts with an empty buffer and re-arms the timer, so
 * each process writes its own file. Samples past the buffer's capacity
 * are counted and reported as dropped.
 */

#include <dlfcn.h>
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace
{

constexpr size_t kMaxSamples = size_t{1} << 20;
constexpr long kPeriodUs = 1000;

uintptr_t samples[kMaxSamples];
std::atomic<size_t> numSamples{0};
std::atomic<size_t> dropped{0};

uintptr_t
interruptedPc(void *context)
{
    auto *uc = static_cast<ucontext_t *>(context);
#if defined(__x86_64__)
    return static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    return static_cast<uintptr_t>(uc->uc_mcontext.pc);
#else
#error "pcsample: unsupported architecture"
#endif
}

void
onProf(int, siginfo_t *, void *context)
{
    size_t i = numSamples.fetch_add(1, std::memory_order_relaxed);
    if (i < kMaxSamples)
        samples[i] = interruptedPc(context);
    else
        dropped.fetch_add(1, std::memory_order_relaxed);
}

void
arm()
{
    itimerval period{};
    period.it_interval.tv_usec = kPeriodUs;
    period.it_value.tv_usec = kPeriodUs;
    setitimer(ITIMER_PROF, &period, nullptr);
}

void
restartInChild()
{
    numSamples.store(0);
    dropped.store(0);
    arm();
}

__attribute__((constructor)) void
start()
{
    struct sigaction sa{};
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    pthread_atfork(nullptr, nullptr, restartInChild);
    arm();
}

__attribute__((destructor)) void
stop()
{
    itimerval off{};
    setitimer(ITIMER_PROF, &off, nullptr);
    size_t n = std::min(numSamples.load(), kMaxSamples);
    std::vector<uintptr_t> pcs(samples, samples + n);
    std::sort(pcs.begin(), pcs.end());

    char path[64];
    std::snprintf(path, sizeof(path), "pcsample.%d.txt",
                  static_cast<int>(getpid()));
    FILE *out = std::fopen(path, "w");
    if (!out)
        return;
    char exe[4096] = "?";
    ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (len > 0)
        exe[len] = '\0';
    std::fprintf(out, "# samples %zu dropped %zu period_us %ld\n", n,
                 dropped.load(), kPeriodUs);
    for (size_t i = 0; i < n;) {
        size_t j = i;
        while (j < n && pcs[j] == pcs[i])
            ++j;
        Dl_info info{};
        link_map *map = nullptr;
        const char *module = "?";
        uintptr_t addr = pcs[i];
        if (dladdr1(reinterpret_cast<void *>(pcs[i]), &info,
                    reinterpret_cast<void **>(&map), RTLD_DL_LINKMAP) &&
            map) {
            // The main program's link-map name is empty.
            module = map->l_name[0] ? map->l_name : exe;
            addr = pcs[i] - map->l_addr;
        }
        std::fprintf(out, "%zu %s 0x%zx\n", j - i, module,
                     static_cast<size_t>(addr));
        i = j;
    }
    std::fclose(out);
}

} // namespace
