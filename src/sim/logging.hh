/**
 * @file
 * Error reporting helpers in the spirit of gem5's logging.hh.
 *
 * panic()  - the simulator itself is broken; aborts.
 * fatal()  - the user asked for something impossible; exits with an error.
 *
 * There is no warning channel: a condition a run survives is counted
 * in Stats, a TraceSummary or PerfTelemetry, where sweeps can read it,
 * instead of printed to stderr.
 */

#ifndef SP_SIM_LOGGING_HH
#define SP_SIM_LOGGING_HH

#include <sstream>
#include <string>

namespace sp
{

/** Internal invariant violated: print and abort(). */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Unusable configuration or input: print and exit(1). */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

namespace detail
{

inline void
appendAll(std::ostringstream &)
{
}

template <typename T, typename... Rest>
void
appendAll(std::ostringstream &os, const T &value, const Rest &...rest)
{
    os << value;
    appendAll(os, rest...);
}

template <typename... Args>
std::string
format(const Args &...args)
{
    std::ostringstream os;
    appendAll(os, args...);
    return os.str();
}

/**
 * SP_ASSERT's failure path. Out of line and cold, so the ostringstream
 * formatting costs the asserting function neither frame space nor
 * inlining budget.
 */
template <typename... Args>
[[noreturn, gnu::cold, gnu::noinline]] void
assertFailed(const char *file, int line, const Args &...args)
{
    panicImpl(file, line, format(args...));
}

} // namespace detail
} // namespace sp

#define SP_PANIC(...) \
    ::sp::panicImpl(__FILE__, __LINE__, ::sp::detail::format(__VA_ARGS__))

#define SP_FATAL(...) \
    ::sp::fatalImpl(__FILE__, __LINE__, ::sp::detail::format(__VA_ARGS__))

/** Assert a simulator invariant; compiled in all build types. */
#define SP_ASSERT(cond, ...)                                             \
    do {                                                                 \
        if (__builtin_expect(!(cond), 0)) {                              \
            ::sp::detail::assertFailed(__FILE__, __LINE__,               \
                                       "assertion failed: ", #cond, " ", \
                                       ##__VA_ARGS__);                   \
        }                                                                \
    } while (0)

#endif // SP_SIM_LOGGING_HH
