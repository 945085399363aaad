#include "sim/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace sp
{

namespace
{

/**
 * Serializes the stderr sink: runs execute concurrently on the sweep
 * engine (harness/sweep.hh), and a panic from one worker must not
 * interleave mid-line with another's. This mutex is the only shared
 * mutable state in the logging path.
 */
std::mutex &
sinkMutex()
{
    static std::mutex mtx;
    return mtx;
}

void
emit(const char *kind, const char *file, int line, const std::string &msg)
{
    std::lock_guard<std::mutex> lk(sinkMutex());
    std::fprintf(stderr, "%s: %s (%s:%d)\n", kind, msg.c_str(), file,
                 line);
    std::fflush(stderr);
}

} // namespace

void
panicImpl(const char *file, int line, const std::string &msg)
{
    emit("panic", file, line, msg);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    emit("fatal", file, line, msg);
    std::exit(1);
}

} // namespace sp
