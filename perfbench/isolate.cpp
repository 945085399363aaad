/**
 * @file
 * runCampaignIsolated: a fault campaign in a forked child process.
 *
 * Some crash images make recovery hit an SP_ASSERT, which aborts the
 * process. Run in the benchmark's own process, that would end the run with
 * no result. In a child, it is one failed campaign that the parent counts.
 * A campaign that outlives its deadline is killed and counted the same way.
 */

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "bench.hh"

namespace perfbench
{

using namespace sp;

namespace
{

/** Cell failures spelled out in full; the rest are only counted. */
constexpr size_t kMaxFailureTexts = 8;

template <typename T>
void
put(std::string &buf, const T &v)
{
    buf.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
putString(std::string &buf, const std::string &s)
{
    put<uint32_t>(buf, static_cast<uint32_t>(s.size()));
    buf += s;
}

/** Reads what put() wrote; every read is bounds-checked. */
class Reader
{
  public:
    explicit Reader(const std::string &buf) : buf_(buf) {}

    template <typename T>
    T get()
    {
        T v{};
        need(sizeof(T));
        std::memcpy(&v, buf_.data() + pos_, sizeof(T));
        pos_ += sizeof(T);
        return v;
    }

    std::string getString()
    {
        uint32_t n = get<uint32_t>();
        need(n);
        std::string s = buf_.substr(pos_, n);
        pos_ += n;
        return s;
    }

  private:
    void need(size_t n)
    {
        if (buf_.size() - pos_ < n)
            throw std::runtime_error("truncated campaign result");
    }

    const std::string &buf_;
    size_t pos_ = 0;
};

std::string
serialize(const CampaignReport &rep)
{
    std::string buf;
    put<uint8_t>(buf, rep.passed() ? 1 : 0);
    put<uint64_t>(buf, rep.totalAborts);
    put<uint64_t>(buf, rep.signature());
    put<uint64_t>(buf, rep.cells.size());
    std::vector<std::string> failures;
    for (const CampaignCellResult &c : rep.cells) {
        bool failed = campaignCellFailed(c);
        put<uint8_t>(buf, static_cast<uint8_t>(c.kind));
        put<double>(buf, c.wallMs);
        put<uint8_t>(buf, failed ? 1 : 0);
        if (failed && failures.size() < kMaxFailureTexts)
            failures.push_back(
                std::to_string(c.index) + " (" +
                campaignCellKindName(c.kind) + ", " + c.config + "): " +
                (c.error.empty() ? "verdict failed" : c.error));
    }
    put<uint64_t>(buf, failures.size());
    for (const std::string &f : failures)
        putString(buf, f);
    return buf;
}

CampaignOutcome
deserialize(const std::string &buf)
{
    Reader r(buf);
    CampaignOutcome out;
    out.passed = r.get<uint8_t>() != 0;
    out.totalAborts = r.get<uint64_t>();
    out.signature = r.get<uint64_t>();
    uint64_t n = r.get<uint64_t>();
    for (uint64_t i = 0; i < n; ++i) {
        CampaignCell c;
        c.kind = static_cast<CampaignCellKind>(r.get<uint8_t>());
        c.wallMs = r.get<double>();
        c.failed = r.get<uint8_t>() != 0;
        out.cells.push_back(c);
    }
    uint64_t nf = r.get<uint64_t>();
    for (uint64_t i = 0; i < nf; ++i)
        out.failures.push_back(r.getString());
    return out;
}

/** Write all of `buf` to `fd`; false on error. */
bool
writeAll(int fd, const std::string &buf)
{
    size_t done = 0;
    while (done < buf.size()) {
        ssize_t n = ::write(fd, buf.data() + done, buf.size() - done);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        done += static_cast<size_t>(n);
    }
    return true;
}

} // namespace

CampaignOutcome
runCampaignIsolated(const CampaignOptions &opts, double timeoutS)
{
    int fds[2];
    if (::pipe(fds) != 0)
        throw std::runtime_error("pipe() failed");
    std::fflush(nullptr); // the child must not flush buffered output twice
    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        throw std::runtime_error("fork() failed");
    }
    if (pid == 0) {
        ::close(fds[0]);
        int status = 1;
        try {
            status = writeAll(fds[1], serialize(runFaultCampaign(opts)))
                ? 0
                : 1;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: campaign threw: %s\n",
                         e.what());
        }
        ::_exit(status);
    }

    ::close(fds[1]);
    std::string buf;
    std::string crash;
    double deadline = nowSeconds() + timeoutS;
    char chunk[65536];
    for (;;) {
        int waitMs = static_cast<int>((deadline - nowSeconds()) * 1e3);
        if (waitMs <= 0) {
            ::kill(pid, SIGKILL);
            crash = "campaign timed out after " +
                std::to_string(static_cast<int>(timeoutS)) + " s";
            break;
        }
        struct pollfd pfd = {fds[0], POLLIN, 0};
        int ready = ::poll(&pfd, 1, waitMs);
        if (ready < 0 && errno == EINTR)
            continue;
        if (ready <= 0)
            continue; // the deadline check above handles the timeout
        ssize_t n = ::read(fds[0], chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break; // EOF: the child exited or closed the pipe
        buf.append(chunk, static_cast<size_t>(n));
    }
    ::close(fds[0]);

    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (crash.empty()) {
        if (WIFSIGNALED(status))
            crash = std::string("campaign process killed by signal ") +
                std::to_string(WTERMSIG(status)) + " (" +
                strsignal(WTERMSIG(status)) + ")";
        else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            crash = "campaign process exited with status " +
                std::to_string(WEXITSTATUS(status));
    }
    if (!crash.empty()) {
        CampaignOutcome out;
        out.crash = crash;
        return out;
    }
    return deserialize(buf);
}

} // namespace perfbench
