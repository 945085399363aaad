/**
 * @file
 * A scripted ProbeSource for the tests that need external coherence
 * probes at exact cycles (abort and rollback paths of paper Section
 * 4.2.2) rather than an adversary's drawn schedule.
 */

#ifndef SP_TESTS_SCRIPTED_PROBES_HH
#define SP_TESTS_SCRIPTED_PROBES_HH

#include <map>

#include "sim/fault.hh"

namespace sp
{

/** Delivers the added (tick, block) probes in tick order; probes with
 *  equal ticks keep the order they were added in. */
class ScriptedProbes final : public ProbeSource
{
  public:
    void
    add(Tick at, Addr block)
    {
        probes_.emplace(at, blockAlign(block));
        nextAt_ = probes_.begin()->first;
    }

    Addr
    drawProbe(Tick) override
    {
        Addr block = probes_.begin()->second;
        probes_.erase(probes_.begin());
        nextAt_ = probes_.empty() ? kTickNever : probes_.begin()->first;
        return block;
    }

  private:
    std::multimap<Tick, Addr> probes_;
};

} // namespace sp

#endif // SP_TESTS_SCRIPTED_PROBES_HH
