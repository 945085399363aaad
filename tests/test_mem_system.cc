/**
 * @file
 * Unit tests: the multi-controller memory system and the paper's
 * pcommit-acks-from-ALL-controllers semantics (Section 2.2).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "mem/mem_system.hh"
#include "sim/snapshot.hh"
#include "sim/stats.hh"

using namespace sp;

namespace
{

MemConfig
twoCtrlConfig()
{
    MemConfig cfg;
    cfg.numMemCtrls = 2;
    cfg.nvmmBanks = 1; // serialize within a controller for clear timing
    cfg.nvmmWriteCycles = 300;
    cfg.nvmmReadCycles = 100;
    cfg.wpqEntries = 8;
    return cfg;
}

void
fill(uint8_t *data, uint8_t v)
{
    std::memset(data, v, kBlockBytes);
}

std::vector<uint8_t>
stateBytes(MemSystem &sys)
{
    SnapshotWriter w;
    sys.serialize(w);
    return w.take();
}

} // namespace

TEST(MemSystem, DefaultIsSingleController)
{
    MemConfig cfg;
    MemImage durable;
    MemSystem sys(cfg, durable);
    EXPECT_EQ(sys.numCtrls(), 1u);
}

TEST(MemSystem, BlocksInterleaveAcrossControllers)
{
    MemImage durable;
    MemSystem sys(twoCtrlConfig(), durable);
    uint8_t data[kBlockBytes];
    fill(data, 0x11);
    sys.advanceTo(0);
    // Consecutive blocks go to alternating controllers: both writes
    // proceed in parallel even with one bank per controller.
    sys.insertWrite(0x1000, data, false);
    sys.insertWrite(0x1040, data, false);
    sys.advanceTo(300);
    EXPECT_EQ(durable.readInt(0x1000, 1), 0x11u);
    EXPECT_EQ(durable.readInt(0x1040, 1), 0x11u);
}

TEST(MemSystem, SameControllerSerializes)
{
    MemImage durable;
    MemSystem sys(twoCtrlConfig(), durable);
    uint8_t data[kBlockBytes];
    fill(data, 0x22);
    sys.advanceTo(0);
    // Blocks 0x1000 and 0x1080 both map to controller 0.
    sys.insertWrite(0x1000, data, false);
    sys.insertWrite(0x1080, data, false);
    sys.advanceTo(300);
    EXPECT_EQ(durable.readInt(0x1000, 1), 0x22u);
    EXPECT_EQ(durable.readInt(0x1080, 1), 0u);
    sys.advanceTo(600);
    EXPECT_EQ(durable.readInt(0x1080, 1), 0x22u);
}

TEST(MemSystem, FlushWaitsForAllControllers)
{
    // The paper: pcommit completes only on acknowledgement from ALL
    // memory controllers.
    MemImage durable;
    MemSystem sys(twoCtrlConfig(), durable);
    uint8_t data[kBlockBytes];
    fill(data, 0x33);
    sys.advanceTo(0);
    sys.insertWrite(0x1000, data, false); // ctrl 0
    sys.insertWrite(0x1040, data, false); // ctrl 1
    sys.insertWrite(0x1080, data, false); // ctrl 0, second write
    uint64_t id = sys.startFlush(0);
    sys.advanceTo(300);
    // Controller 1 is done, controller 0 still has a pending write.
    EXPECT_FALSE(sys.flushComplete(id));
    sys.advanceTo(600);
    EXPECT_TRUE(sys.flushComplete(id));
}

TEST(MemSystem, FlushOfIdleSystemIsImmediate)
{
    MemImage durable;
    MemSystem sys(twoCtrlConfig(), durable);
    EXPECT_TRUE(sys.flushComplete(sys.startFlush(0)));
}

TEST(MemSystem, WpqSpaceIsPerController)
{
    MemImage durable;
    MemConfig cfg = twoCtrlConfig();
    cfg.wpqEntries = 2;
    MemSystem sys(cfg, durable);
    uint8_t data[kBlockBytes];
    fill(data, 0x44);
    sys.advanceTo(0);
    // Fill controller 0 (blocks 0x0, 0x80 -> even block indices).
    sys.insertWrite(0x1000, data, false);
    sys.insertWrite(0x1080, data, false);
    EXPECT_FALSE(sys.wpqHasSpace(0x1100)); // ctrl 0 full
    EXPECT_TRUE(sys.wpqHasSpace(0x1040)); // ctrl 1 empty
}

TEST(MemSystem, ReadBlockDataRoutesToOwner)
{
    MemImage durable;
    MemSystem sys(twoCtrlConfig(), durable);
    uint8_t data[kBlockBytes];
    fill(data, 0x55);
    sys.advanceTo(0);
    sys.insertWrite(0x1040, data, false); // pending at ctrl 1
    uint8_t out[kBlockBytes];
    sys.readBlockData(0x1040, out);
    EXPECT_EQ(out[0], 0x55);
}

TEST(MemSystem, DrainAllEmptiesEveryController)
{
    MemImage durable;
    MemSystem sys(twoCtrlConfig(), durable);
    uint8_t data[kBlockBytes];
    fill(data, 0x66);
    sys.advanceTo(0);
    for (int i = 0; i < 6; ++i)
        sys.insertWrite(0x2000 + i * 64, data, true);
    sys.drainAll();
    EXPECT_EQ(sys.wpqOccupancy(), 0u);
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(durable.readInt(0x2000 + i * 64, 1), 0x66u);
}

TEST(MemSystem, MoreControllersDrainFaster)
{
    uint8_t data[kBlockBytes];
    fill(data, 0x77);
    auto drain_time = [&](unsigned ctrls) {
        MemConfig cfg = twoCtrlConfig();
        cfg.numMemCtrls = ctrls;
        MemImage durable;
        MemSystem sys(cfg, durable);
        sys.advanceTo(0);
        for (int i = 0; i < 8; ++i)
            sys.insertWrite(0x3000 + i * 64, data, true);
        uint64_t id = sys.startFlush(0);
        Tick t = 0;
        while (!sys.flushComplete(id)) {
            t += 10;
            sys.advanceTo(t);
        }
        return t;
    };
    EXPECT_GT(drain_time(1), drain_time(4));
}

// The contract OooCore's chain batches rely on (MemCtrl::advanceTo):
// a system advanced only when a tick reaches its nextEventTick(), and
// at the ticks that insert a write or start a flush, is in the same
// state at each of those ticks as one advanced every tick, and answers
// flushComplete() the same at every tick in between.
TEST(MemSystem, AdvancingOnlyAtEventsMatchesEveryTick)
{
    struct Shape
    {
        unsigned ctrls;
        unsigned banks;
        unsigned jitter;
    };
    for (Shape shape : {Shape{1, 1, 0}, Shape{1, 2, 40}, Shape{2, 2, 40}}) {
        SCOPED_TRACE(std::to_string(shape.ctrls) + " controllers, " +
                     std::to_string(shape.banks) + " banks, jitter " +
                     std::to_string(shape.jitter));
        MemConfig cfg;
        cfg.numMemCtrls = shape.ctrls;
        cfg.nvmmBanks = shape.banks;
        cfg.nvmmWriteCycles = 300;
        cfg.wpqEntries = 16;
        MemImage eagerImage, lazyImage;
        Stats eagerStats, lazyStats;
        MemSystem eager(cfg, eagerImage), lazy(cfg, lazyImage);
        eager.setStats(&eagerStats);
        lazy.setStats(&lazyStats);
        eager.setWriteJitter(shape.jitter, 9);
        lazy.setWriteJitter(shape.jitter, 9);

        // Bursts of writes with flush markers behind them, several
        // flushes pending at once, and a same-block write that merges.
        constexpr Tick kEnd = 20000;
        std::vector<Tick> eagerDone, lazyDone;
        Tick lazyDue = 0;
        unsigned writes = 0;
        for (Tick t = 0; t < kEnd; ++t) {
            bool acts = t < 4000 && t % 97 == 0;
            eager.advanceTo(t);
            if (acts || t >= lazyDue) {
                lazy.advanceTo(t);
                ASSERT_EQ(stateBytes(eager), stateBytes(lazy)) << "tick " << t;
            }
            if (acts) {
                uint8_t data[kBlockBytes];
                fill(data, static_cast<uint8_t>(writes + 1));
                Addr blk = 0x1000 + ((writes * 3) % 16) * kBlockBytes;
                unsigned copies = writes % 7 == 3 ? 2 : 1;
                for (unsigned c = 0; c < copies; ++c) {
                    eager.insertWrite(blk, data, true);
                    lazy.insertWrite(blk, data, true);
                }
                if (++writes % 5 == 0) {
                    uint64_t id = eager.startFlush(t);
                    EXPECT_EQ(lazy.startFlush(t), id);
                    eagerDone.push_back(kTickNever);
                    lazyDone.push_back(kTickNever);
                }
            }
            if (acts || t >= lazyDue)
                lazyDue = lazy.nextEventTick();
            // Read without advancing, as a chain cycle does.
            for (uint64_t id = 1; id <= eagerDone.size(); ++id) {
                if (eagerDone[id - 1] == kTickNever && eager.flushComplete(id))
                    eagerDone[id - 1] = t;
                if (lazyDone[id - 1] == kTickNever && lazy.flushComplete(id))
                    lazyDone[id - 1] = t;
            }
        }
        lazy.advanceTo(kEnd - 1);
        EXPECT_EQ(stateBytes(eager), stateBytes(lazy));
        EXPECT_EQ(eager.wpqOccupancy(), 0u) << "script did not drain";
        ASSERT_FALSE(eagerDone.empty());
        EXPECT_EQ(eagerDone, lazyDone);
        EXPECT_NE(eagerDone.back(), kTickNever);
        EXPECT_GT(eagerStats.nvmmWrites, 0u);
        EXPECT_EQ(eagerStats.nvmmWrites, lazyStats.nvmmWrites);
        EXPECT_EQ(eagerStats.wpqCoalesced, lazyStats.wpqCoalesced);
        EXPECT_GT(eagerStats.wpqCoalesced, 0u);
        EXPECT_EQ(eagerImage.hash(), lazyImage.hash());
    }
}

// One advanceTo() that passes several completions and dispatches, as a
// chain jump's exit advance does, must reach the state per-tick calls
// reach. The case that needs care: a write queued behind a busy bank
// dispatches at that bank's free tick, and the write behind it, on an
// idle bank, dispatches in the same tick while the first is in flight,
// so the seq-order clamp holds it to the first one's doneAt. A call
// that completed the first write before dispatching the second would
// let it finish earlier, and a flush behind it would report a shorter
// latency.
TEST(MemSystem, LeapingAdvanceMatchesEveryTick)
{
    for (unsigned jitter : {0u, 60u}) {
        SCOPED_TRACE("jitter " + std::to_string(jitter));
        MemConfig cfg;
        cfg.nvmmBanks = 2;
        cfg.nvmmWriteCycles = 300;
        cfg.wpqEntries = 64;
        MemImage eagerImage, leapImage;
        Stats eagerStats, leapStats;
        MemSystem eager(cfg, eagerImage), leap(cfg, leapImage);
        eager.setStats(&eagerStats);
        leap.setStats(&leapStats);
        eager.setWriteJitter(jitter, 5);
        leap.setWriteJitter(jitter, 5);

        // Banks 0, 0, 1, 1, 0, 1 per burst, a flush behind each burst,
        // and bursts closer together than they drain.
        constexpr unsigned kBanks[] = {0, 0, 1, 1, 0, 1};
        constexpr Tick kEnd = 30000;
        unsigned writes = 0;
        for (Tick t = 0; t < kEnd; ++t) {
            eager.advanceTo(t);
            if (t >= 15000 || t % 1100 != 0)
                continue;
            leap.advanceTo(t);
            ASSERT_EQ(stateBytes(eager), stateBytes(leap)) << "tick " << t;
            for (unsigned bank : kBanks) {
                uint8_t data[kBlockBytes];
                fill(data, static_cast<uint8_t>(++writes));
                Addr blk = 0x1000 + (2 * (writes % 8) + bank) * kBlockBytes;
                eager.insertWrite(blk, data, true);
                leap.insertWrite(blk, data, true);
            }
            EXPECT_EQ(leap.startFlush(t), eager.startFlush(t));
        }
        leap.advanceTo(kEnd - 1);
        EXPECT_EQ(stateBytes(eager), stateBytes(leap));
        EXPECT_EQ(eager.wpqOccupancy(), 0u) << "script did not drain";
        EXPECT_EQ(eagerStats.nvmmWrites, leapStats.nvmmWrites);
        EXPECT_EQ(eagerImage.hash(), leapImage.hash());
        const Histogram &e = eagerStats.flushLatency;
        const Histogram &l = leapStats.flushLatency;
        EXPECT_GT(e.samples(), 0u);
        EXPECT_EQ(e.samples(), l.samples());
        EXPECT_EQ(e.min(), l.min());
        EXPECT_EQ(e.max(), l.max());
        EXPECT_EQ(e.mean(), l.mean());
    }
}
