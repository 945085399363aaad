/**
 * @file
 * Property test: speculative persistence is performance-transparent.
 *
 * For randomly generated (but legal) op traces mixing stores, clwbs,
 * persist barriers, loads, and compute, the durable NVMM image after a
 * completed run must be bit-identical between the SP machine and the
 * non-speculative machine, across SSB sizes, checkpoint counts, and the
 * strict/pipelined commit engines. Speculation may only change *when*
 * things happen, never *what* ends up durable.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "cpu/ooo_core.hh"
#include "isa/program.hh"
#include "mem/cache_hierarchy.hh"
#include "mem/mem_system.hh"
#include "scripted_probes.hh"
#include "sim/rng.hh"

using namespace sp;

namespace
{

constexpr Addr kBase = 0x10000000;
constexpr unsigned kBlocks = 64;

std::vector<MicroOp>
randomTrace(uint64_t seed, unsigned length)
{
    Rng rng(seed);
    std::vector<MicroOp> ops;
    uint64_t value = seed * 1000;
    for (unsigned i = 0; i < length; ++i) {
        Addr addr = kBase + rng.nextBounded(kBlocks) * kBlockBytes +
            rng.nextBounded(8) * 8;
        switch (rng.nextBounded(10)) {
          case 0:
          case 1:
          case 2:
            ops.push_back(MicroOp::store(addr, ++value, 8));
            break;
          case 3:
          case 4:
            ops.push_back(MicroOp::load(addr, 8));
            break;
          case 5:
            ops.push_back(MicroOp::clwb(addr));
            break;
          case 6: {
            // A full persist barrier.
            ops.push_back(MicroOp::sfence());
            ops.push_back(MicroOp::pcommit());
            ops.push_back(MicroOp::sfence());
            break;
          }
          case 7:
            ops.push_back(
                MicroOp::aluChain(static_cast<uint16_t>(
                    1 + rng.nextBounded(40))));
            break;
          case 8:
            ops.push_back(MicroOp::sfence());
            break;
          default:
            ops.push_back(MicroOp::alu(static_cast<uint16_t>(
                1 + rng.nextBounded(8))));
            break;
        }
    }
    // End with a full barrier so every store is durable at completion.
    for (unsigned b = 0; b < kBlocks; ++b)
        ops.push_back(MicroOp::clwb(kBase + b * kBlockBytes));
    ops.push_back(MicroOp::sfence());
    ops.push_back(MicroOp::pcommit());
    ops.push_back(MicroOp::sfence());
    return ops;
}

MemImage
runMachine(const std::vector<MicroOp> &ops, const SpConfig &sp)
{
    SimConfig cfg;
    cfg.sp = sp;
    MemImage durable;
    Stats stats;
    TraceProgram prog(ops);
    MemSystem mc(cfg.mem, durable);
    CacheHierarchy caches(cfg, mc);
    OooCore core(cfg, prog, caches, mc, stats);
    core.run();
    caches.writebackAll();
    mc.drainAll();
    return durable;
}

bool
imagesEqual(const MemImage &a, const MemImage &b)
{
    for (unsigned blk = 0; blk < kBlocks; ++blk) {
        uint8_t da[kBlockBytes], db[kBlockBytes];
        a.readBlock(kBase + blk * kBlockBytes, da);
        b.readBlock(kBase + blk * kBlockBytes, db);
        if (std::memcmp(da, db, kBlockBytes) != 0)
            return false;
    }
    return true;
}

} // namespace

class SpEquivalence : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SpEquivalence, DurableImageMatchesNonSpeculative)
{
    uint64_t seed = GetParam();
    auto ops = randomTrace(seed, 400);

    SpConfig off;
    off.enabled = false;
    MemImage reference = runMachine(ops, off);

    for (unsigned ssb : {32u, 256u}) {
        for (unsigned cps : {2u, 4u}) {
            SpConfig on;
            on.enabled = true;
            on.ssbEntries = ssb;
            on.checkpoints = cps;
            MemImage spec = runMachine(ops, on);
            EXPECT_TRUE(imagesEqual(reference, spec))
                << "seed " << seed << " ssb " << ssb << " cps " << cps;
        }
    }

    SpConfig strict;
    strict.enabled = true;
    strict.strictCommit = true;
    EXPECT_TRUE(imagesEqual(reference, runMachine(ops, strict)))
        << "seed " << seed << " strict commit";

    SpConfig no_peephole;
    no_peephole.enabled = true;
    no_peephole.spsPeephole = false;
    EXPECT_TRUE(imagesEqual(reference, runMachine(ops, no_peephole)))
        << "seed " << seed << " peephole off";
}

INSTANTIATE_TEST_SUITE_P(RandomTraces, SpEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           11, 12));

TEST(SpEquivalence, AbortedRunsStillConverge)
{
    auto ops = randomTrace(99, 400);
    SpConfig off;
    off.enabled = false;
    MemImage reference = runMachine(ops, off);

    SimConfig cfg;
    cfg.sp.enabled = true;
    MemImage durable;
    Stats stats;
    TraceProgram prog(ops);
    MemSystem mc(cfg.mem, durable);
    CacheHierarchy caches(cfg, mc);
    OooCore core(cfg, prog, caches, mc, stats);
    // Pepper the whole run with probes over the trace's address range:
    // some will hit the BLT mid-speculation and force aborts.
    ScriptedProbes scripted;
    for (Tick t = 20; t < 20000; t += 61)
        scripted.add(t, kBase + (t % kBlocks) * kBlockBytes);
    core.setProbeSource(&scripted);
    core.run();
    caches.writebackAll();
    mc.drainAll();
    EXPECT_TRUE(imagesEqual(reference, durable));
}
