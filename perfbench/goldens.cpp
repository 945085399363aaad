/**
 * @file
 * Pinned default-seed outputs (seed 42). A change that moves any of them
 * changed the simulated machine or the workloads, not only host speed;
 * it must say why and re-pin them (perfbench --emit-goldens).
 */

#include <cstring>

#include "bench.hh"

namespace perfbench
{

namespace
{

struct Golden
{
    const char *workload;
    const char *label;
    uint64_t cycles;
    uint64_t durableHash;
};

// clang-format off
const Golden kGoldens[] = {
    {"tree_setup", "AT/Base", 54342ull, 17961072387317695152ull},
    {"tree_setup", "AT/Log", 69370ull, 12510771268632888190ull},
    {"tree_setup", "AT/Log+P", 73981ull, 12510771268632888190ull},
    {"tree_setup", "AT/Log+P+Sf", 120150ull, 12510771268632888190ull},
    {"tree_setup", "AT/SP256", 75833ull, 12510771268632888190ull},
    {"tree_setup", "BT/Base", 67303ull, 12075083021045566852ull},
    {"tree_setup", "BT/Log", 79366ull, 8871836429620374099ull},
    {"tree_setup", "BT/Log+P", 86566ull, 8871836429620374099ull},
    {"tree_setup", "BT/Log+P+Sf", 134686ull, 8871836429620374099ull},
    {"tree_setup", "BT/SP256", 85917ull, 8871836429620374099ull},
    {"tree_setup", "RT/Base", 43876ull, 1700817873211383463ull},
    {"tree_setup", "RT/Log", 66529ull, 9735333460447129266ull},
    {"tree_setup", "RT/Log+P", 72595ull, 9735333460447129266ull},
    {"tree_setup", "RT/Log+P+Sf", 118780ull, 9735333460447129266ull},
    {"tree_setup", "RT/SP256", 75166ull, 9735333460447129266ull},
    {"fence_sim", "GH/Base", 313362ull, 5082851969998749352ull},
    {"fence_sim", "GH/Log", 316672ull, 13056143292385150351ull},
    {"fence_sim", "GH/Log+P", 320537ull, 13056143292385150351ull},
    {"fence_sim", "GH/Log+P+Sf", 417557ull, 13056143292385150351ull},
    {"fence_sim", "GH/SP256", 318597ull, 13056143292385150351ull},
    {"fence_sim", "HM/Base", 325964ull, 1909571195090238916ull},
    {"fence_sim", "HM/Log", 328494ull, 1738754388424184441ull},
    {"fence_sim", "HM/Log+P", 329500ull, 1738754388424184441ull},
    {"fence_sim", "HM/Log+P+Sf", 419794ull, 1738754388424184441ull},
    {"fence_sim", "HM/SP256", 330548ull, 1738754388424184441ull},
    {"fence_sim", "LL/Base", 180196ull, 13037741123413634037ull},
    {"fence_sim", "LL/Log", 181876ull, 15125510615954016534ull},
    {"fence_sim", "LL/Log+P", 185245ull, 15125510615954016534ull},
    {"fence_sim", "LL/Log+P+Sf", 262626ull, 15125510615954016534ull},
    {"fence_sim", "LL/SP256", 183891ull, 15125510615954016534ull},
    {"fence_sim", "SS/Base", 653807ull, 6522899245194688641ull},
    {"fence_sim", "SS/Log", 669406ull, 8067151757768635196ull},
    {"fence_sim", "SS/Log+P", 670232ull, 8067151757768635196ull},
    {"fence_sim", "SS/Log+P+Sf", 803005ull, 8067151757768635196ull},
    {"fence_sim", "SS/SP256", 675055ull, 8067151757768635196ull},
    {"observed_sp", "BT/Log+P+Sf", 2926919ull, 12295300566354197099ull},
    {"observed_sp", "BT/SP256", 1589342ull, 12295300566354197099ull},
    {"fault_campaign", "GH/SP256", 131051ull, 6494480372295434039ull},
    {"fault_campaign", "GH/Log+P+Sf", 172395ull, 6494480372295434039ull},
    {"fault_campaign", "GH/SP256+crc", 134898ull, 8452993635746035942ull},
    {"fault_campaign", "GH/SP256+conflict", 169047ull, 6494480372295434039ull},
    {"fault_campaign", "HM/SP256", 130222ull, 16401351207214271516ull},
    {"fault_campaign", "HM/Log+P+Sf", 167764ull, 16401351207214271516ull},
    {"fault_campaign", "HM/SP256+crc", 133653ull, 5506003794532520817ull},
    {"fault_campaign", "HM/SP256+conflict", 175104ull, 16401351207214271516ull},
    {"fault_campaign", "LL/SP256", 99863ull, 4746807230092231123ull},
    {"fault_campaign", "LL/Log+P+Sf", 140099ull, 4746807230092231123ull},
    {"fault_campaign", "LL/SP256+crc", 103046ull, 8804934112179678123ull},
    {"fault_campaign", "LL/SP256+conflict", 136567ull, 4746807230092231123ull},
    {"fault_campaign", "SS/SP256", 189050ull, 630170706397299199ull},
    {"fault_campaign", "SS/Log+P+Sf", 223749ull, 630170706397299199ull},
    {"fault_campaign", "SS/SP256+crc", 194887ull, 15317754299035215066ull},
    {"fault_campaign", "SS/SP256+conflict", 228341ull, 630170706397299199ull},
    {"fault_campaign", "AT/SP256", 51890ull, 10509403823531260334ull},
    {"fault_campaign", "AT/Log+P+Sf", 82911ull, 10509403823531260334ull},
    {"fault_campaign", "AT/SP256+crc", 62496ull, 12090034164118315621ull},
    {"fault_campaign", "AT/SP256+conflict", 79390ull, 10509403823531260334ull},
    {"fault_campaign", "BT/SP256", 50608ull, 11616678962626682415ull},
    {"fault_campaign", "BT/Log+P+Sf", 89823ull, 11616678962626682415ull},
    {"fault_campaign", "BT/SP256+crc", 64338ull, 7765597400273133099ull},
    {"fault_campaign", "BT/SP256+conflict", 88521ull, 11616678962626682415ull},
    {"fault_campaign", "RT/SP256", 49290ull, 2290527444701678969ull},
    {"fault_campaign", "RT/Log+P+Sf", 84283ull, 2290527444701678969ull},
    {"fault_campaign", "RT/SP256+crc", 62306ull, 11273170375857551696ull},
    {"fault_campaign", "RT/SP256+conflict", 83322ull, 2290527444701678969ull},
    {"fault_campaign", "AT-inc/SP256", 104138ull, 8786589492213597129ull},
    {"fault_campaign", "AT-inc/Log+P+Sf", 177671ull, 8786589492213597129ull},
    {"fault_campaign", "AT-inc/SP256+crc", 125179ull, 2282424933214187845ull},
    {"fault_campaign", "AT-inc/SP256+conflict", 260414ull, 8786589492213597129ull},
};
// clang-format on

} // namespace

std::string
checkGolden(const std::string &workload, const RunRecord &r)
{
    for (const Golden &g : kGoldens) {
        if (workload != g.workload || r.label != g.label)
            continue;
        if (r.stats.cycles != g.cycles || r.durableHash != g.durableHash)
            return "golden mismatch: cycles " +
                std::to_string(r.stats.cycles) + " (pinned " +
                std::to_string(g.cycles) + "), durable hash " +
                std::to_string(r.durableHash) + " (pinned " +
                std::to_string(g.durableHash) + ")";
        return "";
    }
    return "no golden pinned";
}

uint64_t
campaignSignatureGolden()
{
    return 8699998728293179782ull;
}

uint64_t
fig08SubsetGolden(const std::string &workload)
{
    // The two subsets of bench_perf_baseline's seed_sweep golden,
    // 154,819,131 simulated cycles over all 35 Figure 8 cells.
    if (workload == "tree_setup")
        return 20853622ull; // AT, BT, RT
    if (workload == "fence_sim")
        return 133965509ull; // GH, HM, LL, SS
    return 0;
}

} // namespace perfbench
