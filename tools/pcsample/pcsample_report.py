#!/usr/bin/env python3
"""Aggregate pcsample output into function and source-line profiles.

    python3 tools/pcsample/pcsample_report.py pcsample.<pid>.txt [more...]
        [--top N] [--module SUBSTRING]

Reads the `count module address` lines libpcsample.so writes, resolves
each address with `addr2line -a -f -i -C` (one call per module) and
prints three tables:

  - by function: the symbol whose body holds the PC (the outermost frame
    of an inlined chain), which is what a flat profile shows;
  - by inlined function: the innermost frame, so code inlined into a
    large caller is charged to the function it came from;
  - by source line: the innermost file:line, which is where a single hot
    instruction shows up.

Several files (say, one per forked process) are summed. Build the
profiled binary with `-g` for names and lines; without it the tables
fall back to `??`.

Without debug information addr2line names the nearest preceding
symbol, however far away it ends. In a stripped library that charges
local functions (libc's IFUNC-selected memcpy/memmove, for one) to an
unrelated export. So a PC without line information that lies past the
end of its symbol (sizes from `nm -S`, dynamic and static tables) is
reported as `module+0x...`: the start of the unwind-table (.eh_frame)
range holding it, or the PC itself when none does.
"""

import argparse
import bisect
import collections
import os
import re
import subprocess
import sys


def read_samples(paths):
    counts = collections.Counter()
    total = dropped = 0
    for path in paths:
        with open(path) as f:
            for line in f:
                if line.startswith("#"):
                    fields = line.split()
                    if "dropped" in fields:
                        dropped += int(fields[fields.index("dropped") + 1])
                    continue
                count, module, addr = line.split()
                counts[(module, int(addr, 16))] += int(count)
                total += int(count)
    return counts, total, dropped


def resolve(module, addrs):
    """Map each address to its inline chain [(function, file:line), ...],
    innermost first."""
    if module == "?" or not os.path.exists(module):
        return {a: [("?? " + module, "??:0")] for a in addrs}
    proc = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", module],
        input="".join("0x%x\n" % a for a in addrs),
        capture_output=True, text=True, check=True)
    chains = {}
    current = None
    lines = proc.stdout.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            current = int(lines[i], 16)
            chains[current] = []
            i += 1
            continue
        func = lines[i]
        where = lines[i + 1] if i + 1 < len(lines) else "??:0"
        where = where.split(" (discriminator")[0]
        chains[current].append((func, where))
        i += 2
    return chains


def symbol_reach(module):
    """Sorted symbol starts and, for each, the furthest end of any sized
    symbol (dynamic or static table) starting at or before it."""
    spans = set()
    for table in (["-D"], []):
        proc = subprocess.run(
            ["nm", *table, "-S", "--defined-only", module],
            capture_output=True, text=True)
        for line in proc.stdout.splitlines():
            fields = line.split()
            if len(fields) < 4:
                continue
            try:
                start, size = int(fields[0], 16), int(fields[1], 16)
            except ValueError:
                continue
            if size:
                spans.add((start, start + size))
    starts, reach = [], []
    for start, end in sorted(spans):
        starts.append(start)
        reach.append(max(end, reach[-1]) if reach else end)
    return starts, reach


def unwind_ranges(module):
    """Sorted (start, end) of the module's .eh_frame FDE ranges."""
    proc = subprocess.run(["readelf", "--debug-dump=frames", module],
                          capture_output=True, text=True)
    found = re.findall(r"FDE .*pc=([0-9a-f]+)\.\.([0-9a-f]+)", proc.stdout)
    return sorted((int(a, 16), int(b, 16)) for a, b in found)


def unsized_to_offsets(module, chains):
    """Rename line-less frames that lie past every symbol's end."""
    suspects = [a for a, chain in chains.items()
                if chain and chain[-1][1].startswith("??")]
    if not suspects:
        return
    starts, reach = symbol_reach(module)
    if not starts:
        return
    ranges = None
    for addr in suspects:
        i = bisect.bisect_right(starts, addr) - 1
        if i >= 0 and addr < reach[i]:
            continue
        if ranges is None:
            ranges = unwind_ranges(module)
        j = bisect.bisect_right(ranges, (addr, float("inf"))) - 1
        inside = j >= 0 and ranges[j][0] <= addr < ranges[j][1]
        start = ranges[j][0] if inside else addr
        chains[addr] = [("%s+0x%x" % (os.path.basename(module), start),
                         "??:0")]


def short(path_line):
    path, _, line = path_line.rpartition(":")
    parts = path.split("/")
    for anchor in ("src", "perfbench", "tests", "bench", "include"):
        if anchor in parts:
            k = len(parts) - 1 - parts[::-1].index(anchor)
            return "/".join(parts[k:]) + ":" + line
    return os.path.basename(path) + ":" + line


def print_table(title, counter, total, top):
    print("\n%s" % title)
    print("%7s %6s  %s" % ("samples", "share", "where"))
    for key, n in counter.most_common(top):
        print("%7d %5.1f%%  %s" % (n, 100.0 * n / total, key))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--module", default="",
                    help="only count samples in modules whose path "
                         "contains this string")
    args = ap.parse_args()

    counts, total, dropped = read_samples(args.files)
    if args.module:
        counts = collections.Counter(
            {k: v for k, v in counts.items() if args.module in k[0]})
    kept = sum(counts.values())
    if kept == 0:
        sys.exit("pcsample_report: no samples")

    by_module = collections.defaultdict(list)
    for module, addr in counts:
        by_module[module].append(addr)
    outer = collections.Counter()
    inner = collections.Counter()
    lines = collections.Counter()
    for module, addrs in sorted(by_module.items()):
        chains = resolve(module, sorted(addrs))
        if module != "?" and os.path.exists(module):
            unsized_to_offsets(module, chains)
        for addr in addrs:
            chain = chains.get(addr) or [("??", "??:0")]
            n = counts[(module, addr)]
            outer[chain[-1][0]] += n
            inner[chain[0][0]] += n
            lines[short(chain[0][1])] += n

    print("%d samples (%d read, %d dropped by a full buffer)"
          % (kept, total, dropped))
    print_table("By function (outermost frame)", outer, kept, args.top)
    print_table("By inlined function (innermost frame)", inner, kept,
                args.top)
    print_table("By source line (innermost frame)", lines, kept, args.top)


if __name__ == "__main__":
    main()
