#!/usr/bin/env python3
"""Attribute the samples `sampler.c` wrote to the repository's modules.

    symbolize.py SAMPLES [--under FUNCTION] [--top N]

Every sampled address of the executable is resolved once, with its
inline chain, by `addr2line -a -f -i -C`. A sample is kept only if some
frame of its stack names FUNCTION (default `run_to_completion`, the
simulation loop), so set-up and reporting stay out of the table. Each
kept sample goes to the innermost frame whose source file lies under
`crates/<crate>/src/<module>`: its bucket is `<crate>/<module>` (a
module directory such as `sim/obs` counts as one module). Standard
library code inlined into a crate function counts for that function's
module; a sample with no frame in `crates/` counts as `(outside)`.

Prints the per-module shares, the innermost repository functions, and
the sample count with the rate it implies, so every share can be read
against its resolution (one sample in N is 100/N %).
"""

import argparse
import collections
import os
import re
import subprocess
import sys

MODULE = re.compile(r"crates/([^/]+)/src/([^/.]+)")
# The repository's own crates; the standard library has `crates/` paths
# of its own (stdarch's `crates/core_arch`), which must not count.
CRATES = set(os.listdir(os.path.join(os.path.dirname(__file__), "..", "..", "crates")))


def parse(path):
    """Returns ({pid: (bias, exe)}, [(pid, [addr, ...])])."""
    exes, samples = {}, []
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "B" and len(parts) >= 4:
                exes[parts[1]] = (int(parts[2], 16), line.split(None, 3)[3].strip())
            elif parts[0] == "S" and len(parts) >= 3:
                samples.append((parts[1], [int(a, 16) for a in parts[2:]]))
    return exes, samples


def resolve(exe, addrs):
    """{addr: [(function, file), ...]} innermost first, via one addr2line."""
    addrs = sorted(addrs)
    if not addrs:
        return {}
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", exe],
        input="".join(f"{a:#x}\n" for a in addrs),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    frames, cur, i = {}, None, 0
    while i < len(out):
        line = out[i]
        if re.fullmatch(r"0x[0-9a-f]+", line):
            cur = int(line, 16)
            frames[cur] = []
            i += 1
            continue
        func = line
        loc = out[i + 1] if i + 1 < len(out) else "??"
        frames[cur].append((func, loc.split(":")[0]))
        i += 2
    return frames


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("samples")
    ap.add_argument("--under", default="run_to_completion")
    ap.add_argument("--top", type=int, default=15)
    args = ap.parse_args()

    exes, samples = parse(args.samples)
    if not samples:
        sys.exit("no samples")
    # Link-time addresses per executable; return addresses step back one
    # byte so they resolve to the call, not the instruction after it.
    wanted = collections.defaultdict(set)
    stacks = []
    for pid, raw in samples:
        if pid not in exes:
            continue
        bias, exe = exes[pid]
        stack = [raw[0] - bias] + [a - 1 - bias for a in raw[1:]]
        wanted[exe].update(stack)
        stacks.append((exe, stack))
    frames = {exe: resolve(exe, addrs) for exe, addrs in wanted.items()}

    modules, functions = collections.Counter(), collections.Counter()
    kept = 0
    for exe, stack in stacks:
        chain = [fr for a in stack for fr in frames[exe].get(a, [("??", "??")])]
        if not any(args.under in func for func, _ in chain):
            continue
        kept += 1
        for func, path in chain:
            m = MODULE.search(path)
            if m and m.group(1) in CRATES:
                modules[f"{m.group(1)}/{m.group(2)}"] += 1
                functions[func] += 1
                break
        else:
            modules["(outside)"] += 1

    print(f"{len(samples)} samples, {kept} under `{args.under}`", end="")
    print(f" (one sample = {100 / kept:.2f} %)" if kept else "")
    if not kept:
        sys.exit(1)
    print(f"\n{'module':<24} {'samples':>8} {'share':>7}")
    for name, n in modules.most_common():
        print(f"{name:<24} {n:>8} {100 * n / kept:>6.1f}%")
    print(f"\n{'innermost repository function':<70} {'share':>7}")
    for name, n in functions.most_common(args.top):
        short = name if len(name) <= 68 else name[:65] + "..."
        print(f"{short:<70} {100 * n / kept:>6.1f}%")


if __name__ == "__main__":
    main()
