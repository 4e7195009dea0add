#!/usr/bin/env python3
"""List the out-of-line calls a function makes in a built binary.

    calls.py BINARY FUNCTION... [--deny CALLEE]...

For each FUNCTION, every symbol of BINARY whose demangled name ends in
FUNCTION at a path boundary (`RxProcessor::receive_cell` names
`osiris_board::rx::RxProcessor::receive_cell`) is disassembled, and its
callees are printed with the number of call sites:

* direct calls (`call ADDR`) and tail calls (`jmp ADDR` leaving the
  function) resolve through the symbol table;
* calls through the GOT (`call *SLOT(%rip)`: a call into another crate
  that the compiler could not inline) resolve through the slot's
  `R_X86_64_RELATIVE` relocation, whose addend is the callee's address,
  or through its `R_X86_64_GLOB_DAT` symbol for a shared-library callee.

A FUNCTION with no symbol of its own was inlined into all its callers
(or is not in BINARY at all); its calls are then the callers', and it
is reported as such.

With `--deny CALLEE` (repeatable, same suffix match as FUNCTION) the
script exits 1 if any listed function calls a denied function out of
line, naming each such call: the guard that a per-cell leaf meant to be
inlined across crates still is.

Needs only `nm`, `objdump` and `readelf` (binutils).
"""

import argparse
import bisect
import collections
import re
import subprocess
import sys

# `call`/`jmp` operands as objdump prints them (AT&T syntax).
DIRECT = re.compile(r"\s(call|jmp)\s+([0-9a-f]+)\s+<([^>+]+)")
GOT = re.compile(r"\scall\s+\*0x[0-9a-f]+\(%rip\)\s+#\s+([0-9a-f]+)")
HASH = re.compile(r"::h[0-9a-f]{16}$")


def run(*cmd):
    return subprocess.run(cmd, check=True, capture_output=True, text=True).stdout


def symbols(binary):
    """Returns [(addr, size, demangled name)] of the defined code symbols."""
    out = []
    for line in run("nm", "-C", "-S", "--defined-only", binary).splitlines():
        parts = line.split(None, 3)
        if len(parts) == 4 and parts[2] in "tTwW":
            name = HASH.sub("", parts[3])
            out.append((int(parts[0], 16), int(parts[1], 16), name))
    out.sort()
    return out


def got_slots(binary):
    """Returns {GOT slot address: callee address or shared symbol name}."""
    slots = {}
    for line in run("readelf", "-r", "-W", "-C", binary).splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[2] == "R_X86_64_RELATIVE":
            slots[int(parts[0], 16)] = int(parts[3], 16)
        elif len(parts) >= 5 and parts[2] == "R_X86_64_GLOB_DAT":
            slots[int(parts[0], 16)] = parts[4].split("@")[0]
    return slots


def matches(name, suffix):
    """`name` ends in `suffix` at a path boundary."""
    if not name.endswith(suffix):
        return False
    before = name[: len(name) - len(suffix)]
    return before == "" or before[-1] in ":< "


class Resolver:
    def __init__(self, syms):
        self.syms = syms
        self.starts = [s[0] for s in syms]

    def name(self, addr):
        i = bisect.bisect_right(self.starts, addr) - 1
        if i >= 0:
            start, size, name = self.syms[i]
            if addr < start + max(size, 1):
                return name if addr == start else f"{name}+{addr - start:#x}"
        return f"{addr:#x}"


def callees(binary, start, size, resolver, slots):
    """Counts the out-of-line callees of the function at [start, start+size)."""
    text = run(
        "objdump", "-d", "--no-show-raw-insn",
        f"--start-address={start:#x}", f"--stop-address={start + size:#x}",
        binary,
    )
    found = collections.Counter()
    for line in text.splitlines():
        m = GOT.search(line)
        if m:
            target = slots.get(int(m.group(1), 16))
            if target is None:
                found[f"(unresolved GOT slot {m.group(1)})"] += 1
            elif isinstance(target, int):
                found[resolver.name(target)] += 1
            else:
                found[target] += 1
            continue
        m = DIRECT.search(line)
        if m:
            target = int(m.group(2), 16)
            if m.group(1) == "jmp" and start <= target < start + size:
                continue  # a branch inside the function
            # A PLT stub has no symbol of its own; objdump names it.
            name = resolver.name(target)
            found[m.group(3) if name.startswith("0x") else name] += 1
    return found


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("binary")
    ap.add_argument("functions", nargs="+")
    ap.add_argument("--deny", action="append", default=[])
    args = ap.parse_args()

    syms = symbols(args.binary)
    resolver = Resolver(syms)
    slots = got_slots(args.binary)
    denied = []
    for fn in args.functions:
        hits = [s for s in syms if matches(s[2], fn)]
        if not hits:
            print(f"{fn}: no symbol (inlined into its callers, or absent)\n")
            continue
        for start, size, name in hits:
            found = callees(args.binary, start, size, resolver, slots)
            print(f"{name} ({size} bytes): {sum(found.values())} call sites")
            for callee, n in sorted(found.items(), key=lambda kv: (-kv[1], kv[0])):
                print(f"  {n:3}  {callee}")
                if any(matches(callee, d) for d in args.deny):
                    denied.append((name, callee))
            print()
    for caller, callee in denied:
        print(f"DENIED: {caller} calls {callee} out of line", file=sys.stderr)
    return 1 if denied else 0


if __name__ == "__main__":
    sys.exit(main())
