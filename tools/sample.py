#!/usr/bin/env python3
"""Sample where a command spends its time: a ptrace sampling profiler for
machines without `perf` or a PMU.

usage: tools/sample.py [-n RUNS] [--interval-ms MS] [--top K] [--match TEXT]
                       [--within TEXT] -- COMMAND [ARG...]

Runs COMMAND (an ELF executable, static or dynamic) RUNS times (default 5)
under ptrace.  About every MS milliseconds (default 0.5) the tracer stops
the command's main thread with SIGSTOP, reads its instruction pointer and
lets it go on; other threads run unsampled.  When every run has finished,
llvm-symbolizer turns the sampled addresses of the executable into their
inlined call chains (innermost first; the executable needs debug info,
which the release profile keeps) and three tables are printed, each row a
share of all samples:

  self       the innermost frame of the sample: the function whose code
             ran, inlined or not;
  outermost  the symbol the address lies in: the function as linked;
  inlined    every frame of the chain outside Rust's core, alloc and std,
             counted once a sample: the share of time spent inside a
             function's inlined body, callers of other symbols not counted.

Samples outside the executable (the vDSO, a shared library) are counted
as `[outside]`.  `--match TEXT` adds the share of samples whose chain
names a frame containing TEXT (repeatable), e.g. `--match percentile` for
the delay-sample path.  `--within TEXT` keeps only the samples whose chain
names such a frame, so the tables split that part of the run.  The stop
costs the command tens of microseconds a
sample, so shares are what it measures, not wall times.  COMMAND's stdout
and stderr go to /dev/null.  python3's standard library and
llvm-symbolizer are all this needs.

    tools/sample.py -n 5 --match percentile:: -- \\
        benchmark/target/release/ispn-benchmark rep --workload link-wfq \\
        --seed 8 --horizon-s 600
"""

import argparse
import collections
import ctypes
import os
import re
import signal
import struct
import subprocess
import sys
import time

PTRACE_TRACEME = 0
PTRACE_CONT = 7
PTRACE_GETREGS = 12
RIP = 16  # index of rip in struct user_regs_struct

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.restype = ctypes.c_long
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]


def ptrace(request, pid, addr=None, data=None):
    if libc.ptrace(request, pid, addr, data) == -1:
        err = ctypes.get_errno()
        raise OSError(err, f"ptrace({request}, {pid}): {os.strerror(err)}")


def lowest_load(path):
    """The lowest PT_LOAD address of an ELF file, page-aligned: what its
    mapping at file offset 0 is based on."""
    with open(path, "rb") as f:
        elf = f.read(1 << 16)
    phoff, = struct.unpack_from("<Q", elf, 0x20)
    phentsize, phnum = struct.unpack_from("<HH", elf, 0x36)
    loads = [struct.unpack_from("<IIQQ", elf, phoff + i * phentsize) for i in range(phnum)]
    return min(p[3] for p in loads if p[0] == 1) & ~0xFFF


def mappings(pid, exe):
    """The address ranges `exe` is mapped at in `pid`, and its base: the
    start of the mapping of file offset 0."""
    real, ranges, base = os.path.realpath(exe), [], None
    with open(f"/proc/{pid}/maps") as maps:
        for line in maps:
            fields = line.split()
            if len(fields) >= 6 and fields[5] == real:
                start, end = (int(x, 16) for x in fields[0].split("-"))
                ranges.append((start, end))
                if int(fields[2], 16) == 0:
                    base = start
    return ranges, base


def sample_run(argv, interval, counts):
    """Run `argv` once, adding each sampled file address to `counts`
    (`None` for an address outside the executable); the exit status."""
    pid = os.fork()
    if pid == 0:
        try:
            devnull = os.open(os.devnull, os.O_RDWR)
            for fd in (0, 1, 2):
                os.dup2(devnull, fd)
            ptrace(PTRACE_TRACEME, 0)
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    _, status = os.waitpid(pid, 0)
    if not os.WIFSTOPPED(status):
        raise RuntimeError(f"{argv[0]} did not start")
    ranges, base = mappings(pid, argv[0])
    shift = lowest_load(argv[0]) - base
    regs = (ctypes.c_ulonglong * 27)()
    ptrace(PTRACE_CONT, pid)
    while True:
        time.sleep(interval)
        try:
            os.kill(pid, signal.SIGSTOP)
        except ProcessLookupError:
            pass
        _, status = os.waitpid(pid, 0)
        if os.WIFEXITED(status) or os.WIFSIGNALED(status):
            return status
        sig, deliver = os.WSTOPSIG(status), 0
        if sig == signal.SIGSTOP:
            ptrace(PTRACE_GETREGS, pid, None, ctypes.byref(regs))
            pc = regs[RIP]
            inside = any(start <= pc < end for start, end in ranges)
            counts[pc + shift if inside else None] += 1
        else:
            deliver = sig
        ptrace(PTRACE_CONT, pid, None, deliver)


HASH = re.compile(r"::h[0-9a-f]{16}$")
ESCAPES = [("$LT$", "<"), ("$GT$", ">"), ("$u20$", " "), ("$u5b$", "["), ("$u5d$", "]"),
           ("$u7b$", "{"), ("$u7d$", "}"), ("$C$", ","), ("$RF$", "&"), ("$BP$", "*"),
           ("$u27$", "'"), ("..", "::")]
LIBRARY = ("core::", "alloc::", "std::", "<core::", "<alloc::", "<std::")


def readable(name):
    """A Rust name as llvm-symbolizer prints a legacy symbol, without its
    hash and with its escapes undone."""
    name = HASH.sub("", name)
    for escape, text in ESCAPES:
        name = name.replace(escape, text)
    return name[1:] if name.startswith("_<") else name


def chains(exe, addresses):
    """Each address's inlined call chain, innermost frame first, from one
    llvm-symbolizer call."""
    query = "".join(f"0x{a:x}\n" for a in addresses)
    out = subprocess.run(
        ["llvm-symbolizer", f"--obj={exe}", "--inlines", "--demangle", "--functions=linkage"],
        input=query, capture_output=True, text=True, check=True).stdout
    result = []
    for block in out.strip("\n").split("\n\n"):
        lines = block.split("\n")
        result.append([readable(name) for name in lines[0::2]])
    if len(result) != len(addresses):
        raise RuntimeError("llvm-symbolizer answered for a different number of addresses")
    return dict(zip(addresses, result))


def table(title, shares, total, top):
    print(f"\n{title} ({total} samples)")
    for name, n in shares.most_common(top):
        print(f"{100.0 * n / total:6.2f} %  {name}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
        usage=argparse.SUPPRESS)
    parser.add_argument("-n", "--runs", type=int, default=5)
    parser.add_argument("--interval-ms", type=float, default=0.5)
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--match", action="append", default=[])
    parser.add_argument("--within")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not argv:
        parser.error("no command")
    if not os.access(argv[0], os.X_OK):
        parser.error(f"{argv[0]} is not an executable")
    counts = collections.Counter()
    for _ in range(args.runs):
        status = sample_run(argv, args.interval_ms / 1000.0, counts)
        if not os.WIFEXITED(status) or os.WEXITSTATUS(status):
            print(f"sample.py: {' '.join(argv)} failed ({status})", file=sys.stderr)
            return 1
    outside = counts.pop(None, 0)
    frames = chains(argv[0], sorted(counts))
    if args.within:
        outside = 0
        counts = collections.Counter({
            a: n for a, n in counts.items() if any(args.within in f for f in frames[a])})
    total = sum(counts.values()) + outside
    if total == 0:
        print("sample.py: no samples; the command ran shorter than one interval")
        return 1
    own, outer, inlined = (collections.Counter() for _ in range(3))
    matched = collections.Counter()
    for address, n in counts.items():
        chain = frames[address]
        own[chain[0]] += n
        outer[chain[-1]] += n
        for name in set(chain):
            if not name.startswith(LIBRARY):
                inlined[name] += n
        for text in args.match:
            if any(text in name for name in chain):
                matched[text] += n
    own["[outside]"] += outside
    outer["[outside]"] += outside
    within = f", samples within {args.within!r}" if args.within else ""
    print(f"sample.py: {args.runs} runs of {' '.join(argv)}{within}")
    table("self", own, total, args.top)
    table("outermost", outer, total, args.top)
    table("inlined", inlined, total, args.top)
    for text in args.match:
        print(f"\nframes naming {text!r}: {100.0 * matched[text] / total:.2f} % of samples")
    return 0


if __name__ == "__main__":
    sys.exit(main())
