#!/usr/bin/env python3
"""Regenerate tools/text-order.txt: every function the measured commands
run, in the order they first run it.

usage: tools/first-use.py [--out FILE]

Run from the root of a checkout whose release binaries are built:

    cargo build --release
    cargo build --release --manifest-path benchmark/Cargo.toml

The traced commands, in this order (their first uses are merged, each name
kept at its first place):

  1. `ispn-benchmark rep` of link-wfq, chain-unified and churn-signal at
     the benchmark's golden seed and paper horizon;
  2. a `hetmix --serve` listener serving one `hetmix --hosts` sweep (the
     client runs untraced), as the sweep-pipes workload measures it;
  3. the eight experiment bins under ISPN_FAST=1.

Each traced process gets an int3 on the first byte of every function in
its .text (through /proc/<pid>/mem while it is stopped under ptrace); the
first hit of each records the function and puts the byte back.  Threads
are followed; none of the commands starts a process (a child would inherit
the int3s untraced), so a fork or vfork stops the tracer.  Threads racing
to a function's first call can swap two neighbours from one run to the
next.  Rust names are written without their `17h<hash>E` suffix
(tools/order-text.sh resolves them at link time), C names verbatim.
python3's standard library is all this needs; nothing in the build runs
it.
"""

import ctypes
import os
import re
import signal
import struct
import subprocess
import sys

PTRACE_TRACEME = 0
PTRACE_CONT = 7
PTRACE_GETREGS = 12
PTRACE_SETREGS = 13
PTRACE_SETOPTIONS = 0x4200
PTRACE_GETEVENTMSG = 0x4201
OPTIONS = 0x2 | 0x4 | 0x8 | 0x100000  # report fork, vfork, clone; exit kills
EVENT_FORK, EVENT_VFORK, EVENT_CLONE = 1, 2, 3
WALL = 0x40000000
RIP = 16  # index of rip in struct user_regs_struct

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.restype = ctypes.c_long
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]


def ptrace(request, pid, addr=None, data=None):
    if libc.ptrace(request, pid, addr, data) == -1:
        err = ctypes.get_errno()
        raise OSError(err, f"ptrace({request}, {pid}): {os.strerror(err)}")


SUFFIX = re.compile(r"(17h[0-9a-f]{16}E)?(\.[0-9]+)?$")


def hashless(name):
    """A Rust name without what changes from build to build: a legacy
    name's `17h<hash>E` and the `.<n>` LTO gives a duplicated local."""
    return SUFFIX.sub("", name) if name.startswith(("_ZN", "_R")) else name


def functions(path):
    """The .text functions of an ELF file: ({address: name}, text start,
    text end, lowest load address).  Of a function's aliases the name kept
    is a global one if it has any, then the shortest: it names the same
    code, and a global name stays the same across libc builds."""
    with open(path, "rb") as f:
        elf = f.read()
    shoff, = struct.unpack_from("<Q", elf, 0x28)
    shentsize, shnum, shstrndx = struct.unpack_from("<HHH", elf, 0x3A)
    phoff, = struct.unpack_from("<Q", elf, 0x20)
    phentsize, phnum = struct.unpack_from("<HH", elf, 0x36)
    sections = [struct.unpack_from("<IIQQQQIIQQ", elf, shoff + i * shentsize) for i in range(shnum)]
    names = sections[shstrndx][4]

    def section_name(s):
        start = names + s[0]
        return elf[start:elf.index(b"\0", start)].decode()

    by_name = {section_name(s): (i, s) for i, s in enumerate(sections)}
    text_index, text = by_name[".text"]
    _, symtab = by_name[".symtab"]
    strtab = sections[symtab[6]][4]
    found = {}
    for off in range(symtab[4], symtab[4] + symtab[5], 24):
        st_name, st_info, _, st_shndx, value, _ = struct.unpack_from("<IBBHQQ", elf, off)
        if st_info & 0xF in (2, 10) and st_shndx == text_index:  # FUNC, GNU_IFUNC
            start = strtab + st_name
            name = elf[start:elf.index(b"\0", start)].decode()
            rank = (st_info >> 4 == 0, len(name), name)  # local binding last
            found[value] = min(found.get(value, rank), rank)
    found = {value: rank[2] for value, rank in found.items()}
    loads = [struct.unpack_from("<IIQQ", elf, phoff + i * phentsize) for i in range(phnum)]
    low = min(p[3] for p in loads if p[0] == 1) & ~0xFFF
    return found, text[3], text[3] + text[5], low


class Space:
    """A traced process's text: the breakpoints still armed in it."""

    def __init__(self, pid, exe, symbols):
        self.mem = os.open(f"/proc/{pid}/mem", os.O_RDWR)
        self.funcs, self.text_start, text_end, low = symbols
        self.base = self.load_base(pid, exe) - low
        self.armed = set(self.funcs)
        start = self.base + self.text_start
        self.original = os.pread(self.mem, text_end - self.text_start, start)
        code = bytearray(self.original)
        for value in self.funcs:
            code[value - self.text_start] = 0xCC
        os.pwrite(self.mem, bytes(code), start)

    @staticmethod
    def load_base(pid, exe):
        real = os.path.realpath(exe)
        with open(f"/proc/{pid}/maps") as maps:
            for line in maps:
                fields = line.split()
                if len(fields) >= 6 and fields[5] == real and int(fields[2], 16) == 0:
                    return int(fields[0].split("-")[0], 16)
        raise RuntimeError(f"{exe} is not mapped in {pid}")

    def trap(self, tid):
        """Handle thread `tid`'s SIGTRAP: the name of the function whose
        breakpoint it hit first, if it did; the signal to deliver."""
        regs = (ctypes.c_ulonglong * 27)()
        ptrace(PTRACE_GETREGS, tid, None, ctypes.byref(regs))
        addr = regs[RIP] - 1
        value = addr - self.base
        if value not in self.funcs:
            return None, signal.SIGTRAP
        hit = None
        if value in self.armed:  # another thread may have put it back
            self.armed.discard(value)
            offset = value - self.text_start
            os.pwrite(self.mem, self.original[offset:offset + 1], addr)
            hit = self.funcs[value]
        regs[RIP] = addr
        ptrace(PTRACE_SETREGS, tid, None, ctypes.byref(regs))
        return hit, 0


class Tracer:
    def __init__(self):
        self.symbols = {}
        self.hits = []

    def run(self, argv, env=None, stdout=None, on_start=None):
        """Trace `argv` and its threads until all have exited; the wait
        status of `argv`'s process.  `on_start(pid)` runs once the
        breakpoints are planted and may return a helper child's pid."""
        pid = os.fork()
        if pid == 0:
            try:
                devnull = os.open(os.devnull, os.O_RDWR)
                for fd in (0, 1, 2):
                    os.dup2(devnull, fd)
                if stdout is not None:
                    os.dup2(stdout, 1)
                ptrace(PTRACE_TRACEME, 0)
                os.execve(argv[0], argv, env if env is not None else os.environ)
            finally:
                os._exit(127)
        _, status = os.waitpid(pid, WALL)
        if not os.WIFSTOPPED(status):
            raise RuntimeError(f"{argv[0]} did not start")
        ptrace(PTRACE_SETOPTIONS, pid, None, OPTIONS)
        if argv[0] not in self.symbols:
            self.symbols[argv[0]] = functions(argv[0])
        space = Space(pid, argv[0], self.symbols[argv[0]])
        helper = on_start(pid) if on_start else None
        ptrace(PTRACE_CONT, pid)
        # `early`: new threads stopped before their creator's clone event.
        threads, early, result = {pid}, set(), None
        while threads or early:
            tid, status = os.waitpid(-1, WALL)
            if tid == helper:
                helper = None
            elif os.WIFEXITED(status) or os.WIFSIGNALED(status):
                result = status if tid == pid else result
                threads.discard(tid)
                early.discard(tid)
            elif tid not in threads:
                early.add(tid)
            elif status >> 16 == EVENT_CLONE:
                msg = ctypes.c_ulong()
                ptrace(PTRACE_GETEVENTMSG, tid, None, ctypes.byref(msg))
                threads.add(msg.value)
                if msg.value in early:
                    early.discard(msg.value)
                    ptrace(PTRACE_CONT, msg.value)
                ptrace(PTRACE_CONT, tid)
            elif status >> 16 in (EVENT_FORK, EVENT_VFORK):
                raise RuntimeError(f"{argv[0]} started a process; only threads are followed")
            else:
                sig, deliver = os.WSTOPSIG(status), 0
                if sig == signal.SIGTRAP:
                    hit, deliver = space.trap(tid)
                    if hit:
                        self.hits.append(hit)
                elif sig != signal.SIGSTOP:
                    deliver = sig
                ptrace(PTRACE_CONT, tid, None, deliver)
        os.close(space.mem)
        if helper:
            os.waitpid(helper, 0)
        return result


def main():
    out = "tools/text-order.txt"
    args = sys.argv[1:]
    if args[:1] in (["-h"], ["--help"]):
        print(__doc__)
        return 0
    if args[:1] == ["--out"] and len(args) == 2:
        out = args[1]
    elif args:
        print(__doc__, file=sys.stderr)
        return 2
    bench = "benchmark/target/release/ispn-benchmark"
    bins = ["fig1", "table1", "table2", "table3", "hetmix", "mesh", "churn", "extensions"]
    bins = {b: f"target/release/{b}" for b in bins}
    hetmix = bins["hetmix"]
    for path in [bench, *bins.values()]:
        if not os.access(path, os.X_OK):
            print(f"first-use.py: {path} is not built", file=sys.stderr)
            return 1
    tracer = Tracer()
    fast = dict(os.environ, ISPN_FAST="1")

    def check(status, argv):
        if status is None or not os.WIFEXITED(status) or os.WEXITSTATUS(status):
            raise RuntimeError(f"{' '.join(argv)} failed under the tracer ({status})")

    for workload in ["link-wfq", "chain-unified", "churn-signal"]:
        argv = [bench, "rep", "--workload", workload, "--seed", "429019488", "--horizon-s", "600"]
        check(tracer.run(argv), argv)

    # The listener prints its address, serves one sweep and is killed, as
    # the sweep-pipes workload does with it.
    read_end, write_end = os.pipe()

    def client(listener):
        helper = os.fork()
        if helper == 0:
            os.close(write_end)
            banner = os.fdopen(read_end).readline()
            addr = banner.strip().rsplit(" ", 1)[-1]
            subprocess.run([hetmix, "--hosts", f"{addr}=1"], env=fast, check=True,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            os.kill(listener, signal.SIGKILL)
            os._exit(0)
        return helper

    tracer.run([hetmix, "--serve", "127.0.0.1:0"], env=fast, stdout=write_end, on_start=client)
    os.close(read_end)
    os.close(write_end)

    for path in bins.values():
        check(tracer.run([path], env=fast), [path])

    seen, order = set(), []
    for name in map(hashless, tracer.hits):
        if name not in seen:
            seen.add(name)
            order.append(name)
    with open(out, "w") as f:
        f.write("# Functions in first-use order; tools/first-use.py writes this file and\n"
                "# tools/order-text.sh links .text in its order.  Rust names carry no hash.\n")
        f.write("".join(f"{name}\n" for name in order))
    print(f"first-use.py: {len(order)} functions written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
