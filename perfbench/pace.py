"""Machine-speed calibration for the end-to-end timings.

On a shared virtual machine, the speed of a CPU changes by a factor of up to
1.5 from one second to the next, and by as much for minutes at a time. Part
of it is steal time, when the host runs something else on the CPU; the rest
slows the CPU while it runs, and CPU time rises with it. Two runs of the
same pass can therefore differ by 40 %, however long they last.

So while the jobs run, a sampler process runs a small fixed kernel on the
same CPU, every PERIOD_S seconds. The kernel is pure-Python exact and
multiprecision arithmetic of the same kinds thetaquot does, and it is
independent of thetaquot. Its CPU time tracks the speed of the CPU through
every job, long ones included; with each sample the sampler also records
the CPU's steal time from /proc/stat. An interval measured on the
benchmark's side is reported as its own share (the interval less the
sampler's CPU time and the CPU's steal time inside it) times REFERENCE_S
over the mean kernel time around it: seconds on a machine where the kernel
takes REFERENCE_S. A change to thetaquot moves these times in full, and a
change of the host's speed mostly cancels.

    python3 perfbench/pace.py CPU FD      # the sampler; run by Pacer only
"""

from __future__ import annotations

import bisect
import os
import statistics
import struct
import subprocess
import sys
import time
from fractions import Fraction

import mpmath

# kernel CPU seconds in a fast stretch of the machine the baseline was
# measured on; only a unit, so scaled and raw times there are comparable
REFERENCE_S = 0.007
# the sampler sleeps this long between kernels, so it takes about a tenth
# of the CPU
PERIOD_S = 0.06
# a job's speed is the mean over samples within this many seconds of it,
# so even a job shorter than PERIOD_S has a handful
WINDOW_S = 0.25
# one sample: wall start, wall end, kernel CPU seconds, the CPU's steal
# seconds so far
_RECORD = struct.Struct("dddd")
_TICK_S = 1 / os.sysconf("SC_CLK_TCK")
# rationals of a few hundred digits, as in exact lattice reduction
_BIG_A = [Fraction(3 ** (700 + k) + 1, 7 ** (400 + k) + 3) for k in range(4)]
_BIG_B = [Fraction(2 ** (1300 + k) - 1, 5 ** (520 + k) + 2) for k in range(8)]


def kernel() -> None:
    """A sparse Fraction product, big-rational products, a big-int multiply
    chain and mpf sqrt/exp."""
    a = {k: Fraction(k * k + 1, k + 2) for k in range(0, 32, 2)}
    b = {k: Fraction(3 * k - 7, 2 * k + 5) for k in range(1, 33, 2)}
    out: dict[int, Fraction] = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    for x in _BIG_A:
        for y in _BIG_B:
            x * y + y
    n = 1
    for k in range(1, 250):
        n = n * (3 ** 40 + k) % (1 << 4000)
    with mpmath.workdps(300):
        s = mpmath.mpf(0)
        for k in range(1, 60):
            s += mpmath.sqrt(k) * mpmath.exp(mpmath.mpf(1) / k)


def steal_s(cpu: int) -> float:
    """Seconds of steal time of one CPU since boot."""
    with open("/proc/stat") as fh:
        for line in fh:
            if line.startswith(f"cpu{cpu} "):
                return int(line.split()[8]) * _TICK_S


def sample(cpu: int, fd: int) -> None:
    """Sampler loop: run the kernel every PERIOD_S and write each sample to
    ``fd``; ends when the reader is gone."""
    kernel()  # first-call costs stay out of the samples
    with os.fdopen(fd, "wb", buffering=0) as pipe:
        while True:
            time.sleep(PERIOD_S)
            c0, t0 = time.thread_time(), time.perf_counter()
            kernel()
            t1, c1 = time.perf_counter(), time.thread_time()
            try:
                pipe.write(_RECORD.pack(t0, t1, c1 - c0, steal_s(cpu)))
            except BrokenPipeError:
                return


class Pacer:
    """Pins this process to one CPU and runs the sampler there until
    ``close``.  Children started meanwhile run on that CPU too."""

    def __init__(self):
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        read_fd, write_fd = os.pipe()
        self._proc = subprocess.Popen(
            [sys.executable, __file__, str(cpu), str(write_fd)], pass_fds=(write_fd,)
        )
        os.close(write_fd)
        self._pipe = os.fdopen(read_fd, "rb", buffering=0)
        self._buf = b""
        self.samples: list[tuple[float, float, float, float]] = []
        self._read(block=True)
        if not self.samples:
            raise RuntimeError("the pace sampler ended before its first sample")

    def _read(self, block: bool = False) -> None:
        os.set_blocking(self._pipe.fileno(), block)
        while True:
            chunk = self._pipe.read(1 << 16)
            if not chunk:  # None: nothing more for now; b"": sampler ended
                break
            self._buf += chunk
            if block and len(self._buf) >= _RECORD.size:
                break
        n = len(self._buf) - len(self._buf) % _RECORD.size
        self.samples += list(_RECORD.iter_unpack(self._buf[:n]))
        self._buf = self._buf[n:]

    def _steal_at(self, t: float) -> float:
        """The CPU's steal seconds at time t, interpolated between samples."""
        ends = [b for _, b, _, _ in self.samples]
        i = min(max(bisect.bisect(ends, t), 1), len(ends) - 1)
        (_, b0, _, s0), (_, b1, _, s1) = self.samples[i - 1], self.samples[i]
        return s0 + (s1 - s0) * (t - b0) / (b1 - b0)

    def scale(self, intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
        """For each (start, end) interval: the seconds of it spent neither in
        the sampler nor stolen, and the factor turning them into reference
        seconds."""
        wait = intervals[-1][1] + WINDOW_S + PERIOD_S - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        self._read()
        out = []
        for t0, t1 in intervals:
            busy = sum(
                c * (min(b, t1) - max(a, t0)) / (b - a)
                for a, b, c, _ in self.samples
                if b > t0 and a < t1
            )
            stolen = self._steal_at(t1) - self._steal_at(t0)
            near = [
                c for a, b, c, _ in self.samples
                if t0 - WINDOW_S <= (a + b) / 2 <= t1 + WINDOW_S
            ]
            out.append((t1 - t0 - busy - stolen, REFERENCE_S / statistics.fmean(near)))
        return out

    def close(self) -> None:
        self._proc.terminate()
        self._proc.wait()
        self._pipe.close()


if __name__ == "__main__":
    sample(int(sys.argv[1]), int(sys.argv[2]))
