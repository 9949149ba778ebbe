"""Core-speed probe: rescale a process's CPU time to a reference core speed.

On a shared host the speed of one core moves by more than half within
seconds and stays slow or fast for minutes (on a two-core KVM guest, the
same one-epoch training took 3.4 s to 6.6 s of CPU time within three
minutes), so raw times from runs minutes apart are not comparable.  The
probe is a process pinned to the same core as the measured process, at
nice 12, so the scheduler gives it about 6% of that core in short slices
throughout the measurement.  It runs a fixed loop in chunks and records
each chunk's CPU time.  A slowdown of the core stretches the program's CPU
time and the probe's chunks alike, so

    reference seconds = CPU seconds x (probe chunks per CPU second) / REFERENCE_RATE

stays put while the core's speed moves (over those three minutes, with the
probe at nice 19, the quartile spread of the epoch's time fell from 16% to
4%).

Run as a script it is the probe: ``python3 corespeed.py <cpu>``.  It prints
"ready", then on SIGTERM one JSON list of [end, cpu_seconds] per chunk.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

# Probe chunks per CPU second on the reference core: about the probe's rate
# on a quiet core of the 2.1 GHz Xeon the reference figures come from, so
# reference seconds read close to that core's wall seconds.  Only ratios
# between runs matter.
REFERENCE_RATE = 3500.0
_CHUNK = 2000
# An interval with fewer probe chunks than this uses the whole measurement's rate.
_MIN_CHUNKS = 5


def _probe(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    os.nice(12)
    parent = os.getppid()
    chunks: list[tuple[float, float]] = []

    def stop(signum, frame):
        print(json.dumps(chunks), flush=True)
        sys.exit(0)

    signal.signal(signal.SIGTERM, stop)
    table = dict.fromkeys(range(1024), 0)
    print("ready", flush=True)
    while True:
        c0 = time.process_time()
        x = 0
        for i in range(_CHUNK):
            table[i & 1023] = i
            x += table[(i * 7) & 1023]
        chunks.append((time.perf_counter(), time.process_time() - c0))
        if os.getppid() != parent:  # the measured process was killed
            sys.exit(1)


class CoreSpeed:
    """Pins this process to one core and runs the probe beside it.

    Use as a context manager; the process's affinity is restored on exit,
    and ``reference_seconds`` is valid after it.
    """

    def __init__(self):
        self._affinity = os.sched_getaffinity(0)
        self.cpu = min(self._affinity)
        self.chunks: list[tuple[float, float]] = []
        self._proc = None

    def __enter__(self) -> "CoreSpeed":
        os.sched_setaffinity(0, {self.cpu})
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self.cpu)],
            stdout=subprocess.PIPE,
            text=True,
        )
        if self._proc.stdout.readline().strip() != "ready":
            self._stop()
            raise RuntimeError("core-speed probe did not start")
        return self

    def __exit__(self, *exc) -> None:
        self._stop()
        os.sched_setaffinity(0, self._affinity)

    def _stop(self) -> None:
        self._proc.terminate()
        try:
            out, _ = self._proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.communicate()
            raise
        if out.strip():
            self.chunks = [tuple(c) for c in json.loads(out)]

    def _rate(self, t0: float, t1: float) -> float:
        inside = [c for end, c in self.chunks if t0 < end <= t1]
        if len(inside) < _MIN_CHUNKS:
            inside = [c for _, c in self.chunks]
        if not inside:
            raise RuntimeError("core-speed probe recorded no chunks")
        return len(inside) / sum(inside)

    def reference_seconds(self, cpu_seconds: float, t0: float, t1: float) -> float:
        """CPU seconds spent in the wall interval [t0, t1] (``perf_counter``
        times), rescaled to the reference core speed."""
        return cpu_seconds * self._rate(t0, t1) / REFERENCE_RATE


if __name__ == "__main__":
    _probe(int(sys.argv[1]))
