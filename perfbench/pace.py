"""Machine-speed probe, sampled while the measured work runs.

On a shared host the speed of identical work moves by up to 1.6x within
minutes, as other tenants load the same physical cores: in one process,
with nothing changed, 27 consecutive ``exact1d`` rounds took 5.4 to 8.0 s,
and a 4 ms bytecode probe dropped from a steady 4.1 ms to a steady 2.5 ms
within ten seconds.  A median over runs cannot remove a shift of that
size, so ``run.py`` reports ``wall_s`` and ``setup_s`` at a fixed
reference speed.

A ``Pace`` runs a short probe of fixed work from a ``SIGALRM`` handler
every ``period`` seconds, so the probe samples the speed of the same core
at the same moments as the work it interrupts.  A measured interval is
then reported as its time less the handler's own, divided by the mean
slowdown of the probes taken in it.  A probe's slowdown is the geometric
mean, over its parts, of each part's time over that part's time on the
machine the README describes.  The parts:

- ``array``: nearest of 64 centres for 2,048 points, in preallocated
  buffers, twice (as in a Lloyd assignment chunk);
- ``bytecode``: a scalar loop of 8,000 steps;
- ``calls``: 100 short numpy calls on 64 values (as in a 1-d Newton
  solve);
- ``stream``: one pass from an 8 MB array into another and a sum of it
  (as in a pass over a large score block).

Contention slows these kinds of work by different amounts, so each
workload names the parts whose slowdown tracks its own (``workloads.py``;
the README gives the measurements).  The probe is the benchmark's own
code, so no change to the package moves it.  A probe takes 2–5 ms, so
sampling every 0.1 s costs 2–5% of the run.  Python runs the handler
between bytecodes, so a long native call delays a sample but is never
interrupted.
"""

import math
import signal
import time

import numpy as np

# median time of each part, in seconds, on the reference machine (README)
REFERENCE_S = {"array": 0.00054, "bytecode": 0.00096, "calls": 0.00080,
               "stream": 0.0033}


class Pace:
    """Samples the machine's speed while started; see the module doc."""

    def __init__(self, parts=("array", "bytecode", "calls"), period=0.1):
        rng = np.random.default_rng(0)
        self._points = rng.random((2048, 2))
        self._centres_t = rng.random((2, 64))
        self._scores = np.empty((2048, 64))
        self._labels = np.empty(2048, dtype=np.intp)
        self._values = rng.random(64)
        buffers = [self._points, self._centres_t, self._scores, self._labels,
                   self._values]
        if "stream" in parts:
            self._source = rng.random(1 << 20)
            self._sink = np.empty(1 << 20)
            buffers += [self._source, self._sink]
        # resident for the whole run; the worker takes them off peak RSS
        self.nbytes = sum(b.nbytes for b in buffers)
        self._period = period
        self._parts = [(getattr(self, "_" + p), REFERENCE_S[p]) for p in parts]
        self.slowdowns = []      # one per probe
        start = time.perf_counter()
        for work, _ in self._parts:
            work()               # first calls; touches every buffer
        self.probe_s = time.perf_counter() - start   # time spent probing

    def _array(self):
        for _ in range(2):
            np.dot(self._points, self._centres_t, out=self._scores)
            self._scores.argmin(axis=1, out=self._labels)

    @staticmethod
    def _bytecode():
        total = 0.0
        for i in range(8000):
            total += (i % 7) * 0.5
        return total

    def _stream(self):
        np.multiply(self._source, 1.0001, out=self._sink)
        return self._sink.sum()

    def _calls(self):
        v = self._values
        for _ in range(100):
            v = np.sqrt(np.abs(v * 1.0001 - 0.5)) + np.exp(-v)
        return v

    def probe(self, *_signal):
        """Run the probe once and record its slowdown."""
        start = t0 = time.perf_counter()
        log_sum = 0.0
        for work, reference in self._parts:
            work()
            t1 = time.perf_counter()
            log_sum += math.log((t1 - t0) / reference)
            t0 = t1
        self.slowdowns.append(math.exp(log_sum / len(self._parts)))
        self.probe_s += time.perf_counter() - start

    def start(self):
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self._period, self._period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        """A point to measure from: (probes so far, probe time so far)."""
        return len(self.slowdowns), self.probe_s

    def at_reference(self, seconds, since):
        """``seconds`` measured from mark ``since`` (and probed at both
        ends by the caller) at the reference speed."""
        count, probe_s = since
        probes = self.slowdowns[count:]
        work = seconds - (self.probe_s - probe_s)
        return work * len(probes) / sum(probes)
