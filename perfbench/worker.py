"""One benchmark process: set up a workload, then run whole rounds of it.

Started by ``run.py`` with the package's ``src`` directory on
``PYTHONPATH``.  It prints ``ready`` as soon as the set-up is done, so the
parent can time a fresh interpreter to ready; with ``--setup-only`` it
stops there, after one JSON line with the speed probes (``pace.py``)
taken during set-up.  Otherwise it runs rounds until the next one would
end past ``--seconds`` (at least ``--min-rounds``), and prints one JSON
line: the wall time of each round and, untraced, that time at the
probe's reference speed, the outputs of the first round, a digest of every
round's outputs, the failures, the peak resident memory up to the end
of the first round (less the probe's buffers) and, with ``--trace 1``,
the per-layer metrics of each round.
"""

import argparse
import json
import os
import resource
import sys
import time

from pace import Pace
from spec import digest


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-rounds", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default="")
    args = ap.parse_args(argv)

    # the machine's speed during set-up, for ``setup_s``
    pace = Pace(period=0.05) if args.setup_only else None
    if pace:
        pace.start()
    import maxaffine
    src = os.path.realpath(os.environ["PERFBENCH_SRC"])
    if not os.path.realpath(maxaffine.__file__).startswith(src + os.sep):
        sys.exit(f"maxaffine was imported from {maxaffine.__file__}, "
                 f"not from {src}")
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    state = workload.setup(args.seed, args.tiny, args.workdir, args.threads)
    if pace:
        pace.stop()
        probe_s = pace.probe_s
        print("ready", flush=True)
        pace.probe()
        print(json.dumps({"slowdowns": pace.slowdowns, "probe_s": probe_s}))
        return 0
    print("ready", flush=True)

    # the traced run reports raw times, and no probe runs inside its spans
    pace = None if tracer else Pace(workload.pace)
    if pace:
        pace.start()
    rounds, at_reference, digests, failures, layers = [], [], [], [], []
    attempted = 0
    first = None
    started = time.perf_counter()
    while True:
        if tracer:
            tracer.reset()
        since = pace.mark() if pace else None
        t0 = time.perf_counter()
        if pace:
            pace.probe()         # one probe at each end of every round
        ops = workload.run_round(state)
        if pace:
            pace.probe()
        rounds.append(time.perf_counter() - t0)
        if pace:
            at_reference.append(pace.at_reference(rounds[-1], since))
        if len(rounds) == 1:
            # later rounds add only heap fragmentation, and their number
            # depends on the machine's speed
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if pace:
                peak_mb -= pace.nbytes / 2**20
        outputs = workload.export(ops)
        digests.append(digest(outputs))
        attempted += ops.attempted
        failures.extend(ops.failures)
        if first is None:
            first = outputs
            if tracer and args.spans_out:
                with open(args.spans_out, "w") as fh:
                    for span in tracer.spans:
                        fh.write(json.dumps(span) + "\n")
        if tracer:
            layers.append(tracer.layer_metrics(rounds[-1]))
        elapsed = time.perf_counter() - started
        if (len(rounds) >= args.min_rounds
                and elapsed + min(rounds) > args.seconds):
            break

    if pace:
        pace.stop()
    print(json.dumps({
        "rounds": rounds, "at_reference": at_reference, "digests": digests, "outputs": first,
        "attempted": attempted,
        "failures": failures, "peak_rss_mb": peak_mb,
        "layers": layers,
    }, allow_nan=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
