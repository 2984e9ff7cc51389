"""One pass of one workload, in a fresh process.

    python bench/worker.py WORKLOAD SEED INDEX [--trace] [--corrupt-sign]

Times `import rblie` and the workload's set-up, runs the pass's items
one after another (a closed loop with a single client), applies the
workload's oracles, and prints one JSON object as its last stdout line.
With --trace the rblie layers are traced from outside (see spans.py)
and the coarse spans are written to bench/out/.  --corrupt-sign sets
the engine's `corrupt_sign` switch on every context the pass builds;
it is the negative control of the benchmark's own tests.

Exit code 0 when a result was printed, 2 when the checkout's rblie
cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import workloads
from spans import Tracer, layer_metrics


class Untimed:
    """A context manager whose elapsed time is left out of set-up time."""

    def __init__(self):
        self.seconds = 0.0

    def __enter__(self):
        self._start = perf_counter()

    def __exit__(self, *exc):
        self.seconds += perf_counter() - self._start


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def import_rblie():
    sys.path.insert(0, str(workloads.SRC))
    try:
        import rblie
    except ImportError as exc:
        print("worker: cannot import rblie from %s: %s" % (workloads.SRC, exc), file=sys.stderr)
        sys.exit(2)
    if workloads.SRC.resolve() not in Path(rblie.__file__).resolve().parents:
        print("worker: rblie was imported from %s, not from the checkout" % rblie.__file__,
              file=sys.stderr)
        sys.exit(2)


def run_pass(name, seed, index, trace, corrupt):
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.calibrate()  # the tracer's own work, not set-up
    start = perf_counter()
    import_rblie()
    if tracer is not None:
        tracer.install()
    untimed = Untimed()
    plan = workloads.WORKLOADS[name](seed, index, tracer, untimed, corrupt)
    setup_s = perf_counter() - start - untimed.seconds

    latencies = []
    outputs = []
    failed = set()
    errors = Counter()
    first = perf_counter()
    for i, item in enumerate(plan.items):
        if tracer is not None:
            tracer.item = i
            item = tracer.span("item", item)
        t0 = perf_counter()
        try:
            ok, out = item()
        except Exception as exc:  # an item that raises is a failed item, not a crash
            ok, out = False, None
            errors[type(exc).__name__] += 1
        latencies.append(perf_counter() - t0)
        outputs.append(out)
        if not ok:
            failed.add(i)
    wall_s = perf_counter() - first
    rss_mb = peak_rss_mb()  # before the oracles build contexts of their own

    result = {"setup_s": setup_s, "wall_s": wall_s}
    if tracer is not None:
        raw = plan.layer_totals() if plan.layer_totals else tracer.raw()
        # the CLI children trace their calls, the items are this process's
        raw["totals"].setdefault("item", tracer.totals["item"])
        result["layers"] = layer_metrics(raw)
        workloads.OUT.mkdir(exist_ok=True)
        tracer.write_records(workloads.OUT / ("spans-%s-%d-%d.json" % (name, seed, index)))
    try:
        failed.update(plan.check(outputs))
    except Exception as exc:  # a crashing oracle rejects the whole pass
        failed.update(range(len(outputs)))
        errors["check:" + type(exc).__name__] += 1
    if name == "env-queries":
        result["digest"] = workloads.stream_digest(
            out[0] if out else "" for out in outputs)
    result.update({
        "latencies_ms": [t * 1000.0 for t in latencies],
        "peak_rss_mb": rss_mb,
        "attempted": len(plan.items),
        "failed": len(failed),
        "errors": dict(errors),
    })
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("index", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--corrupt-sign", action="store_true")
    args = parser.parse_args()
    result = run_pass(args.workload, args.seed, args.index, args.trace, args.corrupt_sign)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
