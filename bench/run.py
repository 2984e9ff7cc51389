"""The rblie benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Runs passes of one workload, each in a fresh worker process
(bench/worker.py), one after another, until S seconds have gone and
enough items have been timed.  Every pass re-imports rblie, rebuilds its
contexts from a cold memo and checks its outputs.  The last stdout line
is one JSON object with the keys correct, attempted, failed and metrics.

End-to-end metrics (--trace 0), medians over the passes of the run:

  setup_s       import rblie, build the contexts (table validation
                included) and the enumeration sampling needs, in a fresh
                process; the benchmark's own input generation is left out
  wall_s        first item to the verdict on the last item of a pass
  item_ms_p50   median over the passes of each pass's median item latency;
                a pass of derived-free, basis-enum or cli-readme holds a
                few dozen items of set kinds, and the median of all items
                pooled falls between two kinds, where it jumps with noise
  item_ms_tail  the workload's fixed tail percentile of those latencies;
                the run goes on until at least 10 items lie beyond it
  peak_rss_mb   ru_maxrss of the pass's process (of the CLI children for
                cli-readme)

fail_ratio, the share of failed items, is printed with them; it is
failed/attempted of the JSON line and is 0 unless the program is wrong.

With --trace 1 the run alternates an untraced and a traced pass on the
same inputs and reports the per-layer metrics of spans.py (medians over
the traced passes), the cost of a bare interpreter start and of
`import rblie.cli`, the tracing overhead (traced minus untraced wall_s)
and the share by which the traced items' time, with the wrappers'
measured cost taken out, still exceeds the untraced wall_s.

A pass whose process dies (the program raised during set-up, or the
pass ran past the deadline) counts as one attempted and failed item; after
MIN_PASSES dead passes in a row the workload stops and its metrics are
left out, so a broken program still gets the verdict correct=false.

Exit code 0 with a result, 2 without one (no rblie in the checkout, or
bad arguments).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

# Tail percentile per workload, fixed so that runs compare like with like;
# a run goes on until at least 10 items lie beyond it.  For the first three
# it is the highest percentile a 25 s run reaches that way.  env-queries
# times 70k items a run but uses p99: its slowest 0.1% (cold products and
# collector pauses) moved by a factor of two between seeds, p99 by 5%.
TAIL_PERCENTILE = {
    "derived-free": 90.0,
    "basis-enum": 90.0,
    "env-queries": 99.0,
    "cli-readme": 90.0,
}
MIN_PASSES = 3  # also the number of dead passes in a row that ends a workload
RUN_LIMIT_S = 60.0  # no pass starts after this, whatever --seconds says
RUN_DEADLINE_S = 170.0  # a pass still running then is killed and counts as failed

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "item_ms_p50": "ms", "item_ms_tail": "ms",
    "peak_rss_mb": "MB",
}
IMPORT_TIMER = ("import time; t = time.perf_counter(); import rblie.cli; "
                "print(time.perf_counter() - t)")


class NoResult(Exception):
    """The benchmark cannot run here; it exits without a result."""


def run_worker(workload, seed, index, trace, timeout=RUN_DEADLINE_S):
    """One pass in a fresh process: its result dict, or None if it died."""
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(index)]
    if trace:
        cmd.append("--trace")
    # its own process group, so a timeout also ends the CLI children it started
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print("pass %d timed out" % index, file=sys.stderr)
            return None
    if proc.returncode == 2:
        raise NoResult(stderr.strip())
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("pass %d died with exit code %d:\n%s" % (index, proc.returncode, stderr),
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def percentile(values, p):
    """Nearest-rank percentile and the number of values beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def items_needed(p):
    """Smallest item count that leaves 10 items beyond the p-th percentile."""
    n = 10
    while percentile(range(n), p)[1] < 10:
        n += 1
    return n


def measure(workload, seed, seconds, trace):
    """Run passes until time and the tail allow; the raw per-pass results."""
    plain, traced = [], []
    dead = dead_in_row = 0
    needed = items_needed(TAIL_PERCENTILE[workload])
    start = perf_counter()
    index = 0
    while (index < MIN_PASSES or perf_counter() - start < seconds
           or sum(len(r["latencies_ms"]) for r in plain) < needed):
        if perf_counter() - start > RUN_LIMIT_S or dead_in_row >= MIN_PASSES:
            break
        for tracing, bucket in ((False, plain), (True, traced)) if trace else ((False, plain),):
            timeout = max(1.0, start + RUN_DEADLINE_S - perf_counter())
            result = run_worker(workload, seed, index, tracing, timeout)
            if result is None:
                dead += 1
                dead_in_row += 1
            else:
                bucket.append(result)
                dead_in_row = 0
        index += 1
    return plain, traced, dead


def end_to_end(workload, passes):
    latencies = [t for r in passes for t in r["latencies_ms"]]
    p = TAIL_PERCENTILE[workload]
    tail, beyond = percentile(latencies, p)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in passes),
        "wall_s": statistics.median(r["wall_s"] for r in passes),
        "item_ms_p50": statistics.median(statistics.median(r["latencies_ms"]) for r in passes),
        "item_ms_tail": tail,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
    }
    notes = {"item_ms_tail": "p%g of %d items, %d beyond" % (p, len(latencies), beyond)}
    return values, notes


def interpreter_costs(repeats=5):
    """Median ms of a bare interpreter start and of `import rblie.cli`."""
    env = workloads.cli_env()
    starts, imports = [], []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        starts.append((perf_counter() - t0) * 1000.0)
        out = subprocess.run([sys.executable, "-c", IMPORT_TIMER], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        imports.append(float(out.stdout) * 1000.0)
    return statistics.median(starts), statistics.median(imports)


def per_layer(plain, traced):
    names = traced[0]["layers"]
    values = {name: statistics.median(r["layers"][name] for r in traced) for name in names}
    start_ms, import_ms = interpreter_costs()
    values["cli.interp_start_ms"] = start_ms
    values["cli.import_ms"] = import_ms
    untraced = statistics.median(r["wall_s"] for r in plain)
    overhead = statistics.median(r["wall_s"] for r in traced) - untraced
    values["trace.overhead_s"] = overhead
    values["trace.overhead_share"] = overhead / untraced
    values["trace.residual_share"] = values["trace.corrected_wall_s"] / untraced - 1.0
    return values


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_share", "_per_top")):
        return "1"
    if name.endswith("_terms"):
        return "terms"
    return "count"


def report(workload, seed, plain, traced, dead, trace):
    """Print the human-readable block; return (attempted, failed, metrics)."""
    attempted = dead + sum(r["attempted"] for r in plain + traced)
    failed = dead + sum(r["failed"] for r in plain + traced)
    print("workload %s, seed %d: %d passes, %d items, %d failed"
          % (workload, seed, len(plain) + len(traced) + dead, attempted, failed))
    errors = {}
    for r in plain + traced:
        for name, n in r["errors"].items():
            errors[name] = errors.get(name, 0) + n
    if errors:
        print("  errors: %s" % ", ".join("%s x%d" % kv for kv in sorted(errors.items())))
    if not plain or (trace and not traced):
        return attempted, failed, None
    values, notes = end_to_end(workload, plain)
    for name, unit in END_TO_END_UNITS.items():
        print("  %-14s %12.4f %-3s %s" % (name, values[name], unit, notes.get(name, "")))
    print("  %-14s %12.4f 1   (%d/%d)" % ("fail_ratio", failed / attempted, failed, attempted))
    if not trace:
        return attempted, failed, {n: (values[n], u) for n, u in END_TO_END_UNITS.items()}
    layers = per_layer(plain, traced)
    print("  per layer (median of %d traced passes):" % len(traced))
    for name, value in layers.items():
        print("    %-34s %14.6g %s" % (name, value, layer_unit(name)))
    return attempted, failed, {n: (v, layer_unit(n)) for n, v in layers.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (workloads.SRC / "rblie" / "__init__.py").is_file():
        print("run.py: no rblie package under %s" % workloads.SRC, file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            plain, traced, dead = measure(name, args.seed, args.seconds, args.trace)
            a, f, values = report(name, args.seed, plain, traced, dead, args.trace)
            attempted += a
            failed += f
            if values is None:
                print("run.py: the passes of %s died; no metrics for it" % name,
                      file=sys.stderr)
                continue
            prefix = name + "/" if len(names) > 1 else ""
            for metric, (value, unit) in values.items():
                metrics[prefix + metric] = {"value": value, "unit": unit}
    except NoResult as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
