"""fsing benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 45 --trace 0

Run from anywhere; it works in the repository root and imports fsing from
``src``.  A single client runs one input at a time, the next only after the
previous one has returned, until ``--seconds`` of input time have passed, at
least MIN_INPUTS inputs have run, and the cycle of input families in
progress (see inputs.py) is complete.  Set-up is never timed as input time:
each cycle's inputs are generated from the seed (and for ``modify`` written
as ``.poly`` files) just before the cycle runs, and the import-time probes
behind ``setup_s`` run between inputs, spread over the run.  Every output is
checked; a failure is counted, never raised.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps each
fsing layer in spans (see spans.py), reports per-layer metrics per input,
writes the spans to perfbench/out, and then replays the same inputs
untraced: the replay gives the tracing overhead, and its report digests
must equal the traced ones.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_INPUTS = 100
SETUP_SAMPLES = 15
DEFAULT_SEED = 0
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(HERE, "out")
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import fsing.cli; print(time.perf_counter() - t)"
)


def import_time():
    """Seconds one fresh interpreter takes to import fsing.cli."""
    done = subprocess.run([sys.executable, "-I", "-S", "-c", IMPORT_PROBE], cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


class SetupProbes:
    """``setup_s`` samples spread over a run's input time.

    One probe runs before the first input and one more after every
    ``seconds / SETUP_SAMPLES`` of input time, up to SETUP_SAMPLES, so the
    median spans the same stretch of machine time as the other metrics
    rather than the second before the run.  An unmeasured import first puts
    compiled bytecode in place.
    """

    def __init__(self, seconds):
        import_time()
        self.step = seconds / SETUP_SAMPLES
        self.times = []

    def __call__(self, busy):
        if len(self.times) < SETUP_SAMPLES and busy >= len(self.times) * self.step:
            self.times.append(import_time())

    def median(self):
        return statistics.median(self.times)


def quantile(sorted_values, share):
    """Nearest-rank quantile of an ascending list."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * share)) - 1]


def recorded_digests(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)[workload]


def closed_loop(batches, seconds, min_inputs, run_one, verify, expected=None,
                whole_cycles=True, between=None):
    """Run inputs in order until both limits are met (and, with
    ``whole_cycles``, the cycle in progress is complete).

    ``batches`` yields one cycle's list of inputs at a time; it is asked for
    the next cycle outside the timed region.  Ending on a cycle boundary
    keeps every run's mix of input families the same.  ``between(busy)`` is
    called untimed before each input.  Returns (latencies, digests, errors)
    with one entry per input; a digest that differs from ``expected``
    (indexed modulo its length, the pool size) counts as an error.
    """
    latencies, digests, errors = [], [], []
    busy = 0.0
    batch = []
    while (whole_cycles and batch) or busy < seconds or len(latencies) < min_inputs:
        if not batch:
            batch = next(batches)[::-1]
        item = batch.pop()
        k = len(latencies)
        if between is not None:
            between(busy)
        start = time.perf_counter()
        try:
            output = run_one(k, item)
        except Exception as exc:  # one failing input must not end the run
            output = exc
        elapsed = time.perf_counter() - start
        busy += elapsed
        error, digest = verify(item, output)
        if error is None and expected is not None and digest != expected[k % len(expected)]:
            error = f"report digest {digest} differs from the recorded {expected[k % len(expected)]}"
        if error is not None:
            print(f"input {k} ({item['family']}) failed: {error}", file=sys.stderr)
        latencies.append(elapsed)
        digests.append(digest)
        errors.append(error)
    return latencies, digests, errors


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(setup_s, latencies, errors):
    ordered = sorted(latencies)
    failed = sum(e is not None for e in errors)
    return {
        "setup_s": (setup_s, "s"),
        "inputs_per_s": ((len(latencies) - failed) / sum(latencies), "1/s"),
        "latency_p50_s": (quantile(ordered, 0.5), "s"),
        "latency_p90_s": (quantile(ordered, 0.9), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_share": ((len(latencies) - failed) / len(latencies), "ratio"),
    }


def per_layer(tracer, inputs, traced_s, untraced_s):
    """Per-input layer counts and self times, plus the tracing overhead."""
    import spans

    totals = tracer.layer_totals()
    metrics = {}
    for layer in dict.fromkeys(name for _, _, name in spans.TRACED):
        calls, self_s = totals.get(layer, (0, 0.0))
        metrics[f"{layer}.calls"] = (calls / inputs, "1/input")
        metrics[f"{layer}.self_s"] = (self_s / inputs, "s/input")
    for key, unit in spans.COUNTS.items():
        metrics[key] = (tracer.counts.get(key, 0) / inputs, unit)
    metrics["field.ops.prime"] = (tracer.field_ops[0] / inputs, "1/input")
    metrics["field.ops.ext"] = (tracer.field_ops[1] / inputs, "1/input")
    metrics["trace.inputs"] = (inputs, "count")
    metrics["trace.inputs_per_s"] = (inputs / traced_s, "1/s")
    metrics["trace.overhead_x"] = (traced_s / untraced_s, "x")
    return metrics


def run(workload, seed, seconds, trace, min_inputs=MIN_INPUTS, whole_cycles=True, report=print):
    """One benchmark run; returns the result object of the last output line.

    ``whole_cycles=False`` ends the run on any input.
    """
    os.chdir(ROOT)
    if os.path.join(ROOT, "src") not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    notes = []
    try:
        expected = recorded_digests(workload, seed)
        if not trace:
            probes = SetupProbes(seconds)
            batches = workloads.cycles(workload, seed)
            first = next(batches)
            notes.append(f"peak_rss_mb before the first input: {peak_rss_mb():.1f} MB")
            latencies, _, errors = closed_loop(
                itertools.chain([first], batches), seconds, min_inputs,
                lambda k, item: workloads.execute(item), workloads.verify, expected,
                whole_cycles, probes)
            notes.append(f"setup_s from {len(probes.times)} probes")
            metrics = end_to_end(probes.median(), latencies, errors)
        else:
            import spans

            tracer = spans.Tracer()
            tracer.install()
            try:
                latencies, digests, errors = closed_loop(
                    workloads.cycles(workload, seed), seconds, min_inputs,
                    lambda k, item: tracer.run_input(k, workloads.execute, item),
                    workloads.verify, expected, whole_cycles)
            finally:
                tracer.remove()
            replay, _, replay_errors = closed_loop(
                workloads.cycles(workload, seed), 0, len(latencies),
                lambda k, item: workloads.execute(item), workloads.verify, digests, False)
            errors = [a or b for a, b in zip(errors, replay_errors)]
            metrics = per_layer(tracer, len(latencies), sum(latencies), sum(replay))
            os.makedirs(OUT_DIR, exist_ok=True)
            tracer.write(os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl.gz"))
    finally:
        workloads.cleanup()
    failed = sum(e is not None for e in errors)
    report(f"workload {workload}: seed {seed}, closed loop with 1 client, nproc {os.cpu_count()}, "
           f"{len(latencies)} inputs, {failed} failed (failed_share {failed / len(latencies):.4f}), "
           f"trace {int(trace)}")
    for note in notes:
        report(f"  {note}")
    for name, (value, unit) in metrics.items():
        report(f"  {name:42s} {value:14.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fsing", "__init__.py")):
        print(f"error: no fsing sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
