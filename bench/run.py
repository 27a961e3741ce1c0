"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload request-stream --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.
One process, one closed-loop client: each request starts when the one
before it has returned.  The run repeats whole rounds of its workload
until ``--seconds`` have passed, checks every round's outputs, and
prints the end-to-end metrics (``--trace 0``) or, from a run with the
layer calls wrapped in spans, the per-layer metrics (``--trace 1``).
BLAS and OpenMP threads are pinned to the number of usable cores.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
OUT = os.path.join(BENCH, "out")
WORKLOAD_NAMES = ("sweep-smooth", "data-study", "request-stream")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]))
print(time.perf_counter() - start)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True,
                        help="any integer, taken modulo 2**64")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    args.seed %= 2 ** 64      # numpy's generators take no negative seed
    return args


def measure_setup(workload, seed):
    """Median over fresh processes of import plus input generation."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, SRC, BENCH, workload,
             str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def run_rounds(workload, seconds, tracer):
    """Whole rounds, at least one, while the next round is expected to
    end within ``seconds``; returns round times, request times,
    attempted and failed counts and check failures."""
    rounds, requests, failures = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not rounds or (time.perf_counter() - start
                         + statistics.median(rounds) <= seconds):
        if tracer:
            tracer.begin_round(len(rounds))
        outputs = []
        round_start = time.perf_counter()
        for key, call in workload.requests():
            attempted += 1
            t0 = time.perf_counter()
            try:
                with tracer.request() if tracer else nullcontext():
                    out = call()
            except Exception:
                failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            requests.append(time.perf_counter() - t0)
            outputs.append((key, out))
        rounds.append(time.perf_counter() - round_start)
        failures += workload.check(outputs, first_round=len(rounds) == 1)
    return rounds, requests, attempted, failed, failures


def write_spans(tracer, selfs, path):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for span, own in zip(tracer.spans, selfs):
            fh.write(json.dumps({**vars(span), "self": own}) + "\n")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gradflux", "__init__.py")):
        print(f"no gradflux package under {SRC}: run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    cores = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = cores
    sys.path.insert(0, SRC)

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    import spans
    import workloads
    from gradflux import study

    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = spans.Tracer(study) if args.trace else None
    with tracer or nullcontext():
        rounds, requests, attempted, failed, failures = run_rounds(
            workload, args.seconds, tracer)

    if tracer:
        selfs = spans.self_times(tracer.spans)
        failures += (tracer.failures + spans.silent_layers(tracer.spans)
                     + spans.closure_failures(tracer.spans, selfs))
        write_spans(tracer, selfs, os.path.join(
            OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
        layers = spans.layer_metrics(tracer.spans, selfs)
        metrics = {name: {"value": value,
                          "unit": "s" if name.endswith("_s") else
                          "share" if name.endswith("share") else "count"}
                   for name, value in layers.items()}
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": {"value": statistics.median(rounds), "unit": "s"},
            "request_p50_s": {"value": statistics.median(requests),
                              "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }

    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(rounds)} round(s) of "
          + " ".join(f"{t:.3f}" for t in rounds) + " s; "
          f"request_p50_s over {len(requests)} requests; "
          f"{len(failures)} check failure(s)")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
