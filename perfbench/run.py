"""Run one boxforms benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a boxforms checkout; the package is imported from
its ``src`` directory.  The process is the workload's fresh interpreter:

1. set-up: ``import boxforms`` and ``manufactured(name)`` for every catalog
   entry the workload names.  A second fresh interpreter sets up at the
   same time on the other core; ``setup_s`` is the median of the two;
2. rounds: the workload's operations, in whole rounds, while the next
   round still ends within ``--seconds``.  Every operation's output is
   checked; an operation whose check fails counts as failed;
3. the last line of stdout is one JSON object with ``correct``,
   ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``run_s``, ``peak_rss_mb``).  With ``--trace 1`` named boxforms entry
points are wrapped after the import, the metrics are the per-layer ones
for set-up plus one average round, and the spans go to
``perfbench/results/trace-<workload>-<seed>.json``.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOAD_NAMES = ("verify_exact", "float_solve", "exact_oracle")
PROBE_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_boxforms():
    """Import boxforms from this checkout's src; return the import's seconds."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import boxforms
    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(boxforms.__file__))) != SRC:
        raise SystemExit(f"error: imported boxforms from {boxforms.__file__}, not {SRC}")
    return elapsed


def look_up(entries):
    """Seconds for ``manufactured(name)`` over the workload's catalog entries."""
    from boxforms import fields
    start = time.perf_counter()
    for name in entries:
        fields.manufactured(name)
    return time.perf_counter() - start


def start_probe(workload):
    return subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--setup-probe"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def finish_probe(probe):
    """The probe's set-up seconds; the probe has ended when this returns."""
    try:
        out, err = probe.communicate(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        probe.kill()
        probe.communicate()
        raise SystemExit("error: set-up probe did not finish")
    if probe.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{err}")
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


def run_rounds(ops, seconds):
    """Whole rounds while the next one should still end within ``seconds``."""
    times = {op.name: [] for op in ops}
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while True:
        for op in ops:
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a crash of the program is a failed operation
                elapsed = time.perf_counter() - t0
                problems = [f"raised {type(exc).__name__}: {exc}"]
            else:
                elapsed = time.perf_counter() - t0
                problems = op.check(result)
            times[op.name].append(elapsed)
            attempted += 1
            if problems:
                failed += 1
                print(f"FAILED {op.name}: {'; '.join(problems)}", file=sys.stderr)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return times, rounds, attempted, failed


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "boxforms", "__init__.py")):
        print(f"error: no boxforms package under {SRC}; "
              "run from the root of a boxforms checkout", file=sys.stderr)
        return 2

    probe = None if args.trace or args.setup_probe else start_probe(args.workload)
    try:
        import_s = import_boxforms()
        import workloads
        entries = workloads.CATALOG_ENTRIES[args.workload]
        if args.setup_probe:
            print(json.dumps({"setup_s": import_s + look_up(entries)}))
            return 0
        ops = workloads.WORKLOADS[args.workload](args.seed)
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            skipped = tracing.install(tracer)
            if skipped:
                print(f"not traced (missing): {', '.join(skipped)}", file=sys.stderr)
        setup_s = import_s + look_up(entries)
        setup_samples = [setup_s] + ([finish_probe(probe)] if probe else [])
    finally:
        if probe is not None and probe.poll() is None:
            probe.kill()
            probe.wait()

    setup_snapshot = tracer.snapshot() if tracer else None
    times, rounds, attempted, failed = run_rounds(ops, args.seconds)
    run_s = sum(statistics.median(samples) for samples in times.values())
    for name, samples in times.items():
        print(f"{name}: median {statistics.median(samples):.3f} s of "
              f"{[round(t, 3) for t in samples]}", file=sys.stderr)

    if tracer:
        metrics = tracing.per_layer(setup_snapshot, tracer.snapshot(), rounds, import_s)
        os.makedirs(RESULTS, exist_ok=True)
        path = os.path.join(RESULTS, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "rounds": rounds,
                       "run_s": run_s, "setup_s": setup_s, "metrics": metrics,
                       "spans": tracer.spans}, fh)
        print(f"trace: {path} ({len(tracer.spans)} spans)", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
