"""One pass of a workload in a fresh process; ``run.py`` starts it.

A pass imports klrcalc from the checkout's ``src``, sets the workload up,
runs its jobs one after another, and only then turns the results into
plain data and checks each against the reference.  After every job it
times one call of the calibration kernel (``calibrate.py``); the job-list
time is the sum of the job times and leaves the kernel out.  It prints one
JSON line: its set-up and job-list times, the time of every job and of
every kernel call, its peak resident memory, the jobs attempted and failed,
and, when traced, the per-layer numbers.

    python3 perfbench/worker.py WORKLOAD SEED TRACE SPAWN_CLOCK

SPAWN_CLOCK is ``time.monotonic()`` read by the parent just before it
started this process (the clock is system-wide on Linux), so set-up time
covers interpreter start as well.
"""

import json
import resource
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def load_reference(name):
    with open(HERE / "reference" / f"{name}.json") as fh:
        return json.load(fh)


def import_klrcalc():
    """Import the package from the checkout under test, never from
    anywhere else on the path."""
    sys.path.insert(0, str(SRC))
    import klrcalc
    if Path(klrcalc.__file__).resolve().parent != SRC / "klrcalc":
        raise ImportError(f"klrcalc imported from {klrcalc.__file__}, "
                          f"not from {SRC}")
    return klrcalc


def run_pass(kc, workload, ref, seed, tracer=None):
    """Set up and run every job, each followed by one untimed call of the
    calibration kernel; return (setup clock, job records, kernel times,
    peak RSS in MiB).  Nothing is checked here."""
    if tracer is not None:
        tracer.install(kc)
        tracer.enabled = True
    jobs = workload.setup(kc, ref, seed)
    start = time.monotonic()
    records = []
    kernel_s = []
    for idx, (jid, thunk) in enumerate(jobs):
        if tracer is not None:
            tracer.job = idx
        t0 = time.perf_counter()
        try:
            raw, err = thunk(), None
        except Exception as exc:  # a raising job is a failed job
            raw, err = None, f"{type(exc).__name__}: {exc}"
        records.append((jid, time.perf_counter() - t0, raw, err))
        kernel_s.append(calibrate.timed())
    if tracer is not None:
        tracer.enabled = False
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return start, records, kernel_s, peak_mb


def check_records(workload, ref, records):
    """Failure messages by job id; a job is failed when it raised, when
    its output differs from the reference, or when an independent check
    disagrees."""
    failures = {}
    for jid, _, raw, err in records:
        if err is not None:
            failures[jid] = [err]
            continue
        try:
            problems = workload.check(jid, workload.output(jid, raw), ref)
        except Exception as exc:  # a result the checks cannot read
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures[jid] = problems
    return failures


def main(argv):
    name, seed, trace, spawn_clock = (argv[0], int(argv[1]),
                                      argv[2] == "1", float(argv[3]))
    kc = import_klrcalc()
    import workloads
    workload = workloads.WORKLOADS[name]()
    ref = load_reference(name)
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
    start, records, kernel_s, peak_mb = run_pass(kc, workload, ref, seed,
                                                 tracer)
    failures = check_records(workload, ref, records)
    result = {
        "setup_s": start - spawn_clock,
        "wall_s": sum(t for _, t, _, _ in records),
        "kernel_s": kernel_s,
        "job_s": {jid: t for jid, t, _, _ in records},
        "peak_rss_mb": peak_mb,
        "attempted": len(records),
        "failed": len(failures),
        "failures": dict(list(failures.items())[:5]),
        "traced": trace,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"{name}.spans.jsonl")
    print(json.dumps(result))


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    main(sys.argv[1:])
