"""klrcalc benchmark: one command, four exact workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports klrcalc from ``src`` there.
A run repeats *passes* of the workload until S seconds have gone.  Every
pass is a fresh single-threaded process that imports klrcalc, sets up,
runs the workload's fixed job list and checks every job exactly against
``perfbench/reference``.  A run reports medians over its passes, with
every timing divided by its pass's speed factor (``calibrate.py``), that
is, in seconds at a fixed reference speed of the machine.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` passes alternate untraced and traced, and it
carries the per-layer metrics of the traced passes and the tracing
overhead.  The lines before it print every metric by name and unit, the
per-pass samples, and the machine stamp.  The exit status is 0 when the
run completed (wrong results are reported as ``failed``, not by the exit
status), 2 when the checkout has no klrcalc sources or the arguments are
unusable, and 1 when a pass crashed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
LAYER_METRICS = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
MIN_PASSES = 3
TRACE_MIN_PASSES = 4        # two untraced, two traced
PASS_TIMEOUT_S = 150


def stamp():
    """Machine, interpreter and code identity for every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "git_sha": git_sha()}


def git_sha():
    """HEAD of the checkout; None in a checkout that is not a repository
    (rather than the HEAD of a repository that contains it)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_pass(workload, seed, traced):
    """Run one pass in a fresh interpreter and return its result dict."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    # set iteration order, and with it the order in which memo tables
    # fill, must not vary from pass to pass
    env["PYTHONHASHSEED"] = "0"
    spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-s", str(HERE / "worker.py"), workload, str(seed),
         "1" if traced else "0", repr(spawn)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"pass of {workload} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["speed"] = speed_factor(result)
    return result


def warm_up():
    """Compile the sources once, so that no pass pays for byte-compiling."""
    import compileall
    for d in (ROOT / "src" / "klrcalc", HERE):
        compileall.compile_dir(str(d), quiet=1)


def high_percentile(samples):
    """(p, value): the highest whole percentile with at least ten samples
    above it, or None when there are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    xs = sorted(samples)
    rank = n - 10                       # samples at or below the cut
    return int(100 * rank / n), xs[rank - 1]


def pass_samples(plain):
    """The per-pass samples behind each end-to-end metric, whose median is
    the metric; timings are divided by the pass's speed factor.
    slowest_job_s follows the job whose median time over the passes is the
    largest."""
    jobs = plain[0]["job_s"]
    slowest = max(jobs, key=lambda jid: statistics.median(
        p["job_s"][jid] / p["speed"] for p in plain))
    out = {name: [(p["job_s"][slowest] if name == "slowest_job_s"
                   else p[name]) / (p["speed"] if unit == "s" else 1)
                  for p in plain] for name, unit in END_TO_END}
    return slowest, out


def speed_factor(p):
    """The pass's mean calibration kernel time over the reference time:
    above 1 when the machine ran slower than the reference."""
    return statistics.fmean(p["kernel_s"]) / calibrate.REFERENCE_S


def describe(name, unit, samples):
    line = (f"{name:>22} = {statistics.median(samples):.6g} {unit}"
            f"  (median of {len(samples)} passes")
    hp = high_percentile(samples)
    line += f"; p{hp[0]} {hp[1]:.6g})" if hp else "; too few for a tail)"
    return line


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "klrcalc" / "__init__.py").is_file():
        sys.stderr.write(f"no klrcalc sources under {ROOT / 'src'}\n")
        return 2

    warm_up()
    passes = []
    begin = time.monotonic()
    need = TRACE_MIN_PASSES if args.trace else MIN_PASSES
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.monotonic()
        passes.append(run_pass(args.workload, args.seed, traced))
        last = time.monotonic() - t0
        # start another pass only if it should end inside the window
        if len(passes) >= need and time.monotonic() - begin + last \
                > args.seconds:
            break

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    slowest, samples = pass_samples(plain)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "stamp": stamp(),
                      "slowest_job": slowest, "samples": samples,
                      "passes": passes}))
    print(f"klrcalc benchmark  workload={args.workload}  seed={args.seed}  "
          f"passes={len(plain)} untraced, {len(traced)} traced")
    speeds = [p["speed"] for p in plain]
    print(f"{'speed factor':>22} = {statistics.median(speeds):.4f}  (median"
          f" of passes, range {min(speeds):.3f}-{max(speeds):.3f})")
    for name, unit in END_TO_END:
        print(describe(name, unit, samples[name]))
    print(f"{'slowest job':>22} = {slowest}")
    print(f"{'jobs_attempted':>22} = {attempted}")
    print(f"{'failed_jobs':>22} = {failed}")
    for p in passes:
        for jid, why in p["failures"].items():
            print(f"  FAILED {jid}: {'; '.join(why)}")

    if args.trace:
        metrics = layer_metrics(plain, traced)
        for name, m in metrics.items():
            print(f"{name:>30} = {m['value']:.6g} {m['unit']}")
        print("layer shares of traced job time: " + json.dumps(
            layer_shares(traced)))
    else:
        metrics = {name: {"value": statistics.median(samples[name]),
                          "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_metrics(plain, traced):
    """Medians over the traced passes, and the tracing overhead; timings
    are divided by each pass's speed factor."""
    def median(passes, get, unit):
        return statistics.median(get(p) / (p["speed"] if unit == "s" else 1)
                                 for p in passes)

    out = {}
    for name, unit in LAYER_METRICS:
        if name == "trace.overhead_s":
            value = (median(traced, lambda p: p["wall_s"], unit)
                     - median(plain, lambda p: p["wall_s"], unit))
        else:
            value = median(traced, lambda p: p["layers"][name], unit)
        out[name] = {"value": value, "unit": unit}
    return out


def layer_shares(traced):
    """Median share of the traced job wall time taken by each span's self
    time and by each layer (module) in total; 'other' is time in no span.
    Spans with no time are left out; layers are always listed."""
    spans = [name[:-len(".self_s")] for name, _ in LAYER_METRICS
             if name.endswith(".self_s")]
    layers = sorted({s.split(".")[0] for s in spans})
    rows = []
    for p in traced:
        row = {s: p["layers"][s + ".self_s"] / p["wall_s"] for s in spans}
        for layer in layers:
            row[layer] = sum(row[s] for s in spans
                             if s.startswith(layer + "."))
        row["other"] = 1.0 - sum(row[layer] for layer in layers)
        rows.append(row)
    shares = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    return {k: round(v, 4) for k, v in shares.items()
            if v or k in layers or k == "other"}


if __name__ == "__main__":
    sys.exit(main())
