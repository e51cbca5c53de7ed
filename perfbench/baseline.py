"""Repeat the benchmark over several seeds and summarise it.

    python3 perfbench/baseline.py [--runs 10] [--out FILE] [--compare FILE]

This is also the one command that prints every end-to-end metric of
every workload by name and unit (``--runs 1`` for a quick look).

For every workload in BENCHMARK.json it makes ``--runs`` untraced runs,
seeds 1 .. runs, each ``run_seconds`` long, and one traced run.  Per
end-to-end metric it reports the median and quartiles of the per-run
values and their spread, the distance between the quartiles as a share of
the median, against the metric's bound.  Pooling the passes of all runs,
it also reports the median and the highest percentile with ten samples
above it, and it keeps every run's pass samples.  With ``--compare`` it
checks that no median is worse than the earlier summary's by more than the
bound.  The exit status is 1 when a spread or a drift exceeds its bound,
or any job failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


def quartiles(values):
    """Median, quartiles and spread (IQR / median); a single run has no
    quartiles."""
    out = {"median": statistics.median(values), "values": values}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"])
    return out


def summarise(workload, spec, runs):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_run = {name: [] for name in bounds}
    pooled = {name: [] for name in bounds}
    runs_samples = []
    attempted = failed = 0
    stamp = None
    for seed in range(1, runs + 1):
        detail, result = bench(workload, seed, spec["run_seconds"], 0)
        stamp = detail["stamp"]
        runs_samples.append(detail["samples"])
        for name in bounds:
            pooled[name].extend(detail["samples"][name])
        attempted += result["attempted"]
        failed += result["failed"]
        for name in bounds:
            per_run[name].append(result["metrics"][name]["value"])
        print(f"  {workload} seed {seed}: " + ", ".join(
            f"{n}={v[-1]:.4g}" for n, v in per_run.items()), flush=True)
    out = {"attempted": attempted, "failed": failed, "end_to_end": {},
           "passes": {}, "pass_samples_by_run": runs_samples}
    for name, values in per_run.items():
        q = quartiles(values)
        q["bound"] = bounds[name]
        q["unit"] = units[name]
        out["end_to_end"][name] = q
        hp = run.high_percentile(pooled[name])
        out["passes"][name] = {
            "samples": len(pooled[name]),
            "median": statistics.median(pooled[name]),
            "tail": {"percentile": hp[0], "value": hp[1]} if hp else None}
    detail, result = bench(workload, 1, spec["run_seconds"], 1)
    traced = [p for p in detail["passes"] if p["traced"]]
    out["layers"] = {k: v["value"] for k, v in result["metrics"].items()}
    out["layer_shares"] = run.layer_shares(traced)
    out["layer_share_base"] = ("median over the traced passes of (self "
                               "time of the span, or summed over the "
                               "layer's spans) / traced wall_s")
    return stamp, out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out")
    ap.add_argument("--compare")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {"run_seconds": spec["run_seconds"], "runs": args.runs,
               "workloads": {}}
    ok = True
    for name in run.WORKLOADS:
        summary["stamp"], s = summarise(name, spec, args.runs)
        summary["workloads"][name] = s
        ok &= s["failed"] == 0
        for metric, q in s["end_to_end"].items():
            line = (f"{name:>14} {metric:>14} = {q['median']:.5g} "
                    f"{q['unit']} (median of {len(q['values'])} runs)")
            if "spread" in q:
                flag = "ok"
                if q["spread"] > q["bound"] / 3:
                    flag = ("WIDE" if q["spread"] <= q["bound"]
                            else "OVER BOUND")
                    ok &= q["spread"] <= q["bound"]
                line += (f"  IQR/median {q['spread']:.4f}"
                         f"  bound {q['bound']}  {flag}")
            print(line)
        print(f"{name:>14} {'failed_jobs':>14} = {s['failed']} "
              f"of {s['attempted']}")
        print(f"{name:>14} layer shares: {json.dumps(s['layer_shares'])}")
    if args.compare:
        before = json.loads(Path(args.compare).read_text())["workloads"]
        for name, s in summary["workloads"].items():
            for metric, q in s["end_to_end"].items():
                old = before[name]["end_to_end"][metric]["median"]
                drift = q["median"] / old - 1
                bad = drift > q["bound"]
                ok &= not bad
                print(f"{name:>14} {metric:>14}: median {old:.5g} -> "
                      f"{q['median']:.5g} ({drift:+.2%})"
                      + ("  WORSE THAN BOUND" if bad else ""))
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
