"""Show that the exact checks catch a wrong answer.

    python3 perfbench/selfcheck.py

For each workload it changes one digit in a copy of the reference held in
memory: in the first recorded fixed-job output that has a digit, and, for
workloads with seeded jobs, in the first pool entry's expected output.  It
runs a pass against that copy and requires exactly the corrupted jobs to
fail.  Exits 1 otherwise.
"""

import copy
import json
import sys

import worker
import workloads as wl

# reference pool -> (field with the expected output, job id kind)
POOLS = {"pairs": ("value", "pair"), "products": ("nf", "product")}


def flip_digit(obj):
    """obj with its first digit, in JSON text order, replaced by the next."""
    text = json.dumps(obj)
    for pos, ch in enumerate(text):
        if ch.isdigit():
            return json.loads(text[:pos] + str((int(ch) + 1) % 10)
                              + text[pos + 1:])
    return None


def corrupt(ref):
    """A corrupted copy of the reference and the job ids it must fail."""
    bad = copy.deepcopy(ref)
    targets = set()
    for jid in sorted(ref["jobs"]):
        flipped = flip_digit(ref["jobs"][jid])
        if flipped is not None:
            bad["jobs"][jid] = flipped
            targets.add(jid)
            break
    for key, (field, kind) in POOLS.items():
        if key in ref:
            cname = sorted(ref[key])[0]
            entry = bad[key][cname][0]
            entry[field] = flip_digit(entry[field])
            targets.add(f"{cname}/{kind}/0")
    return bad, targets


def main():
    kc = worker.import_klrcalc()
    ok = True
    for name in sorted(wl.WORKLOADS):
        workload = wl.WORKLOADS[name]()
        bad, targets = corrupt(worker.load_reference(name))
        _, records, _, _ = worker.run_pass(kc, workload, bad, seed=1)
        failures = worker.check_records(workload, bad, records)
        caught = set(failures) == targets
        ok &= caught
        print(f"{name}: corrupted {sorted(targets)}; failed_jobs = "
              f"{len(failures)} of {len(records)} -> "
              f"{'caught' if caught else 'NOT CAUGHT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
