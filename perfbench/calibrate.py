"""How fast this machine runs pure Python code at the moment.

The benchmark runs on shared machines whose speed changes by up to a factor
of two from one second to the next, and whose slow and fast phases last from
milliseconds to minutes.  So a pass times a small fixed kernel after every
job: work of the kind klrcalc does (dictionaries keyed by small tuples,
exact ``Fraction`` elimination) that calls no klrcalc code.  The kernel
samples the machine's speed at the same moments the jobs run.  ``run.py``
divides each pass's timings by the pass's speed factor, its mean kernel
time over ``REFERENCE_S``, and so reports them in seconds at a fixed
reference speed.  The kernel lives in the benchmark, so a change to klrcalc
does not change the work it does.
"""

import gc
from fractions import Fraction
from time import perf_counter

# Mean kernel time on an Intel Xeon (2 vCPUs, Python 3.11.7).  It only
# fixes the unit; any constant would rank commits alike.
REFERENCE_S = 0.0020


def kernel():
    """A fixed amount of tuple-keyed dictionary and Fraction work."""
    p = {(i % 5, i % 7, i % 3): i + 1 for i in range(40)}
    prod = {}
    for (a, b, c), x in p.items():
        for (d, e, f), y in p.items():
            key = (a + d, b + e, c + f)
            prod[key] = prod.get(key, 0) + x * y
    n = 8
    rows = [[Fraction((3 * i * j + i + 1) % 11 - 5, 1 + (i + j) % 4)
             for j in range(n)] for i in range(n)]
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, n):
            f = rows[r][col] / rows[rank][col]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return len(prod), rank


def timed():
    """Seconds one kernel call takes.  The kernel makes no reference
    cycles; the collector is off so that the caller's heap does not enter
    its time."""
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        gc.enable()
