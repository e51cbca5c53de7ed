"""Write the reference outputs the benchmark checks every job against.

    python3 perfbench/record.py

Run this only on a commit whose outputs are trusted (the references in
``perfbench/reference/`` were written at the commit that introduced the
benchmark).  It draws the input pools that seeded jobs sample from, records
the expected output of every pool entry and every fixed job, and refuses to
write a workload whose results fail the independent checks.
"""

import json
import random

import worker
import workloads as wl

POOL_SEED = 20200128
PAIR_POOL = 8         # word pairs per Cartan datum, heights 5 and 6
PRODUCT_POOL = 36     # monomial products per Cartan datum, height 6


def form_pairs(kc):
    pools = {}
    for cname in wl.Form.data:
        rng = random.Random(f"{POOL_SEED}/pairs/{cname}")
        cache = kc.GramCache(wl.cartan(kc, cname))
        pool = []
        for _ in range(PAIR_POOL):
            u = [rng.choice(wl.LABELS) for _ in range(rng.choice((5, 6)))]
            v = list(u)
            rng.shuffle(v)
            value = cache.pair_words(tuple(u), tuple(v))
            pool.append({"u": u, "v": v, "value": wl.ratfunc_json(value)})
        pools[cname] = pool
    return pools


def _random_monomial(kc, rng, nu):
    """x^a tau_w 1_nu for a random permutation and exponents in {0, 1};
    returns the entry and the left colour word."""
    images = list(range(1, len(nu) + 1))
    rng.shuffle(images)
    g = kc.Perm(images)
    exps = [rng.randint(0, 1) for _ in nu]
    return [list(nu), list(kc.canonical_word(g)), exps], g.permute_tuple(nu)


def rewrite_products(kc):
    pools = {}
    for cname in wl.Rewrite.data:
        rng = random.Random(f"{POOL_SEED}/products/{cname}")
        ctx = kc.KLRContext(wl.cartan(kc, cname))
        pool = []
        for _ in range(PRODUCT_POOL):
            nu = tuple(rng.choice(wl.LABELS) for _ in range(6))
            v, lam = _random_monomial(kc, rng, nu)
            u, _ = _random_monomial(kc, rng, lam)
            prod = kc.klr_multiply(kc.KLRElement.monomial(ctx, *u),
                                   kc.KLRElement.monomial(ctx, *v))
            pool.append({"u": u, "v": v,
                         "nf": {"digest": wl.nf_digest(prod),
                                "terms": len(prod.terms)}})
        pools[cname] = pool
    return pools


def record(kc, name):
    workload = wl.WORKLOADS[name]()
    ref = {"jobs": {}}
    if name == "form":
        ref["pairs"] = form_pairs(kc)
    if name == "rewrite":
        ref["products"] = rewrite_products(kc)
    _, records, _, _ = worker.run_pass(kc, workload, ref, seed=0)
    for jid, _, raw, err in records:
        if err is not None:
            raise SystemExit(f"{name}: job {jid} raised {err}")
        if jid not in getattr(workload, "expect", {}):
            ref["jobs"][jid] = workload.output(jid, raw)
    failures = worker.check_records(workload, ref, records)
    if failures:
        raise SystemExit(f"{name}: independent checks fail: {failures}")
    path = worker.HERE / "reference" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(ref, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"{name}: {len(ref['jobs'])} fixed jobs -> {path}")


def main():
    kc = worker.import_klrcalc()
    for name in sorted(wl.WORKLOADS):
        record(kc, name)


if __name__ == "__main__":
    main()
