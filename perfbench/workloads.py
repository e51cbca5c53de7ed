"""The four benchmark workloads: their fixed job lists, their seeded inputs,
and the exact checks of every job against the recorded reference.

Each workload is a class with three parts:

* ``setup(kc, ref, seed)`` builds contexts, complexes and the seeded inputs
  and returns the job list ``[(job_id, thunk), ...]``.  This is the
  benchmark's set-up phase.
* The thunks are the timed jobs.  Each makes one call into the public
  ``klrcalc`` API and returns its raw result.
* ``output(job_id, raw)`` turns a raw result into plain JSON data, and
  ``check(job_id, out, ref)`` compares it with the reference and runs the
  independent checks the library offers.  Both run after the timed phase.

``ref`` is the workload's reference file (``reference/<name>.json``),
written by ``record.py`` at the seed commit.  It holds the input pools
that seeded jobs draw from and the expected output of every job.
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction

LABELS = ("i", "j")

# Rank-two Cartan data by their symmetric dot form, as in the test suite.
DOTS = {
    "A2": [[2, -1], [-1, 2]],
    "B2": [[2, -2], [-2, 4]],      # i is the short root
    "B2r": [[4, -2], [-2, 2]],     # i is the long root
    "G2": [[2, -3], [-3, 6]],
}


def cartan(kc, name):
    return kc.CartanDatum(list(LABELS), DOTS[name])


def word_str(word):
    return "".join(word)


def _seeded_order(n, seed, *salt):
    """The seed's permutation of range(n), drawn from an independent stream
    per (seed, salt), so that one workload's order never shifts another's.

    Seeded jobs are random inputs recorded once in the reference pool; the
    seed fixes the order in which they meet the memo tables they share.
    Every seed runs the whole pool, so runs with different seeds do the
    same work and their timings stay comparable."""
    order = list(range(n))
    random.Random(f"{seed}/{'/'.join(salt)}").shuffle(order)
    return order


# ---------------------------------------------------------------------------
# complex workloads: one job per (cell, internal degree)
# ---------------------------------------------------------------------------

def _cells_upto(total, window):
    """Every A2 and B2 cell (n, m), n, m >= 1, with n + m <= total."""
    return [(c, n, m, window) for c in ("A2", "B2")
            for n in range(1, total) for m in range(1, total + 1 - n)]


class _ComplexWorkload:
    """cohomology_dims per internal degree on prebuilt complexes, adjoint
    colour i acting on the cyclic module of j^m."""

    cells = ()
    builder = None

    def setup(self, kc, ref, seed):
        self.kc = kc
        self.cplx = {}
        ctxs = {}
        jobs = []
        build = getattr(kc, self.builder)
        for cname, n, m, (lo, hi) in self.cells:
            ctx = ctxs.get(cname)
            if ctx is None:
                ctx = ctxs[cname] = kc.KLRContext(cartan(kc, cname))
            cplx = build(n, ("j",) * m, "i", ctx)
            for d in range(lo, hi + 1):
                jid = f"{cname}/n={n},m={m}/d={d}"
                self.cplx[jid] = (cplx, ctx, n, m, d)
                jobs.append((jid, _cohomology_job(kc, cplx, d)))
        return jobs

    def output(self, jid, gdt):
        cplx, _, _, _, d = self.cplx[jid]
        dims = sorted([k, v] for (k, _), v in gdt.dims.items() if v)
        refined = sorted([k, word_str(lam), v]
                         for (k, lam, _), v in gdt.refined.items() if v)
        ranks = sorted([k, word_str(lam), cplx.block_rank(k, d, lam)]
                       for lam in cplx.left_color_words(d)
                       for k in range(1, cplx.length()))
        return {"dims": dims, "refined": refined, "ranks": ranks}

    def check(self, jid, out, ref):
        problems = []
        if out != ref["jobs"][jid]:
            problems.append("differs from reference")
        if any(k != 0 for k, _ in out["dims"]):
            problems.append("cohomology outside degree 0")
        return problems


def _cohomology_job(kc, cplx, d):
    return lambda: kc.cohomology_dims(cplx, kc.DegreeWindow(d, d))


class SerreDivided(_ComplexWorkload):
    """The paper's Serre-exactness computation on divided complexes."""

    name = "serre-divided"
    builder = "build_divided_complex"
    # A2 n=4 m=1 is the slowest Serre cell; windows are cut so that one
    # pass takes about two seconds.
    cells = tuple(_cells_upto(4, (0, 6))) + (("A2", 4, 1, (0, 0)),)

    def check(self, jid, out, ref):
        problems = super().check(jid, out, ref)
        kc = self.kc
        _, ctx, n, m, d = self.cplx[jid]
        expected_exact = n > -m * ctx.cartan.cartan("i", "j")
        qz = kc.is_quotient_zero(kc.RootVector({"i": n, "j": m}), "i", ctx)
        if qz != expected_exact:
            problems.append("is_quotient_zero disagrees with n > -m c_ij")
        if expected_exact and out["dims"]:
            problems.append("cohomology on an exact cell")
        if m == 1:
            grk = kc.series_window(kc.grk_ad_divided_Ej(n, "i", "j", ctx),
                                   kc.DegreeWindow(d, d)).coeff(d)
            h0 = dict((k, v) for k, v in out["dims"]).get(0, 0)
            if grk != h0:
                problems.append(f"H^0 {h0} != closed graded rank {grk}")
        return problems


class AdRank(_ComplexWorkload):
    """Undivided adjoint complexes on plain idempotents: no basis
    elimination, so the exact rank dominates."""

    name = "ad-rank"
    builder = "build_ad_complex"
    cells = (("A2", 3, 2, (0, 0)),) + tuple(_cells_upto(4, (0, 3)))


# ---------------------------------------------------------------------------
# form: the bilinear-form oracle
# ---------------------------------------------------------------------------

def ratfunc_json(r):
    return [_poly_json(r.num), _poly_json(r.den)]


def _poly_json(p):
    return [[e, str(c)] for e, c in sorted(p.coeffs.items())]


def ratfunc_from_json(kc, obj):
    num, den = ([(e, Fraction(c)) for e, c in part] for part in obj)
    return kc.RatFunc(kc.LaurentPoly(dict(num)), kc.LaurentPoly(dict(den)))


def same_value(a, b):
    """Exact equality of two rational functions as values, whatever
    normalisation each carries."""
    return a.num * b.den == b.num * a.den


class Form:
    """Higher Serre relations through the form, seeded word pairs checked
    against the reference and for symmetry, and the dimension-vs-form
    calibration."""

    name = "form"
    data = ("A2", "B2", "G2")
    serre_total = 4           # every n >= 0, m >= 1 with n + m <= 4
    k0_window = (0, 4)
    k0_height = {"A2": 3, "B2": 2, "G2": 2}

    def setup(self, kc, ref, seed):
        self.kc = kc
        self.expect = {}
        self.reversed = {}
        jobs = []
        for cname in self.data:
            cd = cartan(kc, cname)
            cache = kc.GramCache(cd)
            # the reversed pairs, untimed, go to a second cache: GramCache
            # stores (u, v) and (v, u) together, so one cache would make
            # the symmetry check vacuous
            mirror = kc.GramCache(cd)
            ctx = kc.KLRContext(cd)
            for i, j in (("i", "j"), ("j", "i")):
                for tot in range(1, self.serre_total + 1):
                    for n in range(tot):
                        jid = f"{cname}/serre/{i}{j}/n={n},m={tot - n}"
                        jobs.append((jid, _serre_job(kc, n, tot - n, i, j,
                                                     cache)))
            pool = ref["pairs"][cname]
            for idx in _seeded_order(len(pool), seed, self.name, cname):
                u, v = pool[idx]["u"], pool[idx]["v"]
                jid = f"{cname}/pair/{idx}"
                self.expect[jid] = pool[idx]["value"]
                self.reversed[jid] = (mirror, tuple(v), tuple(u))
                jobs.append((jid, _pair_job(tuple(u), tuple(v), cache)))
            lo, hi = self.k0_window
            for h in range(1, self.k0_height[cname] + 1):
                for a in range(h, -1, -1):
                    beta = kc.RootVector({"i": a, "j": h - a})
                    jid = f"{cname}/k0/i{a}j{h - a}"
                    jobs.append((jid, _k0_job(kc, beta, lo, hi, ctx)))
        return jobs

    def output(self, jid, raw):
        kind = jid.split("/")[1]
        if kind == "serre":
            return raw
        if kind == "pair":
            mirror, v, u = self.reversed[jid]
            return {"value": ratfunc_json(raw),
                    "symmetric": same_value(raw, mirror.pair_words(v, u))}
        return {"shift": raw["shift"],
                "pairs": [[word_str(p["left"]), word_str(p["right"]),
                           p["shift"]] for p in raw["pairs"]]}

    def check(self, jid, out, ref):
        kind = jid.split("/")[1]
        if kind == "pair":
            problems = []
            want = ratfunc_from_json(self.kc, self.expect[jid])
            got = ratfunc_from_json(self.kc, out["value"])
            if not same_value(got, want):
                problems.append("differs from reference")
            if not out["symmetric"]:
                problems.append("form not symmetric")
            return problems
        return [] if out == ref["jobs"][jid] else ["differs from reference"]


def _serre_job(kc, n, m, i, j, cache):
    return lambda: kc.higher_serre_check(n, m, i, j, cache)


def _pair_job(u, v, cache):
    return lambda: cache.pair_words(u, v)


def _k0_job(kc, beta, lo, hi, ctx):
    return lambda: kc.k0_isometry_calibrate(beta, kc.DegreeWindow(lo, hi),
                                            ctx)


# ---------------------------------------------------------------------------
# rewrite: KLR normal forms
# ---------------------------------------------------------------------------

def nf_digest(el):
    """SHA-256 of the PBW normal form; the normal form is unique, so equal
    digests mean equal elements."""
    terms = sorted([list(nu), list(word), list(exps), str(c)]
                   for (nu, word, exps), c in el.terms.items())
    return hashlib.sha256(json.dumps(terms).encode()).hexdigest()


class Rewrite:
    """Defining-relation residues on a cold context, then seeded products
    of PBW monomials on the same (now warm) context."""

    name = "rewrite"
    data = ("A2", "B2r", "G2")
    residue_height = 4        # all 2^4 colour words

    def setup(self, kc, ref, seed):
        self.kc = kc
        self.expect = {}
        jobs = []
        for cname in self.data:
            ctx = kc.KLRContext(cartan(kc, cname))
            for nu in itertools.product(LABELS, repeat=self.residue_height):
                jid = f"{cname}/residues/{word_str(nu)}"
                jobs.append((jid, _residue_job(kc, ctx, nu)))
            pool = ref["products"][cname]
            for idx in _seeded_order(len(pool), seed, self.name, cname):
                entry = pool[idx]
                u = kc.KLRElement.monomial(ctx, *entry["u"])
                v = kc.KLRElement.monomial(ctx, *entry["v"])
                jid = f"{cname}/product/{idx}"
                self.expect[jid] = entry["nf"]
                jobs.append((jid, _product_job(kc, u, v)))
        return jobs

    def output(self, jid, raw):
        if jid.split("/")[1] == "residues":
            return {"names": sorted(raw),
                    "nonzero": sorted(k for k, v in raw.items()
                                      if not v.is_zero())}
        return {"digest": nf_digest(raw), "terms": len(raw.terms)}

    def check(self, jid, out, ref):
        if jid.split("/")[1] == "residues":
            problems = []
            if out != ref["jobs"][jid]:
                problems.append("differs from reference")
            if out["nonzero"]:
                problems.append(f"nonzero residues {out['nonzero']}")
            return problems
        return [] if out == self.expect[jid] else ["differs from reference"]


def _residue_job(kc, ctx, nu):
    return lambda: kc.relation_residues(ctx, nu)


def _product_job(kc, u, v):
    return lambda: kc.klr_multiply(u, v)


WORKLOADS = {w.name: w for w in (SerreDivided, AdRank, Form, Rewrite)}
