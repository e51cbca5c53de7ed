"""Batch command-line surface.

Two subcommands:

* ``nf EXPR``   — parse an element expression, reduce it to PBW normal
  form, and print it (JSON by default).
* ``suite NAME`` — run one of the verification suites and print a JSON
  report; exit status 0 if every check passed, 1 on a failed check, 2 on
  configuration or parse errors.

Expression grammar: atoms are ``1[c,b,a]`` (an idempotent, colors listed
in written order, rightmost strand last), ``x<k>`` and ``t<k>`` (the
polynomial and crossing generators, summed over all color words of the
expression's weight); juxtaposition multiplies, and terms combine with
``+``/``-`` and optional integer coefficients.  Degree annotations such
as ``q^2`` are rejected: the grading is intrinsic.
"""

import argparse
import json
import random
import re
import sys
from fractions import Fraction

from .klr import (KLRContext, KLRElement, idempotent_e_klr, klr_generator,
                  klr_multiply, klr_multiply_many, relation_residues)
from .qring import DegreeWindow, LaurentPoly, RatFunc, hilbert_denominator
from .rootdata import (CartanDatum, CartanValidationError, RootVector,
                       pairing, sequences)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

BUILTIN_CARTANS = {
    "A2": (["i", "j"], [[2, -1], [-1, 2]]),
    "B2": (["i", "j"], [[2, -2], [-2, 4]]),
    "B2r": (["i", "j"], [[4, -2], [-2, 2]]),
    "G2": (["i", "j"], [[2, -3], [-3, 6]]),
}


class CLIError(Exception):
    """A configuration or parse error (exit status 2)."""


class RunConfig:
    """Resolved run parameters shared by all suites."""

    def __init__(self, cartan_name, ctx, window, height_bound, seed):
        self.cartan_name = cartan_name
        self.ctx = ctx
        self.window = window
        self.height_bound = height_bound
        self.seed = seed
        if height_bound < 1:
            raise CLIError("height bound must be positive")


def _load_cartan(spec_str):
    """A built-in name or a JSON file with labels, dot matrix and
    optional crossing-polynomial configuration."""
    if spec_str in BUILTIN_CARTANS:
        labels, dot = BUILTIN_CARTANS[spec_str]
        return spec_str, CartanDatum(labels, dot), {}
    try:
        with open(spec_str) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CLIError(f"cannot read cartan file: {exc}")
    except json.JSONDecodeError as exc:
        raise CLIError(f"cartan file is not valid JSON: {exc}")
    try:
        labels = list(data["labels"])
        dot = data["dot"]
    except (KeyError, TypeError):
        raise CLIError("cartan file needs 'labels' and 'dot' entries")
    q_table = data.get("q") or {}
    if not isinstance(q_table, dict):
        raise CLIError("cartan file 'q' must be an object keyed 'i,j'")
    q_config = {}
    for key, cfg in q_table.items():
        parts = key.split(",")
        if len(parts) != 2:
            raise CLIError(f"bad q-table key {key!r}; use 'i,j'")
        if not isinstance(cfg, dict):
            raise CLIError(f"q-table entry {key!r} must be an object")
        q_config[(parts[0], parts[1])] = cfg
    try:
        cartan = CartanDatum(labels, dot)
    except CartanValidationError as exc:
        raise CLIError(f"invalid cartan datum: {exc}")
    return spec_str, cartan, q_config


def _make_context(cartan, q_config):
    try:
        return KLRContext(cartan, q_config)
    except (ValueError, TypeError) as exc:
        raise CLIError(f"invalid crossing-polynomial table: {exc}")


# ---------------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<idem>1\[[^\]]*\])|(?P<x>x\d+)|(?P<t>t\d+)"
                    r"|(?P<int>\d+)|(?P<sign>[+-])|(?P<bad>\S))")


def _tokenize(expr):
    tokens = []
    pos = 0
    while pos < len(expr):
        m = _TOKEN.match(expr, pos)
        if m is None:
            break
        if m.lastgroup == "bad":
            raise CLIError(
                f"parse error at position {m.start('bad')}: "
                f"unexpected {m.group('bad')!r}")
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start()))
        pos = m.end()
    return tokens


def parse_expression(expr, ctx):
    """Parse and normalize; returns the KLRElement."""
    if "q^" in expr or "q **" in expr:
        raise CLIError("degree annotations are rejected: grading is "
                       "intrinsic to the element")
    tokens = _tokenize(expr)
    if not tokens:
        raise CLIError("empty expression")
    # split into signed terms
    terms = []
    current = []
    sign = 1
    for kind, text, at in tokens:
        if kind == "sign":
            if current:
                terms.append((sign, current))
                current = []
                sign = 1
            sign *= -1 if text == "-" else 1
        else:
            current.append((kind, text, at))
    if not current:
        raise CLIError("expression ends with a dangling sign")
    terms.append((sign, current))

    def term_weight(factors):
        weights = []
        for kind, text, at in factors:
            if kind == "idem":
                word = _parse_idem_word(text, at, ctx)
                weights.append(RootVector.from_word(word))
        if not weights:
            raise CLIError("every term needs at least one idempotent atom "
                           "1[...] to fix the weight")
        return weights

    beta = None
    for _, factors in terms:
        for w in term_weight(factors):
            if beta is None:
                beta = w
            elif w != beta:
                raise CLIError("weight mismatch between atoms")

    seqs = list(sequences(beta))
    total = None
    for sgn, factors in terms:
        coeff = Fraction(sgn)
        els = []
        for kind, text, at in factors:
            if kind == "int":
                coeff *= int(text)
            elif kind == "idem":
                word = _parse_idem_word(text, at, ctx)
                els.append(KLRElement.idem(ctx, tuple(reversed(word))))
            elif kind in ("x", "t"):
                gen_kind = "x" if kind == "x" else "tau"
                try:
                    els.append(klr_generator(
                        ctx, gen_kind, int(text[1:]), seqs))
                except ValueError as exc:
                    raise CLIError(str(exc))
        if not els:
            raise CLIError("a bare integer is not an element")
        try:
            el = klr_multiply_many(*els)
        except ValueError as exc:
            raise CLIError(str(exc))
        el = el.scale(coeff)
        total = el if total is None else total + el
    return total


def _parse_idem_word(text, at, ctx):
    inner = text[2:-1].strip()
    if not inner:
        raise CLIError(f"parse error at position {at}: empty idempotent")
    word = tuple(lab.strip() for lab in inner.split(","))
    for lab in word:
        if lab not in ctx.cartan.index_set:
            raise CLIError(
                f"parse error at position {at}: unknown color {lab!r}")
    return word


def cmd_nf(expr, ctx, as_table=False):
    el = parse_expression(expr, ctx)
    obj = {
        "expr": expr,
        "weight": dict(sorted(el.weight().coeffs.items())) if el.terms else {},
        "terms": el.to_json_obj(),
    }
    if as_table:
        return repr(el)
    return json.dumps(obj, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _suite_relations(cfg):
    import itertools
    ctx = cfg.ctx
    labels = ctx.cartan.index_set
    checks = []
    bound = min(cfg.height_bound, 4)
    for h in range(1, bound + 1):
        for word in itertools.product(labels, repeat=h):
            bad = [name for name, r in relation_residues(ctx, word).items()
                   if not r.is_zero()]
            checks.append({
                "id": f"relations/{','.join(word)}",
                "inputs": {"word": list(word)},
                "ok": not bad,
                "observed": {"nonzero_residues": bad},
            })
    return checks


def _suite_nilhecke(cfg):
    from .nilhecke import nh_act
    from .polycalc import Poly, all_perms, canonical_word
    ctx = cfg.ctx
    i = ctx.cartan.index_set[0]
    rng = random.Random(cfg.seed)
    checks = []
    failures = 0
    trials = 60
    for _ in range(trials):
        n = rng.randint(2, 4)
        nu = (i,) * n
        words = [canonical_word(g) for g in all_perms(n)]

        def rand_el():
            el = KLRElement(ctx, n)
            for _ in range(rng.randint(1, 3)):
                exps = tuple(rng.randint(0, 2) for _ in range(n))
                el = el + KLRElement.monomial(ctx, nu, rng.choice(words), exps,
                                              rng.randint(-3, 3))
            return el

        u, v = rand_el(), rand_el()
        p = Poly(n, {tuple(rng.randint(0, 2) for _ in range(n)):
                     rng.randint(-2, 2) for _ in range(2)})
        lhs = nh_act(klr_multiply(u, v), p)
        rhs = nh_act(u, nh_act(v, p))
        if lhs != rhs:
            failures += 1
    checks.append({
        "id": "nilhecke/product-vs-action",
        "inputs": {"trials": trials, "seed": cfg.seed},
        "ok": failures == 0,
        "observed": {"failures": failures},
    })
    for n in range(1, 6):
        e = idempotent_e_klr(ctx, i, n)
        checks.append({
            "id": f"nilhecke/idempotent-e{n}",
            "inputs": {"n": n},
            "ok": klr_multiply(e, e) == e,
            "observed": {},
        })
    return checks


def _two_labels(ctx):
    """The first two index labels, for the suites that need a pair."""
    labels = ctx.cartan.index_set
    if len(labels) < 2:
        raise CLIError("this suite needs at least two index labels")
    return labels[0], labels[1]


def _serre_grid(cfg, include_reports):
    from .adjoint import is_quotient_zero, serre_exactness_check
    ctx = cfg.ctx
    i, j = _two_labels(ctx)
    checks = []
    bound = min(cfg.height_bound, 4)
    for m in range(1, bound):
        for n in range(1, bound - m + 1):
            rep = serre_exactness_check(n, m, i, j, cfg.window, ctx)
            qz = is_quotient_zero(RootVector({i: n, j: m}), i, ctx)
            ok = rep["ok"] and (qz == rep["expected_exact"])
            entry = {
                "id": f"serre/n={n},m={m}",
                "inputs": {"n": n, "m": m, "i": i, "j": j,
                           "window": [cfg.window.d_min, cfg.window.d_max]},
                "ok": ok,
                "observed": {
                    "expected_exact": rep["expected_exact"],
                    "observed_exact": rep["observed_exact"],
                    "quotient_zero": qz,
                },
            }
            if include_reports:
                entry["observed"]["h0_dims"] = rep["h0_dims"]
            checks.append(entry)
    return checks


def _suite_vanish(cfg):
    return _serre_grid(cfg, include_reports=True)


def _suite_serre(cfg):
    return _serre_grid(cfg, include_reports=False)


def _suite_mackey(cfg):
    from .adjoint import mackey_shadow_check
    ctx = cfg.ctx
    i, j = _two_labels(ctx)
    checks = []
    for spec, name in (((j,), f"E_{j}"), (("ad", 1, (j,)), f"ad^(1)E_{j}")):
        ok = mackey_shadow_check(spec, i, cfg.window, ctx)
        checks.append({
            "id": f"mackey/{name}",
            "inputs": {"module": name, "i": i,
                       "window": [cfg.window.d_min, cfg.window.d_max]},
            "ok": ok,
            "observed": {},
        })
    return checks


def _suite_uplus(cfg):
    from .uplus import GramCache, WordVector, ad_e, higher_serre_check, pair
    cartan = cfg.ctx.cartan
    labels = cartan.index_set
    cache = GramCache(cartan)
    checks = []
    i = labels[0]
    ei = WordVector.generator(i)
    di = cartan.d(i)
    expected = RatFunc(LaurentPoly.one(), hilbert_denominator(cartan, (i,)))
    checks.append({
        "id": "uplus/generator-norm",
        "inputs": {"i": i},
        "ok": pair(ei, ei, cache) == expected,
        "observed": {"value": repr(pair(ei, ei, cache))},
    })
    rng = random.Random(cfg.seed)
    # the reversed pairs go to a second cache: one GramCache stores both
    # argument orders as one entry
    mirror = GramCache(cartan)
    sym_fail = 0
    for _ in range(40):
        h = rng.randint(1, min(cfg.height_bound, 4))
        u = tuple(rng.choice(labels) for _ in range(h))
        v = tuple(rng.choice(labels) for _ in range(h))
        if cache.pair_words(u, v) != mirror.pair_words(v, u):
            sym_fail += 1
    checks.append({
        "id": "uplus/form-symmetry",
        "inputs": {"trials": 40, "seed": cfg.seed},
        "ok": sym_fail == 0,
        "observed": {"failures": sym_fail},
    })
    if len(labels) >= 2:
        j = labels[1]
        bound = min(cfg.height_bound, 4)
        grid_ok = all(higher_serre_check(n, m, i, j, cache)
                      for m in range(1, bound)
                      for n in range(1, bound - m + 1))
        checks.append({
            "id": "uplus/higher-serre-grid",
            "inputs": {"i": i, "j": j, "bound": bound},
            "ok": grid_ok,
            "observed": {},
        })
        # q-Leibniz on a couple of products, exact in the word algebra
        ej = WordVector.generator(j)
        ok = True
        for u, v in ((ei * ej, ej), (ej, ej * ei)):
            w = pairing(cartan, i, u.beta)
            lhs = ad_e(i, u * v, cartan)
            rhs = ad_e(i, u, cartan) * v + (u * ad_e(i, v, cartan)).scale(
                RatFunc.q(di * w))
            ok = ok and lhs == rhs
        checks.append({
            "id": "uplus/q-leibniz",
            "inputs": {},
            "ok": ok,
            "observed": {},
        })
    return checks


def _suite_k0(cfg):
    import itertools
    from .uplus import k0_isometry_calibrate
    ctx = cfg.ctx
    labels = ctx.cartan.index_set
    checks = []
    bound = min(cfg.height_bound, 3)
    betas = []
    for h in range(1, bound + 1):
        for combo in itertools.combinations_with_replacement(labels, h):
            betas.append(RootVector.from_word(combo))
    for beta in betas:
        try:
            rep = k0_isometry_calibrate(beta, cfg.window, ctx)
            ok, shift = True, rep["shift"]
        except ValueError as exc:
            ok, shift = False, str(exc)
        checks.append({
            "id": "k0/" + "+".join(f"{c}{lab}"
                                   for lab, c in sorted(beta.coeffs.items())),
            "inputs": {"weight": dict(sorted(beta.coeffs.items()))},
            "ok": ok,
            "observed": {"shift": shift},
        })
    return checks


_SUITE_FUNCS = {
    "relations": _suite_relations,
    "nilhecke": _suite_nilhecke,
    "vanish": _suite_vanish,
    "serre": _suite_serre,
    "mackey": _suite_mackey,
    "uplus": _suite_uplus,
    "k0": _suite_k0,
}
SUITES = tuple(_SUITE_FUNCS)


def cmd_suite(name, cfg):
    """Run one suite; returns (exit status, report dict)."""
    if name not in _SUITE_FUNCS:
        raise CLIError(f"unknown suite {name!r}; choose from "
                       + ", ".join(SUITES))
    checks = _SUITE_FUNCS[name](cfg)
    checks.sort(key=lambda c: c["id"])
    passed = all(c["ok"] for c in checks)
    report = {
        "suite": name,
        "cartan": cfg.cartan_name,
        "window": [cfg.window.d_min, cfg.window.d_max],
        "height_bound": cfg.height_bound,
        "seed": cfg.seed,
        "checks": checks,
        "passed": passed,
    }
    return (EXIT_PASS if passed else EXIT_FAIL), report


def _render_table(report):
    lines = [f"suite: {report['suite']}  cartan: {report['cartan']}  "
             f"window: {report['window'][0]}:{report['window'][1]}  "
             f"seed: {report['seed']}"]
    width = max((len(c["id"]) for c in report["checks"]), default=4)
    for c in report["checks"]:
        lines.append(f"  {c['id']:<{width}}  "
                     f"{'pass' if c['ok'] else 'FAIL'}")
    lines.append("result: " + ("pass" if report["passed"] else "FAIL"))
    return "\n".join(lines)


def _parse_window(text):
    m = re.fullmatch(r"(-?\d+):(-?\d+)", text)
    if not m:
        raise CLIError("window must look like lo:hi")
    try:
        return DegreeWindow(int(m.group(1)), int(m.group(2)))
    except ValueError as exc:
        raise CLIError(str(exc))


def main(argv=None):
    common = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument("--cartan",
                        help="built-in name (A2, B2, B2r, G2) or JSON file")
    common.add_argument("--window", metavar="LO:HI")
    common.add_argument("--height-bound", type=int)
    common.add_argument("--seed", type=int)
    out = common.add_mutually_exclusive_group()
    out.add_argument("--json", action="store_true")
    out.add_argument("--table", action="store_true")
    parser = argparse.ArgumentParser(
        prog="klrcalc", parents=[common],
        description="Exact quiver Hecke algebra computations.")
    parser.set_defaults(cartan="A2", window="0:10", height_bound=3,
                        seed=0, json=True, table=False)
    sub = parser.add_subparsers(dest="command")
    p_nf = sub.add_parser("nf", parents=[common],
                          help="reduce an expression to normal form")
    p_nf.add_argument("expr")
    p_suite = sub.add_parser("suite", parents=[common],
                             help="run a verification suite")
    p_suite.add_argument("name", choices=SUITES)
    args = parser.parse_args(argv)

    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        name, cartan, q_config = _load_cartan(args.cartan)
        ctx = _make_context(cartan, q_config)
        if args.command == "nf":
            print(cmd_nf(args.expr, ctx, as_table=args.table))
            return EXIT_PASS
        window = _parse_window(args.window)
        cfg = RunConfig(name, ctx, window, args.height_bound, args.seed)
        status, report = cmd_suite(args.name, cfg)
        if args.table:
            print(_render_table(report))
        else:
            print(json.dumps(report, sort_keys=True, indent=2))
        return status
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
