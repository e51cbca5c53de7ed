"""Spans around the calls into klrcalc's layers, recorded from outside.

``Tracer.install`` replaces each traced public function by a wrapper at
every ``klrcalc`` module binding it is reachable through (``klrcalc.adjoint``
imports ``klr_multiply`` and ``graded_basis`` by name, so patching only
``klrcalc.klr`` would miss every call from ``CyclicProjective.blocks``).
Traced methods are replaced on their class.

A span is ``[name, start, end, parent, job]`` kept in one in-memory list;
``job`` is the job index, or -1 during set-up.  A recursive call of the
span that is already innermost (``GramCache.pair_words`` calls itself) opens
no new span, so its time is counted once, in the outer span, and only its
call count grows.  Self time is a span's duration minus the durations of
its direct children.
"""

import json
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = -1
        self.enabled = False
        self.counts = defaultdict(int)
        self._candidates = defaultdict(int)  # blocks span -> basis keys seen

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name, fn, on_result=None, collapse=False):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if collapse and stack and spans[stack[-1]][0] == name:
                if self.job >= 0:
                    self.counts[name + ".calls"] += 1
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if self.job >= 0:
                self.counts[name + ".calls"] += 1
                if on_result is not None:
                    # counters may call back into the library; those calls
                    # are bookkeeping, not work of the job
                    self.enabled = False
                    try:
                        on_result(self, idx, args, out)
                    finally:
                        self.enabled = True
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, kc):
        """Wrap every traced function and method of the imported package."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "klrcalc"
                                         or name.startswith("klrcalc."))]
        for name, owner, attr, on_result, collapse in _targets(kc):
            if isinstance(owner, type):
                fn = owner.__dict__[attr]
                setattr(owner, attr,
                        self.wrap(name, fn, on_result, collapse))
                continue
            fn = getattr(owner, attr)
            wrapper = self.wrap(name, fn, on_result, collapse)
            for m in modules:
                if getattr(m, attr, None) is fn:
                    setattr(m, attr, wrapper)

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Self time of every span, by span index."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def summary(self):
        """Per-layer numbers of the job phase, plus set-up build time."""
        selfs = self.self_times()
        self_s = defaultdict(float)
        build_s = 0.0
        for s, st in zip(self.spans, selfs):
            if s[4] >= 0:
                self_s[s[0]] += st
            elif s[0] == "adjoint.build" and s[3] < 0:
                build_s += s[2] - s[1]
        c = self.counts
        out = {name + ".self_s": self_s[name] for name in SELF_TIMED}
        out.update({
            "adjoint.basis.candidates": c["adjoint.basis.candidates"],
            "adjoint.basis.kept": c["adjoint.basis.kept"],
            "adjoint.basis.yield": _ratio(c["adjoint.basis.kept"],
                                          c["adjoint.basis.candidates"]),
            "adjoint.rank.calls": c["adjoint.rank.calls"],
            "adjoint.rank.columns": c["adjoint.rank.columns"],
            "adjoint.rank.sum": c["adjoint.rank.sum"],
            "adjoint.rank.yield": _ratio(c["adjoint.rank.sum"],
                                         c["adjoint.rank.columns"]),
            "adjoint.build_s": build_s,
            "klr.multiply.calls": c["klr.multiply.calls"],
            "klr.multiply.out_terms": c["klr.multiply.out_terms"],
            "klr.graded_basis.keys": c["klr.graded_basis.keys"],
            "uplus.pair_words.calls": c["uplus.pair_words.calls"],
        })
        return out

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent, job."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _ratio(a, b):
    return a / b if b else 0.0


# Spans whose self time is reported, grouped by the layer (module) they
# belong to; the layer is the name's first component.
SELF_TIMED = (
    "adjoint.blocks", "adjoint.rank",
    "klr.multiply", "klr.relations", "klr.graded_basis",
    "uplus.pair_words", "uplus.zero_test", "uplus.higher_serre", "uplus.k0",
    "qring.series_window",
)


def _on_multiply(tr, idx, args, out):
    tr.counts["klr.multiply.out_terms"] += len(out.terms)


def _on_graded_basis(tr, idx, args, out):
    tr.counts["klr.graded_basis.keys"] += len(out)
    parent = tr.spans[idx][3]
    if parent >= 0 and tr.spans[parent][0] == "adjoint.blocks":
        tr._candidates[parent] += len(out)


def _on_blocks(tr, idx, args, out):
    # a call that enumerated no graded basis was answered from the
    # module's own cache and did no basis work
    cand = tr._candidates.pop(idx, 0)
    if cand:
        tr.counts["adjoint.basis.candidates"] += cand
        tr.counts["adjoint.basis.kept"] += sum(len(v) for v in out.values())


def _on_rank(tr, idx, args, out):
    cplx, k, d, lam = args
    tr.counts["adjoint.rank.columns"] += cplx.term_dim(k, d, lam)
    tr.counts["adjoint.rank.sum"] += out


def _targets(kc):
    """(span name, owner, attribute, counter hook, collapse recursion)."""
    return (
        ("adjoint.build", kc, "build_divided_complex", None, False),
        ("adjoint.build", kc, "build_ad_complex", None, False),
        ("adjoint.blocks", kc.CyclicProjective, "blocks", _on_blocks, False),
        ("adjoint.rank", kc.ProjComplex, "block_rank", _on_rank, False),
        ("klr.multiply", kc, "klr_multiply", _on_multiply, False),
        ("klr.relations", kc, "relation_residues", None, False),
        ("klr.graded_basis", kc, "graded_basis", _on_graded_basis, False),
        ("uplus.pair_words", kc.GramCache, "pair_words", None, True),
        ("uplus.zero_test", kc, "is_zero_mod_serre", None, False),
        ("uplus.higher_serre", kc, "higher_serre_check", None, False),
        ("uplus.k0", kc, "k0_isometry_calibrate", None, False),
        ("qring.series_window", kc, "series_window", None, False),
    )
