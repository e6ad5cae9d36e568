"""Per-layer tracing from outside the library.

The tracer replaces chosen tangleweb functions, in every tangleweb module
that holds a reference to them, with wrappers that record a span per call
(name, start, end, parent span, operation id), and wraps three public
methods of PlanarDiagram.  Nothing under src/ changes; `uninstall` puts
every original back.  Spans stay in memory until `write_spans`.

Self time of a span is its duration minus the durations of its direct
child spans.  Calls made during set-up (operation id -1) and during the
timed operations are kept apart.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from collections import Counter

from tangleweb import rewrite
from tangleweb.planar import PlanarDiagram

# module-level functions, wrapped wherever a tangleweb module imported them
FUNCTIONS = (
    "algebra.build",
    "rewrite.normalize", "rewrite.rules_for", "rewrite.eval_diagram",
    "planar.word_to_planar", "planar.planar_to_word",
    "tangle.compose_tangles",
    "tensor.evaluate",
    "basis.enumerate_webs", "basis.enumerate_catalan", "basis.is_basis_diagram",
    "centralizer.structure_constants",
    "oracle.derivations", "oracle.invariant_dim",
    "linalg.sparse_rank", "linalg.solve_exact",
)
METHODS = ("canonical_encoding", "internal_faces", "check_valid")

# layers whose calls and self time are reported for the operation phase
OP_LAYERS = tuple(n for n in FUNCTIONS if n != "rewrite.eval_diagram") \
    + tuple(f"planar.{m}" for m in METHODS)
# layers whose self time is reported for the set-up phase
SETUP_LAYERS = (
    "algebra.build", "rewrite.rules_for", "tensor.evaluate",
    "basis.enumerate_webs", "basis.enumerate_catalan", "linalg.solve_exact",
    "oracle.derivations", "oracle.invariant_dim", "linalg.sparse_rank",
    "planar.canonical_encoding", "planar.check_valid",
)
COUNTERS = (
    "rewrite.steps", "rewrite.steps.face", "rewrite.steps.rotate",
    "rewrite.steps.lollipop", "rewrite.merge_ratio", "rewrite.input_repeat_share",
    "rewrite.eval_cache.hit_ratio", "tensor.evaluate.entries_out",
    "linalg.sparse_rank.rows_in",
)


def metric_units():
    """Every per-layer metric name the traced run prints, with its unit."""
    units = {}
    for name in OP_LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in SETUP_LAYERS:
        units[f"setup.{name}.self_s"] = "s"
    units["setup.tensor.evaluate.calls"] = "count"
    units["setup.tensor.evaluate.entries_out"] = "count"
    for name in COUNTERS:
        units[name] = "ratio" if name.endswith(("_ratio", "_share")) else "count"
    units["trace.overhead_s"] = "s"
    units["trace.spans"] = "count"
    return units


class StepCounter(rewrite.RewriteTrace):
    """A RewriteTrace that keeps (rule, outcome count) and skips the
    measure re-check, so the traced run does no extra library work."""

    def record(self, rule, location, befmeasure, outcomes):
        self.steps.append((rule, len(outcomes)))


class Tracer:
    def __init__(self, span_cap=400_000):
        self.op = -1                 # operation id; -1 while setting up
        self.paused = 0
        self.stats = {}              # (in_ops, name) -> [calls, self seconds]
        self.counts = Counter()      # (in_ops, counter) -> value
        self.seen_inputs = set()
        self.names = []
        self._name_id = {}
        self.stack = []              # frames: [span index, name, start, child time]
        self.span_cap = span_cap
        self.sp_name = array("H")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_parent = array("q")
        self.sp_op = array("q")
        self.spans_total = 0
        self._patched = []
        self._orig = {}

    # ------------------------------------------------------------ patching

    def install(self):
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "tangleweb" or n.startswith("tangleweb."))]
        for qual in FUNCTIONS:
            mod_name, attr = qual.split(".")
            orig = getattr(importlib.import_module(f"tangleweb.{mod_name}"), attr)
            self._orig[qual] = orig
            wrapper = self._wrap(qual, orig)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for meth in METHODS:
            orig = PlanarDiagram.__dict__[meth]
            self._orig[f"planar.{meth}"] = orig
            self._patched.append((PlanarDiagram, meth, orig))
            setattr(PlanarDiagram, meth, self._wrap(f"planar.{meth}", orig))
        # the termination re-check only runs because a trace is passed in;
        # record it as tracing cost, with no layer spans beneath it
        orig = rewrite.measure
        self._patched.append((rewrite, "measure", orig))
        rewrite.measure = self._paused_span("trace.measure", orig)

    def uninstall(self):
        while self._patched:
            owner, key, orig = self._patched.pop()
            setattr(owner, key, orig)

    # ------------------------------------------------------------ spans

    def _span_id(self, name):
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name, fn):
        before, after = _HOOKS.get(name, (None, None))
        nid = self._span_id(name)
        stack = self.stack
        stats = self.stats
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            ctx = None
            if before is not None:
                args, kwargs, ctx = before(tracer, args, kwargs)
            parent = stack[-1] if stack else None
            frame = [tracer._open(nid, parent), name, perf(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - frame[2]
                if parent is not None:
                    parent[3] += dur
                if frame[0] >= 0:
                    tracer.sp_start[frame[0]] = frame[2]
                    tracer.sp_end[frame[0]] = end
                key = (tracer.op >= 0, name)
                st = stats.get(key)
                if st is None:
                    st = stats[key] = [0, 0.0]
                st[0] += 1
                st[1] += dur - frame[3]
            if after is not None:
                after(tracer, ctx, result, parent)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _paused_span(self, name, fn):
        """A span whose callees are not traced; its time counts as overhead."""
        def paused_fn(*args, **kwargs):
            self.paused += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.paused -= 1
        return self._wrap(name, paused_fn)

    def _open(self, nid, parent):
        idx = self.spans_total
        self.spans_total += 1
        if idx >= self.span_cap:
            return -1
        self.sp_name.append(nid)
        self.sp_start.append(0.0)
        self.sp_end.append(0.0)
        self.sp_parent.append(parent[0] if parent is not None else -1)
        self.sp_op.append(self.op)
        return idx

    def original(self, qual):
        return self._orig[qual]

    # ------------------------------------------------------------ results

    def per_layer(self, overhead_s):
        c = self.counts
        out = {}
        for name in OP_LAYERS:
            calls, self_s = self.stats.get((True, name), (0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        for name in SETUP_LAYERS:
            out[f"setup.{name}.self_s"] = self.stats.get((False, name), (0, 0.0))[1]
        out["setup.tensor.evaluate.calls"] = self.stats.get((False, "tensor.evaluate"), (0, 0.0))[0]
        out["setup.tensor.evaluate.entries_out"] = c[(False, "entries_out")]
        steps = {k: c[(True, f"steps.{k}")] for k in ("face", "rotate", "lollipop")}
        out["rewrite.steps"] = sum(steps.values())
        for k, v in steps.items():
            out[f"rewrite.steps.{k}"] = v
        out["rewrite.merge_ratio"] = _ratio(c[(True, "terms_out")], c[(True, "leaves")])
        out["rewrite.input_repeat_share"] = _ratio(c[(True, "repeat_inputs")],
                                                   c[(True, "normalize_inputs")])
        evals = c[(False, "eval_diagram")] + c[(True, "eval_diagram")]
        hits = c[(False, "eval_hit")] + c[(True, "eval_hit")]
        out["rewrite.eval_cache.hit_ratio"] = _ratio(hits, evals)
        out["tensor.evaluate.entries_out"] = c[(True, "entries_out")]
        out["linalg.sparse_rank.rows_in"] = c[(True, "rows_in")]
        out["trace.overhead_s"] = overhead_s
        out["trace.spans"] = self.spans_total
        return out

    def write_spans(self, path):
        """Spans as gzip'd TSV: name, start, end, parent index, operation id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(f"# spans recorded {len(self.sp_name)} of {self.spans_total}\n")
            fh.write("index\tname\tstart\tend\tparent\top\n")
            names = self.names
            for i in range(len(self.sp_name)):
                fh.write(f"{i}\t{names[self.sp_name[i]]}\t{self.sp_start[i]:.9f}\t"
                         f"{self.sp_end[i]:.9f}\t{self.sp_parent[i]}\t{self.sp_op[i]}\n")


def _ratio(num, den):
    return num / den if den else 0.0


# ---------------------------------------------------------------- hooks
# before(tracer, args, kwargs) -> (args, kwargs, ctx)
# after(tracer, ctx, result, parent_frame)

def _normalize_before(tracer, args, kwargs):
    words, alg = args[0], args[1]
    phase = tracer.op >= 0
    tracer.counts[(phase, "normalize_inputs")] += 1
    tracer.paused += 1
    try:
        key = _input_key(tracer, words, alg)
    finally:
        tracer.paused -= 1
    if key in tracer.seen_inputs:
        tracer.counts[(phase, "repeat_inputs")] += 1
    else:
        tracer.seen_inputs.add(key)
    ctx = None
    if len(args) < 4 and kwargs.get("trace") is None:
        ctx = StepCounter(alg.case)
        kwargs = dict(kwargs, trace=ctx)
    return args, kwargs, ctx


def _input_key(tracer, words, alg):
    if not hasattr(words, "slices"):
        return ("lincomb", alg.case, tuple((_input_key(tracer, w, alg), c) for w, c in words))
    if words.has_crossing():
        return ("word", alg.case, words.n_in, words.n_out, words.slices)
    diag = tracer.original("planar.word_to_planar")(words)
    return ("planar", alg.case, tracer.original("planar.canonical_encoding")(diag))


def _normalize_after(tracer, ctx, result, parent):
    phase = tracer.op >= 0
    tracer.counts[(phase, "terms_out")] += len(result)
    if ctx is not None:
        for rule, _ in ctx.steps:
            kind = ("face" if rule.startswith("face") else
                    "rotate" if rule.startswith("rotate") else "lollipop")
            tracer.counts[(phase, f"steps.{kind}")] += 1


def _basis_after(tracer, ctx, result, parent):
    if parent is not None and parent[1] == "rewrite.normalize":
        tracer.counts[(tracer.op >= 0, "leaves")] += 1


def _evaluate_after(tracer, ctx, result, parent):
    phase = tracer.op >= 0
    tracer.counts[(phase, "entries_out")] += len(result.entries)
    tracer.counts[(phase, "evaluate_calls")] += 1


def _eval_diagram_before(tracer, args, kwargs):
    return args, kwargs, tracer.counts[(tracer.op >= 0, "evaluate_calls")]


def _eval_diagram_after(tracer, ctx, result, parent):
    phase = tracer.op >= 0
    tracer.counts[(phase, "eval_diagram")] += 1
    if tracer.counts[(phase, "evaluate_calls")] == ctx:
        tracer.counts[(phase, "eval_hit")] += 1


def _sparse_rank_before(tracer, args, kwargs):
    rows = args[0] if args else kwargs.pop("rows")
    phase = tracer.op >= 0
    if hasattr(rows, "__len__"):
        tracer.counts[(phase, "rows_in")] += len(rows)
    else:
        rows = _counted(tracer, phase, rows)
    return (rows,) + tuple(args[1:]), kwargs, None


def _counted(tracer, phase, rows):
    """Count the rows a lazy iterable yields.  The time spent producing them
    runs in the caller's code (oracle's row generator), so it moves from
    the sparse_rank span's self time to the caller's."""
    it = iter(rows)
    n = 0
    spent = 0.0
    perf = time.perf_counter
    try:
        while True:
            t = perf()
            try:
                row = next(it)
            except StopIteration:
                break
            spent += perf() - t
            n += 1
            yield row
    finally:
        tracer.counts[(phase, "rows_in")] += n
        stack = tracer.stack
        if stack and stack[-1][1] == "linalg.sparse_rank":
            stack[-1][3] += spent
            if len(stack) >= 2:
                stack[-2][3] -= spent


_HOOKS = {
    "rewrite.normalize": (_normalize_before, _normalize_after),
    "basis.is_basis_diagram": (None, _basis_after),
    "tensor.evaluate": (None, _evaluate_after),
    "rewrite.eval_diagram": (_eval_diagram_before, _eval_diagram_after),
    "linalg.sparse_rank": (_sparse_rank_before, None),
}
