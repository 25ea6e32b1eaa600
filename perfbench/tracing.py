"""Span tracer that wraps bcfsim's public names from outside the package.

Each traced name is patched where it is looked up: ``bcfsim.bart`` imported
``propose_move`` by name, so the sampler calls ``bcfsim.bart.propose_move``
and patching ``bcfsim.trees.propose_move`` would record nothing. Methods are
patched on their class. ``uninstall`` puts every original back.

A span records its name, an optional tag (forest kind or propensity
variant), start, end, parent span and the time its children covered, so its
self time is its duration minus that child time. Full spans are kept at
fit, probit, sweep, harness and rank-test granularity. The hot tree calls
(``propose_move``, ``apply_move``, ``DecisionTree.leaves``), about a million
per fit triple, are aggregated into their enclosing span as call count,
total time and self time, which keeps memory bounded. The tracer's own
bookkeeping after each sweep is aggregated the same way under
``trace.bookkeeping``, so it counts toward no layer.

A name that a later version of the package removes or renames is reported
in ``missing``; the metrics that need it are left out instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict

from stats import tail

_now = time.perf_counter_ns

# (module, qualified name, wrapper kind, span label)
TARGETS = (
    ("bcfsim.bcf", "fit_bcf", "fit", "fit_bcf"),
    ("bcfsim.harness", "fit_bcf", "fit", "fit_bcf"),
    ("bcfsim.bcf", "fit_binary_probit", "span", "fit_binary_probit"),
    ("bcfsim.bart", "make_cutpoint_grids", "span", "make_cutpoint_grids"),
    ("bcfsim.bart", "ForestSampler.__init__", "sampler_init", "sampler_init"),
    ("bcfsim.bart", "ForestSampler.sweep", "sweep", "sweep"),
    ("bcfsim.bart", "ForestSampler.current_fit", "span", "current_fit"),
    ("bcfsim.bart", "propose_move", "hot", "propose_move"),
    ("bcfsim.bart", "apply_move", "hot", "apply_move"),
    ("bcfsim.trees", "DecisionTree.leaves", "hot", "leaves"),
    ("bcfsim.dgp", "generate", "span", "generate"),
    ("bcfsim.harness", "generate", "span", "generate"),
    ("bcfsim.harness", "evaluate_fit", "span", "evaluate_fit"),
    ("bcfsim.harness", "cate_intervals", "span", "cate_intervals"),
    ("bcfsim.harness", "ate_posterior", "span", "ate_posterior"),
    ("bcfsim.harness", "pointwise_errors", "span", "pointwise_errors"),
    ("bcfsim.harness", "interval_metrics", "span", "interval_metrics"),
    ("bcfsim.harness", "select_and_run", "span", "select_and_run"),
    ("bcfsim.ranktests", "levene_family", "span", "levene_family"),
    ("bcfsim.ranktests", "mann_whitney_u", "span", "mann_whitney_u"),
    ("bcfsim.ranktests", "kruskal_wallis", "span", "kruskal_wallis"),
    ("bcfsim.ranktests", "fligner_policello", "span", "fligner_policello"),
    ("bcfsim.harness", "summarize", "span", "summarize"),
    ("bcfsim.harness", "compare_models", "span", "compare_models"),
    ("bcfsim.harness", "read_replicates_csv", "span", "read_replicates_csv"),
    ("bcfsim.harness", "report_from", "span", "report_from"),
    ("bcfsim.cli", "run_experiment", "span", "run_experiment"),
    ("bcfsim.cli", "report_from", "span", "report_from"),
    ("bcfsim.cli", "main", "span", "main"),
)

FOREST_KINDS = ("mu", "tau", "probit")
VARIANTS = ("no_propensity", "true_propensity", "estimated_propensity")


class Span:
    __slots__ = ("name", "tag", "parent", "root", "start", "end", "child",
                 "hot", "extra")

    def __init__(self, name, tag, parent):
        self.name = name
        self.tag = tag
        self.parent = parent
        self.root = self if parent is None else parent.root
        self.child = 0
        self.hot = {}
        self.extra = None
        self.end = None
        self.start = _now()

    @property
    def dur(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.dur - self.child


class _Hot:
    __slots__ = ("name", "start", "child")

    def __init__(self, name):
        self.name = name
        self.child = 0
        self.start = _now()


class Tracer:
    def __init__(self):
        self.spans = []      # closed spans, in closing order
        self.missing = []    # ("module.qualname", label) not found
        self.active = False
        self._frames = []    # open spans and hot frames, innermost last
        self._open = []      # open spans only
        self._saved = []     # (owner, attr, original) in patch order
        self._kinds = {}     # id(ForestSampler) -> forest kind
        self._leaves = None  # unpatched DecisionTree.leaves

    # -- frames -------------------------------------------------------

    def span(self, name, tag=None) -> Span:
        s = Span(name, tag, self._open[-1] if self._open else None)
        self._frames.append(s)
        self._open.append(s)
        return s

    def close(self, s: Span) -> None:
        s.end = _now()
        self._frames.pop()
        self._open.pop()
        if self._frames:
            self._frames[-1].child += s.end - s.start
        self.spans.append(s)

    def _hot_open(self, name) -> _Hot:
        h = _Hot(name)
        self._frames.append(h)
        return h

    def _hot_close(self, h: _Hot, returned_none: bool) -> None:
        dur = _now() - h.start
        self._frames.pop()
        if self._frames:
            self._frames[-1].child += dur
        if not self._open:
            return
        agg = self._open[-1].hot.get(h.name)
        if agg is None:
            agg = self._open[-1].hot[h.name] = [0, 0, 0, 0]
        agg[0] += 1                 # calls
        agg[1] += dur               # total ns
        agg[2] += dur - h.child     # self ns
        agg[3] += returned_none

    # -- wrappers -----------------------------------------------------

    def _wrap_span(self, fn, label, tag_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            s = tracer.span(label, tag_of(args, kwargs) if tag_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(s)
        return wrapper

    def _wrap_hot(self, fn, label):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            h = tracer._hot_open(label)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._hot_close(h, result is None)
        return wrapper

    def _wrap_sampler_init(self, fn, label):
        tracer = self

        @functools.wraps(fn)
        def wrapper(sampler, *args, **kwargs):
            if not tracer.active:
                return fn(sampler, *args, **kwargs)
            weights = kwargs.get("weights", args[2] if len(args) > 2 else None)
            if any(s.name == "fit_binary_probit" for s in tracer._open):
                kind = "probit"
            else:
                kind = "mu" if weights is None else "tau"
            s = tracer.span(label, kind)
            try:
                return fn(sampler, *args, **kwargs)
            finally:
                tracer.close(s)
                tracer._kinds[id(sampler)] = kind
        return wrapper

    def _wrap_sweep(self, fn, label):
        tracer = self

        @functools.wraps(fn)
        def wrapper(sampler, *args, **kwargs):
            if not tracer.active:
                return fn(sampler, *args, **kwargs)
            a0 = getattr(sampler, "accepts", None)
            p0 = getattr(sampler, "proposals", None)
            s = tracer.span(label, tracer._kinds.get(id(sampler)))
            try:
                return fn(sampler, *args, **kwargs)
            finally:
                tracer.close(s)
                h = tracer._hot_open("trace.bookkeeping")
                s.extra = tracer._sweep_counts(sampler, a0, p0)
                tracer._hot_close(h, False)
        return wrapper

    def _sweep_counts(self, sampler, a0, p0):
        """(accepts, proposals, leaves, trees) of one sweep, None if the
        sampler no longer exposes them."""
        a1 = getattr(sampler, "accepts", None)
        p1 = getattr(sampler, "proposals", None)
        trees = getattr(sampler, "trees", None)
        if None in (a0, p0, a1, p1, trees, self._leaves):
            return None
        try:
            leaves = sum(len(self._leaves(t)) for t in trees)
        except (AttributeError, TypeError):
            return None
        return (a1 - a0, p1 - p0, leaves, len(trees))

    # -- install ------------------------------------------------------

    def install(self) -> None:
        makers = {
            "span": self._wrap_span,
            "hot": self._wrap_hot,
            "sampler_init": self._wrap_sampler_init,
            "sweep": self._wrap_sweep,
            "fit": lambda fn, label: self._wrap_span(fn, label, _variant_of),
        }
        self.missing = []
        for module, qualname, kind, label in TARGETS:
            try:
                owner = importlib.import_module(module)
            except ModuleNotFoundError:
                owner = None
            *path, attr = qualname.split(".")
            for part in path:
                if owner is not None:
                    owner = vars(owner).get(part)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append((f"{module}.{qualname}", label))
                continue
            if label == "leaves":
                self._leaves = original
            setattr(owner, attr, makers[kind](original, label))
            self._saved.append((owner, attr, original))

    def uninstall(self) -> None:
        self.active = False
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @property
    def missing_labels(self) -> set:
        return {label for _, label in self.missing}


def _variant_of(args, kwargs) -> str:
    mode = kwargs.get("mode", args[3] if len(args) > 3 else None)
    return str(getattr(mode, "value", mode))


def self_time_problems(spans) -> list:
    """Fits whose spans' self times do not add up to the fit's duration."""
    fits = {id(s): s for s in spans if s.name == "fit_bcf"}
    total = dict.fromkeys(fits, 0)
    for s in spans:
        own = s.self_ns + sum(agg[2] for agg in s.hot.values())
        node = s
        while node is not None:
            if id(node) in total:
                total[id(node)] += own
            node = node.parent
    return [f"fit_bcf {fits[k].tag}: self times sum to {v} ns, "
            f"span lasts {fits[k].dur} ns"
            for k, v in total.items() if v != fits[k].dur]


def layer_metrics(spans, n_ops: int, missing_labels: set) -> dict:
    """Per-layer metrics, per operation, from the spans under ``op`` roots.

    Counts are per operation and repeat exactly for the same draws; seconds
    are per operation. Spans under a ``setup`` root feed only
    ``dgp.generate.setup_s``. A metric whose span label is missing from the
    package is left out.
    """
    named = defaultdict(list)
    hot = defaultdict(lambda: [0, 0, 0, 0])
    for s in spans:
        if s.root.name != "op":
            continue
        named[s.name].append(s)
        for label, agg in s.hot.items():
            acc = hot[label]
            for i, v in enumerate(agg):
                acc[i] += v

    def dur(label, tag=None):
        return sum(s.dur for s in named[label]
                   if tag is None or s.tag == tag) / 1e9 / n_ops

    def self_s(label, tag=None):
        return sum(s.self_ns for s in named[label]
                   if tag is None or s.tag == tag) / 1e9 / n_ops

    out = {}

    def put(name, unit, needs, value):
        if not set(needs) & missing_labels:
            out[name] = (value, unit)

    for label in ("propose_move", "apply_move", "leaves"):
        put(f"trees.{label}.calls", "count", [label], hot[label][0] / n_ops)
        put(f"trees.{label}.s", "s", [label], hot[label][1] / 1e9 / n_ops)
    put("trees.propose_move.null_ratio", "ratio", ["propose_move"],
        _ratio(hot["propose_move"][3], hot["propose_move"][0]))
    put("trees.make_cutpoint_grids.s", "s", ["make_cutpoint_grids"],
        dur("make_cutpoint_grids"))

    for kind in FOREST_KINDS:
        sweeps = [s for s in named["sweep"] if s.tag == kind]
        ms = [s.dur / 1e6 for s in sweeps]
        needs = ["sweep", "sampler_init"]
        put(f"bart.sweep.calls.{kind}", "count", needs, len(sweeps) / n_ops)
        put(f"bart.sweep.self_s.{kind}", "s", needs, self_s("sweep", kind))
        put(f"bart.sweep_ms.p50.{kind}", "ms", needs,
            statistics.median(ms) if ms else 0.0)
        put(f"bart.sweep_ms.tail.{kind}", "ms", needs,
            (tail(ms) or (None, 0.0))[1])
        counts = [s.extra for s in sweeps]
        if None not in counts:
            put(f"bart.accept_ratio.{kind}", "ratio", needs,
                _ratio(sum(c[0] for c in counts), sum(c[1] for c in counts)))
            put(f"bart.leaves_per_tree.{kind}", "count", needs + ["leaves"],
                _ratio(sum(c[2] for c in counts), sum(c[3] for c in counts)))
    put("bart.sampler_init.s", "s", ["sampler_init"], dur("sampler_init"))
    put("bart.fit_binary_probit.s", "s", ["fit_binary_probit"],
        dur("fit_binary_probit"))
    put("bart.fit_binary_probit.self_s", "s", ["fit_binary_probit"],
        self_s("fit_binary_probit"))
    put("bart.current_fit.s", "s", ["current_fit"], dur("current_fit"))

    for variant in VARIANTS:
        put(f"bcf.fit_bcf.self_s.{variant}", "s", ["fit_bcf"],
            self_s("fit_bcf", variant))
    for label in ("cate_intervals", "ate_posterior"):
        put(f"bcf.{label}.s", "s", [label], dur(label))

    put("dgp.generate.calls", "count", ["generate"],
        len(named["generate"]) / n_ops)
    put("dgp.generate.s", "s", ["generate"], dur("generate"))
    put("dgp.generate.setup_s", "s", ["generate"],
        sum(s.dur for s in spans
            if s.name == "generate" and s.root.name == "setup") / 1e9)
    for label in ("pointwise_errors", "interval_metrics"):
        put(f"metrics.{label}.s", "s", [label], dur(label))

    put("ranktests.select_and_run.calls", "count", ["select_and_run"],
        len(named["select_and_run"]) / n_ops)
    for label in ("select_and_run", "levene_family", "mann_whitney_u",
                  "kruskal_wallis", "fligner_policello"):
        put(f"ranktests.{label}.s", "s", [label], dur(label))

    for label in ("run_experiment", "report_from", "compare_models"):
        put(f"harness.{label}.self_s", "s", [label], self_s(label))
    for label in ("read_replicates_csv", "summarize"):
        put(f"harness.{label}.s", "s", [label], dur(label))
    put("cli.main.self_s", "s", ["main"], self_s("main"))
    return out


def _ratio(num, den):
    return num / den if den else 0.0
