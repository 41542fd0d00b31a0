"""In-memory span recorder that times calls into the soficgibbs modules from
outside the package.

Tracing patches the package in place.  A function is replaced in every
soficgibbs module namespace, and every module-level dict, that holds it by
name; a method is replaced on its class.  Each wrapped call opens a span.  A
layer's self time is the time of its spans minus the part covered by their
child spans, so work in numpy or in private helpers is charged to the layer
whose public entry point called it.  Methods called so often that a span
would cost more than the work inside it are either left alone or only
counted.  Patches are installed for a traced batch and removed after it, so
untraced batches run the unmodified package.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

# The layers are the modules of the package.
LAYERS = ("cli", "specfile", "shifts", "presentations", "codes", "thermo",
          "measures", "gibbs")

# Small accessors called once per symbol or per edge in inner loops; their
# cost stays with the caller's span.
UNWRAPPED = {
    "shifts.Alphabet.word", "shifts.Alphabet.format", "shifts.format_word",
    "shifts.EdgeShift.out_edges", "shifts.EdgeShift.in_edges",
    "shifts.EdgeShift.in_language", "shifts.EdgeShift.path_endpoints",
    "codes.SlidingBlockCode.label", "codes.SlidingBlockCode.apply_to_word",
    "presentations.SoficPresentation.out_edges",
    "presentations.SoficPresentation.in_language",
    "thermo.LocallyConstantPotential.value",
    "thermo.LocallyConstantPotential.word_sum",
    "thermo.MarkovMeasure.cylinder_prob", "thermo.MarkovMeasure.in_language",
    "measures.HiddenMarkovMeasure.in_language",
    "gibbs.SunnySideUpMeasure.cylinder_prob",
    "gibbs.SunnySideUpMeasure.in_language",
}

# Hot calls that feed a counter but get no span.
COUNT_ONLY = {"measures.HiddenMarkovMeasure.cylinder_prob",
              "gibbs._context_classes"}

# Calls counted per span name, whether they return or raise.
CALLS = {
    "shifts.EdgeShift.count_words": "shifts.count_words.calls",
    "presentations.minimize_fischer": "presentations.minimize_fischer.calls",
    "codes.degree": "codes.degree_search.calls",
    "codes.find_magic_word": "codes.degree_search.calls",
    "codes.is_finite_to_one": "codes.finite_to_one.calls",
    "thermo.perron": "thermo.perron.calls",
    "measures.HiddenMarkovMeasure.cylinder_prob": "measures.cylinder_prob.calls",
    "gibbs.gibbs_ratio_test": "gibbs.ratio_test.calls",
}

# Amounts read off returned values: span name -> [(metric, "add" | "max",
# fn(result, args))].
HOOKS = {
    "shifts.EdgeShift.words_of_length": [
        ("shifts.words_enumerated", "add", lambda r, a: len(r))],
    "presentations.minimize_fischer": [
        ("presentations.cover_states", "add", lambda r, a: len(r[0].vertices))],
    "codes.higher_block_shift": [
        ("codes.higher_block.edges", "add", lambda r, a: len(r[0].edges))],
    "thermo.perron": [
        ("thermo.perron.dim", "max", lambda r, a: len(a[0])),
        ("thermo.perron.residual_max", "max", lambda r, a: r.residual)],
    "measures.HiddenMarkovMeasure.words_of_length": [
        ("measures.words_enumerated", "add", lambda r, a: len(r))],
    "gibbs._context_classes": [
        ("gibbs.contexts_checked", "add", lambda r, a: len(r[0]) * len(r[1]))],
    "gibbs.run_ratio_battery": [
        ("gibbs.pairs_skipped", "add", lambda r, a: len(r.skipped_pairs))],
}

COUNTERS = tuple(dict.fromkeys(
    [*CALLS.values()]
    + [metric for hooks in HOOKS.values() for metric, _, _ in hooks]))

# Inclusive time of one span name, reported as a metric of its own.
INCLUSIVE = {"measures.entropy_estimate": "measures.entropy_estimate.s"}


class Recorder:
    """Span aggregates of one traced batch: per-layer self time, per-name
    calls and time, counters, and the time covered by top-level spans."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.stack = []
        self.layer_self = defaultdict(float)
        self.name_calls = Counter()
        self.name_incl = defaultdict(float)
        self.name_self = defaultdict(float)
        self.counters = {metric: 0 for metric in COUNTERS}
        self.top_s = 0.0

    def called(self, name):
        metric = CALLS.get(name)
        if metric is not None:
            self.counters[metric] += 1

    def feed(self, name, result, args):
        for metric, how, fn in HOOKS.get(name, ()):
            amount = fn(result, args)
            if how == "add":
                self.counters[metric] += amount
            else:
                self.counters[metric] = max(self.counters[metric], amount)

    def metrics(self, op_seconds):
        """Per-layer metrics of the batch; op_seconds is the summed latency
        of its operations, the base of the coverage fraction."""
        out = {f"{layer}.self_s": self.layer_self[layer] for layer in LAYERS}
        out.update(self.counters)
        for name, metric in INCLUSIVE.items():
            out[metric] = self.name_incl[name]
        out["trace.coverage_frac"] = self.top_s / op_seconds
        return out

    def table(self):
        """Calls, inclusive and self seconds per span name."""
        return {name: {"calls": self.name_calls[name],
                       "incl_s": self.name_incl[name],
                       "self_s": self.name_self[name]}
                for name in sorted(self.name_calls)}


def _spanned(rec, name, layer, fn):
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = rec.stack
        frame = [0.0]
        stack.append(frame)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            spent = clock() - start
            stack.pop()
            own = spent - frame[0]
            rec.layer_self[layer] += own
            rec.name_calls[name] += 1
            rec.name_incl[name] += spent
            rec.name_self[name] += own
            rec.called(name)
            if stack:
                stack[-1][0] += spent
            else:
                rec.top_s += spent
        rec.feed(name, result, args)
        return result

    return wrapper


def _counted(rec, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.called(name)
        result = fn(*args, **kwargs)
        rec.feed(name, result, args)
        return result

    return wrapper


def _wanted(attr, name):
    if name in UNWRAPPED:
        return False
    return (not attr.startswith("_") or attr == "__post_init__"
            or name in HOOKS or name in CALLS)


class Tracer:
    """Wrappers for every public function and method of the package's layer
    modules, with install/uninstall of the patches."""

    def __init__(self):
        self.recorder = Recorder()
        modules = {layer: importlib.import_module(f"soficgibbs.{layer}")
                   for layer in LAYERS}
        holders = [m for n, m in sorted(sys.modules.items())
                   if n == "soficgibbs" or n.startswith("soficgibbs.")]
        self._patches = []  # (setter, original, wrapper)
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj):
                    if _wanted(attr, name) and not inspect.isgeneratorfunction(obj):
                        self._patch_function(holders, obj,
                                             self._wrap(name, layer, obj))
                elif inspect.isclass(obj):
                    self._patch_class(layer, obj)

    def _wrap(self, name, layer, fn):
        if name in COUNT_ONLY:
            return _counted(self.recorder, name, fn)
        return _spanned(self.recorder, name, layer, fn)

    def _patch_function(self, holders, fn, wrapper):
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is fn:
                    self._patches.append(
                        (functools.partial(setattr, holder, attr), fn, wrapper))
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if item is fn:
                            self._patches.append(
                                (functools.partial(value.__setitem__, key),
                                 fn, wrapper))

    def _patch_class(self, layer, cls):
        for attr, value in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if not _wanted(attr, name):
                continue
            if isinstance(value, (classmethod, staticmethod)):
                fn = value.__func__
                wrapper = type(value)(self._wrap(name, layer, fn))
            elif inspect.isfunction(value) and not inspect.isgeneratorfunction(value):
                wrapper = self._wrap(name, layer, value)
            else:
                continue
            self._patches.append(
                (functools.partial(setattr, cls, attr), value, wrapper))

    def install(self):
        self.recorder.reset()
        for setter, _, wrapper in self._patches:
            setter(wrapper)

    def uninstall(self):
        for setter, original, _ in self._patches:
            setter(original)
