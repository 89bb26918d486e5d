"""Span recorder for the benchmark's traced runs.

The tracer wraps the public functions of each bigmeasure module and rebinds
every name that points at the original, in every loaded ``bigmeasure``
module, so calls across modules and calls inside one module both go through
the wrapper.  Nothing under ``src/`` changes; ``uninstall`` puts the
originals back.

Each call becomes a span (name, tag, start, end, parent).  Spans are kept in
memory and written out when the run ends.  Hot leaf calls (shell averages,
weight evaluations, increment sampling) are folded into per-(name, tag)
totals instead of being stored one by one, because there are millions of
them; their time still counts as child time of the span that called them,
so self times stay exact.  Calls made inside a leaf are not traced at all.
"""

import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("cli", "experiments", "classifier", "measures", "kernels", "potentials", "simulate")

# Folded into totals, never stored as individual spans.
LEAVES = frozenset({
    "kernels.shell_average_batch",
    "kernels.radial_shell_average",
    "measures.weight",
    "simulate.sample_increment",
    "simulate.positive_stable_sample",
})

FAMILY = {
    "PowerWeight": "power_weight",
    "AnnulusSeries": "annulus_series",
    "SphereSeries": "sphere_series",
    "BoundaryPower": "boundary_power",
}


def family_of(mu) -> str:
    return FAMILY.get(type(mu).__name__, "none")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Stat:
    """Running totals for one (span name, tag)."""

    __slots__ = ("calls", "seconds", "self_seconds", "layer_self", "count", "extra", "aux", "failed")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.layer_self = 0.0
        self.count = 0
        self.extra = 0
        self.aux = 0
        self.failed = 0


class _Frame:
    __slots__ = ("name", "layer", "leaf", "child", "foreign", "index")

    def __init__(self, name, layer, leaf, index):
        self.name = name
        self.layer = layer
        self.leaf = leaf
        self.child = 0.0     # summed duration of direct children
        self.foreign = 0.0   # child time spent outside this span's layer
        self.index = index


class Tracer:
    """Records spans for every wrapped call while installed (one thread)."""

    def __init__(self):
        self.stats = {}
        self.spans = []      # (name, tag, start, end, parent index) of stored spans
        self._stack = []
        self._saved = []     # (module, attribute, original)

    # -- recording ---------------------------------------------------------

    def reset(self):
        self.stats = {}
        self.spans = []

    def _call(self, name, layer, leaf, fn, tagger, args, kwargs):
        stack = self._stack
        if stack and stack[-1].leaf:
            return fn(*args, **kwargs)
        index = -1
        if not leaf:
            index = len(self.spans)
            self.spans.append(None)
        frame = _Frame(name, layer, leaf, index)
        stack.append(frame)
        result = None
        failed = False
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException:
            failed = True
            raise
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            layer_self = dur - frame.foreign
            if stack:
                parent = stack[-1]
                parent.child += dur
                parent.foreign += dur if parent.layer != layer else dur - layer_self
            tag, count, extra, aux = ("", 1, 0, 0) if tagger is None else tagger(args, kwargs, result, failed)
            st = self.stats.get((name, tag))
            if st is None:
                st = self.stats[(name, tag)] = Stat()
            st.calls += 1
            st.seconds += dur
            st.self_seconds += dur - frame.child
            st.layer_self += layer_self
            st.count += count
            st.extra += extra
            st.aux += aux
            st.failed += failed
            if index >= 0:
                parent_index = next((f.index for f in reversed(stack) if f.index >= 0), -1)
                self.spans[index] = (name, tag, t0, t1, parent_index)

    def wrap(self, name, fn, tagger=None):
        layer = name.split(".", 1)[0]
        leaf = name in LEAVES
        call = self._call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(name, layer, leaf, fn, tagger, args, kwargs)

        traced.__wrapped_original__ = fn
        return traced

    # -- installing --------------------------------------------------------

    def install(self):
        """Wrap every public function of the layer modules and rebind its names."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"bigmeasure.{layer}"]
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for attr in names:
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    qual = f"{layer}.{attr}"
                    if qual == "measures.radial_weight_fn":
                        wrappers[id(fn)] = self._weight_factory(fn)
                    else:
                        wrappers[id(fn)] = self.wrap(qual, fn, _TAGGERS.get(qual))
        mods = [m for n, m in list(sys.modules.items()) if n == "bigmeasure" or n.startswith("bigmeasure.")]
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped_original__ is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved = []
        self._stack.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _weight_factory(self, fn):
        """radial_weight_fn whose returned callable is traced as measures.weight.

        count = radii evaluated; inside a gauge walk also extra = radii with
        w > 0 and aux = radii (absorbed walks stop at the exit, so every
        radius they evaluate is inside the support).
        """
        traced_fn = self.wrap("measures.radial_weight_fn", fn, _tag_family)
        wrap = self.wrap
        stack = self._stack

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            weight = traced_fn(*args, **kwargs)
            family = family_of(_arg(args, kwargs, 0, "mu"))

            def tag(a, k, result, failed):
                if failed:
                    return family, 0, 0, 0
                n = int(np.size(a[0]))
                if stack and stack[-1].name == "simulate.gauge_checkpoint_samples":
                    return family, n, int(np.count_nonzero(result)), n
                return family, n, 0, 0

            return wrap("measures.weight", weight, tag)

        factory.__wrapped_original__ = fn
        return factory


def _tag_family(args, kwargs, result, failed):
    return family_of(_arg(args, kwargs, 0, "mu")), 1, 0, 0


def _tag_riesz(args, kwargs, result, failed):
    mu = _arg(args, kwargs, 0, "mu")
    model = _arg(args, kwargs, 2, "model")
    return f"{family_of(mu)}.d{getattr(model, 'dim', 0)}", 1, 0, 0


def _tag_shell(args, kwargs, result, failed):
    return f"d{_arg(args, kwargs, 3, 'dim')}", int(np.size(_arg(args, kwargs, 1, "s"))), 0, 0


def _tag_sample(args, kwargs, result, failed):
    process = _arg(args, kwargs, 0, "process")
    n = _arg(args, kwargs, 3, "n")
    kind = "stable" if getattr(process, "alpha", 2.0) < 2.0 else "brownian"
    return kind, 1 if n is None else int(n), 0, 0


def _tag_gauge(args, kwargs, result, failed):
    """count = paths, extra = exp(-A) samples that underflowed to exactly 0, aux = samples."""
    if failed:
        return "", 0, 0, 0
    samples = result[0]
    return "", int(samples.shape[0]), int((samples == 0.0).sum()), int(samples.size)


def _tag_absorbed(args, kwargs, result, failed):
    """count = paths, extra = paths that left the ball before the time cap."""
    if failed:
        return "", 0, 0, 0
    values, exited = result
    return "", int(values.shape[0]), int(exited.sum()), 0


_TAGGERS = {
    "classifier.classify": _tag_family,
    "potentials.riesz_potential": _tag_riesz,
    "kernels.shell_average_batch": _tag_shell,
    "simulate.sample_increment": _tag_sample,
    "simulate.gauge_checkpoint_samples": _tag_gauge,
    "simulate.absorbed_pcaf_sample": _tag_absorbed,
}
