"""Spans around the public entry points of each punctual module, installed
from outside the package, and the self-time arithmetic over them.

A span is ``[name, start, end, parent, job]``: ``parent`` is the index of
the enclosing span in the same list (-1 for a root) and ``job`` the index
of the CLI job it belongs to.  Spans stay in memory; the caller writes them
out when the benchmark ends.
"""

import functools
import sys
import time

# span name -> (module, class, method names).  Names bound to one function
# object (``__rmul__ = __mul__``) share one wrapper.
METHODS = {
    "series.log": ("series", "MultiSeries", ("log",)),
    "series.exp": ("series", "MultiSeries", ("exp",)),
    "series.mul": ("series", "MultiSeries", ("__mul__", "__rmul__")),
    "series.pow": ("series", "MultiSeries", ("__pow__", "pow")),
    "theories.value": ("theories", "Theory", ("value",)),
    "theories.primitive_value": ("theories", "Theory", ("primitive_value",)),
    "theories.pair": ("theories", "Theory", ("pair",)),
    "hopf.mul": ("hopf", "HopfElement", ("__mul__", "__rmul__")),
    "hopf.add": ("hopf", "HopfElement", ("__add__", "__radd__")),
    "hopf.scaled": ("hopf", "HopfElement", ("scaled",)),
    "hopf.coproduct": ("hopf", "HopfElement", ("coproduct",)),
    "hopf.to_p": ("hopf", "HopfElement", ("to_p",)),
    "hopf.to_q": ("hopf", "HopfElement", ("to_q",)),
    "hopf.antipode": ("hopf", "HopfElement", ("antipode",)),
}

FUNCTIONS = {
    "theories.construct": ("theories", "theory_from_spec"),
    "hopf.vertical_element": ("hopf", "vertical_element"),
    "genfun.gamma_integral_series": ("genfun", "gamma_integral_series"),
    "genfun.vertical_series": ("genfun", "vertical_series"),
    "axioms.run_axiom_suite": ("axioms", "run_axiom_suite"),
    "cli.main": ("cli", "main"),
}

# Spans whose results are kept, so counters can be read from them after
# the pass.
KEEP = ("series.log", "series.exp", "hopf.vertical_element",
        "genfun.gamma_integral_series")

# The unbounded structure-constant caches of the hopf module.
HOPF_CACHES = ("_monomial_coproduct", "_generator_coproduct", "_p_in_q",
               "_q_in_p", "_sep_gen_image")


class Tracer:

    def __init__(self):
        self.spans = []
        self.kept = {name: [] for name in KEEP}
        self.job = 0
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        kept = self.kept.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name, start, end, parent, self.job]
            if kept is not None:
                kept.append(result)
            return result
        return traced


def install(tracer):
    """Wrap every entry point in METHODS and FUNCTIONS.  A function is
    rebound in every punctual module that holds it, so ``from .x import y``
    call sites see the wrapper too."""
    import punctual.cli  # noqa: F401  loads every module that is wrapped
    for name, (module, cls, attrs) in METHODS.items():
        klass = getattr(sys.modules["punctual." + module], cls)
        wrappers = {}
        for attr in attrs:
            fn = klass.__dict__[attr]
            if id(fn) not in wrappers:
                wrappers[id(fn)] = tracer.wrap(name, fn)
            setattr(klass, attr, wrappers[id(fn)])
    for name, (module, attr) in FUNCTIONS.items():
        fn = getattr(sys.modules["punctual." + module], attr)
        traced = tracer.wrap(name, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "punctual" or mod_name.startswith("punctual."):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)


def self_times(spans, scale=None):
    """{name: [self seconds, calls]}.  Self time is a span's duration minus
    the part of it that its direct children cover.  ``scale``, if given,
    holds a factor per job that multiplies the self times of its spans."""
    children = {}
    for span in spans:
        children.setdefault(span[3], []).append((span[1], span[2]))
    out = {}
    for index, (name, start, end, _parent, job) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        entry = out.setdefault(name, [0.0, 0])
        entry[0] += ((end - start) - covered) * (scale[job] if scale
                                                  else 1.0)
        entry[1] += 1
    return out


def cache_stats():
    """Hits, misses and entries summed over the hopf caches."""
    import punctual.hopf as hopf
    hits = misses = entries = 0
    for attr in HOPF_CACHES:
        info = getattr(hopf, attr).cache_info()
        hits += info.hits
        misses += info.misses
        entries += info.currsize
    return {"hopf.cache.hits": hits, "hopf.cache.misses": misses,
            "hopf.cache.entries": entries}


def counters(tracer):
    """Term counts and coefficient sizes read from the kept results."""
    series = tracer.kept["series.log"] + tracer.kept["series.exp"]
    bits = [max(c.numerator.bit_length(), c.denominator.bit_length())
            for s in series for c in s.terms.values()]
    return {
        "series.terms_out": sum(len(s.terms) for s in series),
        "series.coeff_bits_max": max(bits, default=0),
        "hopf.vertical_element.terms_out": sum(
            len(z.terms) for zs in tracer.kept["hopf.vertical_element"]
            for z in zs),
        "genfun.gamma.terms_checked": sum(
            report.terms_checked for _, report in
            tracer.kept["genfun.gamma_integral_series"]),
    }
