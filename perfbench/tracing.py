"""Spans around calls into exptails' modules, installed from outside the package.

Each public function of each exptails module is wrapped wherever another
module (or the package ``__init__``) imports it by name, so every call that
crosses a module boundary records a span: name, start, end, parent.  A
module's own namespace is wrapped as well, so that, for example, the oracle's
routes (mixture build, contour inversion) show as child spans of
``exact_tail``; ``ExpMixture.tail`` is wrapped on its class.  Intra-module
calls in ``core`` and ``legendre`` stay unwrapped: they run per weight or per
printed float, and spans there would cost more than the work they time.

A layer's self time is the time its spans cover minus the time their child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = ("core", "special", "legendre", "bounds", "oracle", "montecarlo", "harness", "cli")
_OWN_NAMESPACE_UNTRACED = ("core", "legendre")


def _info_exact_tail(args, kwargs, result):
    return {"route": result[1]}


def _info_mc(args, kwargs, result):
    return {"draws": result.n, "workers": kwargs.get("workers") or 1}


def _info_sandwich(args, kwargs, result):
    return {"rows": len(result),
            "is_rows": sum(r.source == "importance_sampling" for r in result)}


_INFO = {
    "oracle.exact_tail": _info_exact_tail,
    "montecarlo.mc_tail": _info_mc,
    "montecarlo.is_tail": _info_mc,
    "harness.sandwich_report": _info_sandwich,
}


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent, info]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        info = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[4] = {"error": type(exc).__name__}
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap exptails' public functions where callers look them up."""
        package = importlib.import_module("exptails")
        modules = {layer: importlib.import_module(f"exptails.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for ns in (package, *modules.values()):
            own = ns.__name__.rpartition(".")[2]
            for attr, obj in list(vars(ns).items()):
                if id(obj) not in wrapped:
                    continue
                if obj.__module__ == ns.__name__ and own in _OWN_NAMESPACE_UNTRACED:
                    continue
                setattr(ns, attr, wrapped[id(obj)])
        mixture = modules["oracle"].ExpMixture
        mixture.tail = self.wrap("oracle.ExpMixture.tail", mixture.tail)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


_RATIOS = ("oracle.mixture.accept_ratio", "oracle.inversion.ms_per_call", "montecarlo.speedup_2w")


def summarize(spans, passes: int) -> dict:
    """Per-layer metrics from the spans of `passes` identical workload passes.

    Counts and times are per pass, so runs of different length compare.
    """
    totals = _summarize(spans)
    return {k: v if k in _RATIOS else v / passes for k, v in totals.items()}


def _summarize(spans) -> dict:
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    layer_self = defaultdict(float)
    errors = defaultdict(int)
    for (name, start, end, parent, info), t in zip(spans, own):
        calls[name] += 1
        self_s[name] += t
        layer_self[name.split(".")[0]] += t
        if info and "error" in info:
            errors[name] += 1

    routes = defaultdict(int)
    draws = 0
    worker_time = defaultdict(float)
    rows = is_rows = 0
    inversion_top = []
    for name, start, end, parent, info in spans:
        if name == "oracle.exact_tail" and info and "route" in info:
            routes[info["route"]] += 1
        elif name in ("montecarlo.mc_tail", "montecarlo.is_tail") and info and "draws" in info:
            draws += info["draws"]
            worker_time[info["workers"]] += end - start
        elif name == "harness.sandwich_report" and info and "rows" in info:
            rows += info["rows"]
            is_rows += info["is_rows"]
        elif name == "oracle.cf_tail_inversion" and (
            parent < 0 or spans[parent][0] != "oracle.cf_tail_inversion"
        ):
            inversion_top.append(end - start)

    mixture_names = ("oracle.hypoexp_mixture", "oracle.laplace_mixture")
    attempts = sum(calls[n] for n in mixture_names)
    accepted = attempts - sum(errors[n] for n in mixture_names)
    t1, t2 = worker_time.get(1, 0.0), worker_time.get(2, 0.0)
    bounds_calls = sum(v for k, v in calls.items() if k.startswith("bounds."))
    return {
        "core.self_s": layer_self["core"],
        "core.weight_stats.calls": calls["core.weight_stats"],
        "core.weight_stats.self_s": self_s["core.weight_stats"],
        "special.self_s": layer_self["special"],
        "special.gamma_upper_tail.calls": calls["special.gamma_upper_tail"],
        "special.gamma_upper_tail.self_s": self_s["special.gamma_upper_tail"],
        "legendre.self_s": layer_self["legendre"],
        "legendre.chernoff_tilt.calls": calls["legendre.chernoff_tilt"],
        "legendre.chernoff_tilt.self_s": self_s["legendre.chernoff_tilt"],
        "bounds.calls": bounds_calls,
        "bounds.self_s": layer_self["bounds"],
        "oracle.self_s": layer_self["oracle"],
        "oracle.exact_tail.calls": calls["oracle.exact_tail"],
        "oracle.exact_tail.self_s": self_s["oracle.exact_tail"],
        "oracle.route.mixture": routes["mixture"],
        "oracle.route.cf_inversion": routes["cf_inversion"],
        "oracle.mixture.attempts": attempts,
        "oracle.mixture.accepted": accepted,
        "oracle.mixture.accept_ratio": accepted / attempts if attempts else 0.0,
        "oracle.mixture.self_s": sum(self_s[n] for n in mixture_names)
        + self_s["oracle.ExpMixture.tail"],
        "oracle.inversion.calls": calls["oracle.cf_tail_inversion"],
        "oracle.inversion.self_s": self_s["oracle.cf_tail_inversion"],
        "oracle.inversion.failures": errors["oracle.cf_tail_inversion"],
        "oracle.inversion.ms_per_call": (
            1e3 * sum(inversion_top) / len(inversion_top) if inversion_top else 0.0
        ),
        "oracle.p_ge_mean.self_s": self_s["oracle.p_ge_mean"],
        "montecarlo.self_s": layer_self["montecarlo"],
        "montecarlo.mc_tail.self_s": self_s["montecarlo.mc_tail"],
        "montecarlo.is_tail.self_s": self_s["montecarlo.is_tail"],
        "montecarlo.draws": draws,
        "montecarlo.time_1w_s": t1,
        "montecarlo.time_2w_s": t2,
        "montecarlo.speedup_2w": t1 / t2 if t2 > 0 else 0.0,
        "harness.self_s": layer_self["harness"],
        "harness.sandwich_report.self_s": self_s["harness.sandwich_report"],
        "harness.property_suite.self_s": self_s["harness.property_suite"],
        "harness.rows": rows,
        "harness.is_fallback_rows": is_rows,
        "cli.run.self_s": self_s["cli.run"],
    }
