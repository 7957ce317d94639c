"""Per-layer tracing of the heatkernel modules from outside the package.

`install` replaces each named public function with a timing wrapper at every
module attribute of the `heatkernel` package bound to it (the package and
several modules import these names directly, so patching the defining module
alone would miss calls).  A wrapper records one span per call: the call count,
the span duration, and its self time, which is the duration minus the time
covered by wrapped calls made inside it.  An optional observer sees the
arguments and the result after the span has closed; its cost is kept out of
every layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from fractions import Fraction
from time import perf_counter


class Tracer:
    """Span statistics for the wrapped functions of one process."""

    def __init__(self):
        self.enabled = True
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.originals: dict[str, object] = {}
        self._children: list[float] = []

    def wrap(self, name: str, fn, observe=None):
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        self.originals[name] = fn
        children = self._children

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self.calls[name] += 1
                self.self_s[name] += duration - children.pop()
                if children:
                    children[-1] += duration
            if observe is not None:
                start = perf_counter()
                observe(args, kwargs, result)
                if children:
                    # the observer's time is tracing overhead, not the caller's work
                    children[-1] += perf_counter() - start
            return result

        return wrapper


def install(tracer: Tracer, targets: dict, observers: dict) -> None:
    """Wrap `targets[layer] = [names]` found in `heatkernel.<layer>`.

    Every attribute of a loaded `heatkernel` module that is bound to the
    original object is rebound to the wrapper.
    """
    modules = [mod for key, mod in list(sys.modules.items())
               if key == "heatkernel" or key.startswith("heatkernel.")]
    for layer, names in targets.items():
        home = importlib.import_module(f"heatkernel.{layer}")
        for name in names:
            original = getattr(home, name)
            label = f"{layer}.{name}"
            wrapped = tracer.wrap(label, original, observers.get(label))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)


def fraction_bits(value) -> int:
    """Larger of the numerator and denominator bit lengths of a rational."""
    value = Fraction(value)
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class LayerProbe:
    """The observers behind the size, sharing and step-count metrics."""

    def __init__(self):
        self.max_bits = {"tau": 0, "gamma": 0, "beta": 0}
        self.keys: dict[str, set] = {"kernel.assemble_kernel": set(),
                                     "bessel.tail_resum": set()}
        self.bessel_steps = 0

    def _bits(self, kind: str, coeffs) -> None:
        for c in coeffs:
            self.max_bits[kind] = max(self.max_bits[kind], fraction_bits(c))

    def on_tau(self, args, kwargs, tau) -> None:
        self._bits("tau", tau.polyn.coeffs)

    def on_gamma(self, args, kwargs, series) -> None:
        self._bits("gamma", series.gammas)

    def on_kernel(self, args, kwargs, formula) -> None:
        self.keys["kernel.assemble_kernel"].add(args[:3])
        for poly in formula.terms.values():
            self._bits("beta", poly.coeffs)

    def on_tail(self, args, kwargs, combo) -> None:
        self.keys["bessel.tail_resum"].add((args, tuple(sorted(kwargs.items()))))

    def on_bessel_row(self, args, kwargs, row) -> None:
        # length of the backward recurrence, from the documented start order
        t, K = args[0], args[1]
        self.bessel_steps += K + 20 + math.ceil(t)

    def observers(self) -> dict:
        return {
            "taudarboux.tau_build": self.on_tau,
            "kernel.gamma_series": self.on_gamma,
            "kernel.assemble_kernel": self.on_kernel,
            "bessel.tail_resum": self.on_tail,
            "bessel.bessel_row": self.on_bessel_row,
        }

    def unique_ratio(self, label: str, calls: int) -> float:
        return len(self.keys[label]) / calls if calls else 0.0


#: public functions traced per module; chebring is left out because no CLI
#: command or kernel path calls it
TARGETS = {
    "taudarboux": ["tau_build", "ensure_regular", "operator_build", "wave_p",
                   "wave_p_star_via_adjoint"],
    "exactcore": ["series_at_zero"],
    "kernel": ["assemble_kernel", "gamma_series", "symmetry_transport",
               "pde_residual", "combo_to_basis", "kernel_eval"],
    "bessel": ["tail_resum", "bessel_row"],
    "oracle": ["lattice_window", "expm", "circle_quadrature"],
    "cli": ["main"],
}


def layer_metrics(tracer: Tracer, probe: LayerProbe) -> dict:
    """Every per-layer figure one traced round yields, by metric name."""
    out = {}
    for label, calls in tracer.calls.items():
        out[f"{label}.calls"] = calls
        out[f"{label}.self_s"] = tracer.self_s[label]
    out["taudarboux.tau_build.misses"] = \
        tracer.originals["taudarboux.tau_build"].cache_info().misses
    for kind, bits in probe.max_bits.items():
        layer = "taudarboux" if kind == "tau" else "kernel"
        out[f"{layer}.{kind}.max_bits"] = bits
    for label in probe.keys:
        out[f"{label}.unique_ratio"] = probe.unique_ratio(label, tracer.calls[label])
    out["bessel.bessel_row.steps"] = probe.bessel_steps
    return out
