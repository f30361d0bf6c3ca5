"""Outside-in tracing of ucenergy's layers, from the benchmark's own files.

The package's modules import each other with ``from .x import y``, so a
function is looked up in the namespace of the module that calls it.  The
tracer therefore rebinds every ``ucenergy.*`` module attribute that holds a
traced function (the defining module, each importing module and the package
re-export) and puts the originals back in ``restore``.

Three kinds of wrapper exist:

* a *layer* call opens a span.  Only the outermost call of a layer is
  timed, so recursion and re-entry are not counted twice.  The span's
  duration is added to ``<layer>.busy_s`` and to the open parent span's
  child time, from which each layer's ``self_s`` follows.
* a *part* call is timed into ``<name>_s`` and counted into
  ``<name>_calls``, but only while its owning layer has an open span, so
  work done for another layer (certify's own Sturm chains, say) is not
  attributed to it.
* counters count calls (``IntPolynomial.sign_at``, Coulson integrand
  evaluations) and change no timing other than their own small cost; the
  bisection count is read off the widths ``refine_enclosure`` takes and
  returns.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

from workloads import TOL

# (module, function, layer); unicyclic_graphs is a generator and is timed
# per next().
LAYERS = (
    ("ucenergy.enumeration", "unicyclic_graphs", "enumeration"),
    ("ucenergy.enumeration", "count_unicyclic", "enumeration"),
    ("ucenergy.charpoly", "charpoly", "charpoly"),
    ("ucenergy.roots", "energy_of_poly", "roots"),
    ("ucenergy.search", "max_energy_search", "search"),
    ("ucenergy.tables", "compute_table", "tables"),
    ("ucenergy.certify", "run_claim_suite", "certify"),
    ("ucenergy.eigensolver", "energy_eigensolver", "eigensolver"),
    ("ucenergy.coulson", "energy_coulson", "coulson"),
)

# (module, function, owning layer, metric stem)
PARTS = (
    ("ucenergy.enumeration", "realize", "enumeration", "enumeration.realize"),
    ("ucenergy.trees", "free_tree_code", "charpoly", "charpoly.tree_code"),
    ("ucenergy.polynomials", "squarefree_decomposition", "roots", "roots.yun"),
    ("ucenergy.polynomials", "sturm_chain", "roots", "roots.sturm"),
    ("ucenergy.polynomials", "variations_at", "roots", "roots.sturm"),
    ("ucenergy.roots", "refine_enclosure", "roots", "roots.refine"),
    ("ucenergy.certify", "certify_poly_sign", "certify", "certify.poly_sign"),
    ("ucenergy.certify", "certify_radical_sign", "certify", "certify.radical_sign"),
    ("ucenergy.certify", "assembled_f5_exact", "certify", "certify.c8_assembly"),
)


class Tracer:
    """Installs the wrappers, accumulates metrics, and restores the package."""

    def __init__(self):
        self.metrics: dict[str, float] = defaultdict(float)
        self._spectra: set[tuple[int, ...]] = set()
        self._depth: Counter = Counter()  # open outermost calls per layer
        self._stack: list[list] = []  # open layer spans: [layer, child seconds]
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        # import every traced module first: one imported after a rebind would
        # bind a wrapper that restore() does not know about
        for module, *_ in LAYERS + PARTS:
            importlib.import_module(module)
        for module, name, layer in LAYERS:
            fn = getattr(importlib.import_module(module), name)
            if name == "unicyclic_graphs":
                self._rebind(fn, self._generator_layer(fn, layer))
            else:
                self._rebind(fn, self._layer(fn, layer, _HOOKS.get(name)))
        for module, name, layer, stem in PARTS:
            fn = getattr(importlib.import_module(module), name)
            self._rebind(fn, self._part(fn, layer, stem, _HOOKS.get(name)))
        coulson = importlib.import_module("ucenergy.coulson")
        self._rebind(
            coulson.integrate_adaptive, self._integrand_counter(coulson.integrate_adaptive)
        )
        poly_cls = importlib.import_module("ucenergy.polynomials").IntPolynomial
        self._patch(poly_cls, "sign_at", self._sign_counter(poly_cls.sign_at))

    def restore(self) -> bool:
        """Put every original back; True when no wrapper is left anywhere."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        poly_cls = importlib.import_module("ucenergy.polynomials").IntPolynomial
        values = [v for mod in _package_modules() for v in vars(mod).values()]
        values.append(poly_cls.__dict__["sign_at"])
        return not any(v is w for v in values for w in self._wrappers)

    def _rebind(self, original, replacement) -> None:
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        self._wrappers.append(replacement)
        setattr(owner, attr, replacement)

    # -- spans -------------------------------------------------------------

    def _enter(self, layer: str) -> float:
        self._depth[layer] += 1
        self._stack.append([layer, 0.0])
        return time.perf_counter()

    def _exit(self, layer: str, start: float) -> None:
        elapsed = time.perf_counter() - start
        _, child = self._stack.pop()
        self._depth[layer] -= 1
        m = self.metrics
        m[layer + ".busy_s"] += elapsed
        m[layer + ".self_s"] += elapsed - child
        if self._stack:
            self._stack[-1][1] += elapsed

    def active(self, name: str) -> bool:
        return self._depth[name] > 0

    def _layer(self, fn, layer, hook):
        def wrapper(*args, **kwargs):
            if self.active(layer):
                return fn(*args, **kwargs)
            start = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(layer, start)
            self.metrics[layer + ".calls"] += 1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _generator_layer(self, fn, layer):
        def wrapper(*args, **kwargs):
            items = iter(fn(*args, **kwargs))
            while True:
                start = self._enter(layer)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._exit(layer, start)
                self.metrics["enumeration.graphs"] += 1
                yield item

        return wrapper

    def _part(self, fn, layer, stem, hook):
        def wrapper(*args, **kwargs):
            if not self.active(layer):
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.metrics[stem + "_s"] += time.perf_counter() - start
                self.metrics[stem + "_calls"] += 1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    # -- counters ----------------------------------------------------------

    def _integrand_counter(self, fn):
        def wrapper(f, *args, **kwargs):
            def counted(x):
                self.metrics["coulson.integrand_evals"] += 1
                return f(x)

            return fn(counted, *args, **kwargs)

        return wrapper

    def _sign_counter(self, fn):
        def wrapper(poly, point):
            self.metrics["polynomials.sign_evals"] += 1
            return fn(poly, point)

        return wrapper


def _package_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "ucenergy" or name.startswith("ucenergy."))
    ]


def _energy_call(tracer: Tracer, args, kwargs, energy) -> None:
    """Search calls at a tighter tolerance than the workloads' are tie refinements."""
    tol = args[1] if len(args) > 1 else kwargs.get("tol", TOL)
    if tracer.active("search") and tol < TOL:
        tracer.metrics["search.tie_refinements"] += 1


def _refine_call(tracer: Tracer, args, kwargs, enc_out) -> None:
    """Add log2(width in / width out); each bisection halves the width.

    An output that is a point (an exact rational root) adds nothing.
    """
    if enc_out.width > 0:
        ratio = args[1].width / enc_out.width
        tracer.metrics["roots.bisections"] += ratio.numerator.bit_length() - 1


def _charpoly_call(tracer: Tracer, args, kwargs, poly) -> None:
    tracer._spectra.add(poly.coeffs)
    tracer.metrics["charpoly.distinct_spectra"] = len(tracer._spectra)


def _count_call(tracer: Tracer, args, kwargs, count: int) -> None:
    tracer.metrics["enumeration.graphs"] += count


def _table_call(tracer: Tracer, args, kwargs, rows) -> None:
    m = tracer.metrics
    m["tables.cells"] += len(rows)
    m["tables.max_deviation"] = max([m["tables.max_deviation"]] + [r.deviation for r in rows])


def _claims_call(tracer: Tracer, args, kwargs, report) -> None:
    tracer.metrics["certify.claims"] += len(report.results)


# metrics read off a traced call's arguments and result, by function name
_HOOKS = {
    "charpoly": _charpoly_call,
    "count_unicyclic": _count_call,
    "energy_of_poly": _energy_call,
    "compute_table": _table_call,
    "run_claim_suite": _claims_call,
    "refine_enclosure": _refine_call,
}
