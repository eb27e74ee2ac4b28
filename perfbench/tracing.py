"""Layer spans for lorhol, recorded from outside the package.

A Tracer wraps the public entry point of each layer (and the names other
lorhol modules bound to it with ``from .x import y``) in a timing span,
and undoes every replacement on exit.  Spans nest: a layer's self time
is its span minus the time covered by the spans it calls, and its busy
time counts only the outermost span of that layer, so recursion is not
counted twice.  Counters are kept per layer in memory and returned by
``snapshot()``; nothing is written while the traced code runs.

Nothing here imports lorhol at import time, so a benchmark can time the
package import itself.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    failed: int = 0
    extra: dict = field(default_factory=dict)

    def add(self, key: str, amount) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount


def _rows(points) -> int:
    shape = getattr(points, "shape", None)
    if shape is not None:
        return int(shape[0]) if len(shape) == 2 else 1
    return len(points)


def _geodesic_steps(report) -> int:
    """Active trajectory-steps: each truncated trial counts up to its
    truncation step."""
    lost = sum(report.steps - step for _, step in report.truncated)
    return report.trials * report.steps - lost


class Tracer:
    """Installs layer spans on the imported lorhol modules.

    Use as a context manager; the wrappers are removed on exit, so code
    run afterwards carries no tracing.  An evaluator compiled while the
    tracer was installed and cached by lorhol keeps its wrapper, which
    after exit only passes the call through; a run that must be untraced
    still uses a fresh process.
    """

    def __init__(self):
        self.stats: dict[str, LayerStats] = {}
        self.last_error: tuple[str, str] | None = None
        self.active = False
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []
        self._cache_start = (0, 0)
        self._cache_delta = (0, 0)

    # -- spans -------------------------------------------------------------

    def span(self, layer: str, fn, on_result=None):
        """Return ``fn`` wrapped in a span of ``layer``.  ``on_result``
        (stats, args, result) -> result runs after the span closes."""
        stats = self.stats.setdefault(layer, LayerStats())
        stack, depth = self._stack, self._depth

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stats.calls += 1
            child = [0.0]
            stack.append(child)
            depth[layer] = depth.get(layer, 0) + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                stats.failed += 1
                self.last_error = (type(exc).__name__, str(exc))
                raise
            finally:
                took = perf_counter() - start
                stack.pop()
                stats.self_s += took - child[0]
                depth[layer] -= 1
                if depth[layer] == 0:
                    stats.busy_s += took
                if stack:
                    stack[-1][0] += took
            if on_result is not None:
                result = on_result(stats, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    # -- hooks that count work ------------------------------------------------

    def _on_compile(self, stats, args, evaluator):
        stats.add("exprs", len(args[0]))
        return self.span("exprdsl.eval", evaluator, _count_rows)

    # -- install / uninstall --------------------------------------------------

    def _targets(self):
        """(module, attribute, layer, hook) for every wrapped entry point."""
        return [
            ("lorhol.exprdsl", "parse_expr", "exprdsl.parse", None),
            ("lorhol.exprdsl", "differentiate", "exprdsl.differentiate", None),
            ("lorhol.exprdsl", "compile_program", "exprdsl.compile",
             self._on_compile),
            ("lorhol.pointcalc", "frame_at", "pointcalc.frame", None),
            ("lorhol.pointcalc", "christoffel_batch", "pointcalc.christoffel",
             None),
            ("lorhol.projective", "_gamma_masked", "pointcalc.christoffel",
             None),
            ("lorhol.pointcalc", "sample_points", "pointcalc.sample", None),
            ("lorhol.bivector", "canonical_span_basis", "bivector.span_basis",
             None),
            ("lorhol.curvclass", "classify_curvature", "curvclass.classify",
             None),
            ("lorhol.holonomy", "ihol_generators", "holonomy.generators",
             _count_kept),
            ("lorhol.holonomy", "close_algebra", "holonomy.close",
             _count_dim),
            ("lorhol.holonomy", "identify_type", "holonomy.identify", None),
            ("lorhol.projective", "invert_pair", "projective.invert", None),
            ("lorhol.projective", "sinyukov_residual", "projective.residual",
             None),
            ("lorhol.projective", "psi_from_connections",
             "projective.residual", None),
            ("lorhol.projective", "projective_residual", "projective.residual",
             None),
            ("lorhol.projective", "curvature_relation_residual",
             "projective.residual", None),
            ("lorhol.projective", "weyl_projective_equal",
             "projective.residual", None),
            ("lorhol.projective", "pregeodesic_check", "projective.geodesic",
             _count_steps),
        ]

    def install(self) -> None:
        import lorhol  # noqa: F401  (loads every layer module)

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "lorhol"
                                         or n.startswith("lorhol."))]
        for modname, attr, layer, hook in self._targets():
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                continue  # layer gone: its counters read 0
            wrapped = self.span(layer, original, hook)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, name, value))
                        setattr(mod, name, wrapped)
        frame_cls = getattr(sys.modules["lorhol.pointcalc"], "PointFrame",
                            None)
        for attr in ("cov_riemann", "cov2_riemann"):
            prop = vars(frame_cls).get(attr) if frame_cls else None
            if isinstance(prop, property):
                self._undo.append((frame_cls, attr, prop))
                setattr(frame_cls, attr, property(
                    self.span("pointcalc.cov_riemann", prop.fget),
                    doc=prop.__doc__))
        self._cache_start = _table_cache_counts()
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        hits, misses = _table_cache_counts()
        self._cache_delta = (hits - self._cache_start[0],
                             misses - self._cache_start[1])
        for obj, name, value in reversed(self._undo):
            setattr(obj, name, value)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def snapshot(self) -> dict:
        """Plain-data counters: {layer: {calls, busy_s, self_s, failed,
        ...extra}} plus "_table_cache": {hits, misses}."""
        out = {layer: {"calls": s.calls, "busy_s": s.busy_s,
                       "self_s": s.self_s, "failed": s.failed, **s.extra}
               for layer, s in self.stats.items()}
        out["_table_cache"] = {"hits": self._cache_delta[0],
                               "misses": self._cache_delta[1]}
        return out


def _count_rows(stats, args, result):
    stats.add("rows", _rows(args[0]))
    return result


def _count_kept(stats, args, result):
    stats.add("kept", len(result))
    return result


def _count_dim(stats, args, result):
    stats.add("dim_sum", len(result))
    return result


def _count_steps(stats, args, result):
    stats.add("steps", _geodesic_steps(result))
    return result


def _table_cache_counts() -> tuple[int, int]:
    """Summed hits and misses of the lru compile caches in pointcalc."""
    pointcalc = sys.modules.get("lorhol.pointcalc")
    hits = misses = 0
    for obj in list(vars(pointcalc).values()) if pointcalc else ():
        info = getattr(obj, "cache_info", None)
        if callable(info):
            ci = info()
            hits += ci.hits
            misses += ci.misses
    return hits, misses


def merge(snapshots) -> dict:
    """Sum per-layer counters of several snapshots (one per process)."""
    total: dict = {}
    for snap in snapshots:
        for layer, fields in snap.items():
            acc = total.setdefault(layer, {})
            for key, value in fields.items():
                acc[key] = acc.get(key, 0) + value
    return total


# Per-layer metrics reported by a traced run: (metric, layer, field, unit).
LAYER_METRICS = [
    ("exprdsl.parse.calls", "exprdsl.parse", "calls", "count"),
    ("exprdsl.parse.busy_s", "exprdsl.parse", "busy_s", "s"),
    ("exprdsl.differentiate.calls", "exprdsl.differentiate", "calls", "count"),
    ("exprdsl.differentiate.busy_s", "exprdsl.differentiate", "busy_s", "s"),
    ("exprdsl.compile.calls", "exprdsl.compile", "calls", "count"),
    ("exprdsl.compile.busy_s", "exprdsl.compile", "busy_s", "s"),
    ("exprdsl.compile.exprs", "exprdsl.compile", "exprs", "count"),
    ("exprdsl.eval.calls", "exprdsl.eval", "calls", "count"),
    ("exprdsl.eval.busy_s", "exprdsl.eval", "busy_s", "s"),
    ("exprdsl.eval.rows", "exprdsl.eval", "rows", "count"),
    ("pointcalc.frame.calls", "pointcalc.frame", "calls", "count"),
    ("pointcalc.frame.self_s", "pointcalc.frame", "self_s", "s"),
    ("pointcalc.cov_riemann.calls", "pointcalc.cov_riemann", "calls", "count"),
    ("pointcalc.cov_riemann.self_s", "pointcalc.cov_riemann", "self_s", "s"),
    ("pointcalc.christoffel.calls", "pointcalc.christoffel", "calls", "count"),
    ("pointcalc.christoffel.self_s", "pointcalc.christoffel", "self_s", "s"),
    ("pointcalc.sample.calls", "pointcalc.sample", "calls", "count"),
    ("pointcalc.sample.busy_s", "pointcalc.sample", "busy_s", "s"),
    ("bivector.span_basis.calls", "bivector.span_basis", "calls", "count"),
    ("bivector.span_basis.busy_s", "bivector.span_basis", "busy_s", "s"),
    ("curvclass.classify.calls", "curvclass.classify", "calls", "count"),
    ("curvclass.classify.busy_s", "curvclass.classify", "busy_s", "s"),
    ("holonomy.generators.calls", "holonomy.generators", "calls", "count"),
    ("holonomy.generators.self_s", "holonomy.generators", "self_s", "s"),
    ("holonomy.generators.kept", "holonomy.generators", "kept", "count"),
    ("holonomy.close.calls", "holonomy.close", "calls", "count"),
    ("holonomy.close.busy_s", "holonomy.close", "busy_s", "s"),
    ("holonomy.close.failed", "holonomy.close", "failed", "count"),
    ("holonomy.identify.calls", "holonomy.identify", "calls", "count"),
    ("holonomy.identify.busy_s", "holonomy.identify", "busy_s", "s"),
    ("projective.invert.calls", "projective.invert", "calls", "count"),
    ("projective.invert.self_s", "projective.invert", "self_s", "s"),
    ("projective.residual.calls", "projective.residual", "calls", "count"),
    ("projective.residual.self_s", "projective.residual", "self_s", "s"),
    ("projective.geodesic.calls", "projective.geodesic", "calls", "count"),
    ("projective.geodesic.self_s", "projective.geodesic", "self_s", "s"),
    ("projective.geodesic.steps", "projective.geodesic", "steps", "count"),
]


def layer_metrics(snapshot: dict) -> dict:
    """{metric: (value, unit)} for LAYER_METRICS plus the derived
    closure dimension mean and compile-cache hit ratio."""
    out = {}
    for metric, layer, key, unit in LAYER_METRICS:
        out[metric] = (snapshot.get(layer, {}).get(key, 0), unit)
    close = snapshot.get("holonomy.close", {})
    ok_closures = close.get("calls", 0) - close.get("failed", 0)
    out["holonomy.close.dim_mean"] = (
        close.get("dim_sum", 0) / ok_closures if ok_closures else 0.0,
        "count")
    cache = snapshot.get("_table_cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    out["pointcalc.table_cache.lookups"] = (lookups, "count")
    out["pointcalc.table_cache.hit_ratio"] = (
        cache.get("hits", 0) / lookups if lookups else 0.0, "ratio")
    return out
