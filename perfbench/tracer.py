"""Layer tracer that lives entirely in the benchmark.

It replaces module-level names of the library (and a few numpy functions the
Monte Carlo layer calls) with timing wrappers for the traced run only, and
puts the originals back afterwards.  Three kinds of wrapper:

* ``span``  -- a full span record (name, start, end, parent, op id);
* ``leaf``  -- hot scalar calls (kernel scalars, Jacobi-Trudi determinants,
  LU) that would produce millions of spans; their count, total time, errors
  and computed bytes are merged into the enclosing span's ``agg`` table;
* ``gen``   -- generator functions (partition enumeration, Monte Carlo
  blocks): the time spent producing each item is merged like a leaf, and the
  item count of every call (one pass) is kept on the enclosing span.

Self time of a span is its duration minus the union of its child spans'
intervals and minus its merged leaf time.  Clocks are time.perf_counter_ns,
which is CLOCK_MONOTONIC on Linux and therefore comparable across the
benchmark's child processes.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

_now = time.perf_counter_ns


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "error", "agg", "counters")

    def __init__(self, sid, parent, op, name, start):
        self.id = sid
        self.parent = parent
        self.op = op
        self.name = name
        self.start = start
        self.end = None
        self.error = None
        self.agg = {}  # name -> [count, ns, errors, bytes]
        self.counters = {}

    @property
    def layer(self) -> str:
        return layer_of(self.name)

    def to_json(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "op": self.op, "name": self.name,
            "start_ns": self.start, "end_ns": self.end, "error": self.error,
            "agg": self.agg, "counters": self.counters,
        }

    @classmethod
    def from_json(cls, d) -> "Span":
        s = cls(d["id"], d["parent"], d["op"], d["name"], d["start_ns"])
        s.end = d["end_ns"]
        s.error = d["error"]
        s.agg = d["agg"]
        s.counters = d["counters"]
        return s


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Recorder:
    """In-memory span store for one process; single-threaded use."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = None
        self._next = 0

    def open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(self._next, parent, self.op, name, _now())
        self._next += 1
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span, error=None) -> None:
        span.end = _now()
        span.error = error
        top = self.stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def merge(self, name: str, ns: int, error=None, nbytes: int = 0) -> None:
        if not self.stack:
            return
        entry = self.stack[-1].agg.setdefault(name, [0, 0, 0, 0])
        entry[0] += 1
        entry[1] += ns
        entry[2] += error is not None
        entry[3] += nbytes

    def adopt(self, spans: list[Span], under: Span) -> None:
        """Attach spans recorded by a child process under span ``under``."""
        remap = {}
        for s in spans:
            remap[s.id] = self._next
            self._next += 1
        for s in spans:
            s.id = remap[s.id]
            s.parent = remap.get(s.parent, under.id)
            s.op = self.op
            self.spans.append(s)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_json(), sort_keys=True) + "\n")


def _nbytes(args, result) -> int:
    total = 0
    for a in (*args, result):
        if isinstance(a, tuple):
            total += sum(getattr(x, "nbytes", 0) for x in a)
        else:
            total += getattr(a, "nbytes", 0)
    return total


def _wrap(rec: Recorder, fn, name: str, mode: str, count_bytes: bool):
    if mode == "span":
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = rec.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec.close(span, type(exc).__name__)
                raise
            rec.close(span)
            return out
    elif mode == "leaf":
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = _now()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec.merge(name, _now() - t0, type(exc).__name__)
                raise
            rec.merge(name, _now() - t0, nbytes=_nbytes(args, out) if count_bytes else 0)
            return out
    elif mode == "gen":
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            owner = rec.stack[-1] if rec.stack else None
            passes = owner.counters.setdefault(name + ".passes", []) if owner else []
            passes.append(0)
            items = fn(*args, **kwargs)
            while True:
                t0 = _now()
                try:
                    item = next(items)
                except StopIteration:
                    rec.merge(name, _now() - t0)
                    return
                rec.merge(name, _now() - t0)
                passes[-1] += 1
                # Monte Carlo blocks are (block index, samples in the block)
                if owner is not None and name == "montecarlo.blocks":
                    owner.counters["samples"] = owner.counters.get("samples", 0) + item[1]
                yield item
    else:
        raise ValueError(f"unknown wrapper mode {mode!r}")
    return wrapper


def _resolve(path: str):
    """'pkg.mod' or 'pkg.mod:Class' -> the object whose attribute is patched."""
    mod, _, cls = path.partition(":")
    obj = importlib.import_module(mod)
    return getattr(obj, cls) if cls else obj


# (object path, attribute, span name, mode, count computed bytes)
IN_PROCESS_TARGETS = [
    # entry points of the spherical layer (also reached through each other)
    ("spherica.spherical", "spherical_eval", "spherical.spherical_eval", "span", False),
    ("spherica.spherical", "spherical_det", "spherical.spherical_det", "span", False),
    ("spherica.spherical", "spherical_series", "spherical.spherical_series", "span", False),
    ("spherica.spherical", "orbital_integral", "spherical.orbital_integral", "span", False),
    ("spherica.spherical", "heat_kernel", "spherical.heat_kernel", "span", False),
    # determinant route
    ("spherica.spherical", "_det_ratio", "spherical.det_ratio", "span", False),
    ("spherica.spherical", "_lu_full_pivot", "spherical.lu", "leaf", False),
    ("spherica.spherical", "_balanced_product", "spherical.balanced_product", "leaf", False),
    # series route
    ("spherica.spherical", "_schur_fourier_series", "spherical.schur_series", "span", False),
    ("spherica.spherical", "_series_tail_bound", "spherical.tail_bound", "leaf", False),
    # kernel scalars, as the spherical layer sees them
    ("spherica.spherical", "bessel_j0", "series.bessel_j0", "leaf", False),
    ("spherica.spherical", "bessel_i0", "series.bessel_i0", "leaf", False),
    ("spherica.spherical", "hyper_f", "series.hyper_f", "leaf", False),
    # symmetric functions, as the spherical layer sees them
    ("spherica.spherical", "complete_h_table", "symfunc.h_table", "leaf", False),
    ("spherica.spherical", "_jacobi_trudi_det", "symfunc.jacobi_trudi", "leaf", False),
    ("spherica.spherical", "_partition_tuples", "symfunc.partitions", "gen", False),
    # limits
    ("spherica.limits", "spherical_convergence", "limits.spherical_convergence", "span", False),
    ("spherica.limits", "spherical_series", "spherical.spherical_series", "span", False),
    ("spherica.limits", "mc_spherical", "montecarlo.mc_spherical", "span", False),
    ("spherica.limits", "polya_eval", "polya.polya_eval", "leaf", False),
    # Monte Carlo estimators and their stages
    ("spherica.montecarlo", "mc_spherical", "montecarlo.mc_spherical", "span", False),
    ("spherica.montecarlo", "mc_orbital_exp", "montecarlo.mc_orbital_exp", "span", False),
    ("spherica.montecarlo", "mc_biinvariant_avg", "montecarlo.mc_biinvariant_avg", "span", False),
    ("spherica.montecarlo", "_blocks", "montecarlo.blocks", "gen", False),
    ("spherica.montecarlo", "_haar_isometry_batch", "montecarlo.haar_batch", "span", False),
    ("spherica.montecarlo:RngStream", "uniforms", "montecarlo.uniforms", "leaf", True),
    ("spherica.montecarlo", "ndtri", "montecarlo.ndtri", "leaf", True),
    ("spherica.montecarlo", "_phi_omega_singvals", "montecarlo.phi_singvals", "leaf", True),
    ("numpy.linalg", "qr", "montecarlo.qr", "leaf", True),
    ("numpy.linalg", "svd", "montecarlo.svd", "leaf", True),
    ("numpy", "einsum", "montecarlo.einsum", "leaf", True),
]

# Extra names patched inside the CLI bootstrap child.
CLI_TARGETS = IN_PROCESS_TARGETS + [
    ("spherica.cli", "validate_all", "validate.validate_all", "span", False),
    ("spherica.cli", "polya_eval", "polya.polya_eval", "leaf", False),
    ("spherica.cli", "phi_omega", "polya.phi_omega", "leaf", False),
    ("spherica.cli", "mixture_eval", "polya.mixture_eval", "leaf", False),
    ("spherica.cli", "powersum_convergence", "limits.powersum_convergence", "span", False),
    ("spherica.cli", "weyl_concentration_sweep", "limits.weyl_concentration", "span", False),
    ("spherica.cli", "spherical_convergence", "limits.spherical_convergence", "span", False),
]


def install(rec: Recorder, targets):
    """Patch every target; returns a function that restores the originals."""
    saved = []
    try:
        for path, attr, name, mode, count_bytes in targets:
            obj = _resolve(path)
            original = getattr(obj, attr)
            saved.append((obj, attr, original))
            setattr(obj, attr, _wrap(rec, original, name, mode, count_bytes))
    except BaseException:
        _restore(saved)
        raise

    def restore():
        _restore(saved)

    return restore


def _restore(saved) -> None:
    for obj, attr, original in reversed(saved):
        setattr(obj, attr, original)


# ---------------------------------------------------------------------------
# Post-processing


def _union_ns(intervals) -> int:
    total = 0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict[int, int]:
    """span id -> duration minus the union of child intervals (clipped to the
    span) minus merged leaf time."""
    children: dict[int, list[tuple[int, int]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            children.setdefault(s.parent, []).append(
                (max(s.start, p.start), min(s.end, p.end))
            )
    out = {}
    for s in spans:
        covered = _union_ns([iv for iv in children.get(s.id, []) if iv[1] > iv[0]])
        leaf = sum(v[1] for v in s.agg.values())
        out[s.id] = (s.end - s.start) - covered - leaf
    return out


def layer_self_ms(spans) -> dict[str, float]:
    """Total self time per layer, spans and merged leaves together."""
    st = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + st[s.id] / 1e6
        for name, (count, ns, errors, nbytes) in s.agg.items():
            out[layer_of(name)] = out.get(layer_of(name), 0.0) + ns / 1e6
    return out


def layer_metrics(spans, n_ops: int) -> dict[str, float]:
    """Per-layer metrics from one traced pass; everything but the error
    counts and the ratios is per op."""
    st = self_times(spans)
    by_id = {s.id: s for s in spans}
    agg_count: dict[str, int] = {}
    agg_ms: dict[str, float] = {}
    agg_err: dict[str, int] = {}
    agg_bytes: dict[str, int] = {}
    items: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_err: dict[str, int] = {}
    doublings = useful = enumerated = samples = limit_points = 0
    for s in spans:
        self_ms[s.name] = self_ms.get(s.name, 0.0) + st[s.id] / 1e6
        calls[s.name] = calls.get(s.name, 0) + 1
        parent = by_id.get(s.parent)
        # an exception is counted once, where it leaves its layer
        if s.error and (parent is None or parent.layer != s.layer):
            layer_err[s.layer] = layer_err.get(s.layer, 0) + 1
        if parent is not None and parent.layer == "limits" and s.layer != "limits":
            limit_points += 1
        for name, (count, ns, errors, nbytes) in s.agg.items():
            agg_count[name] = agg_count.get(name, 0) + count
            agg_ms[name] = agg_ms.get(name, 0.0) + ns / 1e6
            agg_err[name] = agg_err.get(name, 0) + errors
            agg_bytes[name] = agg_bytes.get(name, 0) + nbytes
        for key, passes in s.counters.items():
            if key.endswith(".passes"):
                items[key[:-7]] = items.get(key[:-7], 0) + sum(passes)
        if s.name == "spherical.schur_series":
            doublings += max(0, s.agg.get("spherical.tail_bound", [0])[0] - 1)
            passes = s.counters.get("symfunc.partitions.passes", [])
            if passes:
                useful += passes[-1]
                enumerated += sum(passes)
        samples += s.counters.get("samples", 0)

    def per_op(v):
        return v / n_ops if n_ops else 0.0

    def counter_sum(key):
        return sum(s.counters.get(key, 0.0) for s in spans)

    duration_ms: dict[str, float] = {}
    for s in spans:
        duration_ms[s.name] = duration_ms.get(s.name, 0.0) + (s.end - s.start) / 1e6

    def prefixed(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    spherical_entries = ("spherical.spherical_eval", "spherical.spherical_det",
                         "spherical.spherical_series", "spherical.orbital_integral",
                         "spherical.heat_kernel")
    mc_entries = ("montecarlo.mc_spherical", "montecarlo.mc_orbital_exp",
                  "montecarlo.mc_biinvariant_avg")
    m = {
        "series.calls": per_op(prefixed(agg_count, "series.")),
        "series.self_ms": per_op(prefixed(agg_ms, "series.")),
        "series.errors": float(prefixed(agg_err, "series.")),
        "spherical.route_det": per_op(calls.get("spherical.det_ratio", 0)),
        "spherical.route_series": per_op(calls.get("spherical.schur_series", 0)),
        "spherical.lu_ms": per_op(agg_ms.get("spherical.lu", 0.0)),
        "spherical.ratio_ms": per_op(self_ms.get("spherical.det_ratio", 0.0)
                                     + agg_ms.get("spherical.balanced_product", 0.0)),
        "spherical.det_self_ms": per_op(sum(self_ms.get(k, 0.0) for k in spherical_entries)),
        "spherical.errors": float(layer_err.get("spherical", 0)
                                  + prefixed(agg_err, "spherical.")),
        "spherical.series_self_ms": per_op(self_ms.get("spherical.schur_series", 0.0)),
        "spherical.tail_bound_calls": per_op(agg_count.get("spherical.tail_bound", 0)),
        "spherical.tail_bound_ms": per_op(agg_ms.get("spherical.tail_bound", 0.0)),
        "spherical.weight_doublings": per_op(doublings),
        "spherical.series_useful_frac": useful / enumerated if enumerated else 0.0,
        "symfunc.partitions": per_op(items.get("symfunc.partitions", 0)),
        "symfunc.partition_enum_ms": per_op(agg_ms.get("symfunc.partitions", 0.0)),
        "symfunc.jt_calls": per_op(agg_count.get("symfunc.jacobi_trudi", 0)),
        "symfunc.jt_ms": per_op(agg_ms.get("symfunc.jacobi_trudi", 0.0)),
        "symfunc.h_table_ms": per_op(agg_ms.get("symfunc.h_table", 0.0)),
        "limits.points": per_op(limit_points),
        "limits.self_ms": per_op(prefixed(self_ms, "limits.")),
        "polya.calls": per_op(prefixed(agg_count, "polya.")),
        "polya.ms": per_op(prefixed(agg_ms, "polya.")),
        "montecarlo.blocks": per_op(items.get("montecarlo.blocks", 0)),
        "montecarlo.samples": per_op(samples),
        "montecarlo.uniforms_ms": per_op(agg_ms.get("montecarlo.uniforms", 0.0)),
        "montecarlo.ndtri_ms": per_op(agg_ms.get("montecarlo.ndtri", 0.0)),
        "montecarlo.qr_ms": per_op(agg_ms.get("montecarlo.qr", 0.0)),
        "montecarlo.phase_ms": per_op(self_ms.get("montecarlo.haar_batch", 0.0)),
        "montecarlo.contract_ms": per_op(agg_ms.get("montecarlo.einsum", 0.0)),
        "montecarlo.svd_ms": per_op(agg_ms.get("montecarlo.svd", 0.0)),
        "montecarlo.reduce_ms": per_op(sum(self_ms.get(k, 0.0) for k in mc_entries)
                                       + agg_ms.get("montecarlo.phi_singvals", 0.0)
                                       + agg_ms.get("montecarlo.blocks", 0.0)),
        "montecarlo.block_bytes_computed": per_op(prefixed(agg_bytes, "montecarlo.")),
        "montecarlo.errors": float(layer_err.get("montecarlo", 0)
                                   + prefixed(agg_err, "montecarlo.")),
        "validate.ms": per_op(prefixed(self_ms, "validate.")),
        "cli.interpreter_ms": per_op(counter_sum("cli.interpreter_ms")),
        "cli.import_ms": per_op(duration_ms.get("cli.import", 0.0)),
        "cli.import_scipy_ms": per_op(counter_sum("cli.import_scipy_ms")),
        "cli.main_ms": per_op(duration_ms.get("cli.main", 0.0)),
    }
    return m
