"""Span tracing installed around tenslab's public functions at run time.

Nothing under ``src/`` knows about tracing. ``Tracer.install`` replaces each
instrumented function, in every ``tenslab`` module namespace that holds it
(modules import names directly, e.g. ``tt._svd`` or ``cli.tt_svd``), by a
wrapper that records a span: its name, its parent span, start and end.
Some wrappers also record work counts read from the arguments or the
result. ``Tracer.uninstall`` puts the originals back.

``PER_LAYER`` turns the spans of one job into the per-layer metrics, and
``TARGETS`` says which end-to-end metric each of them should move, and on
which workload.
"""
from __future__ import annotations

import os
import sys
import time

# The module of each instrumented function, its name there, and its after-hook
# (see the _after_* functions below). The span is named "<module>.<function>".
INSTRUMENTED = [
    ("cli", "main", None),
    ("cli", "cmd_decompose", None),
    ("cli", "cmd_grid", None),
    ("cli", "cmd_error", None),
    ("cli", "cmd_reconstruct", None),
    ("io", "read_dense", "_after_read"),
    ("io", "read_cp", "_after_read"),
    ("io", "read_tucker", "_after_read"),
    ("io", "read_tt", "_after_read"),
    ("io", "read_decomposition", "_after_read"),
    ("io", "read_poly", "_after_read"),
    ("io", "read_meshes", "_after_read"),
    ("io", "write_dense", "_after_write"),
    ("io", "write_cp", "_after_write"),
    ("io", "write_tucker", "_after_write"),
    ("io", "write_tt", "_after_write"),
    ("cp", "cp_als", "_after_cp_als"),
    ("cp", "best_rank_one", None),
    ("contract", "contract", None),
    ("linalg", "svd", "_after_svd"),
    ("linalg", "svd_to_tolerance", None),
    ("linalg", "pseudo_inverse", "_after_pseudo_inverse"),
    ("linalg", "khatri_rao", None),
    ("linalg", "cp_product", "_after_entries"),
    ("tucker", "hosvd", "_after_tucker"),
    ("tucker", "hooi", "_after_tucker"),
    ("tucker", "multilinear_apply", None),
    ("tt", "tt_svd", None),
    ("tt", "tt_reconstruct", "_after_entries"),
    ("tt", "tt_round", None),
    ("tt", "tt_hadamard", None),
    ("tt", "tt_add", None),
    ("tt", "tt_partition", None),
    ("tt", "tt_marginal", None),
    ("tt", "tt_entry", None),
    ("funcgrid", "discretize", None),
    ("funcgrid", "poly_discretize_cp", None),
    ("funcgrid", "cheb_project", None),
    ("funcgrid", "cheb_reconstruct", None),
    ("dense", "matricize", None),
    ("dense", "norm", None),
]

CLI = {"cli.main", "cli.cmd_decompose", "cli.cmd_grid", "cli.cmd_error", "cli.cmd_reconstruct"}
READS = {f"io.{n}" for m, n, _ in INSTRUMENTED if m == "io" and n.startswith("read")}
WRITES = {f"io.{n}" for m, n, _ in INSTRUMENTED if m == "io" and n.startswith("write")}


def svd_flops(m: int, n: int) -> int:
    """Flops of a thin SVD computing U1, S and V of an m x n matrix.

    R-SVD count 6*M*N**2 + 20*N**3 with M = max(m, n), N = min(m, n)
    (Golub & Van Loan, Matrix Computations, 3rd ed., sec. 5.4.5).
    """
    big, small = max(m, n), min(m, n)
    return 6 * big * small * small + 20 * small ** 3


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "evaluations", "counts", "svds")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.counts: dict[str, float] = {}
        self.svds: list[Span] = []      # direct linalg.svd children

    @property
    def duration(self) -> float:
        return self.end - self.start

    def inside(self, names) -> bool:
        """Whether an ancestor of this span has one of ``names``."""
        span = self.parent
        while span is not None:
            if span.name in names:
                return True
            span = span.parent
        return False


class Tracer:
    """Records the spans of the current job; one tracer per traced phase."""

    def __init__(self):
        self.spans: list[Span] = []
        self.evaluations = 0            # Python-level function evaluations so far
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    # -- installation ------------------------------------------------------

    def install(self, package, counted_callables=()) -> None:
        """Wrap every instrumented function of the imported ``package``.

        ``counted_callables`` are ``(owner, attribute)`` pairs naming the
        benchmark's own callables whose calls count as evaluations, like
        calls to ``MonomialPoly.__call__``.
        """
        prefix = package.__name__
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == prefix or name.startswith(prefix + "."))]
        for mod_name, attr, after in INSTRUMENTED:
            original = getattr(sys.modules[f"{prefix}.{mod_name}"], attr)
            hook = getattr(self, after) if after else None
            wrapper = self._span_wrapper(f"{mod_name}.{attr}", original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        linalg = sys.modules[f"{prefix}.linalg"]
        self._rank_cutoff = linalg.RANK_CUTOFF
        svd_result = linalg.SVDResult
        self._patch(svd_result, "truncate", self._truncate_wrapper(svd_result.truncate))
        poly = sys.modules[f"{prefix}.funcgrid"].MonomialPoly
        self._patch(poly, "__call__", self._counting_wrapper(poly.__call__))
        for owner, attr in counted_callables:
            self._patch(owner, attr, self._counting_wrapper(getattr(owner, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _span_wrapper(self, name: str, fn, after):
        perf_counter = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span = Span(name, parent)
            tracer.spans.append(span)
            stack.append(span)
            evaluations = tracer.evaluations
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                span.evaluations = tracer.evaluations - evaluations
                if parent is not None:
                    parent.child_s += span.end - span.start
            if after is not None:
                after(span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_wrapper(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.evaluations += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _truncate_wrapper(fn):
        def truncate(result, r):
            span = getattr(result, "_traced_svd_span", None)
            if span is not None:
                span.counts["kept"] = int(r)
            return fn(result, r)

        truncate.__wrapped__ = fn
        return truncate

    # -- after-hooks: work counts -------------------------------------------

    @staticmethod
    def _after_read(span, args, kwargs, result):
        span.counts["bytes"] = os.path.getsize(args[0] if args else kwargs["path"])

    @staticmethod
    def _after_write(span, args, kwargs, result):
        span.counts["bytes"] = os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])

    @staticmethod
    def _after_cp_als(span, args, kwargs, result):
        span.counts["sweeps"] = len(result[1].per_sweep)

    @staticmethod
    def _after_entries(span, args, kwargs, result):
        span.counts["entries"] = int(result.data.size)

    @staticmethod
    def _after_svd(span, args, kwargs, result):
        m, n = result.U.shape[0], result.V.shape[0]
        span.counts.update(elements=m * n, flops=svd_flops(m, n), full_rank=min(m, n))
        span.counts["singular_values"] = result.singular_values
        if span.parent is not None:
            span.parent.svds.append(span)
        # the caller's SVDResult.truncate(r) records the rank it keeps
        result._traced_svd_span = span

    @staticmethod
    def _after_tucker(span, args, kwargs, result):
        # hosvd and hooi slice V[:, :r] instead of calling truncate; their
        # direct SVDs cycle through the modes in order
        ranks = list(args[1] if len(args) > 1 else kwargs["ranks"])
        for i, svd in enumerate(span.svds):
            svd.counts.setdefault("kept", ranks[i % len(ranks)])

    def _after_pseudo_inverse(self, span, args, kwargs, result):
        cutoff = args[1] if len(args) > 1 else kwargs.get("rank_cutoff", self._rank_cutoff)
        for svd in span.svds:
            s = svd.counts["singular_values"]
            svd.counts["kept"] = int((s > cutoff * s[0]).sum()) if len(s) and s[0] > 0 else 0


# -- per-layer metrics of one job -------------------------------------------

def _busy(spans, names) -> float:
    """Seconds spent in spans named ``names``, nested ones counted once."""
    return sum(s.duration for s in spans if s.name in names and not s.inside(names))


def _calls(spans, name) -> int:
    return sum(1 for s in spans if s.name == name)


def _self(spans, names) -> float:
    return sum(s.duration - s.child_s for s in spans if s.name in names)


def _count(spans, names, key) -> float:
    return sum(s.counts.get(key, 0) for s in spans if s.name in names and not s.inside(names))


def _kept_ratio(spans) -> float:
    svds = [s for s in spans if s.name == "linalg.svd"]
    full = sum(s.counts["full_rank"] for s in svds)
    kept = sum(s.counts.get("kept", s.counts["full_rank"]) for s in svds)
    return kept / full if full else 0.0


def _evaluations(spans, name) -> int:
    return sum(s.evaluations for s in spans if s.name == name and not s.inside({name}))


# (name, unit, better, function of the job's spans)
PER_LAYER = [
    ("cli.decompose.s", "s", "lower", lambda sp: _busy(sp, {"cli.cmd_decompose"})),
    ("cli.grid.s", "s", "lower", lambda sp: _busy(sp, {"cli.cmd_grid"})),
    ("cli.error.s", "s", "lower", lambda sp: _busy(sp, {"cli.cmd_error"})),
    ("cli.reconstruct.s", "s", "lower", lambda sp: _busy(sp, {"cli.cmd_reconstruct"})),
    ("cli.self_s", "s", "lower", lambda sp: _self(sp, CLI)),
    ("io.read.s", "s", "lower", lambda sp: _busy(sp, READS)),
    ("io.read.bytes", "B", "lower", lambda sp: _count(sp, READS, "bytes")),
    ("io.write.s", "s", "lower", lambda sp: _busy(sp, WRITES)),
    ("io.write.bytes", "B", "lower", lambda sp: _count(sp, WRITES, "bytes")),
    ("cp.cp_als.s", "s", "lower", lambda sp: _busy(sp, {"cp.cp_als"})),
    ("cp.cp_als.sweeps", "count", "lower", lambda sp: _count(sp, {"cp.cp_als"}, "sweeps")),
    ("cp.best_rank_one.s", "s", "lower", lambda sp: _busy(sp, {"cp.best_rank_one"})),
    ("contract.contract.calls", "count", "lower", lambda sp: _calls(sp, "contract.contract")),
    ("contract.contract.s", "s", "lower", lambda sp: _busy(sp, {"contract.contract"})),
    ("linalg.khatri_rao.calls", "count", "lower", lambda sp: _calls(sp, "linalg.khatri_rao")),
    ("linalg.khatri_rao.s", "s", "lower", lambda sp: _busy(sp, {"linalg.khatri_rao"})),
    ("linalg.cp_product.calls", "count", "lower", lambda sp: _calls(sp, "linalg.cp_product")),
    ("linalg.cp_product.entries", "count", "lower",
     lambda sp: _count(sp, {"linalg.cp_product"}, "entries")),
    ("linalg.cp_product.s", "s", "lower", lambda sp: _busy(sp, {"linalg.cp_product"})),
    ("linalg.pseudo_inverse.calls", "count", "lower",
     lambda sp: _calls(sp, "linalg.pseudo_inverse")),
    ("linalg.svd.calls", "count", "lower", lambda sp: _calls(sp, "linalg.svd")),
    ("linalg.svd.s", "s", "lower", lambda sp: _busy(sp, {"linalg.svd"})),
    ("linalg.svd.elements", "count", "lower", lambda sp: _count(sp, {"linalg.svd"}, "elements")),
    ("linalg.svd.flops", "flop", "lower", lambda sp: _count(sp, {"linalg.svd"}, "flops")),
    ("linalg.svd.kept_ratio", "ratio", "higher", _kept_ratio),
    ("linalg.svd_to_tolerance.s", "s", "lower", lambda sp: _busy(sp, {"linalg.svd_to_tolerance"})),
    ("tucker.hosvd.s", "s", "lower", lambda sp: _busy(sp, {"tucker.hosvd"})),
    ("tucker.hooi.s", "s", "lower", lambda sp: _busy(sp, {"tucker.hooi"})),
    ("tucker.multilinear_apply.calls", "count", "lower",
     lambda sp: _calls(sp, "tucker.multilinear_apply")),
    ("tucker.multilinear_apply.s", "s", "lower",
     lambda sp: _busy(sp, {"tucker.multilinear_apply"})),
    ("tt.tt_svd.s", "s", "lower", lambda sp: _busy(sp, {"tt.tt_svd"})),
    ("tt.tt_reconstruct.s", "s", "lower", lambda sp: _busy(sp, {"tt.tt_reconstruct"})),
    ("tt.tt_reconstruct.entries", "count", "lower",
     lambda sp: _count(sp, {"tt.tt_reconstruct"}, "entries")),
    ("tt.tt_round.s", "s", "lower", lambda sp: _busy(sp, {"tt.tt_round"})),
    ("tt.tt_round.self_s", "s", "lower", lambda sp: _self(sp, {"tt.tt_round"})),
    ("tt.tt_hadamard.s", "s", "lower", lambda sp: _busy(sp, {"tt.tt_hadamard"})),
    ("tt.tt_add.s", "s", "lower", lambda sp: _busy(sp, {"tt.tt_add"})),
    ("tt.tt_partition.s", "s", "lower", lambda sp: _busy(sp, {"tt.tt_partition"})),
    ("tt.tt_marginal.s", "s", "lower", lambda sp: _busy(sp, {"tt.tt_marginal"})),
    ("tt.tt_entry.s", "s", "lower", lambda sp: _busy(sp, {"tt.tt_entry"})),
    ("funcgrid.discretize.s", "s", "lower", lambda sp: _busy(sp, {"funcgrid.discretize"})),
    ("funcgrid.discretize.f_calls", "count", "lower",
     lambda sp: _evaluations(sp, "funcgrid.discretize")),
    ("funcgrid.poly_discretize_cp.s", "s", "lower",
     lambda sp: _busy(sp, {"funcgrid.poly_discretize_cp"})),
    ("funcgrid.cheb_project.s", "s", "lower", lambda sp: _busy(sp, {"funcgrid.cheb_project"})),
    ("funcgrid.cheb_reconstruct.s", "s", "lower",
     lambda sp: _busy(sp, {"funcgrid.cheb_reconstruct"})),
    ("dense.matricize.calls", "count", "lower", lambda sp: _calls(sp, "dense.matricize")),
    ("dense.matricize.s", "s", "lower", lambda sp: _busy(sp, {"dense.matricize"})),
    ("dense.norm.calls", "count", "lower", lambda sp: _calls(sp, "dense.norm")),
    ("dense.norm.s", "s", "lower", lambda sp: _busy(sp, {"dense.norm"})),
]

# Counts computed from shapes and results, not timed: they must repeat exactly
# between two traced passes over the same jobs.
COMPUTED = [
    "linalg.svd.elements",
    "linalg.svd.flops",
    "linalg.svd.kept_ratio",
    "linalg.cp_product.entries",
    "tt.tt_reconstruct.entries",
    "funcgrid.discretize.f_calls",
    "cp.cp_als.sweeps",
]

# Metrics the traced run adds beside PER_LAYER.
TRACE_METRICS = [
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
]

# Which end-to-end metric each per-layer metric should move, on which workload.
TARGETS = {
    "cli.": "job_p50_s on tt-compress and cp-fit; instrumentation inside the program "
            "must leave it flat",
    "io.": "job_p50_s and peak_rss_mib on tt-compress; funcgrid is the write side",
    "cp.": "job_p50_s on cp-fit",
    "contract.": "job_p50_s on cp-fit",
    "linalg.khatri_rao": "job_p50_s and peak_rss_mib on cp-fit",
    "linalg.cp_product": "job_p50_s and peak_rss_mib on cp-fit",
    "linalg.pseudo_inverse": "job_p50_s and peak_rss_mib on cp-fit",
    "linalg.svd": "job_p50_s on tt-compress; must not worsen on tt-arith",
    "tucker.": "job_p50_s on tt-compress",
    "tt.tt_svd": "job_p50_s and peak_rss_mib on tt-compress",
    "tt.tt_reconstruct": "job_p50_s and peak_rss_mib on tt-compress",
    "tt.": "job_p50_s on tt-arith",
    "funcgrid.": "job_p50_s on funcgrid",
    "dense.": "job_p50_s on cp-fit and tt-compress",
    "trace.": "none: tracing cost and the share of the job its top-level spans cover",
}


def job_layers(spans, job_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced job, plus its top-level span coverage."""
    out = {name: float(fn(spans)) for name, _, _, fn in PER_LAYER}
    top = sum(s.duration for s in spans if s.parent is None)
    out["trace.coverage"] = top / job_s if job_s > 0 else 0.0
    return out
