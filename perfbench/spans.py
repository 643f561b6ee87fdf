"""Span tracing for the traced benchmark run.

The tracer replaces, from outside the program, the public entry points of
each trigrad layer as the calling module sees them (for example
``trigrad.cube.realize``, which is what ``build_cube`` calls).  Every call
made while recording is kept in memory as a span (name, parent id, start,
end); counters are taken from the call's arguments and result at the same
boundary.  Nothing is written until the run ends.

A hook whose target no longer exists (a refactor renamed or merged it) is
recorded as missing; the metrics that depend on it are then left out of the
report instead of failing the run.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import trigrad.algebra
import trigrad.cube
import trigrad.homfly
import trigrad.homology


def _bits(vec) -> int:
    return max((abs(v).bit_length() for v in vec.values()), default=0)


# -- counter hooks: (tracer, args, kwargs, result) -> None -------------------


def _on_exclude_all(tr, args, kwargs, out):
    tr.count["koszul.excluded_vars"] += len(out[1])


def _on_realize(tr, args, kwargs, out):
    tr.count["factor_complex.generators"] += len(out.gens)


def _on_simplify(tr, args, kwargs, out):
    if out[0].rank() < args[0].rank():
        tr.count["factor_complex.simplify_useful"] += 1


def _on_build_cube(tr, args, kwargs, out):
    tr.count["cube.vertices"] += len(out.vertices)
    tr.count["cube.edges"] += len(out.edges)


def _on_slice_basis(tr, args, kwargs, out):
    tr.count["homology.slice_elems"] += out.dim


def _on_vertex_slice(tr, args, kwargs, out):
    dim = out if isinstance(out, int) else out.dim
    if dim:
        tr.count["homology.slices_nonzero"] += 1


def _on_kernel_and_rank(tr, args, kwargs, out):
    # without a kernel the elimination runs through Echelon.insert, which
    # counts its own pivots
    rank, kernel = out
    want_kernel = kwargs.get("want_kernel", args[1] if len(args) > 1 else True)
    if want_kernel:
        tr.count["homology.pivots"] += rank
    for vec in kernel:
        tr.maxima["homology.max_coeff_bits"] = max(
            tr.maxima["homology.max_coeff_bits"], _bits(vec)
        )


def _on_echelon_insert(tr, args, kwargs, out):
    if out:
        tr.count["homology.pivots"] += 1
        tr.maxima["homology.max_coeff_bits"] = max(
            tr.maxima["homology.max_coeff_bits"], _bits(args[0].pivots[-1][1])
        )


def _on_hecke(tr, args, kwargs, out):
    tr.count["homfly.hecke_terms"] += len(out.coeffs)


def _on_homfly_F(tr, args, kwargs, out):
    tr.count["homfly.F_num_terms"] += len(out.num.terms)
    tr.count["homfly.F_den_terms"] += len(out.den.terms)


# (owner, attribute, span name, counter hook); the owner is the module (or
# class) whose attribute the caller looks up at call time
HOOKS = [
    (trigrad.cube, "build_cube", "cube.build", _on_build_cube),
    (trigrad.cube, "exclude_all", "koszul.exclude_all", _on_exclude_all),
    (trigrad.cube, "realize", "factor_complex.realize", _on_realize),
    (trigrad.cube, "simplify", "factor_complex.simplify", _on_simplify),
    (trigrad.cube, "link_homology", "homology.link", None),
    (trigrad.homology, "exclude_all", "koszul.exclude_all", _on_exclude_all),
    (trigrad.homology, "realize", "factor_complex.realize", _on_realize),
    (trigrad.homology, "matrix_homology", "homology.matrix_homology", None),
    (trigrad.homology, "_link_homology_slice", "homology.cube_slice", None),
    (trigrad.homology, "_gated_homology_basis", "homology.vertex_slice",
     _on_vertex_slice),
    (trigrad.homology, "slice_homology_basis", "homology.vertex_slice",
     _on_vertex_slice),
    (trigrad.homology, "slice_homology_dim", "homology.vertex_slice",
     _on_vertex_slice),
    (trigrad.homology, "slice_basis", "homology.slice_basis", _on_slice_basis),
    (trigrad.homology, "kernel_and_rank", "homology.elim",
     _on_kernel_and_rank),
    (getattr(trigrad.homology, "Echelon", None), "insert", "homology.elim",
     _on_echelon_insert),
    (trigrad.homology, "induced_map", "homology.induced_map", None),
    (trigrad.homfly, "homfly_F", "homfly.F", _on_homfly_F),
    (trigrad.homfly, "hecke_of_braid", "homfly.hecke", _on_hecke),
    (trigrad.homfly, "ocneanu_trace", "homfly.trace", None),
    (trigrad.algebra, "qt_expand", "algebra.qt_expand", None),
]

# span names each reported metric is derived from; a metric is absent when
# one of the hooks recording those spans is missing
METRIC_SPANS = {
    "koszul.exclude_all_s": ["koszul.exclude_all"],
    "koszul.exclude_all_calls": ["koszul.exclude_all"],
    "koszul.excluded_vars": ["koszul.exclude_all"],
    "factor_complex.realize_s": ["factor_complex.realize"],
    "factor_complex.realize_calls": ["factor_complex.realize"],
    "factor_complex.generators": ["factor_complex.realize"],
    "factor_complex.simplify_s": ["factor_complex.simplify"],
    "factor_complex.simplify_useful_ratio": ["factor_complex.simplify"],
    "cube.build_s": ["cube.build"],
    "cube.self_s": ["cube.build", "koszul.exclude_all",
                    "factor_complex.realize", "factor_complex.simplify"],
    "cube.vertices": ["cube.build"],
    "cube.edges": ["cube.build"],
    "homology.link_s": ["homology.link"],
    "homology.self_s": ["homology.link", "homology.cube_slice"],
    "homology.slice_basis_s": ["homology.slice_basis"],
    "homology.slice_elems": ["homology.slice_basis"],
    "homology.elim_s": ["homology.elim"],
    "homology.elim_calls": ["homology.elim"],
    "homology.pivots": ["homology.elim"],
    "homology.max_coeff_bits": ["homology.elim"],
    "homology.induced_map_s": ["homology.induced_map"],
    "homology.induced_map_calls": ["homology.induced_map"],
    "homology.cube_rank_s": ["homology.elim", "homology.cube_slice"],
    "homology.slices_visited": ["homology.vertex_slice"],
    "homology.slices_nonzero": ["homology.vertex_slice"],
    "homology.useful_ratio": ["homology.vertex_slice"],
    "homology.matrix_homology_s": ["homology.matrix_homology"],
    "homfly.F_s": ["homfly.F"],
    "homfly.hecke_s": ["homfly.hecke"],
    "homfly.trace_s": ["homfly.trace"],
    "homfly.hecke_terms": ["homfly.hecke"],
    "homfly.F_num_terms": ["homfly.F"],
    "homfly.F_den_terms": ["homfly.F"],
    "algebra.qt_expand_s": ["algebra.qt_expand"],
}

# metrics that must repeat exactly for a given seed
COUNTERS = [
    "cube.vertices",
    "cube.edges",
    "factor_complex.generators",
    "homology.slices_visited",
    "homology.slices_nonzero",
    "homology.pivots",
    "homology.max_coeff_bits",
    "homfly.F_num_terms",
    "homfly.F_den_terms",
]


class Tracer:
    """Records spans while ``recording`` is set; calls pass straight through
    otherwise, so the exact checks after each job stay out of the trace."""

    def __init__(self):
        self.spans: list = []  # [name, parent id, start, end]
        self.stack: list[int] = []
        self.count: Counter = Counter()
        self.maxima: Counter = Counter()
        self.recording = False
        self.missing: set[str] = set()
        self.broken: set[str] = set()
        self._restore: list = []

    def install(self) -> None:
        for owner, attr, name, hook in HOOKS:
            target = getattr(owner, attr, None) if owner is not None else None
            if target is None:
                self.missing.add(name)
                continue
            setattr(owner, attr, self._wrap(target, name, hook))
            self._restore.append((owner, attr, target))

    def uninstall(self) -> None:
        for owner, attr, target in reversed(self._restore):
            setattr(owner, attr, target)
        self._restore.clear()

    def _wrap(self, target, name, hook):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if not self.recording:
                return target(*args, **kwargs)
            if stack and spans[stack[-1]][0] == name:
                # a layer calling itself (Echelon.insert inside
                # kernel_and_rank) is one span; only the counters see it
                out = target(*args, **kwargs)
            else:
                sid = len(spans)
                span = [name, stack[-1] if stack else -1, perf_counter(), None]
                spans.append(span)
                stack.append(sid)
                try:
                    out = target(*args, **kwargs)
                finally:
                    span[3] = perf_counter()
                    stack.pop()
            if hook is not None and name not in self.broken:
                try:
                    hook(self, args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError,
                        ValueError):
                    # the entry point changed shape; drop its counters
                    self.broken.add(name)
            return out

        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (the root span of a job)."""
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        span = [name, parent, perf_counter(), None]
        self.spans.append(span)
        self.stack.append(sid)
        try:
            yield
        finally:
            span[3] = perf_counter()
            self.stack.pop()

    # -- aggregation ---------------------------------------------------------

    def _names(self) -> list[str]:
        return [s[0] for s in self.spans]

    def metrics(self) -> dict[str, float]:
        spans = self.spans
        names = self._names()
        dur = [s[3] - s[2] for s in spans]
        total: Counter = Counter()
        calls: Counter = Counter()
        child_time = [0.0] * len(spans)
        cube_rank = 0.0
        for i, (name, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += dur[i]
            total[name] += dur[i]
            calls[name] += 1
            if name == "homology.elim" and parent >= 0 and (
                names[parent] == "homology.cube_slice"
            ):
                cube_rank += dur[i]
        self_time: Counter = Counter()
        for i, name in enumerate(names):
            self_time[name] += dur[i] - child_time[i]

        c = self.count

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "koszul.exclude_all_s": total["koszul.exclude_all"],
            "koszul.exclude_all_calls": calls["koszul.exclude_all"],
            "koszul.excluded_vars": c["koszul.excluded_vars"],
            "factor_complex.realize_s": total["factor_complex.realize"],
            "factor_complex.realize_calls": calls["factor_complex.realize"],
            "factor_complex.generators": c["factor_complex.generators"],
            "factor_complex.simplify_s": total["factor_complex.simplify"],
            "factor_complex.simplify_useful_ratio": ratio(
                c["factor_complex.simplify_useful"],
                calls["factor_complex.simplify"],
            ),
            "cube.build_s": total["cube.build"],
            "cube.self_s": self_time["cube.build"],
            "cube.vertices": c["cube.vertices"],
            "cube.edges": c["cube.edges"],
            "homology.link_s": total["homology.link"],
            "homology.self_s": self_time["homology.link"]
            + self_time["homology.cube_slice"],
            "homology.slice_basis_s": total["homology.slice_basis"],
            "homology.slice_elems": c["homology.slice_elems"],
            "homology.elim_s": total["homology.elim"],
            "homology.elim_calls": calls["homology.elim"],
            "homology.pivots": c["homology.pivots"],
            "homology.max_coeff_bits": self.maxima["homology.max_coeff_bits"],
            "homology.induced_map_s": total["homology.induced_map"],
            "homology.induced_map_calls": calls["homology.induced_map"],
            "homology.cube_rank_s": cube_rank,
            "homology.slices_visited": calls["homology.vertex_slice"],
            "homology.slices_nonzero": c["homology.slices_nonzero"],
            "homology.useful_ratio": ratio(
                c["homology.slices_nonzero"], calls["homology.vertex_slice"]
            ),
            "homology.matrix_homology_s": total["homology.matrix_homology"],
            "homfly.F_s": total["homfly.F"],
            "homfly.hecke_s": total["homfly.hecke"],
            "homfly.trace_s": total["homfly.trace"],
            "homfly.hecke_terms": c["homfly.hecke_terms"],
            "homfly.F_num_terms": c["homfly.F_num_terms"],
            "homfly.F_den_terms": c["homfly.F_den_terms"],
            "algebra.qt_expand_s": total["algebra.qt_expand"],
        }
        gone = self.missing | self.broken
        return {
            k: v for k, v in out.items()
            if not gone.intersection(METRIC_SPANS[k])
        }

    def span_names(self) -> set[str]:
        return set(self._names())

    def write(self, path: str) -> None:
        """Spans as JSON lines [id, name, parent, start, end], gzipped."""
        with gzip.open(path, "wt") as fh:
            for i, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps([i, name, parent, t0, t1]) + "\n")
