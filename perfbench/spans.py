"""Spans around the program's layer boundaries, recorded from outside it.

Every call from one module of ``arch_resonance`` into another goes through a
module attribute (``kernel.det_sign_logmag``, ``solver.find_frequencies``,
``cli.load_presets``), and so do a module's calls to its own public functions
(``cli.main`` calls ``parse`` and ``run``). Replacing those attributes with
recording wrappers therefore reaches internal calls without editing the
program. Classes and their methods are not wrapped; their time counts
towards the span that calls them.

A span records its name, start, end and parent. Spans stay in memory, in flat
arrays, until the pass ends; all per-layer metrics are derived from them:
a layer's self time is its span's duration minus the durations of its child
spans, and work counts such as determinant evaluations per solve are spans
counted under an ancestor span.
"""

from __future__ import annotations

import functools
import inspect
import json
from array import array
from pathlib import Path
from time import perf_counter as clock

import numpy as np

LAYERS = ("cli", "sweep", "solver", "kernel", "model", "crack")

# Per-evaluation glue between solver and kernel, whose work is all in the
# kernel spans below it (wrapping it would double the span count of a scan),
# and the parser construction, which is part of cli.parse's time.
UNWRAPPED = frozenset(
    {"solver.boundary_matrix", "solver.boundary_determinant", "cli.build_parser"}
)


class Tracer:
    """Installs recording wrappers on the public functions of each layer."""

    def __init__(self, package):
        self._modules = {layer: getattr(package, layer) for layer in LAYERS}
        self._originals: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for layer, module in self._modules.items():
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in UNWRAPPED
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                self._originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def take(self) -> "Spans":
        """Spans recorded since the last call, as arrays; the buffers are emptied."""
        if len(self._stack) != 1:
            raise RuntimeError("spans taken while a traced call is still open")
        spans = Spans(
            names=list(self.names),
            name=np.array(self._name, dtype=np.int32),
            parent=np.array(self._parent, dtype=np.int32),
            start=np.array(self._start, dtype=np.float64),
            end=np.array(self._end, dtype=np.float64),
        )
        # In place: the installed wrappers hold these buffers.
        for buf in (self._name, self._parent, self._start, self._end):
            del buf[:]
        return spans


class Spans:
    """One traced pass: flat arrays indexed by span, parents before children."""

    def __init__(self, names, name, parent, start, end):
        self.names = names
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end

    def __len__(self) -> int:
        return len(self.name)

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def self_times(self) -> np.ndarray:
        dur = self.end - self.start
        has_parent = self.parent >= 0
        children = np.bincount(
            self.parent[has_parent], weights=dur[has_parent], minlength=len(self)
        )
        return dur - children

    def within(self, ancestor: str) -> np.ndarray:
        """Spans that have a span named ``ancestor`` above them."""
        inside = np.zeros(len(self), dtype=bool)
        if ancestor not in self.names:
            return inside
        aid = self.names.index(ancestor)
        idx = np.nonzero(self.parent >= 0)[0]
        anc = self.parent[idx]
        while len(idx):
            inside[idx] |= self.name[anc] == aid
            up = self.parent[anc]
            live = up >= 0
            idx, anc = idx[live], up[live]
        return inside

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name=self.name,
            parent=self.parent,
            start=self.start,
            end=self.end,
        )


def layer_metrics(spans: Spans) -> dict[str, tuple[float, str, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit, base)."""
    own = spans.self_times()
    det = spans.mask("kernel.det_sign_logmag")
    in_solve = spans.within("solver.find_frequencies")

    def calls(*names: str) -> int:
        return int(spans.mask(*names).sum())

    def self_s(*names: str) -> float:
        return float(own[spans.mask(*names)].sum())

    solves = calls("solver.find_frequencies")
    solve_evals = int((det & in_solve).sum())
    brackets = int((spans.mask("solver.refine_root") & in_solve).sum())
    roots = int((spans.mask("kernel.null_vector") & in_solve).sum())
    model_names = [n for n in spans.names if n.startswith("model.")]
    pass_ = "per pass"
    out: dict[str, tuple[float, str, str]] = {}
    for name, members in (
        ("kernel.det_sign_logmag", ("kernel.det_sign_logmag",)),
        ("kernel.basis", ("kernel.characteristic_coefficients", "kernel.quartic_roots")),
        ("kernel.assemble_uncracked", ("kernel.assemble_uncracked",)),
        ("kernel.assemble_cracked", ("kernel.assemble_cracked",)),
        ("kernel.null_vector", ("kernel.null_vector",)),
        ("solver.refine_root", ("solver.refine_root",)),
        ("solver.mode_shape", ("solver.mode_shape",)),
        ("cli.parse", ("cli.parse",)),
        ("cli.load_presets", ("cli.load_presets",)),
    ):
        out[f"{name}.calls"] = (calls(*members), "count", pass_)
        out[f"{name}.self_s"] = (self_s(*members), "s", pass_)
    for name in (
        "solver.scan_and_bracket",
        "sweep.run_sweep",
        "sweep.rows_to_csv",
        "sweep.validation_table",
        "cli.run",
    ):
        out[f"{name}.self_s"] = (self_s(name), "s", pass_)
    out["model.self_s"] = (self_s(*model_names), "s", "per pass, all model functions")
    out["crack.compliance.calls"] = (calls("crack.compliance"), "count", pass_)
    for name, ancestor in (
        ("solver.scan.det_evals", "solver.scan_and_bracket"),
        ("solver.refine.det_evals", "solver.refine_root"),
        ("solver.mode_shape.det_evals", "solver.mode_shape"),
    ):
        n = int((det & spans.within(ancestor)).sum())
        out[name] = (n, "count", f"per pass, evaluations inside {ancestor}")
    out["solver.find_frequencies.calls"] = (solves, "count", pass_)
    out["solver.det_evals_per_solve"] = (
        solve_evals / solves if solves else 0.0,
        "evals/solve",
        f"{solve_evals} evaluations / {solves} solves",
    )
    out["solver.refine.brackets"] = (brackets, "count", "per pass, refined inside a solve")
    out["solver.refine.roots"] = (roots, "count", "per pass, returned by a solve")
    out["solver.refine.useful_ratio"] = (
        roots / brackets if brackets else 0.0,
        "1",
        f"{roots} roots returned / {brackets} brackets refined",
    )
    out["trace.spans"] = (len(spans), "count", pass_)
    return out
