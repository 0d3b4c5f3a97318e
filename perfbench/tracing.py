"""Span tracing of mhdfem from outside the package.

The tracer records one span per call of a public mhdfem function: its
name, start, end and the span that was open when it began.  It is installed
by rebinding module attributes for the duration of a `with` block, in the
defining module and in every mhdfem module that imported the same object,
so the package itself carries no instrumentation.

`linalg.splu`, the SuperLU entry point bound inside mhdfem.linalg, is
traced too: its span records the size and nnz of the factorised system, and
the LU object it returns counts its triangular solves.  `assembly.assemble`
spans record the form's tag, which separates the cross-coupling and
convection blocks.
"""

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

MODULES = ("mesh", "derham", "assembly", "linalg", "operators", "solvers",
           "harness")

# public methods traced alongside the module-level functions
_METHODS = (("operators", "DiscreteOps", "__init__", "operators.DiscreteOps"),
            ("harness", "ManufacturedCase", "data", "harness.case_data"))


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """In-memory span and counter store for one traced call."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self._open: list[int] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(name, self.clock(), 0.0, parent,
                        attrs(*args, **kwargs) if attrs else {})
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._open.pop()

        return traced


class _CountingLU:
    """SuperLU proxy that counts triangular solves."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        self._tracer.count("linalg.triangular_solves")
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _form_tag(form, *args, **kwargs):
    return {"tag": form.tag}


def _traced_splu(tracer, splu):
    largest = {"n": -1}

    def factor(a, *args, **kwargs):
        n = a.shape[0]
        span = tracer.spans[tracer._open[-1]]
        span.attrs.update(n=n, nnz=a.nnz)
        lu = splu(a, *args, **kwargs)
        if n > largest["n"]:
            # L and U are materialised copies, so read them once per size
            largest["n"] = n
            span.attrs["lu_nnz"] = lu.L.nnz + lu.U.nnz
        return _CountingLU(lu, tracer)

    return tracer.wrap("linalg.splu", factor)


@contextmanager
def instrument(tracer: Tracer):
    """Trace every public mhdfem function while the block runs."""
    modules = {name: importlib.import_module(f"mhdfem.{name}")
               for name in MODULES}
    wrappers = {}
    for modname, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            attrs = _form_tag if (modname, attr) == ("assembly",
                                                     "assemble") else None
            wrappers[obj] = tracer.wrap(f"{modname}.{attr}", obj, attrs)

    # (owner, attribute, original, replacement)
    patches = [(mod, attr, obj, wrappers[obj])
               for mod in modules.values()
               for attr, obj in vars(mod).items()
               if inspect.isfunction(obj) and obj in wrappers]
    linalg = modules["linalg"]
    patches.append((linalg, "splu", linalg.splu,
                    _traced_splu(tracer, linalg.splu)))
    for modname, cls_name, meth, span_name in _METHODS:
        cls = getattr(modules[modname], cls_name)
        orig = cls.__dict__[meth]
        patches.append((cls, meth, orig, tracer.wrap(span_name, orig)))

    try:
        for owner, attr, _, new in patches:
            setattr(owner, attr, new)
        yield tracer
    finally:
        for owner, attr, old, _ in patches:
            setattr(owner, attr, old)


# ---------------------------------------------------------------------------
# span arithmetic


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        clipped = [(max(k.start, span.start), min(k.end, span.end))
                   for k in kids if k.end > span.start and k.start < span.end]
        out.append(span.duration - _covered(clipped))
    return out


def _outermost(spans, name, where=None):
    """Spans called `name` with no enclosing span of the same name."""
    out = []
    for span in spans:
        if span.name != name or (where is not None and not where(span)):
            continue
        up = span.parent
        while up is not None and spans[up].name != name:
            up = spans[up].parent
        if up is None:
            out.append(span)
    return out


def busy(spans, name, where=None) -> float:
    """Time spent inside `name`, counting nested re-entries once."""
    return sum(s.duration for s in _outermost(spans, name, where))


def calls(spans, name) -> int:
    return sum(1 for s in spans if s.name == name)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced call, as {name: (value, unit)}."""
    spans = tracer.spans
    selfs = self_times(spans)

    def under_solve(span):
        return span.parent is not None and \
            spans[span.parent].name == "linalg.solve_direct"

    def tagged(tag):
        return lambda span: span.attrs.get("tag") == tag

    factors = [s for s in spans if s.name == "linalg.splu" and under_solve(s)]
    largest = max(factors, key=lambda s: s.attrs["n"], default=None)
    steps = [i for i, s in enumerate(spans)
             if s.name in ("solvers.be_picard_step", "solvers.bj_picard_step")]

    m = {
        "linalg.factor_s": (sum(s.duration for s in factors), "s"),
        "linalg.factorizations": (len(factors), "count"),
        "linalg.lu_nnz": (largest.attrs["lu_nnz"] if largest else 0, "count"),
        "linalg.system_n": (largest.attrs["n"] if largest else 0, "count"),
        "linalg.system_nnz": (largest.attrs["nnz"] if largest else 0,
                              "count"),
        "linalg.triangular_solves": (
            tracer.counters.get("linalg.triangular_solves", 0), "count"),
        "linalg.solve_direct_s": (busy(spans, "linalg.solve_direct"), "s"),
        "linalg.finalize_s": (busy(spans, "linalg.finalize_assembly"), "s"),
        "linalg.finalize_calls": (calls(spans, "linalg.finalize_assembly"),
                                  "count"),
        "operators.cross_bound_s": (
            busy(spans, "operators.estimate_cross_bound"), "s"),
        "operators.cross_bound_calls": (
            calls(spans, "operators.estimate_cross_bound"), "count"),
        "operators.poincare_s": (
            busy(spans, "operators.estimate_poincare_constant"), "s"),
        "operators.poincare_calls": (
            calls(spans, "operators.estimate_poincare_constant"), "count"),
        "operators.discrete_ops_s": (busy(spans, "operators.DiscreteOps"),
                                     "s"),
        "operators.discrete_ops_builds": (
            calls(spans, "operators.DiscreteOps"), "count"),
        "assembly.assemble_s": (busy(spans, "assembly.assemble"), "s"),
        "assembly.assemble_calls": (calls(spans, "assembly.assemble"),
                                    "count"),
        "assembly.cross_s": (busy(spans, "assembly.assemble",
                                  tagged("CrossCoupling")), "s"),
        "assembly.convection_s": (busy(spans, "assembly.assemble",
                                       tagged("Convection")), "s"),
        "assembly.load_s": (busy(spans, "assembly.assemble_load"), "s"),
        "assembly.load_calls": (calls(spans, "assembly.assemble_load"),
                                "count"),
        "assembly.bc_s": (busy(spans, "assembly.apply_essential_bc"), "s"),
        "solvers.steps": (len(steps), "count"),
        "solvers.step_s": (sum(spans[i].duration for i in steps), "s"),
        "solvers.step_self_s": (sum(selfs[i] for i in steps), "s"),
        "solvers.diagnostics_s": (busy(spans, "solvers.diagnostics"), "s"),
        "solvers.conditions_s": (
            busy(spans, "solvers.check_small_data_conditions"), "s"),
        "solvers.conditions_calls": (
            calls(spans, "solvers.check_small_data_conditions"), "count"),
        "mesh.build_s": (busy(spans, "mesh.build_box_mesh"), "s"),
        "derham.build_space_s": (busy(spans, "derham.build_space"), "s"),
        "derham.interpolate_s": (busy(spans, "derham.interpolate"), "s"),
        "derham.check_commuting_s": (busy(spans, "derham.check_commuting"),
                                     "s"),
        "derham.check_commuting_calls": (
            calls(spans, "derham.check_commuting"), "count"),
        "harness.case_data_s": (busy(spans, "harness.case_data"), "s"),
        "harness.exact_errors_s": (busy(spans, "harness.exact_errors"), "s"),
        "harness.exact_errors_calls": (calls(spans, "harness.exact_errors"),
                                       "count"),
    }
    for module in MODULES:
        m[f"{module}.self_s"] = (sum(t for s, t in zip(spans, selfs)
                                     if s.module == module), "s")
        m[f"{module}.calls"] = (sum(1 for s in spans if s.module == module),
                                "count")
    m["trace.spans"] = (len(spans), "count")
    return m
