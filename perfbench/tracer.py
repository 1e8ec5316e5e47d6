"""Outside-in span tracer for the ``tcreal`` package.

The tracer rebinds public functions and methods of the package's modules
with wrappers that record a span (name, start, end, parent) per call.  A
function is rebound under every module attribute that holds it, so the
names ``tcreal.cli`` and ``tcreal.realize`` imported with ``from .x import
y`` are traced too.  Methods are rebound on their class.  ``uninstall``
puts every original back, so untraced runs pay nothing.

Counts come from the wrapped calls' arguments and return values, never
from inside the package.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute or Class.method, layer metric the span's self time adds to)
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("tcreal.degseq", "parse_sequence", "degseq.parse"),
    ("tcreal.degseq", "is_graphical", "degseq.graphical"),
    ("tcreal.degseq", "is_multigraphical", "degseq.graphical"),
    ("tcreal.degseq", "lay_off_graphical", "degseq.lay_off"),
    ("tcreal.realize", "check_tc_realizable", "realize.decide"),
    ("tcreal.realize", "realize_tc", "realize.pipeline"),
    ("tcreal.realize", "build_two_edst", "realize.construct"),
    ("tcreal.realize", "build_two_edst_multi", "realize.construct"),
    ("tcreal.realize", "build_one_shared", "realize.construct"),
    ("tcreal.realize", "build_one_shared_multi", "realize.construct"),
    ("tcreal.realize", "build_c4_pivotable", "realize.construct"),
    ("tcreal.realize", "build_c4_pivotable_multi", "realize.construct"),
    ("tcreal.graphstore", "LabeledMultigraph.replay_degree3_insertions",
     "graphstore.replay"),
    ("tcreal.graphstore", "LabeledMultigraph.attach_vertex", "graphstore.attach"),
    ("tcreal.graphstore", "LabeledMultigraph.certificate_from_flags",
     "graphstore.certificate"),
    ("tcreal.graphstore", "LabeledMultigraph.to_json", "graphstore.to_json"),
    ("tcreal.graphstore", "LabeledMultigraph.from_json", "graphstore.from_json"),
    ("tcreal.labeling", "pivot_label", "labeling.pivot_label"),
    ("tcreal.labeling", "TemporalLabeling.apply", "labeling.apply"),
    ("tcreal.verify", "is_tc", "verify.is_tc"),
    ("tcreal.verify", "is_proper", "verify.is_proper"),
    ("tcreal.verify", "is_simple", "verify.is_simple"),
    ("tcreal.verify", "validate_certificate", "verify.certificate"),
    ("tcreal.verify", "earliest_arrival", "verify.earliest_arrival"),
)

# Layers whose number of calls is reported as a count.
CALL_COUNTS = ("degseq.lay_off", "graphstore.attach", "verify.earliest_arrival")


class Tracer:
    """Spans of the calls made while installed, kept in flat arrays."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = -1
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []
        # Per-op captures, filled by the wrappers.
        self.routes: Dict[str, int] = {}
        self.json_bytes = 0
        self.max_label = 0
        self.graphs: List[object] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for module_name, attr, metric in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.partition(".")
            owner = getattr(module, owner_name, None) if module else None
            if owner is None or (method and method not in vars(owner)):
                self.missing.append(f"{module_name}.{attr}")
                continue
            if method:
                raw = vars(owner)[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(metric, raw.__func__))
                else:
                    wrapped = self._wrap(metric, raw)
                self._patch(owner, method, wrapped)
            else:
                wrapped = self._wrap(metric, owner)
                # Rebind every module attribute that holds the function.
                for name, mod in list(sys.modules.items()):
                    if name == "tcreal" or name.startswith("tcreal."):
                        for key, value in list(vars(mod).items()):
                            if value is owner:
                                self._patch(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner: object, key: str, value: object) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def _wrap(self, metric: str, fn: Callable) -> Callable:
        if metric not in self.names:
            self.names.append(metric)
        nid = self.names.index(metric)
        capture = _CAPTURES.get(fn.__name__)
        start, end, name, parent, op = (
            self.start, self.end, self.name, self.parent, self.op)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            op.append(tracer.current_op)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if capture is not None:
                capture(tracer, args, result)
            return result

        return traced

    # -- per-op accounting -----------------------------------------------------

    def begin_op(self, index: int) -> int:
        """Start attributing spans to op ``index``; returns the first span id."""
        self.current_op = index
        self.routes = {}
        self.json_bytes = 0
        self.max_label = 0
        self.graphs = []
        return len(self.start)

    def end_op(self, first_span: int, wall: float) -> Dict[str, float]:
        """Self time per layer metric, call and capture counts for one op.

        Self time is a span's duration minus the durations of its direct
        child spans; ``cli.other_s`` is the op's wall time minus all span
        self times, so the layers and ``cli.other_s`` add up to ``wall``.
        """
        out: Dict[str, float] = {}
        child = [0.0] * (len(self.start) - first_span)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        for i in range(first_span, len(start)):
            p = parent[i]
            if p >= first_span:
                child[p - first_span] += end[i] - start[i]
        spent = 0.0
        for i in range(first_span, len(start)):
            self_time = end[i] - start[i] - child[i - first_span]
            key = self.names[name[i]]
            out[key + "_s"] = out.get(key + "_s", 0.0) + self_time
            if key in CALL_COUNTS:
                out[key + "_calls"] = out.get(key + "_calls", 0) + 1
            spent += self_time
        out["cli.other_s"] = wall - spent
        for reason, count in self.routes.items():
            out["realize.route." + reason] = count
        out["graphstore.json_bytes"] = self.json_bytes
        out["labeling.max_label"] = self.max_label
        slots = dead = 0
        for g in self.graphs:
            if hasattr(g, "eu"):  # one slot per edge ever added, live or not
                slots += len(g.eu)
                dead += len(g.eu) - g.num_edges
        out["graphstore.edge_slots"] = slots
        out["graphstore.dead_slots"] = dead
        self.graphs = []
        self.current_op = -1
        return out

    def dump(self, path: str) -> None:
        """Write every span as CSV: op, name, start, end (seconds), parent."""
        import gzip

        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op,name,start,end,parent\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{self.op[i]},{names[self.name[i]]},{self.start[i]:.9f},"
                    f"{self.end[i]:.9f},{self.parent[i]}\n"
                )


def _route(tracer: Tracer, args: tuple, result) -> None:
    reason = result.reason.value
    tracer.routes[reason] = tracer.routes.get(reason, 0) + 1


def _to_json(tracer: Tracer, args: tuple, result) -> None:
    tracer.json_bytes += len(result)
    tracer.graphs.append(args[0])


def _max_label(tracer: Tracer, args: tuple, result) -> None:
    tracer.max_label = max(tracer.max_label, result.max_label)


_CAPTURES: Dict[str, Optional[Callable]] = {
    "check_tc_realizable": _route,
    "to_json": _to_json,
    "pivot_label": _max_label,
}
