"""Per-layer spans recorded from outside the program.

The tracer wraps public functions of isacbounds by rebinding module (and
class) attributes. A function imported by name into another module is
rebound there too (derive_frame lives in model, link and bounds), or its
calls from that module would be missed. Each call records a span: its
name, start, end, parent span and the job it belongs to. Spans stay in
memory until the traced pass ends.
"""
from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter

PACKAGE = "isacbounds"

# (module, attribute) of every wrapped callable; "Class.method" patches the
# class, and a bare class name patches its __init__, because
# dataclasses.replace builds instances through the class itself and would
# bypass a rebound module name.
TARGETS = (
    ("cli", "main"), ("cli", "emit_table"),
    ("engine", "load_scenario"), ("engine", "normalize_power"),
    ("engine", "evaluate_metric"), ("engine", "heatmap"), ("engine", "select_nodes"),
    ("engine", "McConfig.headings"),
    ("model", "derive_frame"), ("model", "constellation_penalty"), ("model", "Scenario"),
    ("link", "link_snr"),
    ("geom", "local_doa"), ("geom", "bis_observables"), ("geom", "jac_bis_position"),
    ("bounds", "evaluate_bounds"), ("bounds", "heading_velocity_metrics"),
    ("bounds", "sensing_links"), ("bounds", "link_geometry"),
)

# Per-layer metrics reported from a traced pass: (span name, field).
REPORTED = (
    ("model.derive_frame", "calls"), ("model.derive_frame", "self_s"),
    ("model.constellation_penalty", "calls"), ("model.constellation_penalty", "self_s"),
    ("bounds.evaluate_bounds", "calls"), ("bounds.evaluate_bounds", "self_s"),
    ("link.link_snr", "calls"), ("link.link_snr", "self_s"),
    ("geom.local_doa", "calls"), ("geom.local_doa", "self_s"),
    ("geom.bis_observables", "calls"), ("geom.bis_observables", "self_s"),
    ("geom.jac_bis_position", "calls"), ("geom.jac_bis_position", "self_s"),
    ("bounds.heading_velocity_metrics", "calls"), ("bounds.heading_velocity_metrics", "self_s"),
    ("engine.McConfig.headings", "calls"), ("engine.McConfig.headings", "self_s"),
    ("engine.normalize_power", "calls"), ("engine.normalize_power", "self_s"),
    ("model.Scenario", "calls"), ("model.Scenario", "self_s"),
    ("engine.select_nodes", "self_s"),
    ("engine.evaluate_metric", "calls"), ("engine.evaluate_metric", "self_s"),
    ("engine.heatmap", "self_s"),
    ("bounds.sensing_links", "calls"),
    ("bounds.link_geometry", "calls"), ("bounds.link_geometry", "raised"),
    ("bounds.link_geometry", "useful_ratio"),
    ("cli.main", "self_s"),
    ("cli.emit_table", "self_s"), ("cli.emit_table", "rows"),
    ("engine.load_scenario", "calls"), ("engine.load_scenario", "self_s"),
)

UNITS = {"calls": "count", "raised": "count", "rows": "count",
         "self_s": "s", "useful_ratio": "ratio"}


def _contributing_links(name, args, result) -> int:
    """Links that added information in one bounds call (0 if it raised)."""
    if name == "bounds.evaluate_bounds":
        return sum(c["position_info"] is not None for c in result.per_node)
    # heading_velocity_metrics flags exactly the links that dropped out
    n_links = sum(n.role in ("monostatic", "rx") for n in args[0].nodes)
    return n_links - len(result["flags"])


class Tracer:
    """Spans and per-name counters of one traced pass."""

    def __init__(self):
        self.names = [f"{mod}.{attr}" for mod, attr in TARGETS]
        n = len(self.names)
        self.calls = [0] * n
        self.raised = [0] * n
        self.self_s = [0.0] * n
        self.rows = 0          # rows handed to cli.emit_table
        self.useful_links = 0  # links that contributed information
        # spans, indexed by span id
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.job = -1
        self._stack: list[int] = []      # open span ids
        self._child_s: list[float] = []  # time covered by children of each open span
        self._undo: list[tuple] = []

    def _wrap(self, index: int, fn):
        name = self.names[index]
        count_rows = name == "cli.emit_table"
        count_links = name in ("bounds.evaluate_bounds", "bounds.heading_velocity_metrics")
        stack, child_s = self._stack, self._child_s

        def traced(*args, **kwargs):
            sid = len(self.span_start)
            self.span_name.append(index)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_job.append(self.job)
            self.span_end.append(0.0)
            stack.append(sid)
            child_s.append(0.0)
            t0 = perf_counter()
            self.span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[index] += 1
                raise
            finally:
                t1 = perf_counter()
                self.span_end[sid] = t1
                stack.pop()
                dur = t1 - t0
                self.self_s[index] += dur - child_s.pop()
                self.calls[index] += 1
                if child_s:
                    child_s[-1] += dur
            if count_rows:
                self.rows += len(args[0])
            elif count_links:
                self.useful_links += _contributing_links(name, args, result)
            return result

        return functools.wraps(fn)(traced)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Rebind every target in every loaded module of the package."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for index, (mod, attr) in enumerate(TARGETS):
            home = sys.modules[f"{PACKAGE}.{mod}"]
            head, _, method = attr.partition(".")
            original = getattr(home, head)
            if method:
                self._set(original, method, self._wrap(index, original.__dict__[method]))
            elif isinstance(original, type):
                self._set(original, "__init__", self._wrap(index, original.__dict__["__init__"]))
            else:
                wrapped = self._wrap(index, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self) -> dict:
        """The REPORTED per-layer values of the pass."""
        index = {name: i for i, name in enumerate(self.names)}
        lg_calls = self.calls[index["bounds.link_geometry"]]
        out = {}
        for name, field in REPORTED:
            i = index[name]
            if field == "calls":
                value = self.calls[i]
            elif field == "raised":
                value = self.raised[i]
            elif field == "self_s":
                value = self.self_s[i]
            elif field == "rows":
                value = self.rows
            else:  # useful_ratio: contributing links over links attempted
                value = self.useful_links / lg_calls if lg_calls else 0.0
            out[f"{name}.{field}"] = {"value": value, "unit": UNITS[field]}
        return out

    def write_spans(self, path: str) -> int:
        """Write every span as gzipped CSV, times in seconds from the first
        span; returns the span count."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,parent,job,name,start_s,end_s\n")
            for sid in range(len(self.span_start)):
                fh.write(f"{sid},{self.span_parent[sid]},{self.span_job[sid]},"
                         f"{self.names[self.span_name[sid]]},"
                         f"{self.span_start[sid] - t0:.7f},{self.span_end[sid] - t0:.7f}\n")
        return len(self.span_start)
