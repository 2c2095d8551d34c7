"""Scenario ingestion, power normalization, coverage maps, parameter sweeps,
and exhaustive node/transmitter selection.

Monte-Carlo heading draws use one counter-based substream per grid cell
(seeded by the cell index), so results are bit-identical for a given seed
regardless of how cells are scheduled across workers.

Selection scores every subset from per-link information computed once.
Information from independent links adds, so a subset's summed information
is the sum of its links' pieces, and those pieces are the same in every
subset that holds the link at the same power share (1/n of the budget for a
subset of n transmitters under normalized_total; for select_tx a link is an
ordered tx -> rx pair). The scorer computes each distinct link's
information once (bounds.link_information), holds the subsets as one
(n_subsets, width) array of link indices, and evaluates them in chunks:
each chunk adds its links' rows in the subset's link order, from zero, and
inverts the sums as a stack (the trace inverse for the PEB; the polar
CRLBs and the mean over the heading draws for the velocity metrics). The
additions are the ones evaluate_metric makes, in the same order, so every
value equals the per-subset route exactly, +inf included. Memory is bounded
by the link table (links x draws) plus chunk buffers of _CHUNK_BYTES.
"""
from __future__ import annotations

import itertools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import bounds
from .errors import (
    BoundsError,
    InsufficientResourcesError,
    NoFeasibleSubsetError,
    NoInformationError,
    ScenarioFormatError,
)
from .model import (
    ConstellationSpec,
    Node,
    Scenario,
    SystemParams,
    TargetState,
    required_tx,
)

METRICS = ("peb", "veb", "crlb_heading")
SWEEP_PARAMETERS = ("frac_subcarriers", "frac_symbols", "n_rx_ant")

WORKERS_ENV = "ISAC_BOUNDS_THREADS"

# Bytes of summed information per chunk of subsets in the subset scorer:
# 1,024 subsets' position sums, or one subset's velocity sums over 1,000
# heading draws (six over 200). Larger chunks run faster but raise peak
# memory: at 64 KB the ring workload's peak RSS rose ~0.4 MB.
_CHUNK_BYTES = 32 * 1024


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid, inclusive of both ends."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    step: float

    def __post_init__(self):
        if self.step <= 0.0:
            raise ScenarioFormatError("grid step must be positive")
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ScenarioFormatError("grid max must exceed min")

    def xs(self) -> np.ndarray:
        n = int(math.floor((self.x_max - self.x_min) / self.step + 1e-9)) + 1
        return self.x_min + self.step * np.arange(n)

    def ys(self) -> np.ndarray:
        n = int(math.floor((self.y_max - self.y_min) / self.step + 1e-9)) + 1
        return self.y_min + self.step * np.arange(n)


@dataclass(frozen=True)
class McConfig:
    """Monte-Carlo heading average: draw count, seed, and fixed speed."""

    draws: int = 1000
    seed: int = 0
    speed: float = 22.0  # m/s

    def __post_init__(self):
        if self.draws < 1:
            raise ScenarioFormatError("mc draws must be >= 1")
        if self.speed <= 0.0:
            raise ScenarioFormatError("mc speed must be positive")

    def headings(self, cell_index: int = 0) -> np.ndarray:
        """Uniform headings in [0, 2pi) from the cell's own substream."""
        seq = np.random.SeedSequence(entropy=(int(self.seed), int(cell_index)))
        rng = np.random.Generator(np.random.PCG64(seq))
        return rng.uniform(0.0, 2.0 * np.pi, self.draws)


@dataclass(frozen=True)
class SelectionProblem:
    """Choose `choose` nodes out of the candidates to minimize a metric."""

    scenario: Scenario
    choose: int
    metric: str
    target: tuple[float, float]
    mc: McConfig = field(default_factory=McConfig)
    candidates: tuple[str, ...] | None = None  # node ids; defaults to all

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ScenarioFormatError(f"unknown metric {self.metric!r}")
        ids = self.candidates or tuple(n.id for n in self.scenario.nodes)
        object.__setattr__(self, "candidates", tuple(ids))
        if len(set(self.candidates)) != len(self.candidates):
            raise ScenarioFormatError("duplicate candidate node ids")
        if not 1 <= self.choose <= len(self.candidates):
            raise ScenarioFormatError(
                f"choose must lie in [1, {len(self.candidates)}], got {self.choose}")


# ---------------------------------------------------------------------------
# scenario documents

_CONSTELLATION_NAMES = {
    "bpsk": lambda: ConstellationSpec.psk(2),
    "qpsk": ConstellationSpec.qpsk,
    "16qam": lambda: ConstellationSpec.qam(16),
    "64qam": lambda: ConstellationSpec.qam(64),
    "256qam": lambda: ConstellationSpec.qam(256),
}

_PARAM_KEYS = {
    "n_tx_ant": int, "n_rx_ant": int, "symbols_per_frame": int,
    "active_subcarriers": int, "carrier_freq": float, "subcarrier_spacing": float,
    "symbol_duration": float, "frac_subcarriers": float, "frac_symbols": float,
    "total_power": float, "noise_psd": float, "tx_gain": float, "rx_gain": float,
}


def _parse_constellation(value, where: str) -> ConstellationSpec:
    if isinstance(value, str):
        name = value.lower().replace("-", "")
        if name not in _CONSTELLATION_NAMES:
            raise ScenarioFormatError(
                f"{where}: unknown constellation {value!r} "
                f"(expected one of {sorted(_CONSTELLATION_NAMES)} or a point list)")
        return _CONSTELLATION_NAMES[name]()
    if isinstance(value, list):
        try:
            pts = tuple(complex(float(re), float(im)) for re, im in value)
        except (TypeError, ValueError) as exc:
            raise ScenarioFormatError(f"{where}: constellation points must be [re, im] pairs") from exc
        return ConstellationSpec(points=pts)
    raise ScenarioFormatError(f"{where}: constellation must be a name or a point list")


def _parse_params(doc: dict, where: str) -> SystemParams:
    kwargs = {}
    for key, value in doc.items():
        if key == "constellation":
            kwargs[key] = _parse_constellation(value, f"{where}.constellation")
        elif key in _PARAM_KEYS:
            try:
                kwargs[key] = _PARAM_KEYS[key](value)
            except (TypeError, ValueError) as exc:
                raise ScenarioFormatError(f"{where}.{key}: not a number") from exc
        else:
            raise ScenarioFormatError(f"{where}: unknown key {key!r}")
    try:
        return SystemParams(**kwargs)
    except BoundsError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from exc


def _parse_node(doc: dict, where: str) -> Node:
    known = {"id", "position", "orientation_deg", "role", "tx_id", "power_scale"}
    for key in doc:
        if key not in known:
            raise ScenarioFormatError(f"{where}: unknown key {key!r}")
    for key in ("id", "position"):
        if key not in doc:
            raise ScenarioFormatError(f"{where}: missing required key {key!r}")
    pos = doc["position"]
    if not (isinstance(pos, list) and len(pos) == 2):
        raise ScenarioFormatError(f"{where}.position: expected [x, y]")
    try:
        return Node(
            id=str(doc["id"]),
            position=(float(pos[0]), float(pos[1])),
            orientation=math.radians(float(doc.get("orientation_deg", 0.0))),
            role=doc.get("role", "monostatic"),
            tx_id=doc.get("tx_id"),
            power_scale=float(doc.get("power_scale", 1.0)),
        )
    except BoundsError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from exc


def load_scenario(document) -> Scenario:
    """Parse a scenario document (JSON text or an already-decoded dict).

    Omitted radio parameters fall back to the defaults of SystemParams;
    unknown keys are rejected with the offending location in the message.
    """
    if isinstance(document, (str, bytes)):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(f"scenario document is not valid JSON: {exc}") from exc
    else:
        doc = document
    if not isinstance(doc, dict):
        raise ScenarioFormatError("scenario document must be a JSON object")
    known = {"params", "nodes", "power_policy"}
    for key in doc:
        if key not in known:
            raise ScenarioFormatError(f"scenario: unknown key {key!r}")
    params = _parse_params(doc.get("params", {}), "params")
    nodes_doc = doc.get("nodes")
    if not isinstance(nodes_doc, list) or not nodes_doc:
        raise ScenarioFormatError("scenario: 'nodes' must be a non-empty list")
    nodes = tuple(_parse_node(nd, f"nodes[{i}]") for i, nd in enumerate(nodes_doc))
    try:
        return Scenario(params=params, nodes=nodes,
                        power_policy=doc.get("power_policy", "fixed_per_node"))
    except BoundsError as exc:
        raise ScenarioFormatError(str(exc)) from exc


def dump_scenario(s: Scenario) -> dict:
    """Scenario as a plain dict; load_scenario(dump_scenario(s)) == s."""
    params = {}
    defaults = SystemParams()
    for key in _PARAM_KEYS:
        value = getattr(s.params, key)
        if value != getattr(defaults, key):
            params[key] = value
    if s.params.constellation != defaults.constellation:
        params["constellation"] = [[p.real, p.imag] for p in s.params.constellation.points]
    nodes = []
    for n in s.nodes:
        nd = {"id": n.id, "position": [n.position[0], n.position[1]],
              "orientation_deg": math.degrees(n.orientation), "role": n.role}
        if n.tx_id is not None:
            nd["tx_id"] = n.tx_id
        if n.power_scale != 1.0:
            nd["power_scale"] = n.power_scale
        nodes.append(nd)
    return {"params": params, "nodes": nodes, "power_policy": s.power_policy}


def normalize_power(s: Scenario) -> Scenario:
    """Share one sensing power budget across all transmitting nodes.

    Under the normalized_total policy every transmitter (monostatic or tx
    role) gets an equal share, so the summed sensing power stays equal to
    the single-transmitter budget. The fixed_per_node policy is an identity.
    """
    if s.power_policy != "normalized_total":
        return s
    n_tx = s.n_transmitters
    if n_tx == 0:
        raise NoInformationError("no transmitting node to normalize")
    return replace(s, nodes=_share_power(s.nodes, n_tx))


def _share_power(nodes, n_tx: int) -> tuple[Node, ...]:
    """The nodes with every transmitter's power scale set to 1 / n_tx."""
    scale = 1.0 / n_tx
    return tuple(replace(n, power_scale=scale) if n.role in ("monostatic", "tx") else n
                 for n in nodes)


# ---------------------------------------------------------------------------
# metric evaluation

def _mc_average(values: np.ndarray, singular: np.ndarray) -> tuple[float, str]:
    """Cell aggregate: any singular draw poisons the mean to +inf."""
    n_bad = int(singular.sum())
    if n_bad:
        return math.inf, f"singular-draws={n_bad}/{singular.size}"
    return float(values.mean()), ""


def evaluate_metric(s: Scenario, position, metric: str, mc: McConfig,
                    cell_index: int = 0, rcs: float = 1.0) -> tuple[float, str]:
    """One metric value at one position; power must already be normalized.

    Velocity metrics are averaged over Monte-Carlo headings at the fixed
    speed of the Monte-Carlo config. Returns (value, flag)."""
    if metric == "peb":
        try:
            report = bounds.evaluate_bounds(s, TargetState(position=tuple(position), rcs=rcs))
        except NoInformationError:
            return math.inf, "no-information"
        return report.peb, ";".join(report.flags)
    if metric not in METRICS:
        raise ScenarioFormatError(f"unknown metric {metric!r}")
    headings = mc.headings(cell_index)
    try:
        res = bounds.heading_velocity_metrics(s, position, mc.speed, headings, rcs=rcs)
    except NoInformationError:
        return math.inf, "no-information"
    values = res["veb"] if metric == "veb" else res["crlb_heading"]
    value, flag = _mc_average(values, res["singular"])
    flags = ";".join(res["flags"])
    if flag:
        flags = f"{flags};{flag}" if flags else flag
    return value, flags


def _heatmap_rows(args) -> list[tuple]:
    s, grid, metric, mc, rcs, iy_list = args
    xs, ys = grid.xs(), grid.ys()
    nx = xs.size
    out = []
    for iy in iy_list:
        for ix in range(nx):
            cell = iy * nx + ix
            value, flag = evaluate_metric(s, (float(xs[ix]), float(ys[iy])), metric, mc, cell, rcs)
            out.append((float(xs[ix]), float(ys[iy]), value, flag))
    return out


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit argument, else the ISAC_BOUNDS_THREADS
    environment variable, else serial. Zero means one worker per CPU."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        try:
            workers = int(env) if env else 1
        except ValueError as exc:
            raise ScenarioFormatError(
                f"{WORKERS_ENV} must be an integer, got {env!r}") from exc
    if workers == 0:
        workers = os.cpu_count() or 1
    if workers < 0:
        raise ScenarioFormatError("worker count must be >= 0")
    return workers


def heatmap(s: Scenario, grid: GridSpec, metric: str = "peb",
            mc: McConfig | None = None, workers: int | None = None,
            rcs: float = 1.0) -> list[tuple]:
    """Evaluate a metric on every grid point.

    Returns rows (x, y, value, flag) in row-major y-then-x order. Output is
    bit-identical for a given Monte-Carlo seed regardless of worker count.
    """
    mc = mc or McConfig()
    s = normalize_power(s)
    ys = grid.ys()
    workers = resolve_workers(workers)
    iy_all = list(range(ys.size))
    if workers <= 1 or ys.size == 1:
        return _heatmap_rows((s, grid, metric, mc, rcs, iy_all))
    chunks = [iy_all[i::workers] for i in range(workers)]
    tasks = [(s, grid, metric, mc, rcs, chunk) for chunk in chunks if chunk]
    results: dict[int, list[tuple]] = {}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for chunk, rows in zip((t[5] for t in tasks), pool.map(_heatmap_rows, tasks)):
            nx = grid.xs().size
            for j, iy in enumerate(chunk):
                results[iy] = rows[j * nx:(j + 1) * nx]
    out = []
    for iy in iy_all:
        out.extend(results[iy])
    return out


def sweep(s: Scenario, t: TargetState, parameter: str, values, metric: str = "peb",
          mc: McConfig | None = None) -> list[tuple]:
    """Metric versus one system parameter, power re-normalized per point.

    Returns rows (parameter, value, metric, metric_value, flag); a value
    whose resource floor collapses below two subcarriers/symbols is reported
    as an invalid point, not skipped.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ScenarioFormatError(
            f"unknown sweep parameter {parameter!r} (expected one of {SWEEP_PARAMETERS})")
    mc = mc or McConfig()
    rows = []
    for value in values:
        typed = int(value) if parameter == "n_rx_ant" else float(value)
        try:
            params = replace(s.params, **{parameter: typed})
            point = normalize_power(replace(s, params=params))
            mval, flag = evaluate_metric(point, t.position, metric, mc, rcs=t.rcs)
            rows.append((parameter, typed, metric, mval, flag))
        except (InsufficientResourcesError, ScenarioFormatError) as exc:
            rows.append((parameter, typed, metric, math.nan, f"invalid: {exc}"))
    return rows


@dataclass(frozen=True)
class SelectionResult:
    best: tuple[str, ...]
    value: float
    ranking: tuple[tuple[tuple[str, ...], float], ...]


def _score_subsets(p: SystemParams, links, rows: np.ndarray, target, metric: str,
                   mc: McConfig) -> np.ndarray:
    """Metric value of every link subset at the target.

    rows is an (n_subsets, width) array of indices into links, -1 meaning
    "no link". Each link's information is computed once; a subset adds its
    links' rows in row order, so every value equals evaluate_metric on the
    subset's own scenario, +inf included. Subsets are evaluated in chunks
    whose summed information takes at most _CHUNK_BYTES."""
    if metric not in METRICS:
        raise ScenarioFormatError(f"unknown metric {metric!r}")
    t = TargetState(position=tuple(target))
    if metric == "peb":
        info = bounds.link_information(p, links, t)
    else:
        headings = mc.headings()
        trig = bounds._heading_trig(headings)
        info = bounds.link_information(p, links, t, mc.speed * trig[0], mc.speed * trig[1])
    n_subsets = len(rows)
    values = np.empty(n_subsets)
    chunk = min(n_subsets, max(1, _CHUNK_BYTES // info[0].nbytes))
    total = np.empty((chunk,) + info.shape[1:])
    part = np.empty_like(total)
    for start in range(0, n_subsets, chunk):
        idx = rows[start:start + chunk]
        k = len(idx)
        tot, buf = total[:k], part[:k]
        tot.fill(0.0)
        if k == 1:  # one subset (a velocity chunk at 1,000 draws): add rows in place
            for i in idx[0]:
                tot[0] += info[i]  # -1: the zero row
        else:
            for col in idx.T:
                np.take(info, col, axis=0, out=buf, mode="wrap")  # -1: the zero row
                tot += buf
        if metric == "peb":
            values[start:start + k] = np.sqrt(bounds._trace_inverse_2x2(tot.T.reshape(2, 2, k)))
            continue
        crlb_speed, crlb_heading, singular = bounds._polar_crlbs(
            tot[:, 0], tot[:, 1], tot[:, 2], mc.speed, trig)
        draws = np.sqrt(crlb_speed) if metric == "veb" else crlb_heading
        values[start:start + k] = np.where(singular.any(axis=1), math.inf, draws.mean(axis=1))
    return values


def _ranked(keys, values: np.ndarray, none_bounded: str) -> SelectionResult:
    """Rank keys by value, ties on the key order (keys come sorted)."""
    order = np.argsort(values, kind="stable").tolist()
    scores = values.tolist()
    ranking = tuple((keys[i], scores[i]) for i in order)
    if not ranking[0][1] < math.inf:  # inf or nan
        raise NoFeasibleSubsetError(none_bounded)
    return SelectionResult(best=ranking[0][0], value=ranking[0][1], ranking=ranking)


def select_nodes(problem: SelectionProblem) -> SelectionResult:
    """Exhaustively evaluate all candidate subsets of the requested size.

    Minimizes the metric at the target; ties break on the lexicographically
    first id tuple, so the result does not depend on candidate order. A
    subset whose scenario would fail validation (an rx without its tx)
    scores +inf. Under normalized_total a subset of n transmitters gives
    each 1/n of the budget, so each link is computed once per share that
    occurs.
    """
    s = problem.scenario
    by_id = {n.id: n for n in s.nodes}
    for cid in problem.candidates:
        if cid not in by_id:
            raise ScenarioFormatError(f"unknown candidate node id {cid!r}")
    ids = sorted(problem.candidates)
    cands = [by_id[i] for i in ids]
    choose = problem.choose
    n_subsets = math.comb(len(ids), choose)
    pos = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(len(ids)), choose)),
        dtype=np.min_scalar_type(len(ids)), count=n_subsets * choose,
    ).reshape(n_subsets, choose)
    invalid = np.zeros(n_subsets, dtype=bool)
    for rx_id, tx_id in required_tx(cands).items():
        has_tx = (pos == ids.index(tx_id)).any(axis=1) if tx_id in ids else False
        invalid |= (pos == ids.index(rx_id)).any(axis=1) & ~has_tx
    # a subset's power share is 1 / its transmitter count under
    # normalized_total; n_tx = 0 stands for the nodes' own power otherwise
    n_tx = np.array([n.role in ("monostatic", "tx") for n in cands])[pos].sum(axis=1)
    if s.power_policy != "normalized_total":
        n_tx[:] = 0
    links = []
    link_of = np.full((choose + 1, len(cands)), -1,
                      dtype=np.min_scalar_type(-len(cands) * (choose + 1)))
    for k in np.flatnonzero(np.bincount(n_tx[~invalid])).tolist():
        nodes = _share_power(s.nodes, k) if k else s.nodes
        by_node = {lk.node_id: lk for lk in bounds.links_of(nodes)}
        for i, n in enumerate(cands):
            if n.id in by_node:  # a tx node adds no link
                link_of[k, i] = len(links)
                links.append(by_node[n.id])
    rows = link_of[n_tx[:, None], pos]
    values = _score_subsets(s.params, links, rows, problem.target, problem.metric, problem.mc)
    values[invalid] = math.inf
    return _ranked(list(itertools.combinations(ids, choose)), values,
                   f"every {choose}-subset yields an unbounded {problem.metric}")


def select_tx(s: Scenario, target, metric: str = "peb",
              mc: McConfig | None = None) -> SelectionResult:
    """Pick the transmitter: each candidate in turn transmits while all other
    nodes receive; minimizes the metric at the target."""
    if len(s.nodes) < 2:
        raise ScenarioFormatError("transmitter selection needs at least 2 nodes")
    keys, links = [], []
    for tx_id in sorted(n.id for n in s.nodes):
        nodes = tuple(replace(n, role="tx", tx_id=None) if n.id == tx_id
                      else replace(n, role="rx", tx_id=tx_id) for n in s.nodes)
        if s.power_policy == "normalized_total":
            nodes = _share_power(nodes, 1)
        keys.append((tx_id,))
        links.extend(bounds.links_of(nodes))
    rows = np.arange(len(links)).reshape(len(keys), -1)
    values = _score_subsets(s.params, links, rows, target, metric, mc or McConfig())
    return _ranked(keys, values, f"no transmitter choice yields a bounded {metric}")
