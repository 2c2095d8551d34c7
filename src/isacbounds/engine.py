"""Scenario ingestion, power normalization, coverage maps, parameter sweeps,
and exhaustive node/transmitter selection.

Every metric reads one bounds.LinkTable per block of target positions: each
sensing link's status, used mask and information at every position of the
block, built once by one loop over the links. Flag strings are made from
the table's status codes and the metric's cell codes by one renderer,
geom.render_flags, and joined with ";" by evaluate_metric.

Maps are evaluated in one process, block by block, through the block form of
evaluate_metric: a block's cells go through every per-link layer as arrays,
each link's information is added in link order from zero, and the sums are
inverted as a stack; a cell gets exactly the value and flags of
evaluate_metric at its own position. A PEB block holds as many cells as keep
their 2x2 position information within _CHUNK_BYTES (1,024). A velocity block
holds as many cells as keep the table's velocity terms (bounds.velocity_table:
8 float64 terms per link and cell, for the table's link count) within
_CHUNK_BYTES, in whole slices: 128 cells of a 4-link scenario. Its cells are
walked in slices that keep the per-draw arrays (cells x heading draws) within
_CHUNK_BYTES, 4 cells at 1,000 draws, and each slice is reduced to its
per-cell means and singular draw count before the next is drawn
(velocity_metrics, which yields each velocity metric asked for from the same
draws). Monte-Carlo heading draws use one counter-based substream per grid
cell (seeded by the cell index), so results are bit-identical for a given
seed whatever the block and slice sizes. Building the per-position table once per
block rather than once per 4-cell slice took a benchmark VEB map job (43 x 43
cells at 1,000 draws, through the CLI) from 0.562 s to 0.327 s (perfbench
map_veb, medians of 10 alternating pairs on a 2-CPU VM).

A map comes back as columns, not rows (Heatmap): the grid's axes, one
preallocated float64 array that each block's values are written into, and
a flag string per cell. The CLI writes them column by column (cli.map_table
and cli.emit_table), formatting each distinct grid coordinate once.

Selection scores every subset from per-link information computed once.
Information from independent links adds, so a subset's summed information
is the sum of its links' pieces, and those pieces are the same in every
subset that holds the link at the same power share (1/n of the budget for a
subset of n transmitters under normalized_total; for select_tx a link is an
ordered tx -> rx pair). The scorer reads each distinct link's information
from one LinkTable (bounds.link_information), holds the subsets as one
(n_subsets, width) array of link indices, and evaluates them in chunks:
each chunk adds its links' rows in the subset's link order, from zero, and
inverts the sums as a stack (the trace inverse for the PEB; the polar
CRLBs and _draw_mean, the mean over the heading draws that maps share, for
the velocity metrics). The additions are the ones evaluate_metric makes, in
the same order, so every value equals the per-subset route exactly, +inf
included. Memory is bounded by the link table (links x draws) plus chunk
buffers of _CHUNK_BYTES.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

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

# Bytes of the largest array a chunk works on. The subset scorer's chunk
# holds this much summed information: 1,365 subsets' position sums, or one
# subset's velocity sums over 1,000 heading draws. A map block holds as many
# cells as keep their largest array this small: 1,024 PEB cells (a 2x2
# float64 information matrix each), or the velocity table of 128 cells of a
# 4-link scenario, walked in slices of 4 cells at 1,000 draws. Larger chunks
# run no faster but raise peak memory: 4,096-cell PEB chunks read ~2 MB more
# peak RSS, and at 64 KB the ring workload's peak RSS rose ~0.4 MB.
_CHUNK_BYTES = 32 * 1024


# Cells a GridSpec may hold: a 1e4 x 1e4 grid. Its map's float64 values
# alone take 800 MB, and its CSV ~6 GB.
MAX_GRID_CELLS = 10**8


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid, inclusive of both ends. nx and ny, its
    point counts along x and y, are fixed on construction; a grid of more
    than MAX_GRID_CELLS cells is rejected."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    step: float
    nx: int = field(init=False)
    ny: int = field(init=False)

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x_min, self.x_max, self.y_min, self.y_max, self.step))):
            raise ScenarioFormatError("grid bounds and step must be finite")
        if self.step <= 0.0:
            raise ScenarioFormatError("grid step must be positive")
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ScenarioFormatError("grid max must exceed min")
        # an axis of MAX_GRID_CELLS steps or more keeps its float count,
        # so a count too large for an index (or inf) is still reported
        nx, ny = (math.floor(span + 1e-9) + 1 if span < MAX_GRID_CELLS else span + 1.0
                  for span in ((self.x_max - self.x_min) / self.step,
                               (self.y_max - self.y_min) / self.step))
        if nx * ny > MAX_GRID_CELLS:
            raise ScenarioFormatError(f"grid has {nx:.15g} x {ny:.15g} = {nx * ny:.15g} cells, "
                                      f"more than MAX_GRID_CELLS = {MAX_GRID_CELLS}")
        object.__setattr__(self, "nx", nx)
        object.__setattr__(self, "ny", ny)

    def xs(self) -> np.ndarray:
        return self.x_min + self.step * np.arange(self.nx)

    def ys(self) -> np.ndarray:
        return self.y_min + self.step * np.arange(self.ny)


@dataclass(frozen=True)
class McConfig:
    """Monte-Carlo heading average: draw count, seed, and fixed speed."""

    draws: int = 1000
    seed: int = 0
    speed: float = 22.0  # m/s

    def __post_init__(self):
        if self.draws < 1:
            raise ScenarioFormatError("mc draws must be >= 1")
        if self.seed < 0:
            raise ScenarioFormatError("mc seed must be >= 0")
        if not 0.0 < self.speed < math.inf:  # NaN included
            raise ScenarioFormatError("mc speed must be positive and finite")

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
    if not isinstance(doc, dict):
        raise ScenarioFormatError(f"{where}: expected an object")
    kwargs = {}
    for key, value in doc.items():
        if key == "constellation":
            kwargs[key] = _parse_constellation(value, f"{where}.constellation")
        elif key in _PARAM_KEYS:
            try:
                kwargs[key] = typed = _PARAM_KEYS[key](value)
            except (TypeError, ValueError, OverflowError) as exc:  # int() of nan, of inf
                raise ScenarioFormatError(f"{where}.{key}: not a number") from exc
            if _PARAM_KEYS[key] is int and isinstance(value, float) and typed != value:
                raise ScenarioFormatError(f"{where}.{key}: must be an integer, got {value!r}")
        else:
            raise ScenarioFormatError(f"{where}: unknown key {key!r}")
    try:
        return SystemParams(**kwargs)
    except BoundsError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from exc


def _parse_node(doc: dict, where: str, policy: str) -> Node:
    if not isinstance(doc, dict):
        raise ScenarioFormatError(f"{where}: expected an object")
    known = {"id", "position", "orientation_deg", "role", "tx_id", "power_scale"}
    for key in doc:
        if key not in known:
            raise ScenarioFormatError(f"{where}: unknown key {key!r}")
    for key in ("id", "position"):
        if key not in doc:
            raise ScenarioFormatError(f"{where}: missing required key {key!r}")
    if policy == "normalized_total" and "power_scale" in doc:
        raise ScenarioFormatError(f"{where} ({str(doc['id'])!r}): power_scale is set by the "
                                  "normalized_total power policy; remove it or use fixed_per_node")
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
    Under the normalized_total power policy the policy sets every node's
    power_scale, so a node that gives one is rejected.
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
    policy = doc.get("power_policy", "fixed_per_node")
    nodes = tuple(_parse_node(nd, f"nodes[{i}]", policy) for i, nd in enumerate(nodes_doc))
    try:
        return Scenario(params=params, nodes=nodes, power_policy=policy)
    except BoundsError as exc:
        raise ScenarioFormatError(str(exc)) from exc


def dump_scenario(s: Scenario) -> dict:
    """Scenario as a plain dict; load_scenario(dump_scenario(s)) == s.
    Under normalized_total the policy sets the power scales, so none is
    written: the round trip then holds where every node's is 1, as in a
    loaded scenario."""
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
        if n.power_scale != 1.0 and s.power_policy != "normalized_total":
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

def evaluate_metric(s: Scenario, position, metric: str, mc: McConfig,
                    cell_index=0, rcs: float = 1.0):
    """One metric value at one position; power must already be normalized.

    Velocity metrics are averaged over the Monte-Carlo headings of the
    cell's substream at the fixed speed of the Monte-Carlo config; any
    singular draw makes the value +inf (see velocity_metrics). Returns
    (value, flag). For an (n, 2) block of positions with n cell indices,
    returns an (n,) array of values and a list of n flags, each cell's the
    same as on its own."""
    if metric not in METRICS:
        raise ScenarioFormatError(f"unknown metric {metric!r}")
    xy = np.reshape(np.asarray(position, dtype=float), (-1, 2))
    if metric == "peb":
        report = bounds.evaluate_bounds(s, TargetState(position=xy, rcs=rcs))
        values, flags = report.peb, report.flags
    else:
        means, flags = velocity_metrics(s, xy, mc, cell_index, rcs, (metric,))
        values = means[metric]
    flags = list(map(";".join, flags))
    if np.ndim(position) == 2:
        return values, flags
    return float(values[0]), flags[0]


def velocity_metrics(s: Scenario, position, mc: McConfig, cell_index=0, rcs: float = 1.0,
                     metrics=("veb", "crlb_heading")):
    """Velocity metrics at an (n, 2) block of positions with n cell
    indices, all from one set of heading draws; power must already be
    normalized. Returns ({metric: values}, flags), (n,) arrays and a list of
    n flag tuples. Each value is the mean over the draws of the cell's
    substream, +inf if any draw is singular (_draw_mean), and such a cell is
    flagged with the singular draw count. The block's per-position table is
    built once and the headings drawn slice by slice (see the module
    docstring)."""
    table = bounds.velocity_table(s, position, rcs)
    cells = np.reshape(cell_index, -1).tolist()
    step = _slice_cells(mc)
    means = {metric: np.empty(len(table)) for metric in metrics}
    n_bad = np.empty(len(table), dtype=int)
    for a in range(0, len(table), step):
        headings = np.array([mc.headings(i) for i in cells[a:a + step]])
        res = bounds.heading_velocity_metrics(s, table[a:a + step], mc.speed, headings)
        for metric, mean in means.items():
            mean[a:a + step] = _draw_mean(res[metric], res["singular"])
        n_bad[a:a + step] = res["singular"].sum(axis=1)
        del res  # the slice's per-draw arrays, before the next slice is drawn
    return means, table.flags(draws=(n_bad, mc.draws))


def _draw_mean(draws: np.ndarray, singular: np.ndarray) -> np.ndarray:
    """Mean of a velocity metric over the heading draws (the last axis),
    +inf where any draw is singular."""
    return np.where(singular.any(axis=-1), math.inf, draws.mean(axis=-1))


def _slice_cells(mc: McConfig) -> int:
    """Cells whose heading draws (a float64 per cell and draw) keep within
    _CHUNK_BYTES, at least one."""
    return max(1, _CHUNK_BYTES // (8 * mc.draws))


class Heatmap(NamedTuple):
    """A metric over a grid, as columns: the grid's axes, and per cell, in
    row-major y-then-x order (cell j * nx + i at (xs[i], ys[j])), the value
    and the flag string ("" where the cell is unflagged)."""

    xs: np.ndarray      # (nx,)
    ys: np.ndarray      # (ny,)
    values: np.ndarray  # (ny * nx,) float64
    flags: list[str]    # ny * nx strings


def heatmap(s: Scenario, grid: GridSpec, metric: str = "peb",
            mc: McConfig | None = None, rcs: float = 1.0) -> Heatmap:
    """Evaluate a metric on every grid point.

    Cells are evaluated in blocks through the block form of
    evaluate_metric, each block's values written into one preallocated
    array; output is bit-identical for a given Monte-Carlo seed whatever the
    block size.
    """
    mc = mc or McConfig()
    s = normalize_power(s)
    xs, ys = grid.xs(), grid.ys()
    cells = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
    # float64 bytes per cell: a 2x2 matrix, or the velocity terms of every link
    n_links = len(bounds.sensing_links(s))
    cell_bytes = 8 * (4 if metric == "peb" else len(bounds.VELOCITY_TERMS) * n_links)
    chunk = max(1, _CHUNK_BYTES // cell_bytes)
    if metric != "peb" and chunk > _slice_cells(mc):  # whole slices of draws
        chunk -= chunk % _slice_cells(mc)
    values = np.empty(len(cells))
    flags = []
    for start in range(0, len(cells), chunk):
        stop = min(start + chunk, len(cells))
        values[start:stop], block_flags = evaluate_metric(s, cells[start:stop], metric, mc,
                                                          np.arange(start, stop), rcs)
        flags += block_flags
    return Heatmap(xs, ys, values, flags)


def sweep(s: Scenario, t: TargetState, parameter: str, values, metric: str = "peb",
          mc: McConfig | None = None) -> list[tuple]:
    """Metric versus one system parameter, power re-normalized per point.

    Returns rows (parameter, value, metric, metric_value, flag); a value
    whose resource floor collapses below two subcarriers/symbols, or that
    lies out of its parameter's range, is reported as an invalid point, not
    skipped. A value that is not finite, or an n_rx_ant value that is not
    an integer, raises ScenarioFormatError before any point is evaluated.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ScenarioFormatError(
            f"unknown sweep parameter {parameter!r} (expected one of {SWEEP_PARAMETERS})")
    values = list(values)
    kind = "integers" if parameter == "n_rx_ant" else "numbers"
    for value in values:
        if not math.isfinite(value) or (kind == "integers" and value != int(value)):
            raise ScenarioFormatError(
                f"{parameter} sweep values must be finite {kind}, got {value!r}")
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
        info = bounds.link_information(p, links, t, mc.speed, trig)
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
            values[start:start + k] = np.sqrt(
                bounds._trace_inverse_2x2(tot[:, 0], tot[:, 1], tot[:, 2]))
            continue
        crlb_speed, crlb_heading, singular = bounds._polar_crlbs(
            tot[:, 0], tot[:, 1], tot[:, 2], mc.speed, trig)
        draws = np.sqrt(crlb_speed) if metric == "veb" else crlb_heading
        values[start:start + k] = _draw_mean(draws, singular)
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
