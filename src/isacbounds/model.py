"""Configuration and state types plus the constellation SNR penalty.

All angles are stored in radians; scenario documents use degree-suffixed
keys and are converted on load (see engine.load_scenario). All types are
frozen dataclasses and safe to share between threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateConstellationError,
    InsufficientResourcesError,
    ScenarioFormatError,
    UndefinedHeadingError,
)

SPEED_OF_LIGHT = 299792458.0  # m/s


def wrap_angle(angle):
    """Wrap an angle, or each of an array of angles, to (-pi, pi]."""
    w = (angle + math.pi) % (2.0 * math.pi) - math.pi
    if np.ndim(w):
        return np.where(w == -math.pi, math.pi, w)
    return math.pi if w == -math.pi else w


@dataclass(frozen=True)
class ConstellationSpec:
    """Complex modulation alphabet, normalized to unit average power.

    The per-symbol SNR penalty after reciprocal filtering is the mean of
    1/|x_i|^2 over the alphabet; it equals 1 exactly for constant-envelope
    alphabets and exceeds 1 otherwise (Jensen).
    """

    points: tuple[complex, ...]

    def __post_init__(self):
        if not self.points:
            raise DegenerateConstellationError("constellation has no points")
        power = np.abs(np.asarray(self.points)) ** 2
        if np.any(power == 0.0):
            raise DegenerateConstellationError("constellation point with zero modulus")
        if abs(float(power.mean()) - 1.0) > 1e-12:
            raise ScenarioFormatError(
                f"constellation mean power {power.mean():.15g} != 1 (normalize first)"
            )

    @cached_property
    def penalty(self) -> float:
        """SNR penalty factor (>= 1)."""
        return constellation_penalty(self)

    @classmethod
    def psk(cls, order: int) -> "ConstellationSpec":
        pts = tuple(complex(np.exp(2j * np.pi * k / order)) for k in range(order))
        return cls(points=pts)

    @classmethod
    def qpsk(cls) -> "ConstellationSpec":
        return cls.psk(4)

    @classmethod
    def qam(cls, order: int) -> "ConstellationSpec":
        """Square M-QAM with unit average power (order must be an even power of 2)."""
        side = int(round(math.sqrt(order)))
        if side * side != order or side < 2:
            raise ScenarioFormatError(f"{order}-QAM is not a square constellation")
        levels = np.arange(-(side - 1), side, 2, dtype=float)
        pts = (levels[:, None] + 1j * levels[None, :]).ravel()
        pts = pts / math.sqrt(float(np.mean(np.abs(pts) ** 2)))
        return cls(points=tuple(complex(p) for p in pts))


def constellation_penalty(c: ConstellationSpec) -> float:
    """Mean of 1/|x_i|^2 over the alphabet; multiplies the noise variance
    after the known transmitted symbols are divided out."""
    power = np.abs(np.asarray(c.points)) ** 2
    if np.any(power == 0.0):
        raise DegenerateConstellationError("constellation point with zero modulus")
    return float(np.mean(1.0 / power))


@dataclass(frozen=True)
class SystemParams:
    """Radio and frame constants shared by every node of a scenario.

    Defaults are the 5G NR FR2 numerology used throughout the shipped
    example scenarios. `total_power` is the full OFDM signal power; the
    sensing budget is the `frac_subcarriers` share of it (see derive_frame).
    """

    n_tx_ant: int = 16              # transmit array elements
    n_rx_ant: int = 16              # receive array elements
    symbols_per_frame: int = 1120   # OFDM symbols per frame
    active_subcarriers: int = 3168  # active subcarriers per frame
    carrier_freq: float = 28e9      # Hz
    subcarrier_spacing: float = 120e3  # Hz
    symbol_duration: float = 8.92e-6   # s, including cyclic prefix
    frac_subcarriers: float = 0.2   # share of subcarriers used for sensing
    frac_symbols: float = 0.1       # share of OFDM symbols used for sensing
    total_power: float = 0.1        # W (20 dBm)
    noise_psd: float = 4e-20        # W/Hz, one-sided
    tx_gain: float = 1.0            # linear element gain
    rx_gain: float = 1.0            # linear element gain
    constellation: ConstellationSpec = field(default_factory=ConstellationSpec.qpsk)

    def __post_init__(self):
        for name in ("n_tx_ant", "n_rx_ant", "symbols_per_frame", "active_subcarriers"):
            if getattr(self, name) < 1:
                raise ScenarioFormatError(f"{name} must be >= 1")
        for name in ("carrier_freq", "subcarrier_spacing", "symbol_duration",
                     "total_power", "noise_psd", "tx_gain", "rx_gain"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN included
                raise ScenarioFormatError(f"{name} must be positive and finite")
        for name in ("frac_subcarriers", "frac_symbols"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ScenarioFormatError(f"{name} must lie in (0, 1]")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def noise_var(self) -> float:
        """Noise power per subcarrier, noise_psd * subcarrier_spacing (W)."""
        return self.noise_psd * self.subcarrier_spacing

    @cached_property
    def frame(self) -> "FrameDerived":
        """derive_frame(self), computed once per instance."""
        return derive_frame(self)


@dataclass(frozen=True)
class FrameDerived:
    """Quantities derived from SystemParams for one sensing frame."""

    k_subcarriers: int     # sensing subcarriers
    m_symbols: int         # sensing OFDM symbols
    sensing_power: float   # W, per-transmitter sensing budget before scaling
    p_avg: float           # W, average transmit power per sensing subcarrier
    noise_var: float       # W
    noise_var_postdiv: float  # W, after symbol division (noise_var * penalty)


def derive_frame(p: SystemParams) -> FrameDerived:
    """Resource counts and powers for the sensing share of a frame.

    Subcarrier/symbol counts use floor of the fractional allocation. The
    per-subcarrier power spreads the sensing budget (frac_subcarriers of
    total_power) over the sensing subcarriers.
    """
    k = math.floor(p.frac_subcarriers * p.active_subcarriers)
    m = math.floor(p.frac_symbols * p.symbols_per_frame)
    if k < 2 or m < 2:
        raise InsufficientResourcesError(
            f"need at least 2 sensing subcarriers and symbols, got K={k}, M={m}"
        )
    sensing_power = p.frac_subcarriers * p.total_power
    eta = p.constellation.penalty
    return FrameDerived(
        k_subcarriers=k,
        m_symbols=m,
        sensing_power=sensing_power,
        p_avg=sensing_power / k,
        noise_var=p.noise_var,
        noise_var_postdiv=eta * p.noise_var,
    )


VALID_ROLES = ("monostatic", "tx", "rx")


@dataclass(frozen=True)
class Node:
    """A base-station entity: position, array orientation, and role.

    `orientation` is the angle from the global x-axis to the local x-axis
    (array boresight), wrapped to (-pi, pi]. An "rx" node references the id
    of the "tx" node it listens to. `power_scale` multiplies the node's
    sensing power; engine.normalize_power sets it under the shared-budget
    policy.
    """

    id: str
    position: tuple[float, float]
    orientation: float = 0.0
    role: str = "monostatic"
    tx_id: str | None = None
    power_scale: float = 1.0

    def __post_init__(self):
        if self.role not in VALID_ROLES:
            raise ScenarioFormatError(f"node {self.id!r}: unknown role {self.role!r}")
        if self.role == "rx" and not self.tx_id:
            raise ScenarioFormatError(f"node {self.id!r}: rx role requires tx_id")
        if self.role != "rx" and self.tx_id is not None:
            raise ScenarioFormatError(f"node {self.id!r}: tx_id only valid for rx role")
        if not all(map(math.isfinite, (*self.position, self.orientation, self.power_scale))):
            raise ScenarioFormatError(
                f"node {self.id!r}: position, orientation and power_scale must be finite")
        if self.power_scale <= 0.0:
            raise ScenarioFormatError(f"node {self.id!r}: power_scale must be positive")
        object.__setattr__(self, "position", (float(self.position[0]), float(self.position[1])))
        object.__setattr__(self, "orientation", wrap_angle(float(self.orientation)))


@dataclass(frozen=True)
class TargetState:
    """Point target: global position (m), velocity (m/s), radar cross-section
    (m^2) and nuisance phase (rad). The echo amplitude is derived per link
    from the radar equation and is never user-specified.

    The position may also be an (n, 2) array: a block of n positions that
    share the velocity and rcs, which the bounds evaluate at once."""

    position: tuple[float, float]
    velocity: tuple[float, float] = (0.0, 0.0)
    rcs: float = 1.0
    phase: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.rcs < math.inf:  # NaN included
            raise ScenarioFormatError("target rcs must be positive and finite")
        if not all(map(math.isfinite, self.velocity)):
            raise ScenarioFormatError("target velocity must be finite")
        if np.ndim(self.position) == 2:
            object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        else:
            object.__setattr__(self, "position",
                               (float(self.position[0]), float(self.position[1])))
        object.__setattr__(self, "velocity", (float(self.velocity[0]), float(self.velocity[1])))

    @property
    def speed(self) -> float:
        return math.hypot(*self.velocity)

    @property
    def heading(self) -> float:
        if self.speed == 0.0:
            raise UndefinedHeadingError("heading undefined at zero speed")
        return math.atan2(self.velocity[1], self.velocity[0])


POWER_POLICIES = ("fixed_per_node", "normalized_total")


def required_tx(nodes) -> dict[str, str]:
    """{rx id: id of the tx node it needs}: a scenario holds an rx node only
    together with its tx, which must have role 'tx'."""
    return {n.id: n.tx_id for n in nodes if n.role == "rx"}


@dataclass(frozen=True)
class Scenario:
    """A sensing network: shared radio parameters, nodes, and power policy."""

    params: SystemParams
    nodes: tuple[Node, ...]
    power_policy: str = "fixed_per_node"

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if self.power_policy not in POWER_POLICIES:
            raise ScenarioFormatError(f"unknown power_policy {self.power_policy!r}")
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ScenarioFormatError("duplicate node ids")
        by_id = {n.id: n for n in self.nodes}
        needs = required_tx(self.nodes)
        for rx_id, tx_id in needs.items():
            tx = by_id.get(tx_id)
            if tx is None:
                raise ScenarioFormatError(f"node {rx_id!r}: tx_id {tx_id!r} not found")
            if tx.role != "tx":
                raise ScenarioFormatError(
                    f"node {rx_id!r}: tx_id {tx_id!r} has role {tx.role!r}, expected 'tx'"
                )
        if not needs and not any(n.role == "monostatic" for n in self.nodes):
            raise ScenarioFormatError(
                "scenario has no sensing link (need a monostatic node or a tx/rx pair)"
            )

    @property
    def n_transmitters(self) -> int:
        """Number of transmitting nodes (monostatic or tx role)."""
        return sum(1 for n in self.nodes if n.role in ("monostatic", "tx"))
