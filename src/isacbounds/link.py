"""Single-link Fisher analysis.

The observation of one link is the reflection of a beamformed OFDM grid
(K sensing subcarriers x M sensing symbols x N_R antennas) in circular
complex Gaussian noise. The unknowns are amplitude, phase, Doppler shift,
delay, and direction of arrival; their 5x5 Fisher information matrix has a
closed form, and the delay/DoA (and Doppler/delay/DoA) effective Fisher
matrices obtained by Schur complement are exactly diagonal.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientResourcesError,
    NuisanceBlockSingularError,
    OutOfFieldError,
    SingularGeometryError,
)
from .model import SPEED_OF_LIGHT, SystemParams

C = SPEED_OF_LIGHT

PARAM_LABELS = ("alpha", "phi", "doppler", "delay", "aoa")

# Condition number above which matrix inversions emit a warning.
CONDITION_WARN = 1e12


def _scaled_cond(a: np.ndarray) -> float:
    """Condition number after symmetric diagonal scaling.

    The raw condition number of a mixed-unit information matrix is
    dominated by the unit disparity (amplitude vs delay vs Doppler); the
    scaled one detects genuine rank deficiency.
    """
    d = np.sqrt(np.abs(np.diag(a)))
    if np.any(d == 0.0):
        return math.inf
    return float(np.linalg.cond(a / np.outer(d, d)))


def steering_vector(n_elements: int, angle: float) -> np.ndarray:
    """Half-wavelength ULA steering vector, centered so that a^H a = N."""
    idx = np.arange(n_elements) - (n_elements - 1) / 2.0
    return np.exp(1j * np.pi * idx * math.sin(angle))


@dataclass(frozen=True)
class LinkGeometry:
    """Geometry of one sensing link as seen from the receiver.

    `range_tx` and `range_rx` coincide for a two-way (co-located) link.
    `pointing_offset` is the beam-steering error (pointed minus true
    departure direction); `dod_local` the true departure direction at the
    transmit array, used only to evaluate the beamforming gain. Ranges and
    DoA are (n,) arrays for a block of target positions (bounds.link_geometry),
    which reports degenerate positions in a status instead of raising.
    """

    kind: str                   # "monostatic" | "bistatic"
    range_tx: float             # m
    range_rx: float             # m
    doa_local: float            # rad
    pointing_offset: float = 0.0  # rad
    dod_local: float = 0.0        # rad

    def __post_init__(self):
        if self.kind not in ("monostatic", "bistatic"):
            raise ValueError(f"unknown link kind {self.kind!r}")
        if np.ndim(self.range_rx):
            return
        if self.range_tx <= 0.0 or self.range_rx <= 0.0:
            raise SingularGeometryError("link ranges must be positive")
        if abs(self.doa_local) >= math.pi / 2:
            raise OutOfFieldError("DoA outside the array field of view")

    @classmethod
    def monostatic(cls, range_m: float, doa_local: float, **kw) -> "LinkGeometry":
        return cls(kind="monostatic", range_tx=range_m, range_rx=range_m,
                   doa_local=doa_local, **kw)


@dataclass(frozen=True)
class FisherMatrix:
    """Square information matrix over an ordered list of parameter names."""

    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        n = len(self.labels)
        if vals.shape != (n, n):
            raise ValueError(f"matrix shape {vals.shape} does not match {n} labels")
        scale = float(np.abs(vals).max())
        if scale > 0.0 and float(np.abs(vals - vals.T).max()) > 1e-10 * scale:
            raise ValueError("Fisher matrix is not symmetric")
        if scale > 0.0:
            min_eig = float(np.linalg.eigvalsh(vals).min())
            if min_eig < -1e-9 * scale:
                raise ValueError(f"Fisher matrix is not positive semidefinite ({min_eig=})")

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def inverse(self) -> np.ndarray:
        cond = _scaled_cond(self.values)
        if cond > CONDITION_WARN:
            warnings.warn(f"ill-conditioned Fisher matrix (cond={cond:.3e})", RuntimeWarning)
        return np.linalg.inv(self.values)


def link_snr(p: SystemParams, g: LinkGeometry, rcs: float, power_scale: float = 1.0) -> dict:
    """Per-receive-antenna SNR of a link via the radar equation.

    Returns the SNR before symbol division, the SNR after division (reduced
    by the constellation penalty), and the echo amplitude; (n,) arrays for
    the geometry of a block of positions. A nonzero
    pointing offset replaces the full beamforming gain with |a^H(dod) a(dod
    + offset)|^2 / N_T.
    """
    fr = p.frame
    alpha_sq = (p.tx_gain * p.rx_gain * C**2 * rcs
                / ((4.0 * math.pi) ** 3 * p.carrier_freq**2 * g.range_tx**2 * g.range_rx**2))
    p_avg = power_scale * fr.p_avg
    if g.pointing_offset == 0.0:
        gamma_sq = p_avg * p.n_tx_ant
    else:
        a_true = steering_vector(p.n_tx_ant, g.dod_local)
        a_steer = steering_vector(p.n_tx_ant, g.dod_local + g.pointing_offset)
        gamma_sq = p_avg * abs(np.vdot(a_true, a_steer)) ** 2 / p.n_tx_ant
    snr = alpha_sq * gamma_sq / fr.noise_var
    eta = p.constellation.penalty
    return {"snr": snr, "snr_postdiv": snr / eta, "alpha": np.sqrt(alpha_sq)}


def fim_single_link(p: SystemParams, g: LinkGeometry, rcs: float,
                    power_scale: float = 1.0) -> FisherMatrix:
    """5x5 Fisher information matrix over (alpha, phi, doppler, delay, aoa).

    The common prefactor is K*M*N_R*SNR/eta. Amplitude and DoA decouple from
    everything else; phase, Doppler and delay are mutually coupled.
    """
    fr = p.frame
    if p.n_rx_ant < 2:
        raise InsufficientResourcesError("need at least 2 receive antennas")
    k, m = fr.k_subcarriers, fr.m_symbols
    ts, df = p.symbol_duration, p.subcarrier_spacing
    nr = p.n_rx_ant
    s = link_snr(p, g, rcs, power_scale)
    pref = k * m * nr * s["snr"] / p.constellation.penalty
    alpha = s["alpha"]
    pi = math.pi
    f = np.zeros((5, 5))
    f[0, 0] = 2.0 / alpha**2
    f[1, 1] = 2.0
    f[1, 2] = f[2, 1] = 2.0 * pi * ts * (m - 1)
    f[1, 3] = f[3, 1] = -2.0 * pi * df * (k - 1)
    f[2, 2] = 4.0 * pi**2 * ts**2 * (2 * m - 1) * (m - 1) / 3.0
    f[2, 3] = f[3, 2] = -2.0 * pi**2 * ts * df * (m - 1) * (k - 1)
    f[3, 3] = 4.0 * pi**2 * df**2 * (2 * k - 1) * (k - 1) / 3.0
    f[4, 4] = pi**2 * (nr**2 - 1) * math.cos(g.doa_local) ** 2 / 6.0
    return FisherMatrix(labels=PARAM_LABELS, values=pref * f)


def efim_diagonal(p: SystemParams, snr, doa):
    """Diagonal (doppler, delay, doa) of a link's local effective Fisher
    matrix, which the Schur complement leaves exactly diagonal; elementwise
    for arrays of SNR and DoA."""
    fr = p.frame
    k, m, nr = fr.k_subcarriers, fr.m_symbols, p.n_rx_ant
    pref = snr * nr * k * m / p.constellation.penalty
    pi = math.pi
    return (
        pref * 2.0 * pi**2 * p.symbol_duration**2 * (m**2 - 1) / 3.0,
        pref * 2.0 * pi**2 * p.subcarrier_spacing**2 * (k**2 - 1) / 3.0,
        pref * pi**2 * (nr**2 - 1) * np.cos(doa) ** 2 / 6.0,
    )


def scalar_crlbs(p: SystemParams, g: LinkGeometry, rcs: float,
                 power_scale: float = 1.0) -> dict:
    """Closed-form variance bounds for each link parameter.

    The Doppler, delay and DoA bounds are the reciprocals of efim_diagonal.
    Also returns the range bound (c/2)^2 * crlb_tau of a two-way link and
    the sum-range bound of a separated pair, which is four times larger.
    """
    fr = p.frame
    if p.n_rx_ant < 2:
        raise InsufficientResourcesError("need at least 2 receive antennas")
    k, m = fr.k_subcarriers, fr.m_symbols
    s = link_snr(p, g, rcs, power_scale)
    base = p.constellation.penalty / (k * m * p.n_rx_ant * s["snr"])
    d_fd, d_tau, d_theta = efim_diagonal(p, s["snr"], g.doa_local)
    crlb_tau = 1.0 / d_tau
    crlb_range = (C / 2.0) ** 2 * crlb_tau
    return {
        "crlb_alpha": s["alpha"] ** 2 * base / 2.0,
        "crlb_phi": (7.0 * k * m + k + m - 5.0) * base * k * m
                    / (2.0 * (k**2 + k) * (m**2 + m)),
        "crlb_fd": 1.0 / d_fd,
        "crlb_tau": crlb_tau,
        "crlb_theta": 1.0 / d_theta,
        "crlb_range": crlb_range,
        "crlb_bistatic_range": 4.0 * crlb_range,
    }


def schur_complement(m: FisherMatrix, keep) -> FisherMatrix:
    """Effective Fisher matrix for the kept parameters.

    For the partition [[A, B], [B^T, C]] induced by `keep` (labels or
    indices), returns C - B^T A^-1 B, whose inverse equals the keep-block of
    the full inverse.
    """
    keep_idx = [m.index(i) if isinstance(i, str) else int(i) for i in keep]
    if len(set(keep_idx)) != len(keep_idx):
        raise ValueError("duplicate indices in keep")
    keep_idx = sorted(keep_idx)
    drop_idx = [i for i in range(len(m.labels)) if i not in keep_idx]
    vals = m.values
    if not drop_idx:
        return FisherMatrix(labels=m.labels, values=vals.copy())
    a = vals[np.ix_(drop_idx, drop_idx)]
    b = vals[np.ix_(drop_idx, keep_idx)]
    c = vals[np.ix_(keep_idx, keep_idx)]
    cond = _scaled_cond(a)
    if not np.isfinite(cond):
        raise NuisanceBlockSingularError("nuisance block is singular")
    if cond > CONDITION_WARN:
        warnings.warn(f"ill-conditioned nuisance block (cond={cond:.3e})", RuntimeWarning)
    try:
        solved = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NuisanceBlockSingularError("nuisance block is singular") from exc
    result = c - b.T @ solved
    result = (result + result.T) / 2.0  # kill roundoff asymmetry
    return FisherMatrix(labels=tuple(m.labels[i] for i in keep_idx), values=result)


def efim_delay_angle(p: SystemParams, g: LinkGeometry, rcs: float,
                     power_scale: float = 1.0) -> FisherMatrix:
    """2x2 effective Fisher matrix over (delay, aoa); exactly diagonal."""
    return schur_complement(fim_single_link(p, g, rcs, power_scale), ("delay", "aoa"))


def efim_doppler_delay_angle(p: SystemParams, g: LinkGeometry, rcs: float,
                             power_scale: float = 1.0) -> FisherMatrix:
    """3x3 effective Fisher matrix over (doppler, delay, aoa); diagonal."""
    return schur_complement(fim_single_link(p, g, rcs, power_scale),
                            ("doppler", "delay", "aoa"))
