"""End-to-end acceptance gate.

One test per release criterion, each at its stated tolerance, printing one
PASS line on success (run with -s to see them). Tolerances are fixed here;
loosening them is a release decision, not a test fix.
"""
import math
import time
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from isacbounds import (
    ConstellationSpec,
    GridSpec,
    McConfig,
    Node,
    Scenario,
    SelectionProblem,
    SystemParams,
    TargetState,
    bounds,
    engine,
    fim_single_link,
    scalar_crlbs,
)
from isacbounds.model import constellation_penalty
from isacbounds.oracle import MeanSignalModel, fim_numeric, random_link_case

from conftest import map_rows
from isacbounds import validation

SEED = 20250807


def report(n, text):
    print(f"[criterion {n:2d}] PASS: {text}")


def test_01_fim_matches_numeric_oracle_200_draws():
    rng = np.random.default_rng(SEED)
    t0 = time.monotonic()
    worst_rel = worst_zero = 0.0
    for _ in range(200):
        p, g, rcs = random_link_case(rng)
        closed = fim_single_link(p, g, rcs).values
        numeric = fim_numeric(MeanSignalModel.from_link(
            p, g, rcs, phase=float(rng.uniform(-3, 3)),
            doppler=float(rng.uniform(-2e3, 2e3)))).values
        scale = np.linalg.norm(closed)
        mask = closed != 0.0
        worst_rel = max(worst_rel, (np.abs(numeric - closed)[mask]
                                    / np.abs(closed[mask])).max())
        worst_zero = max(worst_zero, np.abs(numeric[~mask]).max() / scale)
    elapsed = time.monotonic() - t0
    assert worst_rel <= 1e-5
    assert worst_zero <= 1e-5
    assert elapsed < 30.0
    report(1, f"200 draws, worst rel {worst_rel:.2e}, "
              f"zero-pattern {worst_zero:.2e}, {elapsed:.1f} s")


def test_02_scalar_crlbs_match_inverted_fim_200_draws():
    rng = np.random.default_rng(SEED + 1)
    keys = ("crlb_alpha", "crlb_phi", "crlb_fd", "crlb_tau", "crlb_theta")
    worst = {k: 0.0 for k in keys}
    for _ in range(200):
        p, g, rcs = random_link_case(rng)
        crlbs = scalar_crlbs(p, g, rcs)
        inv = fim_single_link(p, g, rcs).inverse()
        for i, key in enumerate(keys):
            worst[key] = max(worst[key], abs(crlbs[key] - inv[i, i]) / inv[i, i])
    assert all(v <= 1e-9 for v in worst.values()), worst
    # the phase bound's printed closed form agrees with the inversion; no
    # discrepancy to report
    report(2, "200 draws, worst rel per parameter "
              + ", ".join(f"{k.split('_')[1]}={v:.1e}" for k, v in worst.items()))


def test_03_efim_retains_information():
    rng = np.random.default_rng(SEED + 2)
    from isacbounds.link import schur_complement
    worst = 0.0
    for _ in range(100):
        p, g, rcs = random_link_case(rng)
        fm = fim_single_link(p, g, rcs)
        inv = fm.inverse()
        for keep in (("delay", "aoa"), ("doppler", "delay", "aoa")):
            idx = [fm.index(label) for label in keep]
            kept = inv[np.ix_(idx, idx)]
            efim_inv = np.linalg.inv(schur_complement(fm, keep).values)
            worst = max(worst, np.abs(kept - efim_inv).max() / np.abs(kept).max())
    assert worst <= 1e-9
    report(3, f"2x2 and 3x3 extractions, worst rel {worst:.2e}")


def test_04_jacobian_suite():
    rng = np.random.default_rng(SEED + 3)
    jac = validation.check_jacobians(rng, 100)
    assert jac.max_error <= jac.tolerance == 1e-6
    prod = validation.check_inverse_function_product(rng, 100)
    assert prod.max_error <= prod.tolerance == 1e-6
    report(4, f"100 points, jacobians {jac.max_error:.2e}, "
              f"inverse product {prod.max_error:.2e}")


def test_05_colocated_pair_degenerates_to_monostatic():
    rng = np.random.default_rng(SEED + 4)
    res = validation.check_degeneracy(rng, 100)
    assert res.max_error <= res.tolerance == 1e-6
    report(5, f"position and velocity reductions, worst rel {res.max_error:.2e}")


def test_06_velocity_rank_law():
    rng = np.random.default_rng(SEED + 5)
    res = validation.check_velocity_rank(rng, 100)
    assert res.max_error <= 1e-10
    # all nodes and the target on one line: every rank-one piece shares a
    # direction, so the summed velocity information is singular
    nodes = tuple(Node(id=f"n{i}", position=(10.0 * i, 0.0), orientation=0.0)
                  for i in range(3))
    s = Scenario(params=SystemParams(), nodes=nodes)
    out = bounds.network_velocity_bounds(
        s, TargetState(position=(60.0, 0.0), velocity=(5.0, 5.0)))
    assert out["veb"] == math.inf
    assert "velocity-info-singular" in out["flags"]
    report(6, f"single-link determinant {res.max_error:.1e} (relative); "
              "collinear network flagged unbounded")


def test_07_constellation_penalties():
    expected = {16: (1.89, 2.76), 64: (2.69, 4.29), 256: (3.44, 5.36)}
    etas = {}
    for order, (eta_ref, loss_ref) in expected.items():
        eta = constellation_penalty(ConstellationSpec.qam(order))
        assert abs(eta - eta_ref) <= 0.01
        assert abs(10.0 * math.log10(eta) - loss_ref) <= 0.05
        etas[order] = eta
    assert constellation_penalty(ConstellationSpec.qpsk()) == pytest.approx(1.0, abs=1e-12)
    report(7, "qpsk 1.0; " + ", ".join(
        f"{o}-qam {v:.4f} ({10 * math.log10(v):.3f} dB)" for o, v in etas.items()))


def test_08_coverage_map_reproduction(mono4, multistatic3):
    grid = GridSpec(0.0, 84.0, 0.0, 84.0, 1.0)
    t0 = time.monotonic()
    mono_rows = map_rows(engine.heatmap(mono4, grid, "peb", McConfig(draws=1)))
    multi_rows = map_rows(engine.heatmap(multistatic3, grid, "peb", McConfig(draws=1)))
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0

    xs, ys = grid.xs(), grid.ys()
    vals = np.array([r[2] for r in mono_rows]).reshape(ys.size, xs.size)
    best_near = {}
    for node in mono4.nodes:
        bx, by = node.position
        d2 = (xs[None, :] - bx) ** 2 + (ys[:, None] - by) ** 2
        sel = (d2 <= 100.0) & np.isfinite(vals)
        best_near[node.id] = float(vals[sel].min())
        assert best_near[node.id] < 0.005

    multi = {(r[0], r[1]): (r[2], r[3]) for r in multi_rows}
    baseline_cells = [(42.0, float(y)) for y in range(1, 84)]
    assert all("baseline" in multi[c][1] for c in baseline_cells)
    on_vals = np.array([multi[c][0] for c in baseline_cells])
    off_vals = np.array([multi[(40.0, float(y))][0] for y in range(1, 84)])
    finite = np.isfinite(on_vals) & np.isfinite(off_vals)
    assert np.median(on_vals[finite]) > np.median(off_vals[finite])
    report(8, f"two 85x85 maps in {elapsed:.1f} s; min near-node bound "
              f"{min(best_near.values()) * 1e3:.3f} mm; "
              f"{len(baseline_cells)} baseline cells flagged and elevated")


def test_09_sweep_trends(mono2, mono4, multistatic2, multistatic3):
    peb_target = TargetState(position=(70.0, 56.0))
    rows = engine.sweep(mono2, peb_target, "frac_subcarriers", [0.8], "peb")
    peb_mono2 = rows[0][3]
    rows = engine.sweep(multistatic2, peb_target, "frac_subcarriers", [0.8], "peb")
    peb_multi2 = rows[0][3]
    assert peb_mono2 > 0.01
    assert peb_multi2 < 0.01

    antennas = [8, 16, 32, 64, 100]
    mc = McConfig(draws=64, seed=7, speed=22.0)
    veb_target = TargetState(position=(70.0, 30.0))
    for name, s in (("mono2", mono2), ("mono4", mono4),
                    ("multistatic2", multistatic2), ("multistatic3", multistatic3)):
        peb_curve = [r[3] for r in engine.sweep(s, peb_target, "n_rx_ant",
                                                antennas, "peb")]
        assert all(a > b for a, b in zip(peb_curve, peb_curve[1:])), name
        veb_curve = [r[3] for r in engine.sweep(s, veb_target, "n_rx_ant",
                                                antennas, "veb", mc)]
        assert all(a > b for a, b in zip(veb_curve, veb_curve[1:])), name
    report(9, f"rho_f=0.8 at (70,56): two-node monostatic {peb_mono2 * 100:.2f} cm "
              f"> 1 cm > two-pair multistatic {peb_multi2 * 100:.2f} cm; "
              "position and velocity bounds monotone in array size, 4 configurations")


def test_10_velocity_approximation_and_selection(mono4, ring8):
    big_array = engine.normalize_power(
        replace(mono4, params=replace(mono4.params, n_rx_ant=100)))
    worst = 0.0
    for heading in np.linspace(0.0, 2 * np.pi, 9)[:-1]:
        t = TargetState(position=(70.0, 30.0),
                        velocity=(22.0 * math.cos(heading), 22.0 * math.sin(heading)))
        approx = bounds.network_velocity_bounds(big_array, t)["veb"]
        exact = bounds.network_velocity_bounds_exact(big_array, t)["veb_exact"]
        worst = max(worst, abs(approx - exact) / exact)
    assert worst <= 0.05

    mc = McConfig(draws=200, seed=7, speed=22.0)
    targets = ((12.0, 51.0), (42.0, 42.0), (70.0, 20.0))
    choices = {}
    for target in targets:
        for metric in ("peb", "veb", "crlb_heading"):
            res = engine.select_nodes(SelectionProblem(
                scenario=ring8, choose=4, metric=metric, target=target, mc=mc))
            again = engine.select_nodes(SelectionProblem(
                scenario=ring8, choose=4, metric=metric, target=target, mc=mc))
            assert res == again  # deterministic under the fixed seed
            choices[(target, metric)] = res.best
    differing = [t for t in targets
                 if len({choices[(t, m)] for m in ("peb", "veb", "crlb_heading")}) > 1]
    assert differing
    report(10, f"approximate vs summed-state bound gap {worst:.4f} at 100 antennas; "
               f"metric-dependent subsets at {len(differing)}/3 targets, "
               "selections reproducible")


def test_11_heatmap_determinism_across_chunk_sizes(mono4, monkeypatch):
    grid = GridSpec(6.0, 78.0, 6.0, 78.0, 4.0)
    mc = McConfig(draws=100, seed=7, speed=22.0)
    cell_bytes = 8 * mc.draws  # one cell's float64 draws
    sizes = (cell_bytes, 7 * cell_bytes, engine._CHUNK_BYTES, 1000 * cell_bytes)
    outputs, shapes = [], []
    with mock.patch.object(bounds, "velocity_table", wraps=bounds.velocity_table) as table, \
            mock.patch.object(bounds, "heading_velocity_metrics",
                              wraps=bounds.heading_velocity_metrics) as kernel:
        for chunk_bytes in sizes:
            monkeypatch.setattr(engine, "_CHUNK_BYTES", chunk_bytes)
            table.reset_mock()
            kernel.reset_mock()
            outputs.append(map_rows(engine.heatmap(mono4, grid, "veb", mc)))
            shapes.append((max(len(c.args[1]) for c in table.call_args_list),
                           max(len(c.args[1]) for c in kernel.call_args_list)))
    assert len(outputs[0]) == 19 * 19 < 1000
    assert all(out == outputs[0] for out in outputs[1:])
    # each size changes both the per-position block and the slice of draws
    assert len({b for b, _ in shapes}) == len({d for _, d in shapes}) == len(sizes)
    report(11, f"{len(outputs[0])} cells bit-identical with (block, slice) sizes {shapes}")
