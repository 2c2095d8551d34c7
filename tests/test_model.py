import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from isacbounds import ConstellationSpec, Node, Scenario, SystemParams, TargetState
from isacbounds.errors import (
    DegenerateConstellationError,
    InsufficientResourcesError,
    ScenarioFormatError,
    UndefinedHeadingError,
)
from isacbounds.model import constellation_penalty, derive_frame, wrap_angle


class TestConstellation:
    def test_qpsk_penalty_is_one(self):
        assert constellation_penalty(ConstellationSpec.qpsk()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("order,eta", [(16, 1.89), (64, 2.69), (256, 3.44)])
    def test_qam_penalties(self, order, eta):
        assert constellation_penalty(ConstellationSpec.qam(order)) == pytest.approx(eta, abs=0.01)

    @pytest.mark.parametrize("order,loss_db", [(16, 2.76), (64, 4.29), (256, 5.36)])
    def test_qam_snr_loss_db(self, order, loss_db):
        eta = constellation_penalty(ConstellationSpec.qam(order))
        assert 10.0 * math.log10(eta) == pytest.approx(loss_db, abs=0.05)

    def test_zero_modulus_point_rejected(self):
        pts = [0.0 + 0.0j, math.sqrt(2.0) + 0.0j]
        with pytest.raises(DegenerateConstellationError):
            ConstellationSpec(points=tuple(pts))

    def test_non_normalized_rejected(self):
        with pytest.raises(ScenarioFormatError):
            ConstellationSpec(points=(2.0 + 0j, -2.0 + 0j))

    @given(st.lists(st.complex_numbers(min_magnitude=0.05, max_magnitude=10.0,
                                       allow_infinity=False, allow_nan=False),
                    min_size=1, max_size=64))
    def test_penalty_at_least_one(self, raw):
        pts = np.asarray(raw) / math.sqrt(float(np.mean(np.abs(raw) ** 2)))
        c = ConstellationSpec(points=tuple(complex(p) for p in pts))
        eta = constellation_penalty(c)
        assert eta >= 1.0 - 1e-9
        if np.allclose(np.abs(pts), 1.0, atol=1e-12):
            assert eta == pytest.approx(1.0, abs=1e-9)

    def test_penalty_exceeds_one_for_non_constant_envelope(self):
        assert constellation_penalty(ConstellationSpec.qam(16)) > 1.0


class TestDeriveFrame:
    def test_reference_frame_counts(self, params):
        fr = derive_frame(params)
        assert fr.k_subcarriers == math.floor(0.2 * 3168) == 633
        assert fr.m_symbols == math.floor(0.1 * 1120) == 112

    def test_full_allocation(self):
        p = SystemParams(active_subcarriers=64, frac_subcarriers=1.0)
        assert derive_frame(p).k_subcarriers == 64

    def test_qpsk_no_noise_penalty(self, params):
        fr = derive_frame(params)
        assert fr.noise_var_postdiv == fr.noise_var == params.noise_psd * params.subcarrier_spacing

    def test_qam_noise_penalty(self):
        p = SystemParams(constellation=ConstellationSpec.qam(16))
        fr = derive_frame(p)
        assert fr.noise_var_postdiv == pytest.approx(fr.noise_var * 17.0 / 9.0, rel=1e-12)

    def test_sensing_power_and_per_subcarrier_power(self, params):
        fr = derive_frame(params)
        assert fr.sensing_power == pytest.approx(0.2 * 0.1, rel=1e-15)
        assert fr.p_avg == pytest.approx(fr.sensing_power / 633, rel=1e-15)
        # equals -15 dBm for the reference numerology
        assert 10.0 * math.log10(fr.p_avg * 1e3) == pytest.approx(-15.0, abs=0.01)

    def test_insufficient_resources(self):
        p = SystemParams(symbols_per_frame=10, frac_symbols=0.1)
        with pytest.raises(InsufficientResourcesError):
            derive_frame(p)

    def test_pure(self, params):
        assert derive_frame(params) == derive_frame(params)

    def test_cached_frame_follows_its_params(self, params):
        assert params.frame is params.frame
        assert params.frame == derive_frame(params)
        half = replace(params, frac_subcarriers=0.5)
        assert half.frame == derive_frame(half)
        assert half.frame.k_subcarriers != params.frame.k_subcarriers
        assert half == replace(params, frac_subcarriers=0.5)  # the cache is not a field


class TestParamsValidation:
    @pytest.mark.parametrize("field,value", [
        ("n_tx_ant", 0), ("carrier_freq", 0.0), ("frac_subcarriers", 0.0),
        ("frac_symbols", 1.5), ("total_power", -1.0), ("noise_psd", 0.0),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ScenarioFormatError):
            SystemParams(**{field: value})


class TestWrapAngle:
    @pytest.mark.parametrize("angle,expected", [
        (0.0, 0.0), (math.pi, math.pi), (-math.pi, math.pi),
        (3 * math.pi / 2, -math.pi / 2), (2 * math.pi, 0.0),
    ])
    def test_wrap(self, angle, expected):
        assert wrap_angle(angle) == pytest.approx(expected, abs=1e-15)

    @given(st.floats(-50.0, 50.0))
    def test_range(self, angle):
        w = wrap_angle(angle)
        assert -math.pi < w <= math.pi
        assert math.isclose(math.cos(w), math.cos(angle), abs_tol=1e-9)
        assert math.isclose(math.sin(w), math.sin(angle), abs_tol=1e-9)


class TestNode:
    def test_orientation_wrapped(self):
        n = Node(id="a", position=(0, 0), orientation=3 * math.pi)
        assert n.orientation == pytest.approx(math.pi)

    def test_rx_needs_tx_id(self):
        with pytest.raises(ScenarioFormatError):
            Node(id="a", position=(0, 0), role="rx")

    def test_unknown_role(self):
        with pytest.raises(ScenarioFormatError):
            Node(id="a", position=(0, 0), role="relay")


class TestTargetState:
    def test_speed_heading(self):
        t = TargetState(position=(0, 0), velocity=(3.0, 4.0))
        assert t.speed == 5.0
        assert t.heading == pytest.approx(math.atan2(4.0, 3.0))

    def test_heading_undefined_at_rest(self):
        with pytest.raises(UndefinedHeadingError):
            TargetState(position=(0, 0)).heading

    def test_rcs_positive(self):
        with pytest.raises(ScenarioFormatError):
            TargetState(position=(0, 0), rcs=0.0)


class TestScenario:
    def test_duplicate_ids(self, params):
        nodes = (Node(id="a", position=(0, 0)), Node(id="a", position=(1, 1)))
        with pytest.raises(ScenarioFormatError):
            Scenario(params=params, nodes=nodes)

    def test_rx_reference_must_exist(self, params):
        nodes = (Node(id="a", position=(0, 0), role="rx", tx_id="ghost"),
                 Node(id="b", position=(1, 1)))
        with pytest.raises(ScenarioFormatError):
            Scenario(params=params, nodes=nodes)

    def test_rx_reference_must_be_tx_role(self, params):
        nodes = (Node(id="a", position=(0, 0), role="monostatic"),
                 Node(id="b", position=(1, 1), role="rx", tx_id="a"))
        with pytest.raises(ScenarioFormatError):
            Scenario(params=params, nodes=nodes)

    def test_needs_a_sensing_link(self, params):
        with pytest.raises(ScenarioFormatError):
            Scenario(params=params, nodes=(Node(id="a", position=(0, 0), role="tx"),))

    def test_tx_with_rx_is_enough(self, params):
        nodes = (Node(id="a", position=(0, 0), role="tx"),
                 Node(id="b", position=(9, 0), role="rx", tx_id="a"))
        assert Scenario(params=params, nodes=nodes).n_transmitters == 1
