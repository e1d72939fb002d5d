"""Tests for the bottleneck simulation algorithm (Equation 1).

The central correctness property (Appendix A of the paper): the bottleneck
algorithm computes exactly the LP optimum.  We check all implementation
variants against each other and against the LP on random mappings and
experiments via hypothesis.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ExperimentError, MappingError
from repro.throughput import (
    bottleneck_throughput,
    bottleneck_throughput_dense,
    bottleneck_throughput_reference,
    lp_throughput_masses,
)
from repro.throughput.bottleneck import dense_mass_vector, popcounts, zeta_transform


def masses_strategy(max_ports: int = 6):
    """Random (masses, num_ports) pairs with at least one µop."""

    def build(num_ports: int):
        full = (1 << num_ports) - 1
        return st.dictionaries(
            st.integers(min_value=1, max_value=full),
            st.floats(min_value=0.25, max_value=8.0, allow_nan=False),
            min_size=1,
            max_size=6,
        ).map(lambda d: (d, num_ports))

    return st.integers(min_value=1, max_value=max_ports).flatmap(build)


class TestExampleFromPaper:
    def test_example_1(self, paper_two_level, paper_experiment):
        masses = paper_two_level.uop_masses(paper_experiment)
        assert bottleneck_throughput_reference(masses, 3) == pytest.approx(1.5)
        assert bottleneck_throughput_dense(masses, 3) == pytest.approx(1.5)
        assert bottleneck_throughput(masses, 3) == pytest.approx(1.5)

    def test_three_level_example(self, paper_three_level, paper_experiment):
        masses = paper_three_level.uop_masses(paper_experiment)
        # U1 mass 2 on {P1} alone gives 2; U2 mass 3 on {P1,P2} plus U1 gives
        # (2+3)/2 = 2.5; adding P3 gives (2+3+1)/3 = 2.0 -> max is 2.5.
        assert bottleneck_throughput(masses, 3) == pytest.approx(2.5)


class TestValidation:
    def test_empty_masses_rejected(self):
        with pytest.raises(ExperimentError):
            bottleneck_throughput_reference({}, 3)

    def test_zero_mask_rejected(self):
        with pytest.raises(MappingError):
            bottleneck_throughput_reference({0: 1.0}, 3)

    def test_foreign_mask_rejected(self):
        with pytest.raises(MappingError):
            bottleneck_throughput_dense({0b1000: 1.0}, 3)

    def test_negative_mass_rejected(self):
        with pytest.raises(ExperimentError):
            bottleneck_throughput({1: -1.0}, 3)

    def test_nonpositive_ports_rejected(self):
        with pytest.raises(MappingError):
            bottleneck_throughput({1: 1.0}, 0)


class TestKnownValues:
    def test_single_uop_single_port(self):
        assert bottleneck_throughput({0b1: 4.0}, 1) == pytest.approx(4.0)

    def test_mass_spreads_over_ports(self):
        assert bottleneck_throughput({0b11: 4.0}, 2) == pytest.approx(2.0)
        assert bottleneck_throughput({0b111: 6.0}, 3) == pytest.approx(2.0)

    def test_disjoint_uops(self):
        masses = {0b01: 1.0, 0b10: 3.0}
        assert bottleneck_throughput(masses, 2) == pytest.approx(3.0)

    def test_nested_uops(self):
        # 1 unit restricted to P0, 1 unit on {P0,P1}: bottleneck is {P0,P1}
        # with mass 2 over 2 ports vs {P0} with mass 1 -> 1.0.
        masses = {0b01: 1.0, 0b11: 1.0}
        assert bottleneck_throughput(masses, 2) == pytest.approx(1.0)
        # Heavier restricted mass makes the single port the bottleneck.
        masses = {0b01: 3.0, 0b11: 1.0}
        assert bottleneck_throughput(masses, 2) == pytest.approx(3.0)

    @pytest.mark.parametrize("num_ports", [63, 64, 65, 70])
    def test_masks_wider_than_a_machine_word(self, num_ports):
        top = 1 << (num_ports - 1)
        masses = {top | 0b1: 3.0, top: 2.0, 0b110: 4.0}
        assert bottleneck_throughput(masses, num_ports) == 2.5

    def test_zero_mass_entries_ignored(self):
        assert bottleneck_throughput({0b1: 0.0, 0b10: 2.0}, 2) == pytest.approx(2.0)

    @pytest.mark.parametrize("num_ports", [1, 2, 3])
    def test_zero_mass_gives_zero_for_any_port_count(self, num_ports):
        masses = {0b1: 0.0}
        expected = bottleneck_throughput_reference(masses, num_ports)
        assert expected == 0.0
        assert bottleneck_throughput(masses, num_ports) == expected


class TestAgreement:
    @given(masses_strategy())
    @settings(max_examples=150, deadline=None)
    def test_all_variants_agree(self, masses_and_ports):
        masses, num_ports = masses_and_ports
        reference = bottleneck_throughput_reference(masses, num_ports)
        assert bottleneck_throughput_dense(masses, num_ports) == pytest.approx(reference)
        assert bottleneck_throughput(masses, num_ports) == pytest.approx(reference)

    @given(masses_strategy(max_ports=5))
    @settings(max_examples=60, deadline=None)
    def test_bottleneck_equals_lp(self, masses_and_ports):
        """Appendix A: the bottleneck algorithm solves the LP exactly."""
        masses, num_ports = masses_and_ports
        if all(mass == 0.0 for mass in masses.values()):
            return
        lp = lp_throughput_masses(masses, num_ports)
        bn = bottleneck_throughput_reference(masses, num_ports)
        assert bn == pytest.approx(lp, rel=1e-6, abs=1e-9)


class TestDenseHelpers:
    def test_popcounts(self):
        table = popcounts(3)
        assert table.tolist() == [0, 1, 1, 2, 1, 2, 2, 3]

    def test_dense_mass_vector(self):
        vec = dense_mass_vector({0b01: 1.5, 0b10: 2.0}, 2)
        assert vec.tolist() == [0.0, 1.5, 2.0, 0.0]

    def test_zeta_transform_manual(self):
        values = np.array([0.0, 1.0, 2.0, 4.0])
        out = zeta_transform(values.copy(), 2)
        # S[Q] = sum of values over subsets of Q.
        assert out.tolist() == [0.0, 1.0, 2.0, 7.0]

    def test_zeta_transform_batched_rows(self):
        values = np.array([[0.0, 1.0, 2.0, 4.0], [1.0, 0.0, 0.0, 0.0]])
        out = zeta_transform(values.copy(), 2)
        assert out[0].tolist() == [0.0, 1.0, 2.0, 7.0]
        assert out[1].tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_zeta_transform_zero_rows(self):
        out = zeta_transform(np.zeros((0, 8)), 3)
        assert out.shape == (0, 8)

    def test_zeta_transform_shape_mismatch(self):
        with pytest.raises(MappingError):
            zeta_transform(np.zeros(5), 2)
