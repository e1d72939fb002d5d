"""Tests for the LP throughput model (Definition 3, Section 3.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Experiment,
    ExperimentError,
    MappingError,
    PortSpace,
    ThreeLevelMapping,
    TwoLevelMapping,
)
from repro.throughput import lp_throughput, lp_throughput_masses
from repro.throughput.bottleneck import bottleneck_throughput_reference


class TestLPBasics:
    def test_example_1(self, paper_two_level, paper_experiment):
        assert lp_throughput(paper_two_level, paper_experiment) == pytest.approx(1.5)

    def test_three_level(self, paper_three_level, paper_experiment):
        assert lp_throughput(paper_three_level, paper_experiment) == pytest.approx(2.5)

    def test_empty_masses_rejected(self):
        with pytest.raises(ExperimentError):
            lp_throughput_masses({}, 2)

    def test_invalid_mask_rejected(self):
        with pytest.raises(MappingError):
            lp_throughput_masses({0b100: 1.0}, 2)
        with pytest.raises(MappingError):
            lp_throughput_masses({0: 1.0}, 2)

    def test_invalid_port_count_rejected(self):
        with pytest.raises(MappingError):
            lp_throughput_masses({1: 1.0}, 0)

    def test_single_port_saturation(self):
        assert lp_throughput_masses({0b1: 7.0}, 1) == pytest.approx(7.0)


class TestThreeLevelReduction:
    def test_reduction_matches_direct_two_level(self):
        """Section 3.2: three-level throughput equals the two-level
        throughput of the µop multiset experiment."""
        ports = PortSpace.numbered(3)
        m3 = ThreeLevelMapping(
            ports,
            {
                "x": {0b001: 2, 0b110: 1},
                "y": {0b110: 1},
            },
        )
        e = Experiment({"x": 1, "y": 2})
        masses = m3.uop_masses(e)
        # Build the equivalent two-level problem over µops-as-instructions.
        uop_names = {mask: f"uop{mask}" for mask in masses}
        m2 = TwoLevelMapping(ports, {uop_names[mask]: mask for mask in masses})
        # Integer masses let us express the µop multiset as an Experiment.
        uop_experiment = Experiment(
            {uop_names[mask]: int(mass) for mask, mass in masses.items()}
        )
        assert lp_throughput(m3, e) == pytest.approx(lp_throughput(m2, uop_experiment))


@st.composite
def random_problem(draw):
    num_ports = draw(st.integers(min_value=1, max_value=5))
    full = (1 << num_ports) - 1
    masses = draw(
        st.dictionaries(
            st.integers(min_value=1, max_value=full),
            st.floats(min_value=0.5, max_value=6.0, allow_nan=False),
            min_size=1,
            max_size=5,
        )
    )
    return masses, num_ports


class TestLPAgainstBottleneck:
    @given(random_problem())
    @settings(max_examples=50, deadline=None)
    def test_lp_equals_bottleneck(self, problem):
        masses, num_ports = problem
        lp = lp_throughput_masses(masses, num_ports)
        bn = bottleneck_throughput_reference(masses, num_ports)
        assert lp == pytest.approx(bn, rel=1e-6, abs=1e-9)

    @given(random_problem(), st.floats(min_value=0.5, max_value=4.0))
    @settings(max_examples=30, deadline=None)
    def test_scaling_linearity(self, problem, factor):
        """t* is positively homogeneous: scaling all masses scales t*."""
        masses, num_ports = problem
        scaled = {mask: mass * factor for mask, mass in masses.items()}
        assert lp_throughput_masses(scaled, num_ports) == pytest.approx(
            factor * lp_throughput_masses(masses, num_ports), rel=1e-6
        )

    @given(random_problem())
    @settings(max_examples=30, deadline=None)
    def test_monotonicity_in_mass(self, problem):
        """Adding mass never decreases throughput."""
        masses, num_ports = problem
        heavier = dict(masses)
        first = next(iter(heavier))
        heavier[first] += 1.0
        assert lp_throughput_masses(heavier, num_ports) >= lp_throughput_masses(
            masses, num_ports
        ) - 1e-9
