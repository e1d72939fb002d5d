"""Unit tests for repro.core.experiment."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import Experiment, ExperimentError, ExperimentSet, MeasuredExperiment

counts_strategy = st.dictionaries(
    st.text(st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=9),
    min_size=1,
    max_size=5,
)


class TestExperiment:
    def test_basic(self):
        e = Experiment({"add": 2, "mul": 1})
        assert e["add"] == 2
        assert e["mul"] == 1
        assert e["store"] == 0
        assert e.size == 3
        assert len(e) == 2
        assert e.support == ("add", "mul")
        assert "add" in e and "nope" not in e

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            Experiment({})

    def test_nonpositive_rejected(self):
        with pytest.raises(ExperimentError):
            Experiment({"a": 0})
        with pytest.raises(ExperimentError):
            Experiment({"a": -1})

    def test_noninteger_rejected(self):
        with pytest.raises(ExperimentError):
            Experiment({"a": 1.5})

    def test_singleton(self):
        e = Experiment.singleton("x")
        assert e.counts == {"x": 1}
        assert Experiment.singleton("x", 3).size == 3

    def test_from_sequence(self):
        assert Experiment.from_sequence("aab") == Experiment({"a": 2, "b": 1})

    def test_instances(self):
        assert list(Experiment({"a": 2, "b": 1}).instances()) == ["a", "a", "b"]

    def test_scaled(self):
        assert Experiment({"a": 1, "b": 2}).scaled(3) == Experiment({"a": 3, "b": 6})
        with pytest.raises(ExperimentError):
            Experiment({"a": 1}).scaled(0)

    def test_equality_ignores_insertion_order(self):
        assert Experiment({"a": 1, "b": 2}) == Experiment({"b": 2, "a": 1})
        assert hash(Experiment({"a": 1, "b": 2})) == hash(Experiment({"b": 2, "a": 1}))

    @given(counts_strategy)
    def test_size_is_sum(self, counts):
        e = Experiment(counts)
        assert e.size == sum(counts.values())
        assert sorted(e.support) == sorted(counts.keys())
        assert list(e.instances()).count(next(iter(counts))) == counts[next(iter(counts))]

    @given(counts_strategy, st.integers(min_value=1, max_value=4))
    def test_scaled_property(self, counts, factor):
        e = Experiment(counts)
        assert e.scaled(factor).size == factor * e.size


class TestMeasuredExperiment:
    def test_positive_throughput_required(self):
        with pytest.raises(ExperimentError):
            MeasuredExperiment(Experiment({"a": 1}), 0.0)
        with pytest.raises(ExperimentError):
            MeasuredExperiment(Experiment({"a": 1}), -1.0)


class TestExperimentSet:
    def _sample(self) -> ExperimentSet:
        s = ExperimentSet()
        s.add(Experiment({"a": 1}), 1.0)
        s.add(Experiment({"b": 1}), 2.0)
        s.add(Experiment({"a": 1, "b": 1}), 2.5)
        return s

    def test_basics(self):
        s = self._sample()
        assert len(s) == 3
        assert s.throughputs == (1.0, 2.0, 2.5)
        assert s.instruction_names() == ("a", "b")
        assert s[0].experiment == Experiment({"a": 1})

    def test_singleton_throughput(self):
        s = self._sample()
        assert s.singleton_throughput("a") == 1.0
        assert s.singleton_throughput("b") == 2.0
        assert s.singleton_throughput("c") is None

    def test_restricted_to(self):
        s = self._sample()
        only_a = s.restricted_to(["a"])
        assert len(only_a) == 1
        assert only_a[0].experiment == Experiment({"a": 1})
