"""Tests for experiment generation (Section 4.1)."""

import math

import pytest

from repro.core import Experiment, ExperimentError
from repro.pmevo import (
    pair_experiments,
    random_experiments,
    singleton_experiments,
)


class TestSingletons:
    def test_one_per_name(self):
        singles = singleton_experiments(["a", "b", "c"])
        assert singles == [Experiment({n: 1}) for n in ("a", "b", "c")]


class TestPairs:
    def test_plain_pairs_for_equal_throughputs(self):
        pairs = pair_experiments(["a", "b", "c"], {"a": 1.0, "b": 1.0, "c": 1.0})
        # No saturating pairs when all throughputs are equal: 3 choose 2.
        assert len(pairs) == 3
        assert Experiment({"a": 1, "b": 1}) in pairs

    def test_saturating_pair_multiplicity(self):
        # t*(a)=3, t*(b)=1 -> {a:1, b:3}.
        pairs = pair_experiments(["a", "b"], {"a": 3.0, "b": 1.0})
        assert Experiment({"a": 1, "b": 1}) in pairs
        assert Experiment({"a": 1, "b": 3}) in pairs
        assert len(pairs) == 2

    def test_saturating_pair_rounds_up(self):
        pairs = pair_experiments(["a", "b"], {"a": 2.5, "b": 1.0})
        assert Experiment({"a": 1, "b": math.ceil(2.5)}) in pairs

    def test_no_duplicate_when_ratio_is_one(self):
        pairs = pair_experiments(["a", "b"], {"a": 1.2, "b": 1.0})
        # ceil(1.2) = 2 -> saturating pair exists and differs from plain.
        assert len(pairs) == 2
        pairs = pair_experiments(["a", "b"], {"a": 1.0, "b": 1.0})
        assert len(pairs) == 1

    def test_orientation_follows_slower_instruction(self):
        pairs = pair_experiments(["fast", "slow"], {"fast": 0.5, "slow": 2.0})
        assert Experiment({"slow": 1, "fast": 4}) in pairs

    def test_missing_throughput_rejected(self):
        with pytest.raises(ExperimentError):
            pair_experiments(["a", "b"], {"a": 1.0})

    def test_plan_counts(self):
        names = ["a", "b", "c", "d"]
        throughputs = {"a": 1.0, "b": 2.0, "c": 1.0, "d": 4.0}
        plan = singleton_experiments(names) + pair_experiments(names, throughputs)
        singles = [e for e in plan if len(e) == 1 and e.size == 1]
        assert len(singles) == 4
        # 6 plain pairs; saturating pairs for (b,a),(b,c),(d,a),(d,c),(d,b).
        assert len(plan) == 4 + 6 + 5


class TestRandomExperiments:
    def test_shape(self):
        exps = random_experiments(["a", "b", "c"], size=5, count=40, seed=1)
        assert len(exps) == 40
        assert all(e.size == 5 for e in exps)
        assert all(set(e.support) <= {"a", "b", "c"} for e in exps)

    def test_deterministic_by_seed(self):
        first = random_experiments(["a", "b"], size=3, count=10, seed=42)
        second = random_experiments(["a", "b"], size=3, count=10, seed=42)
        assert first == second
        third = random_experiments(["a", "b"], size=3, count=10, seed=43)
        assert first != third

    def test_validation(self):
        with pytest.raises(ExperimentError):
            random_experiments(["a"], size=0, count=1)
        with pytest.raises(ExperimentError):
            random_experiments(["a"], size=1, count=0)
        with pytest.raises(ExperimentError):
            random_experiments([], size=1, count=1)
