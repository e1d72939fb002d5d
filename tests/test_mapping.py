"""Unit tests for repro.core.mapping."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Experiment,
    MappingError,
    PortSpace,
    ThreeLevelMapping,
    TwoLevelMapping,
)


@pytest.fixture
def ports() -> PortSpace:
    return PortSpace.numbered(3)


class TestTwoLevelMapping:
    def test_basics(self, ports):
        m = TwoLevelMapping(ports, {"a": 0b011, "b": 0b100})
        assert m.port_mask("a") == 0b011
        assert "a" in m and "z" not in m
        assert len(m) == 2
        assert m.instructions == ("a", "b")

    def test_zero_mask_rejected(self, ports):
        with pytest.raises(MappingError):
            TwoLevelMapping(ports, {"a": 0})

    def test_out_of_space_mask_rejected(self, ports):
        with pytest.raises(MappingError):
            TwoLevelMapping(ports, {"a": 0b1000})

    def test_empty_rejected(self, ports):
        with pytest.raises(MappingError):
            TwoLevelMapping(ports, {})

    def test_unknown_instruction(self, ports):
        m = TwoLevelMapping(ports, {"a": 1})
        with pytest.raises(MappingError):
            m.port_mask("b")

    def test_uop_masses(self, ports):
        m = TwoLevelMapping(ports, {"a": 0b011, "b": 0b011, "c": 0b100})
        masses = m.uop_masses(Experiment({"a": 1, "b": 2, "c": 1}))
        assert masses == {0b011: 3.0, 0b100: 1.0}

    def test_to_three_level(self, ports):
        m2 = TwoLevelMapping(ports, {"a": 0b011})
        m3 = m2.to_three_level()
        assert m3.uops_of("a") == {0b011: 1}


class TestThreeLevelMapping:
    def test_validation(self, ports):
        with pytest.raises(MappingError):
            ThreeLevelMapping(ports, {"a": {}})  # no µops
        with pytest.raises(MappingError):
            ThreeLevelMapping(ports, {"a": {0: 1}})  # empty µop
        with pytest.raises(MappingError):
            ThreeLevelMapping(ports, {"a": {1: 0}})  # zero multiplicity
        with pytest.raises(MappingError):
            ThreeLevelMapping(ports, {})

    def test_uop_masses_reduction(self, paper_three_level, paper_experiment):
        # Section 3.2: e'(u) = sum over (i, n, u) of e(i) * n.
        ports = paper_three_level.ports
        masses = paper_three_level.uop_masses(paper_experiment)
        u1 = ports.mask("P1")
        u2 = ports.mask("P1", "P2")
        u3 = ports.mask("P3")
        # mul contributes 2 U1; add x2 contributes 2 U2; store 1 U2 + 1 U3.
        assert masses == {u1: 2.0, u2: 3.0, u3: 1.0}

    def test_volume(self, paper_three_level):
        # V = sum n*|u| = mul 2*1 + add 1*2 + sub 1*2 + store (1*2 + 1*1) = 9
        assert paper_three_level.uop_volume() == 9

    def test_distinct_uops(self, paper_three_level):
        ports = paper_three_level.ports
        assert paper_three_level.distinct_uops() == tuple(
            sorted([ports.mask("P1"), ports.mask("P1", "P2"), ports.mask("P3")])
        )

    def test_restricted_to(self, paper_three_level):
        sub = paper_three_level.restricted_to(["add", "mul"])
        assert sub.instructions == ("add", "mul")
        with pytest.raises(MappingError):
            paper_three_level.restricted_to(["nonexistent"])

    def test_extended_by(self, ports):
        m = ThreeLevelMapping(ports, {"rep": {0b011: 2}})
        extended = m.extended_by({"member": "rep"})
        assert extended.uops_of("member") == {0b011: 2}
        assert extended.uops_of("rep") == {0b011: 2}
        with pytest.raises(MappingError):
            m.extended_by({"member": "ghost"})

    def test_json_roundtrip(self, paper_three_level):
        again = ThreeLevelMapping.from_json(paper_three_level.to_json())
        assert again == paper_three_level

    def test_from_dict_malformed(self):
        with pytest.raises(MappingError):
            ThreeLevelMapping.from_dict({"ports": ["P0"]})

    def test_from_dict_merges_equal_masks(self, ports):
        data = {
            "ports": list(ports.names),
            "instructions": {
                "a": [
                    {"ports": ["P0"], "count": 1},
                    {"ports": ["P0"], "count": 2},
                ]
            },
        }
        m = ThreeLevelMapping.from_dict(data)
        assert m.uops_of("a") == {0b001: 3}

    def test_describe_mentions_all_instructions(self, paper_three_level):
        text = paper_three_level.describe()
        for name in ("mul", "add", "sub", "store"):
            assert name in text


def _document(count="1", ports='["P0"]', instructions=None) -> str:
    """Mapping JSON text with raw JSON fragments spliced in."""
    if instructions is None:
        instructions = '{"a": [{"ports": ["P0"], "count": %s}]}' % count
    return '{"ports": %s, "instructions": %s}' % (ports, instructions)


class TestLoaderErrors:
    """Whatever the input, the loader raises MappingError or loads."""

    @pytest.mark.parametrize(
        "text",
        [
            '{"ports": ["P0"], "instructions": ',
            _document(count='"z"'),
            _document(count="1e400"),
            _document(instructions="[1]"),
            _document(count="1.5"),
            _document(ports='"ab"', instructions='{"a": [{"ports": ["a"], "count": 1}]}'),
            _document(count="true"),
            _document(instructions='{"a": [["P0"]]}'),
            _document(instructions='{"a": {"ports": ["P0"], "count": 1}}'),
            _document(ports="[0, 1]"),
            "[" * 100_000,
            "[]",
        ],
        ids=[
            "invalid-json",
            "count-string",
            "count-overflow",
            "instructions-list",
            "count-fractional",
            "ports-string",
            "count-bool",
            "uop-not-object",
            "uops-not-list",
            "ports-not-strings",
            "nesting-too-deep",
            "not-an-object",
        ],
    )
    def test_malformed_document_raises_mapping_error(self, text):
        with pytest.raises(MappingError):
            ThreeLevelMapping.from_json(text)

    def test_well_formed_document_loads(self):
        mapping = ThreeLevelMapping.from_json(_document(count="2"))
        assert mapping.uops_of("a") == {0b1: 2}


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=12,
)
PORTS = ["P0", "P1"]
UOPS = st.fixed_dictionaries(
    {
        "ports": st.lists(st.sampled_from(PORTS), min_size=1, max_size=2) | JSON_VALUES,
        "count": st.integers(1, 3) | JSON_VALUES,
    }
)
# Documents whose every part is either well formed or an arbitrary JSON
# value, so that some load and the rest fail past the top level.
DOCUMENTS = st.fixed_dictionaries(
    {
        "ports": st.just(PORTS) | JSON_VALUES,
        "instructions": st.dictionaries(
            st.text(max_size=3),
            st.lists(UOPS, min_size=1, max_size=2) | JSON_VALUES,
            min_size=1,
            max_size=2,
        )
        | JSON_VALUES,
    }
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES | DOCUMENTS)
def test_any_json_value_loads_or_raises_mapping_error(value):
    try:
        mapping = ThreeLevelMapping.from_json(json.dumps(value))
    except MappingError:
        return
    assert ThreeLevelMapping.from_json(mapping.to_json()) == mapping
