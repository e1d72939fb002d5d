"""Tests for the cycle-level out-of-order processor simulator."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference_processor import ReferenceProcessor
from repro.codegen import AllocationConfig, RegisterAllocator, build_loop_body
from repro.core import Experiment, MappingError, MeasurementError
from repro.core.isa import ISA, gpr, make_form
from repro.core.ports import PortSpace
from repro.machine import (
    BackendConfig,
    ExecutionClass,
    FrontendConfig,
    MachineConfig,
    Processor,
    UopSpec,
)


def _tiny_machine(
    latency: int = 1,
    ports: tuple[str, ...] = ("P0", "P1"),
    uop_ports: tuple[str, ...] = ("P0", "P1"),
    block: int = 1,
    window: int = 40,
    dispatch: int = 4,
    count: int = 1,
) -> MachineConfig:
    isa = ISA(
        "tiny",
        [make_form("op", [gpr(64, read=True, write=True), gpr(64)], "cls", name="op")],
    )
    return MachineConfig(
        name="TINY",
        ports=PortSpace(list(ports)),
        isa=isa,
        classes={"cls": ExecutionClass("cls", (UopSpec(uop_ports, count, block),), latency)},
        frontend=FrontendConfig(dispatch_width=dispatch, decode_width=dispatch, uop_cache_size=512),
        backend=BackendConfig(scheduler_window=window, rob_size=128, retire_width=4),
        clock_ghz=1.0,
    )


def _run_throughput(config: MachineConfig, count: int = 120) -> float:
    processor = Processor(config)
    body, _ = build_loop_body(config.isa, Experiment({"op": 1}), target_length=40)
    short, long = processor.run(body, (4, 12))
    return (long.cycles - short.cycles) / (8 * len(body))


class TestThroughputLimits:
    def test_two_symmetric_ports(self):
        # One µop on two ports, no dependencies: 0.5 cycles/instruction.
        assert _run_throughput(_tiny_machine()) == pytest.approx(0.5, rel=0.05)

    def test_single_port(self):
        config = _tiny_machine(uop_ports=("P0",))
        assert _run_throughput(config) == pytest.approx(1.0, rel=0.05)

    def test_blocking_uop(self):
        # A µop that blocks its only port for 3 cycles: 3 cycles/instruction.
        config = _tiny_machine(uop_ports=("P0",), block=3, latency=5)
        assert _run_throughput(config) == pytest.approx(3.0, rel=0.05)

    def test_frontend_bound(self):
        # 8 ports but dispatch width 2: throughput limited to 0.5.
        config = _tiny_machine(
            ports=tuple(f"P{i}" for i in range(8)),
            uop_ports=tuple(f"P{i}" for i in range(8)),
            dispatch=2,
        )
        assert _run_throughput(config) == pytest.approx(0.5, rel=0.06)

    def test_latency_hidden_by_renaming(self):
        # Latency must NOT matter for dependency-free streams as long as
        # the register file is deep enough to hide it: at 0.5 cyc/instr the
        # 14-register rotation gives ~6.5 cycles of reuse distance.
        fast = _run_throughput(_tiny_machine(latency=1))
        slow = _run_throughput(_tiny_machine(latency=5))
        assert slow == pytest.approx(fast, rel=0.1)

    def test_latency_beyond_register_file_depth_leaks_through(self):
        # Sanity check of the limit: latency 12 cannot be hidden by a
        # 14-register rotation at 0.5 cyc/instr, so throughput degrades.
        slow = _run_throughput(_tiny_machine(latency=12))
        assert slow > 0.6


class TestDependencyChains:
    def test_chain_bound_by_latency(self):
        """With a two-register file the allocator pins the source to one
        register and the destination to the other, so every op reads the
        previous op's write: a single latency-bound chain."""
        from repro.codegen import AllocationConfig, RegisterAllocator

        config = _tiny_machine(latency=4)
        processor = Processor(config)
        allocator = RegisterAllocator(AllocationConfig(num_gprs=2))
        body = allocator.allocate_sequence([config.isa["op"]] * 40)
        assert all(instance.render() == "op r1, r0" for instance in body)
        short, long = processor.run(body, (2, 6))
        per_op = (long.cycles - short.cycles) / (4 * len(body))
        assert per_op == pytest.approx(4.0, rel=0.1)


class TestSimulatorEdgeCases:
    def test_empty_body_rejected(self):
        processor = Processor(_tiny_machine())
        with pytest.raises(MeasurementError):
            processor.run([], (1,))

    def test_nonpositive_iterations_rejected(self):
        config = _tiny_machine()
        processor = Processor(config)
        body, _ = build_loop_body(config.isa, Experiment({"op": 1}), target_length=4)
        with pytest.raises(MeasurementError):
            processor.run(body, (0,))

    def test_max_cycles_guard(self):
        config = _tiny_machine()
        processor = Processor(config)
        body, _ = build_loop_body(config.isa, Experiment({"op": 1}), target_length=40)
        with pytest.raises(MeasurementError):
            processor.run(body, (100,), max_cycles=10)

    def test_first_error_in_the_order_asked_wins(self):
        # Separate runs of 100 then 0 iterations would stop at the guard
        # before they reach the non-positive length.
        config = _tiny_machine()
        processor = Processor(config)
        body, _ = build_loop_body(config.isa, Experiment({"op": 1}), target_length=40)
        with pytest.raises(MeasurementError, match="exceeded 10 cycles"):
            processor.run(body, (100, 0), max_cycles=10)
        with pytest.raises(MeasurementError, match="must be positive"):
            processor.run(body, (0, 100), max_cycles=10)
        assert processor.run(body, ()) == []

    def test_result_counters(self):
        config = _tiny_machine()
        processor = Processor(config)
        body, _ = build_loop_body(config.isa, Experiment({"op": 1}), target_length=10)
        (result,) = processor.run(body, (3,))
        assert result.instructions == 30
        assert result.uops == 30  # one µop per instruction
        assert result.cycles > 0

    def test_window_one_still_progresses(self):
        config = _tiny_machine(window=1, dispatch=1)
        assert _run_throughput(config) >= 0.9  # serialized but finishes


class TestLatencyValidation:
    @pytest.mark.parametrize("latency", [0, -3])
    def test_nonpositive_latency_override_rejected(self, latency):
        config = _tiny_machine()
        with pytest.raises(MappingError, match="latency must be positive"):
            MachineConfig(
                name=config.name,
                ports=config.ports,
                isa=config.isa,
                classes=config.classes,
                latency_overrides={"cls": latency},
            )


# Register operand shapes of the random forms: at most two registers, so
# every shape allocates from a two-register file.
_SHAPES = (
    (gpr(64, read=True, write=True), gpr(64)),
    (gpr(64, read=False, write=True), gpr(64)),
    (gpr(64, read=True, write=True),),
    (gpr(64, read=False, write=True),),
    (gpr(64),),
)


def _up_to(limit: int):
    """An integer in 1..limit that Hypothesis draws (and shrinks) toward
    ``limit``: its usual lean toward small values would make most windows
    smaller than an instruction's µops and most bodies a single
    instruction, which exercises little beyond the guard."""
    return st.integers(0, limit - 1).map(lambda n: limit - n)


@st.composite
def _random_runs(draw):
    """A random machine, loop body and cycle guard for the oracle properties."""
    ports = [f"P{i}" for i in range(draw(st.integers(1, 6)))]
    port_sets = st.lists(st.sampled_from(ports), min_size=1, max_size=len(ports), unique=True)
    blocks = st.sampled_from((1, 2, 4))
    forms = []
    classes = {}
    for index in range(draw(st.integers(1, 3))):
        name = f"op{index}"
        forms.append(make_form(name, draw(st.sampled_from(_SHAPES)), name, name=name))
        uops = tuple(
            UopSpec(tuple(draw(port_sets)), draw(st.integers(1, 3)), draw(blocks))
            for _ in range(draw(st.integers(1, 3)))
        )
        hidden = (UopSpec(tuple(draw(port_sets)), 1, draw(blocks)),) if draw(st.booleans()) else ()
        classes[name] = ExecutionClass(name, uops, draw(st.integers(1, 12)), hidden)
    dispatch = draw(st.integers(1, 6))
    config = MachineConfig(
        name="RANDOM",
        ports=PortSpace(ports),
        isa=ISA("random", forms),
        classes=classes,
        frontend=FrontendConfig(
            dispatch_width=dispatch,
            decode_width=draw(st.integers(1, dispatch)),
            uop_cache_size=draw(st.sampled_from((8, 64, 1536))),
        ),
        backend=BackendConfig(
            scheduler_window=draw(_up_to(60)),
            rob_size=draw(st.integers(1, 128)),
            retire_width=draw(st.integers(1, 4)),
            port_policy=draw(st.sampled_from(("least_used", "lowest_index"))),
        ),
    )
    allocator = RegisterAllocator(AllocationConfig(num_gprs=draw(st.integers(2, 14))))
    length = draw(_up_to(30))
    sequence = draw(st.lists(st.sampled_from(forms), min_size=length, max_size=length))
    body = allocator.allocate_sequence(sequence)
    max_cycles = draw(st.sampled_from((2_000_000, 50)))
    # An instruction with more µops than the window never dispatches, and the
    # reference loop then spins through every cycle up to the guard: seconds
    # at 2,000,000.  Such runs are drawn with the short guard only;
    # test_deadlock_spins_into_the_guard covers the long one.
    widest = max(len(config.decode(form)) for form in sequence)
    assume(max_cycles == 50 or widest <= config.backend.scheduler_window)
    return config, body, max_cycles


def _outcome(config, body, lengths, max_cycles):
    """The results of one call with every length, or the error it raises."""
    try:
        return Processor(config).run(body, lengths, max_cycles=max_cycles)
    except MeasurementError as error:
        return str(error)


def _reference_outcome(config, body, lengths, max_cycles):
    """The results of separate window-scan runs, one per length in order,
    or the first error they raise."""
    processor = ReferenceProcessor(config)
    try:
        return [processor.run(body, iterations=n, max_cycles=max_cycles) for n in lengths]
    except MeasurementError as error:
        return str(error)


@settings(max_examples=150, deadline=None)
@given(_random_runs(), _up_to(8))
def test_event_driven_issue_matches_the_window_scan(case, iterations):
    """The event-driven simulator returns exactly what the original
    oldest-first window scan returns, or raises the same error."""
    config, body, max_cycles = case
    expected = _reference_outcome(config, body, [iterations], max_cycles)
    assert _outcome(config, body, [iterations], max_cycles) == expected


@settings(max_examples=150, deadline=None)
@given(_random_runs(), st.lists(_up_to(8), min_size=1, max_size=3))
def test_shared_run_matches_separate_runs(case, lengths):
    """One call with 1–3 run lengths, repeated and in any order, returns
    what separate window-scan runs return, or raises the error the first
    failing one raises: a shorter run forked off the longest is exact."""
    config, body, max_cycles = case
    expected = _reference_outcome(config, body, lengths, max_cycles)
    assert _outcome(config, body, lengths, max_cycles) == expected


def test_shorter_run_keeps_its_own_completion_cycles():
    """A younger µop can let the long run finish an older instruction
    earlier than the short run does (here through ports that blocking µops
    hold under the lowest-index policy), so the short run needs its own copy
    of the completion cycles: read through the long run's, it ends at cycle
    52 instead of 55."""
    all_ports = ("P0", "P1", "P2", "P3")
    op0 = make_form("op0", [gpr(64)], "op0", name="op0")
    op1 = make_form("op1", [gpr(64, read=True, write=True), gpr(64)], "op1", name="op1")
    op2 = make_form("op2", [gpr(64, read=False, write=True), gpr(64)], "op2", name="op2")
    config = MachineConfig(
        name="FORK",
        ports=PortSpace(list(all_ports)),
        isa=ISA("fork", [op0, op1, op2]),
        classes={
            "op0": ExecutionClass(
                "op0", (UopSpec(all_ports, 1, 4), UopSpec(("P1", "P3"), 2, 3)), 6
            ),
            "op1": ExecutionClass(
                "op1", (UopSpec(("P0", "P3"), 1, 4), UopSpec(("P2", "P3"), 2, 3)), 2
            ),
            "op2": ExecutionClass("op2", (UopSpec(all_ports, 2, 2),), 7),
        },
        frontend=FrontendConfig(dispatch_width=3, decode_width=3, uop_cache_size=1536),
        backend=BackendConfig(
            scheduler_window=32, rob_size=32, retire_width=1, port_policy="lowest_index"
        ),
    )
    allocator = RegisterAllocator(AllocationConfig(num_gprs=2))
    body = allocator.allocate_sequence([op2, op1, op0, op1, op1])
    expected = _reference_outcome(config, body, [4, 5], 2_000_000)
    assert [result.cycles for result in expected] == [55, 67]
    assert _outcome(config, body, [4, 5], 2_000_000) == expected


def test_deadlock_spins_into_the_guard():
    """A µop pair never fits a one-entry window: both simulators give up at
    the default guard with the same message, the new one without spinning.
    A shared call raises the message of the first length asked."""
    config = _tiny_machine(window=1, count=2)
    body, _ = build_loop_body(config.isa, Experiment({"op": 1}), target_length=4)
    expected = _reference_outcome(config, body, [2], 2_000_000)
    assert expected == "simulation exceeded 2000000 cycles (0/8 retired)"
    assert _outcome(config, body, [2], 2_000_000) == expected
    assert _outcome(config, body, [2, 1], 2_000_000) == expected
    assert _outcome(config, body, [1, 2], 2_000_000) == (
        "simulation exceeded 2000000 cycles (0/4 retired)"
    )
