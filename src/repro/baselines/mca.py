"""llvm-mca-style baseline: hand-tuned scheduling models of uneven quality.

llvm-mca predicts throughput from LLVM's per-target scheduling models —
"the result of human fine-tuning effort, proprietary knowledge contributed
by processor designers, and experiments".  In practice those models are
excellent for mainstream Intel cores and much rougher elsewhere; the
paper's Table 4 shows llvm-mca over-estimating heavily on ZEN and A72.

Our analogue ships one hand-written model per machine preset, built exactly
the way LLVM's ``.td`` files are: a human mapped instruction groups onto
*resource groups*.  The SKL model is nearly right (it shares the BTx and
divider blind spots of every published model).  The ZEN and A72 models are
written like the generic models LLVM falls back to for less-tuned targets:
whole instruction families funneled onto one or two resource groups,
ignoring double-pumping and the real port spread — which systematically
*over-estimates* cycle counts, reproducing the paper's Table 4/Figure 7
shapes.

Prediction uses the same analytical throughput model over the hand-written
mapping (llvm-mca's dispatch/queue simulation adds nothing for
dependency-free, frontend-light experiments): :class:`LLVMMCAPredictor` is a
:class:`MappingPredictor` that only chooses the mapping.
"""

from __future__ import annotations

from repro.core.errors import ISAError
from repro.core.isa import ISA
from repro.core.mapping import ThreeLevelMapping
from repro.core.ports import PortSpace
from repro.machine.measurement import Machine
from repro.throughput.predictor import MappingPredictor

__all__ = ["LLVMMCAPredictor", "mca_scheduling_model"]


def _class_table_skl() -> dict[str, list[tuple[tuple[str, ...], int]]]:
    """A well-tuned Skylake-style model (close to the published mapping)."""
    alu = ("P0", "P1", "P5", "P6")
    shift = ("P0", "P6")
    load = ("P2", "P3")
    staddr = ("P2", "P3", "P7")
    vec3 = ("P0", "P1", "P5")
    vec2 = ("P0", "P1")
    return {
        "int_alu": [(alu, 1)],
        "int_alu_load": [(load, 1), (alu, 1)],
        "int_shift": [(shift, 1)],
        "bt": [(shift, 1)],  # shares the published-model BTx blind spot
        "int_mul": [(("P1",), 1)],
        # Dividers are modeled with their reciprocal throughput (humans
        # always tune those — they dominate latency tables).
        "int_div": [(("P0",), 1), (("DIV",), 6)],
        "lea": [(("P1", "P5"), 1)],
        "bit_count": [(("P1",), 1)],
        "cmov": [(shift, 1)],
        "load_gpr": [(load, 1)],
        "store_gpr": [(staddr, 1), (("P4",), 1)],
        "mov_cross": [(("P0",), 1)],
        "vec_logic": [(vec3, 1)],
        "vec_fp_add": [(vec2, 1)],
        "vec_fp_mul": [(vec2, 1)],
        "vec_fma": [(vec2, 1)],
        # Human tuning slip: shuffles/blends modeled on the FP pair instead
        # of their real ports, a typical scheduling-model inaccuracy.
        "vec_shuffle": [(("P1", "P5"), 1)],
        "vec_blend": [(vec3, 1)],
        "vec_imul": [(vec2, 1)],
        "vec_shift": [(vec2, 1)],
        "vec_hadd": [(("P5",), 2), (vec2, 1)],
        "vec_div": [(("P0",), 1), (("DIV",), 5)],
        "vec_cvt": [(vec2, 1)],
        "load_vec": [(load, 1)],
        "store_vec": [(staddr, 1), (("P4",), 1)],
        "vec_alu_load": [(load, 1), (vec3, 1)],
    }


def _class_table_zen() -> dict[str, list[tuple[tuple[str, ...], int]]]:
    """A coarse Zen model, LLVM-generic style: few resource groups.

    Integer work is funneled onto two of the four ALUs, all FP onto a
    two-pipe group, loads and stores onto a single AGU, and 256-bit
    double-pumping is ignored.  Multi-cycle operations commit the classic
    untuned-model bug of writing the *latency* into the resource occupancy
    instead of the reciprocal throughput, so multiplies, FMAs, conversions
    and divides block their resource group for far too long.  Both kinds of
    inaccuracy inflate predicted cycle counts, reproducing the paper's
    Table 4/Figure 7 over-estimation.
    """
    alu_pair = ("A0", "A1")
    fp_pair = ("F0", "F1")
    one_agu = ("G0",)
    return {
        "int_alu": [(alu_pair, 1)],
        "int_alu_load": [(one_agu, 1), (alu_pair, 1)],
        "int_shift": [(("A1",), 1)],
        "bt": [(("A0",), 1)],
        "int_mul": [(("A1",), 3)],  # latency written as occupancy
        "int_div": [(("A2",), 30)],  # latency, not reciprocal throughput
        "lea": [(alu_pair, 1)],
        "bit_count": [(("A0",), 1)],
        "cmov": [(alu_pair, 1)],
        "load_gpr": [(one_agu, 1)],
        "store_gpr": [(one_agu, 1)],
        "mov_cross": [(("F2",), 3)],
        "vec_logic": [(fp_pair, 1)],
        "vec_fp_add": [(fp_pair, 1)],
        "vec_fp_mul": [(fp_pair, 3)],  # latency as occupancy
        "vec_fma": [(fp_pair, 5)],  # latency as occupancy
        "vec_shuffle": [(("F1",), 1)],
        "vec_blend": [(fp_pair, 1)],
        "vec_imul": [(("F0",), 4)],  # latency as occupancy
        "vec_shift": [(fp_pair, 1)],
        "vec_hadd": [(fp_pair, 3)],  # coarse: one group, three slots
        "vec_div": [(("F3",), 13)],  # latency, not reciprocal throughput
        "vec_cvt": [(("F3",), 4)],  # latency as occupancy
        "load_vec": [(one_agu, 1)],
        "store_vec": [(one_agu, 1)],
        "vec_alu_load": [(one_agu, 1), (fp_pair, 1)],
    }


def _class_table_a72() -> dict[str, list[tuple[tuple[str, ...], int]]]:
    """A coarse Cortex-A72 model: single-pipe groups, latency-as-occupancy.

    The least-tuned model of the three, like LLVM's generic in-order-ish
    ARM models: one pipe per family plus the latency-as-occupancy bug on
    every multi-cycle operation.
    """
    one_int = ("I0",)
    one_fp = ("F0",)
    return {
        "int_alu": [(one_int, 1)],
        "int_alu_shift": [(("M",), 2)],  # latency as occupancy
        "int_shift": [(one_int, 1)],
        "cmov": [(one_int, 1)],
        "bit_count": [(one_int, 1)],
        "int_mul": [(("M",), 3)],  # latency as occupancy
        "int_madd": [(("M",), 3)],  # latency as occupancy
        "int_div": [(("M",), 18)],  # latency, not reciprocal throughput
        "lea": [(one_int, 1)],
        "load_gpr": [(("L",), 1)],
        "store_gpr": [(("S",), 1)],
        "load_pair": [(("L",), 2)],
        "store_pair": [(("S",), 2)],
        "load_interleave": [(("L",), 2)],  # misses the permute µop
        "store_interleave": [(("S",), 2)],
        "mov_cross": [(one_fp, 3)],  # latency as occupancy
        "vec_logic": [(one_fp, 1)],
        "vec_fp_add": [(one_fp, 1)],
        "vec_fp_mul": [(one_fp, 4)],  # latency as occupancy
        "vec_fma": [(one_fp, 7)],  # latency as occupancy
        "vec_shuffle": [(("F1",), 1)],
        "vec_imul": [(one_fp, 4)],  # latency as occupancy
        "vec_shift": [(("F1",), 3)],  # latency as occupancy
        "vec_div": [(one_fp, 12)],  # latency, not reciprocal throughput
        "vec_cvt": [(("F1",), 4)],  # latency as occupancy
        "load_vec": [(("L",), 1)],
        "store_vec": [(("S",), 1)],
        "fp_add": [(one_fp, 1)],
        "fp_mul": [(one_fp, 4)],  # latency as occupancy
        "fp_fma": [(one_fp, 7)],  # latency as occupancy
        "fp_div": [(one_fp, 11)],  # latency, not reciprocal throughput
        "fp_cvt": [(("F1",), 4)],  # latency as occupancy
        "fp_mov": [(one_fp, 1)],
        "load_fp": [(("L",), 1)],
        "store_fp": [(("S",), 1)],
    }


_MODEL_TABLES = {
    "SKL": _class_table_skl,
    "ZEN": _class_table_zen,
    "A72": _class_table_a72,
}


def mca_scheduling_model(machine: Machine) -> ThreeLevelMapping:
    """The hand-written llvm-mca scheduling model for a preset machine.

    Width-tagged semantic classes (``vec_fp_add@256``) resolve to their base
    entry — the coarse models ignore operand width, like untuned LLVM
    models do.
    """
    table_factory = _MODEL_TABLES.get(machine.name)
    if table_factory is None:
        raise ISAError(
            f"no llvm-mca scheduling model for machine {machine.name!r}; "
            f"have {sorted(_MODEL_TABLES)}"
        )
    table = table_factory()
    ports: PortSpace = machine.config.ports
    isa: ISA = machine.isa
    assignment: dict[str, dict[int, int]] = {}
    for form in isa:
        tag = form.semantic_class
        base = tag.rsplit("@", 1)[0] if "@" in tag else tag
        entry = table.get(base)
        if entry is None:
            raise ISAError(f"scheduling model for {machine.name!r} lacks {base!r}")
        uops: dict[int, int] = {}
        for port_names, count in entry:
            mask = ports.mask(*port_names)
            uops[mask] = uops.get(mask, 0) + count
        assignment[form.name] = uops
    return ThreeLevelMapping(ports, assignment)


class LLVMMCAPredictor(MappingPredictor):
    """Analytical throughput over the hand-written scheduling model."""

    def __init__(self, machine: Machine):
        super().__init__(mca_scheduling_model(machine), name="llvm-mca")

    def __repr__(self) -> str:
        return "LLVMMCAPredictor()"
