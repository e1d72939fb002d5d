"""Linear-programming throughput model (Definition 3 and Section 3.2).

The throughput of an experiment under a port mapping is the optimum of::

    minimize t
    s.t.  Σ_k x_{u,k}  = mass(u)   for every µop u          (A)
          Σ_u x_{u,k} ≤ t          for every port k          (B)
          x_{u,k} ≥ 0              for (u,k) ∈ M              (C)
          x_{u,k} = 0              for (u,k) ∉ M              (D)

Constraint (D) is enforced structurally: variables only exist for edges in
``M``.  The LP is built sparsely and solved with scipy's HiGHS backend;
scipy is imported on first use, so importing this module (and with it the
CLI) does not pay for ``scipy.optimize``.

This module is the reference implementation the bottleneck simulation
algorithm (:mod:`repro.throughput.bottleneck`) is validated against, and the
"LP solver" side of the paper's Figure 8 performance comparison.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import TYPE_CHECKING

import numpy as np

from repro.core.errors import ExperimentError, MappingError, SolverError
from repro.core.experiment import Experiment
from repro.core.mapping import ThreeLevelMapping, TwoLevelMapping
from repro.core.ports import indices_from_mask

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

__all__ = ["lp_throughput", "lp_throughput_masses", "build_lp", "LPProblem"]


class LPProblem:
    """A constructed (not yet solved) throughput LP.

    Exposed separately so benchmarks can time model construction and solving
    together, mirroring the paper's measurement of "model construction via
    the Gurobi C++ API as well as the actual solving".
    """

    def __init__(
        self,
        cost: np.ndarray,
        a_eq: csr_matrix,
        b_eq: np.ndarray,
        a_ub: csr_matrix,
        b_ub: np.ndarray,
    ):
        self.cost = cost
        self.a_eq = a_eq
        self.b_eq = b_eq
        self.a_ub = a_ub
        self.b_ub = b_ub

    def solve(self) -> float:
        """Solve the LP and return the optimal throughput ``t``."""
        from scipy.optimize import linprog

        result = linprog(
            c=self.cost,
            A_eq=self.a_eq,
            b_eq=self.b_eq,
            A_ub=self.a_ub,
            b_ub=self.b_ub,
            bounds=(0, None),
            method="highs",
        )
        if not result.success:
            raise SolverError(f"LP solver failed: {result.message}")
        return float(result.fun)


def build_lp(masses: Mapping[int, float], num_ports: int) -> LPProblem:
    """Construct the throughput LP for a µop-mass dictionary.

    Variables are ordered ``[x_{u0,k0}, x_{u0,k1}, ..., t]`` with one ``x``
    per (µop, allowed port) edge and the makespan ``t`` last.
    """
    from scipy.sparse import csr_matrix

    if num_ports <= 0:
        raise MappingError(f"number of ports must be positive, got {num_ports}")
    if not masses:
        raise ExperimentError("cannot build an LP for an empty experiment")
    full = (1 << num_ports) - 1
    uops = sorted(masses.keys())
    for mask in uops:
        if mask <= 0 or mask & ~full:
            raise MappingError(f"µop mask {mask:#x} invalid for {num_ports} ports")

    edges: list[tuple[int, int]] = []  # (µop row, port index) per variable
    for row, mask in enumerate(uops):
        for port in indices_from_mask(mask):
            edges.append((row, port))
    num_x = len(edges)
    t_index = num_x

    cost = np.zeros(num_x + 1)
    cost[t_index] = 1.0

    # (A): one equality row per µop.
    eq_rows = [row for (row, _port) in edges]
    eq_cols = list(range(num_x))
    eq_data = [1.0] * num_x
    a_eq = csr_matrix(
        (eq_data, (eq_rows, eq_cols)), shape=(len(uops), num_x + 1)
    )
    b_eq = np.array([float(masses[mask]) for mask in uops])

    # (B): one inequality row per port:  Σ_u x_{u,k} - t ≤ 0.
    ub_rows = [port for (_row, port) in edges] + list(range(num_ports))
    ub_cols = list(range(num_x)) + [t_index] * num_ports
    ub_data = [1.0] * num_x + [-1.0] * num_ports
    a_ub = csr_matrix(
        (ub_data, (ub_rows, ub_cols)), shape=(num_ports, num_x + 1)
    )
    b_ub = np.zeros(num_ports)

    return LPProblem(cost, a_eq, b_eq, a_ub, b_ub)


def lp_throughput_masses(masses: Mapping[int, float], num_ports: int) -> float:
    """Throughput of a µop-mass dictionary by building and solving the LP."""
    return build_lp(masses, num_ports).solve()


def lp_throughput(
    mapping: TwoLevelMapping | ThreeLevelMapping, experiment: Experiment
) -> float:
    """Throughput of ``experiment`` under ``mapping`` via the LP model.

    Three-level mappings are reduced to µop masses per Section 3.2 first.
    """
    masses = mapping.uop_masses(experiment)
    return lp_throughput_masses(masses, mapping.ports.num_ports)
