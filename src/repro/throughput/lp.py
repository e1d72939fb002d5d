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

import numpy as np

from repro.core.errors import ExperimentError, MappingError, SolverError
from repro.core.experiment import Experiment
from repro.core.mapping import ThreeLevelMapping, TwoLevelMapping
from repro.core.ports import indices_from_mask

__all__ = ["lp_throughput", "lp_throughput_masses"]


def lp_throughput_masses(masses: Mapping[int, float], num_ports: int) -> float:
    """Throughput of a µop-mass dictionary: build the LP, then solve it.

    Variables are ordered ``[x_{u0,k0}, x_{u0,k1}, ..., t]``.  Both steps
    happen here, as in the paper's Figure 8 timing of "model construction
    via the Gurobi C++ API as well as the actual solving".
    """
    from scipy.optimize import linprog
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

    # One variable per (µop row, port index) edge, then the makespan t.
    edges = [(row, port) for row, mask in enumerate(uops) for port in indices_from_mask(mask)]
    num_x = len(edges)
    t_index = num_x

    cost = np.zeros(num_x + 1)
    cost[t_index] = 1.0

    # (A): one equality row per µop.
    eq_rows = [row for (row, _port) in edges]
    a_eq = csr_matrix(
        ([1.0] * num_x, (eq_rows, list(range(num_x)))), shape=(len(uops), num_x + 1)
    )
    b_eq = np.array([float(masses[mask]) for mask in uops])

    # (B): one inequality row per port:  Σ_u x_{u,k} - t ≤ 0.
    ub_rows = [port for (_row, port) in edges] + list(range(num_ports))
    ub_cols = list(range(num_x)) + [t_index] * num_ports
    ub_data = [1.0] * num_x + [-1.0] * num_ports
    a_ub = csr_matrix((ub_data, (ub_rows, ub_cols)), shape=(num_ports, num_x + 1))

    result = linprog(
        c=cost,
        A_eq=a_eq,
        b_eq=b_eq,
        A_ub=a_ub,
        b_ub=np.zeros(num_ports),
        bounds=(0, None),
        method="highs",
    )
    if not result.success:
        raise SolverError(f"LP solver failed: {result.message}")
    return float(result.fun)


def lp_throughput(
    mapping: TwoLevelMapping | ThreeLevelMapping, experiment: Experiment
) -> float:
    """Throughput of ``experiment`` under ``mapping`` via the LP model.

    Three-level mappings are reduced to µop masses per Section 3.2 first.
    """
    masses = mapping.uop_masses(experiment)
    return lp_throughput_masses(masses, mapping.ports.num_ports)
