"""The bottleneck simulation algorithm (Section 4.5, Equation 1).

For a two-level mapping ``m`` and experiment ``e`` the throughput is::

    t*_m(e) = max_{Q ⊆ P}  Σ{ e(i) | Ports(m, i) ⊆ Q }  /  |Q|

i.e. the most congested *set* of bottleneck ports determines the throughput.
Three-level mappings reduce to this via the µop-multiset construction of
Section 3.2 (``uop_masses``), so every function here takes a ``mask -> mass``
dictionary.

Three implementations with identical results:

* :func:`bottleneck_throughput_reference` — the literal double loop over all
  ``2^|P|`` subsets with a per-mask subset test.  Θ(2^|P|·k) for ``k``
  distinct masks; exists to make tests and the correctness argument obvious.
* :func:`bottleneck_throughput_dense` — the same enumeration, expressed as a
  superset-sum (zeta transform) over the dense ``2^|P|`` mask space by the
  shared kernel :func:`bottleneck_rows`.  Θ(|P|·2^|P|) with small constants;
  this is the vectorized algorithm whose scaling the paper's Figure 8
  measures.
* :func:`bottleneck_throughput_unions` — exploits that an optimal bottleneck
  set can be assumed to be a *union of occurring µop masks* (dropping a port
  that completes no occurring mask only shrinks ``|Q|`` without losing
  mass).  Θ(2^k·k) for ``k`` distinct masks, independent of ``|P|``; the
  fastest choice for the short experiments PMEvo uses.

:func:`bottleneck_throughput` picks between the dense and union variants
based on problem size.  :func:`bottleneck_rows` is the one vectorized
kernel: the evolver, local search, serving, and the dense variant all
evaluate Equation 1 through it.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping

import numpy as np

from repro.core.errors import ExperimentError, MappingError
from repro.core.ports import iter_nonempty_subsets, mask_size

__all__ = [
    "bottleneck_throughput",
    "bottleneck_throughput_reference",
    "bottleneck_throughput_dense",
    "bottleneck_throughput_unions",
    "bottleneck_rows",
    "dense_mass_vector",
    "zeta_transform",
    "popcounts",
    "EXACT_MASS_LIMIT",
]

#: Masses are exact float64 integers only below this; see :func:`bottleneck_rows`.
EXACT_MASS_LIMIT = 2**53

# Cache keyed by the number of ports; these arrays are tiny for realistic
# port counts and shared by every dense evaluation.
_POPCOUNT_CACHE: dict[int, np.ndarray] = {}

# The count matrix of one experiment holding one instruction once.
_ONCE = np.ones((1, 1), dtype=np.float64)


def _check(masses: Mapping[int, float], num_ports: int) -> None:
    if num_ports <= 0:
        raise MappingError(f"number of ports must be positive, got {num_ports}")
    if not masses:
        raise ExperimentError("cannot compute throughput of an empty experiment")
    full = (1 << num_ports) - 1
    for mask, mass in masses.items():
        if mask <= 0 or mask & ~full:
            raise MappingError(f"µop mask {mask:#x} invalid for {num_ports} ports")
        if mass < 0:
            raise ExperimentError(f"µop mass must be non-negative, got {mass}")


def popcounts(num_ports: int) -> np.ndarray:
    """Popcount of every mask in ``[0, 2^num_ports)`` (cached)."""
    table = _POPCOUNT_CACHE.get(num_ports)
    if table is None:
        size = 1 << num_ports
        masks = np.arange(size, dtype=np.uint32)
        table = np.zeros(size, dtype=np.float64)
        for k in range(num_ports):
            table += (masks >> k) & 1
        _POPCOUNT_CACHE[num_ports] = table
    return table


@functools.lru_cache(maxsize=None)
def _divisors(num_ports: int) -> np.ndarray:
    """``|Q|`` for every mask ``Q``, with ``inf`` for the empty set so that
    its (zero) mass never wins the max."""
    table = popcounts(num_ports).copy()
    table[0] = np.inf
    return table


def zeta_transform(values: np.ndarray, num_ports: int) -> np.ndarray:
    """In-place subset-sum over the last axis: ``out[Q] = Σ_{m ⊆ Q} in[m]``.

    ``values`` must have last-axis length ``2^num_ports``; it is modified in
    place and also returned.

    For bit ``k`` the update adds every mask without the bit into its
    partner with the bit.  Those partners form contiguous blocks along the
    last axis, so the axis is viewed as ``[..., 2^(|P|-k-1), 2, 2^k]`` and
    the low half-block is added into the high one — pure strided slicing,
    no gather/scatter index traffic.  Splitting one axis is a view in every
    memory layout, so the update always lands in ``values``.
    """
    size = 1 << num_ports
    if values.shape[-1] != size:
        raise MappingError(f"last axis must have length {size}, got {values.shape[-1]}")
    head = values.shape[:-1]
    for bit in range(num_ports):
        half = 1 << bit
        paired = values.view()
        # Shape assignment never copies (it would raise instead).  The block
        # count is explicit so that zero-row batches reshape too.
        paired.shape = head + (size // (2 * half), 2, half)
        paired[..., 1, :] += paired[..., 0, :]
    return values


def bottleneck_rows(
    counts: np.ndarray,
    uops: np.ndarray,
    *,
    masses: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Equation 1 for every experiment row of ``counts`` — the one kernel.

    ``counts[e, i]`` is how often instruction ``i`` occurs in experiment
    ``e``; ``uops[i, Q]`` is how many µops with port mask ``Q`` instruction
    ``i`` decomposes into (its last axis has length ``2^|P|``).  A
    ``[population, instruction, 2^|P|]`` stack evaluates many mappings at
    once.  Returns the throughputs as ``[experiment]``, or ``[population,
    experiment]`` for a stack.

    The chain is: mass product ``W = counts @ uops``, zeta transform of
    ``W`` over the mask axis, division by ``|Q|``, max over ``Q``.
    ``masses`` optionally supplies the buffer for ``W`` in any memory order
    (the evolver passes a transposed view, which is the order the stack's
    einsum writes naturally); ``out`` receives the maxima.

    Exactness contract: counts and multiplicities are non-negative
    integers, so every entry of ``W`` and every superset sum is a sum of
    integers bounded by the row's total µop mass (the full-set entry after
    the zeta transform).  While that total is below ``2^53`` each of these
    sums is an exactly representable integer, hence exact in float64 in
    *any* order: batch width, chunking and BLAS blocking cannot change a
    bit, and the final division is one correctly rounded operation — the
    result equals :func:`bottleneck_throughput_reference` exactly.  A row
    whose total reaches ``2^53`` raises :class:`ExperimentError` rather
    than return a rounded value.  (Fractional masses, as congruence scaling
    feeds the dense variant, are accepted with ordinary float rounding.)
    """
    num_ports = uops.shape[-1].bit_length() - 1
    if uops.ndim == 3:
        masses = np.einsum("ei,piu->peu", counts, uops, out=masses, optimize=True)
    else:
        masses = np.matmul(counts, uops, out=masses)
    zeta_transform(masses, num_ports)
    totals = masses[..., -1]
    if np.any(totals >= EXACT_MASS_LIMIT):
        raise ExperimentError(
            f"total µop mass {totals.max():.17g} reaches 2^53: float64 can no "
            "longer hold it exactly"
        )
    np.divide(masses, _divisors(num_ports), out=masses)
    return masses.max(axis=-1, out=out)


def dense_mass_vector(masses: Mapping[int, float], num_ports: int) -> np.ndarray:
    """Scatter a ``mask -> mass`` dict into a dense ``2^num_ports`` vector."""
    vector = np.zeros(1 << num_ports, dtype=np.float64)
    for mask, mass in masses.items():
        vector[mask] += mass
    return vector


def bottleneck_throughput_reference(
    masses: Mapping[int, float], num_ports: int
) -> float:
    """Literal evaluation of Equation 1 — every subset, every mask.

    Intended for tests and documentation; use the other variants for speed.
    """
    _check(masses, num_ports)
    full = (1 << num_ports) - 1
    best = 0.0
    for q in iter_nonempty_subsets(full):
        total = sum(mass for mask, mass in masses.items() if mask & ~q == 0)
        best = max(best, total / mask_size(q))
    return best


def bottleneck_throughput_dense(masses: Mapping[int, float], num_ports: int) -> float:
    """Equation 1 via a dense superset-sum (vectorized subset enumeration).

    The kernel sees one experiment that holds a single instruction once,
    whose µop row is the whole dense mass vector.
    """
    _check(masses, num_ports)
    uops = dense_mass_vector(masses, num_ports)[None, :]
    return float(bottleneck_rows(_ONCE, uops)[0])


def bottleneck_throughput_unions(masses: Mapping[int, float], num_ports: int) -> float:
    """Equation 1 restricted to unions of occurring µop masks.

    An optimal bottleneck set ``Q*`` only needs ports that appear in some
    µop mask counted into it — removing any other port keeps the numerator
    and shrinks the denominator.  Hence it suffices to maximize over the
    union-closure of the occurring masks, which for the short experiments
    PMEvo generates is far smaller than ``2^|P|``.
    """
    _check(masses, num_ports)
    items = [(mask, mass) for mask, mass in masses.items() if mass > 0.0]
    if not items:
        raise ExperimentError("experiment carries no mass")
    distinct = sorted({mask for mask, _ in items})
    # Enumerate unions of subsets of the distinct masks, deduplicated.
    unions: set[int] = set()
    frontier = [0]
    for mask in distinct:
        frontier += [u | mask for u in frontier]
        frontier = list(set(frontier))
    unions = {u for u in frontier if u}
    best = 0.0
    for q in unions:
        total = sum(mass for mask, mass in items if mask & ~q == 0)
        best = max(best, total / mask_size(q))
    return best


# Above roughly this many ports the dense 2^|P| tables stop being cheap and
# the union-closure variant (independent of |P|) wins for sparse experiments.
_DENSE_PORT_LIMIT = 14


def bottleneck_throughput(masses: Mapping[int, float], num_ports: int) -> float:
    """Compute Equation 1, picking a suitable implementation.

    Uses the dense vectorized enumeration for realistic port counts and the
    union-closure variant for very wide machines where ``2^|P|`` tables
    would dominate.
    """
    distinct = len(masses)
    if num_ports <= _DENSE_PORT_LIMIT and (1 << num_ports) <= (1 << distinct):
        return bottleneck_throughput_dense(masses, num_ports)
    return bottleneck_throughput_unions(masses, num_ports)
