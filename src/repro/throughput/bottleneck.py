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
  superset-sum (zeta transform) over the dense ``2^|P|`` mask space by
  :func:`bottleneck_rows`.  Θ(|P|·2^|P|) with small constants; this is the
  vectorized algorithm whose scaling the paper's Figure 8 measures, and the
  kernel the evolver and local search run on stacks of candidate mappings.
* :func:`bottleneck_throughput` — the closure variant.  An optimal
  bottleneck set can be assumed to be a *union of occurring µop masks*:
  dropping a port that completes no occurring mask keeps the numerator and
  shrinks ``|Q|``.  :func:`closure_table` tabulates the numerators over the
  union closure ``L`` of the masks only, so its cost follows the number of
  distinct masks, not ``|P|``, and no array of length ``2^|P|`` exists.
  Serving's fixed-mapping evaluator builds the same table once per mapping.

Dense and closure end in the same tail, :func:`bottleneck_max`.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.errors import ExperimentError, MappingError
from repro.core.ports import iter_nonempty_subsets, mask_size

__all__ = [
    "bottleneck_throughput",
    "bottleneck_throughput_reference",
    "bottleneck_throughput_dense",
    "bottleneck_rows",
    "bottleneck_max",
    "closure_table",
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
    """Equation 1 for every experiment row of ``counts``, over all ``2^|P|`` sets.

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
    return bottleneck_max(masses, _divisors(num_ports), out=out)


def bottleneck_max(
    masses: np.ndarray, sizes: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Equation 1's tail: ``masses[..., j]`` is the mass inside a set of
    ``sizes[j]`` ports; divide in place and take the max over the sets.

    The last set must hold every µop, so its column is the row total: a row
    whose total reaches ``2^53`` raises (see :func:`bottleneck_rows`).
    """
    total = masses[..., -1].max(initial=0.0)
    if total >= EXACT_MASS_LIMIT:
        raise ExperimentError(
            f"total µop mass {total:.17g} reaches 2^53: float64 can no "
            "longer hold it exactly"
        )
    np.divide(masses, sizes, out=masses)
    return masses.max(axis=-1, out=out)


def closure_table(rows: Sequence[Mapping[int, float]]) -> tuple[np.ndarray, np.ndarray]:
    """Equation 1's numerators over the union closure ``L`` of the rows' masks.

    Returns ``(table, sizes)`` for :func:`bottleneck_max`: ``table[i, j]``
    sums ``rows[i]``'s masses on masks inside ``L[j]``, and ``sizes[j] =
    |L[j]|``.  The table is ``W @ C`` with ``W[i, k] = rows[i][K_k]`` and
    ``C[k, j] = [K_k ⊆ L[j]]`` over the distinct masks ``K``, so for integer
    counts ``counts @ table`` is exactly the table of the combined rows.
    An optimal bottleneck set lies in ``L`` (module docstring), so the max
    over ``L`` is the same float as the max over all ``2^|P|`` sets.
    """
    masks = sorted({mask for row in rows for mask in row})
    unions = {0}
    for mask in masks:
        unions |= {union | mask for union in unions}
    closure = sorted(unions - {0})  # ascending: the last is every mask's union
    weights = np.array([[row.get(mask, 0) for mask in masks] for row in rows], dtype=np.float64)
    dtype = np.int64 if closure[-1] < 1 << 63 else object  # Python ints past 63 ports
    contained = (np.array(masks, dtype)[:, None] & ~np.array(closure, dtype)) == 0
    sizes = np.array([q.bit_count() for q in closure], dtype=np.float64)
    return weights @ contained.astype(np.float64), sizes


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


def bottleneck_throughput(masses: Mapping[int, float], num_ports: int) -> float:
    """Compute Equation 1 over the union closure of the occurring masks.

    The experiment is one row of :func:`closure_table`; its cost follows
    the number of distinct masks, whatever ``num_ports`` is.
    """
    _check(masses, num_ports)
    table, sizes = closure_table([masses])
    return float(bottleneck_max(table, sizes)[0])
