"""Port mappings in the two-level and three-level models.

Definitions 2 and 4 of the paper:

* A **two-level** port mapping is a bipartite graph between instructions and
  ports: each instruction has a set of ports that can execute it.
* A **three-level** port mapping additionally has a layer of µops: each
  instruction decomposes into a multiset of µops (labeled edges ``(i, n, u)``)
  and each µop has a set of ports it can execute on.

Following Section 4.4, a µop is *identified with the set of ports that can
execute it*, so a µop is represented here as a port bitmask and a three-level
mapping stores, per instruction, a ``mask -> multiplicity`` dictionary.

Section 3.2 observes that three-level throughput reduces to two-level
throughput over the µop multiset; :meth:`ThreeLevelMapping.uop_masses`
implements that reduction and is what both throughput back ends consume.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

from repro.core.errors import MappingError
from repro.core.experiment import Experiment
from repro.core.ports import PortSpace, mask_size

__all__ = ["TwoLevelMapping", "ThreeLevelMapping"]


def _port_names(value: object, what: str) -> list[str]:
    """``value`` if it is a list of port-name strings, else a :class:`MappingError`."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise MappingError(f"{what} must be a list of port names")
    return value


class TwoLevelMapping:
    """A two-level port mapping: instruction name -> port mask (Definition 2).

    Parameters
    ----------
    ports:
        The port space ``P``.
    assignment:
        Mapping from instruction form name to the bitmask of ports that can
        execute that instruction.  Every mask must be non-empty: an
        instruction that no port can execute has no defined throughput.
    """

    def __init__(self, ports: PortSpace, assignment: Mapping[str, int]):
        self.ports = ports
        checked: dict[str, int] = {}
        for name, mask in assignment.items():
            ports.check_mask(mask)
            if mask == 0:
                raise MappingError(f"instruction {name!r} is mapped to no port")
            checked[name] = mask
        if not checked:
            raise MappingError("a port mapping must cover at least one instruction")
        self._assignment = dict(sorted(checked.items()))

    @property
    def instructions(self) -> tuple[str, ...]:
        """Covered instruction names, sorted."""
        return tuple(self._assignment.keys())

    def port_mask(self, name: str) -> int:
        """``Ports(m, i)`` as a bitmask."""
        try:
            return self._assignment[name]
        except KeyError:
            raise MappingError(f"instruction {name!r} not covered by this mapping") from None

    def __contains__(self, name: object) -> bool:
        return name in self._assignment

    def __len__(self) -> int:
        return len(self._assignment)

    def items(self) -> Iterator[tuple[str, int]]:
        return iter(self._assignment.items())

    def uop_masses(self, experiment: Experiment) -> dict[int, float]:
        """Mass per port mask for ``experiment`` (trivial in the two-level
        model: each instruction is one µop of mass ``e(i)``)."""
        masses: dict[int, float] = {}
        for name, count in experiment:
            mask = self.port_mask(name)
            masses[mask] = masses.get(mask, 0.0) + float(count)
        return masses

    def to_three_level(self) -> "ThreeLevelMapping":
        """Lift to a three-level mapping with one single-occurrence µop per
        instruction."""
        return ThreeLevelMapping(
            self.ports, {name: {mask: 1} for name, mask in self._assignment.items()}
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TwoLevelMapping):
            return NotImplemented
        return self.ports == other.ports and self._assignment == other._assignment

    def __repr__(self) -> str:
        return f"TwoLevelMapping({len(self)} instructions, {self.ports.num_ports} ports)"


@dataclass(frozen=True)
class _UopEdge:
    """One labeled edge ``(i, n, u)`` of a three-level mapping, resolved to
    the instruction it belongs to."""

    instruction: str
    multiplicity: int
    mask: int


class ThreeLevelMapping:
    """A three-level port mapping (Definition 4).

    Parameters
    ----------
    ports:
        The port space ``P``.
    assignment:
        ``instruction name -> {port mask -> multiplicity}``.  Every
        instruction must have at least one µop, every µop a non-empty mask
        and a positive multiplicity.
    """

    def __init__(self, ports: PortSpace, assignment: Mapping[str, Mapping[int, int]]):
        self.ports = ports
        checked: dict[str, dict[int, int]] = {}
        for name, uops in assignment.items():
            if not uops:
                raise MappingError(f"instruction {name!r} has no µops")
            clean: dict[int, int] = {}
            for mask, count in uops.items():
                ports.check_mask(mask)
                if mask == 0:
                    raise MappingError(f"instruction {name!r} has a µop with no ports")
                if count <= 0:
                    raise MappingError(
                        f"instruction {name!r} has µop multiplicity {count}; must be positive"
                    )
                clean[mask] = count
            checked[name] = dict(sorted(clean.items()))
        if not checked:
            raise MappingError("a port mapping must cover at least one instruction")
        self._assignment = dict(sorted(checked.items()))

    @property
    def instructions(self) -> tuple[str, ...]:
        """Covered instruction names, sorted."""
        return tuple(self._assignment.keys())

    def uops_of(self, name: str) -> dict[int, int]:
        """The ``mask -> multiplicity`` decomposition of instruction ``name``."""
        try:
            return dict(self._assignment[name])
        except KeyError:
            raise MappingError(f"instruction {name!r} not covered by this mapping") from None

    def __contains__(self, name: object) -> bool:
        return name in self._assignment

    def __len__(self) -> int:
        return len(self._assignment)

    def items(self) -> Iterator[tuple[str, dict[int, int]]]:
        for name, uops in self._assignment.items():
            yield name, dict(uops)

    def edges(self) -> Iterator[_UopEdge]:
        """Iterate over all labeled instruction→µop edges ``(i, n, u)``."""
        for name, uops in self._assignment.items():
            for mask, count in uops.items():
                yield _UopEdge(name, count, mask)

    def distinct_uops(self) -> tuple[int, ...]:
        """Sorted masks of all distinct µops used anywhere in the mapping.

        This is the "number of µops" statistic of Table 2.
        """
        masks = {mask for uops in self._assignment.values() for mask in uops}
        return tuple(sorted(masks))

    def uop_volume(self) -> int:
        """The µop volume ``V(m) = Σ_(i,n,u) n·|u|`` (Section 4.4)."""
        return sum(
            count * mask_size(mask)
            for uops in self._assignment.values()
            for mask, count in uops.items()
        )

    def uop_masses(self, experiment: Experiment) -> dict[int, float]:
        """The two-level reduction of Section 3.2.

        Returns the µop experiment ``e'(u) = Σ_(i,n,u) e(i)·n`` as a mapping
        from port mask to total mass.  Both throughput back ends (LP and
        bottleneck) consume this form.
        """
        masses: dict[int, float] = {}
        for name, count in experiment:
            for mask, mult in self.uops_of(name).items():
                masses[mask] = masses.get(mask, 0.0) + float(count * mult)
        return masses

    def restricted_to(self, names: Iterable[str]) -> "ThreeLevelMapping":
        """Sub-mapping covering only the given instructions."""
        wanted = set(names)
        missing = wanted - set(self._assignment)
        if missing:
            raise MappingError(f"instructions {sorted(missing)} not covered")
        return ThreeLevelMapping(
            self.ports,
            {name: uops for name, uops in self._assignment.items() if name in wanted},
        )

    def extended_by(self, translation: Mapping[str, str]) -> "ThreeLevelMapping":
        """Extend the mapping to congruent instructions.

        ``translation`` maps instruction names to the representative whose
        decomposition they share (Section 4.3); representatives must be
        covered by this mapping.
        """
        assignment = {name: dict(uops) for name, uops in self._assignment.items()}
        for name, rep in translation.items():
            if rep not in self._assignment:
                raise MappingError(
                    f"representative {rep!r} for {name!r} not covered by this mapping"
                )
            assignment[name] = dict(self._assignment[rep])
        return ThreeLevelMapping(self.ports, assignment)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable representation using port *names*."""
        return {
            "ports": list(self.ports.names),
            "instructions": {
                name: [
                    {"ports": list(self.ports.mask_names(mask)), "count": count}
                    for mask, count in uops.items()
                ]
                for name, uops in self._assignment.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ThreeLevelMapping":
        """Inverse of :meth:`to_dict`.

        Raises :class:`MappingError` for anything that is not such a
        document: no type, value or lookup error escapes, and no value is
        coerced (a fractional count or a string of port letters is an
        error, not a guess).
        """
        if not isinstance(data, Mapping):
            raise MappingError(
                f"a mapping document is a JSON object, not {type(data).__name__}"
            )
        try:
            port_names = data["ports"]
            instructions = data["instructions"]
        except KeyError as exc:
            raise MappingError(f"malformed mapping dictionary: missing key {exc}") from None
        ports = PortSpace(_port_names(port_names, "'ports'"))
        if not isinstance(instructions, Mapping):
            raise MappingError("'instructions' must be an object of name -> µop list")
        assignment: dict[str, dict[int, int]] = {}
        for name, uops in instructions.items():
            if not isinstance(uops, list):
                raise MappingError(f"instruction {name!r}: µops must be a list")
            decomposition: dict[int, int] = {}
            for entry in uops:
                if not (isinstance(entry, Mapping) and "ports" in entry and "count" in entry):
                    raise MappingError(
                        f"instruction {name!r}: a µop is an object with 'ports' and 'count'"
                    )
                names = _port_names(entry["ports"], f"instruction {name!r}: µop ports")
                mask = ports.mask(*names)
                count = entry["count"]
                if isinstance(count, bool) or not isinstance(count, int):
                    raise MappingError(
                        f"instruction {name!r}: µop count must be an integer, "
                        f"not {type(count).__name__}"
                    )
                decomposition[mask] = decomposition.get(mask, 0) + count
            assignment[name] = decomposition
        return cls(ports, assignment)

    def to_json(self, indent: int | None = 2) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ThreeLevelMapping":
        """Deserialize from a JSON string; :class:`MappingError` on any defect."""
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise MappingError(f"mapping is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    def fingerprint(self) -> str:
        """Stable content hash of the mapping (sha256 hex, truncated).

        Two mappings have equal fingerprints iff they have equal canonical
        serializations (port names in order, instructions and µops sorted —
        which :meth:`to_dict` already guarantees).  The serving layer uses
        this as the mapping *version*: hot reload compares fingerprints to
        decide whether cached predictions must be invalidated, and reports
        it from ``/v1/stats`` so operators can tell which artifact revision
        a server is answering with.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def describe(self) -> str:
        """Human-readable multi-line description of the mapping."""
        lines = [f"ThreeLevelMapping over {self.ports.num_ports} ports"]
        for name, uops in self._assignment.items():
            parts = [
                f"{count}x{self.ports.format_mask(mask)}" for mask, count in uops.items()
            ]
            lines.append(f"  {name}: " + " + ".join(parts))
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ThreeLevelMapping):
            return NotImplemented
        return self.ports == other.ports and self._assignment == other._assignment

    def __repr__(self) -> str:
        return (
            f"ThreeLevelMapping({len(self)} instructions, "
            f"{len(self.distinct_uops())} µops, {self.ports.num_ports} ports)"
        )
