"""Vertical redesign: using FD-RANK to drive decomposition.

The paper's abstract promises that the ranking "can be used by a physical
data-design tool to find good vertical decompositions of a relation
(decompositions that improve the information content of the design)".  This
module is that tool: it repeatedly mines and ranks dependencies, peels off
the fragment implied by the best-ranked one, and continues on the
remainder until no ranked dependency would remove enough redundancy.

Every step is a classic lossless split (``S1 = pi_{X+Y}``,
``S2 = pi_{R-Y}``), so re-joining the proposed fragments always recovers
the original instance.  Progress is accounted in *storage cells*
(tuples x attributes): redundancy removed is cells saved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.attribute_grouping import group_attributes
from repro.core.decompose import decompose_by_fd
from repro.core.discovery import resolve_miner
from repro.core.fd_rank import fd_rank
from repro.core.measures import rad, rtr
from repro.fd import fdep, minimum_cover, tane
from repro.relation import Relation


def _cells(relation: Relation) -> int:
    return len(relation) * relation.arity


@dataclass
class RedesignStep:
    """One decomposition step of the redesign loop."""

    fd: object
    fragment_name: str
    fragment_attributes: tuple
    fragment_tuples: int
    remainder_tuples: int
    rad: float
    rtr: float
    cells_saved: int


@dataclass
class RedesignResult:
    """A proposed multi-fragment schema for one relation.

    ``fragments`` maps fragment names to relations; ``remainder`` is the
    final residual fragment (always present).  The proposal is lossless:
    natural-joining everything recovers the original rows.
    """

    original: Relation
    fragments: dict = field(default_factory=dict)
    steps: list = field(default_factory=list)
    remainder: Relation | None = None

    @property
    def cells_before(self) -> int:
        return _cells(self.original)

    @property
    def cells_after(self) -> int:
        total = sum(_cells(fragment) for fragment in self.fragments.values())
        if self.remainder is not None:
            total += _cells(self.remainder)
        return total

    @property
    def cells_saved_fraction(self) -> float:
        """Fraction of storage cells the redesign eliminates."""
        before = self.cells_before
        if before == 0:
            return 0.0
        return max(0.0, 1.0 - self.cells_after / before)

    def render(self) -> str:
        """Human-readable proposal."""
        lines = [
            f"Vertical redesign of a {len(self.original)}x"
            f"{self.original.arity} relation",
            f"  storage cells: {self.cells_before} -> {self.cells_after} "
            f"({self.cells_saved_fraction:.0%} saved)",
        ]
        for step in self.steps:
            lines.append(
                f"  {step.fragment_name}{step.fragment_attributes}: "
                f"{step.fragment_tuples} tuples  "
                f"[by {step.fd}; RAD={step.rad:.3f} RTR={step.rtr:.3f}]"
            )
        if self.remainder is not None:
            lines.append(
                f"  remainder{self.remainder.attributes}: "
                f"{len(self.remainder)} tuples"
            )
        return "\n".join(lines)


def vertical_redesign(
    relation: Relation,
    max_fragments: int = 4,
    psi: float = 0.5,
    min_rtr: float = 0.2,
    phi_v: float = 0.0,
    phi_t: float | None = None,
    miner: str = "auto",
    budget=None,
) -> RedesignResult:
    """Propose a vertical decomposition driven by FD-RANK.

    At each round the dependencies of the current remainder are mined,
    reduced to a minimum cover, and ranked against the remainder's
    attribute grouping; the best-ranked *qualified* dependency whose RTR is
    at least ``min_rtr`` is used to split off a fragment.  The loop stops
    when no dependency qualifies, the remainder runs out of width, or
    ``max_fragments`` fragments have been extracted.
    """
    if miner not in ("auto", "fdep", "tane"):
        raise ValueError("miner must be 'auto', 'fdep' or 'tane'")
    result = RedesignResult(original=relation)
    remainder = relation

    for round_index in range(max_fragments):
        if remainder.arity < 3:
            break
        chosen = _best_dependency(
            remainder, psi=psi, min_rtr=min_rtr, phi_v=phi_v, phi_t=phi_t,
            miner=miner, budget=budget,
        )
        if chosen is None:
            break

        cells_before = _cells(remainder)
        decomposition = decompose_by_fd(remainder, chosen.fd)
        name = f"R{round_index + 1}"
        result.fragments[name] = decomposition.s1
        result.steps.append(
            RedesignStep(
                fd=chosen.fd,
                fragment_name=name,
                fragment_attributes=decomposition.s1.attributes,
                fragment_tuples=len(decomposition.s1),
                remainder_tuples=len(decomposition.s2),
                rad=rad(remainder, sorted(chosen.fd.attributes)),
                rtr=rtr(remainder, sorted(chosen.fd.attributes)),
                cells_saved=cells_before
                - _cells(decomposition.s1)
                - _cells(decomposition.s2),
            )
        )
        remainder = decomposition.s2

    result.remainder = remainder
    return result


def _best_dependency(remainder, psi, min_rtr, phi_v, phi_t, miner, budget=None):
    """The best-ranked qualified dependency worth decomposing by, if any."""
    if resolve_miner(miner, len(remainder)) == "fdep":
        fds = fdep(remainder, budget=budget)
    else:
        fds = tane(remainder, max_lhs_size=3, budget=budget)
    cover = minimum_cover(fds, group_rhs=True)
    if not cover:
        return None
    try:
        grouping = group_attributes(
            remainder, phi_v=phi_v, phi_t=phi_t, budget=budget
        )
    except ValueError:
        return None  # no duplicate value groups left to exploit
    for entry in fd_rank(cover, grouping, psi=psi):
        if not entry.qualified:
            continue
        if not entry.fd.lhs or len(entry.fd.attributes) >= remainder.arity:
            continue
        if rtr(remainder, sorted(entry.fd.attributes)) >= min_rtr:
            return entry
    return None
