"""Greedy disjoint subfamily selection with 5-dilate coverage certificates.

From any finite ball family, repeatedly select the remaining ball of
maximal radius (ties: smaller center index, then input order) and discard
every ball whose member set meets it.  Each discarded ball intersects a
selected ball of at least its own radius, so its members lie inside the
5-dilate of that ball; the certificate records and verifies the assignment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateViolation, EmptyFamily
from .space import Ball, Space, dilate


@dataclass(frozen=True)
class FiveCover:
    """Disjoint subfamily plus the verified input-to-dilate assignment."""

    selected: tuple[Ball, ...]
    dilates: tuple[Ball, ...]
    assignment: tuple[int, ...]


def five_cover(space: Space, balls) -> FiveCover:
    """Select a disjoint subfamily whose 5-dilates cover every input ball.

    Raises EmptyFamily for an empty input; raises CertificateViolation if
    the verified coverage ever failed (it cannot on a metric space).
    """
    family = list(balls)
    if not family:
        raise EmptyFamily("five_cover needs at least one ball")

    order = sorted(
        range(len(family)),
        key=lambda i: (-family[i].radius, space.index(family[i].center), i),
    )
    members = [set(b.idx) for b in family]
    assignment = [-1] * len(family)
    selected: list[int] = []
    remaining = set(range(len(family)))
    for i in order:
        if i not in remaining:
            continue
        selected.append(i)
        sel_pos = len(selected) - 1
        for j in list(remaining):
            if not members[j].isdisjoint(members[i]):
                assignment[j] = sel_pos
                remaining.discard(j)

    chosen = tuple(family[i] for i in selected)
    dilates = tuple(dilate(space, b, 5.0) for b in chosen)
    for j, ball in enumerate(family):
        if not members[j].issubset(dilates[assignment[j]].idx):
            raise CertificateViolation(
                f"ball {ball.ball_id()} escapes the 5-dilate of "
                f"{chosen[assignment[j]].ball_id()}"
            )
    for a in range(len(selected)):
        for b in range(a + 1, len(selected)):
            if not members[selected[a]].isdisjoint(members[selected[b]]):
                raise CertificateViolation("selected subfamily is not disjoint")
    return FiveCover(selected=chosen, dilates=dilates, assignment=tuple(assignment))
