"""Integer partitions, Young diagrams, and hook lengths.

Coordinate convention: a Young diagram is drawn in the first quadrant with
row 1 at the *bottom*, so a cell (t, s) sits in row t counting upward and
column s counting from the left.  Both indices are 1-based.  (Much of the
literature draws diagrams top-down; everything here is bottom-up.)
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, NamedTuple


class Cell(NamedTuple):
    """A 1-based (row, column) coordinate in a Young diagram."""

    t: int
    s: int


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive parts.

    The empty partition (of n = 0) is a valid value; it is the recursion
    base for samplers and gives the partition count p(0) = 1.
    Instances are immutable and safe to share between workers.
    """

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = self.parts
        # the check at C speed (sorting a decreasing sequence is one linear
        # pass); the loop runs only to name what failed
        if parts and not (parts[-1] >= 1 and list(parts) == sorted(parts, reverse=True)):
            prev = None
            for part in parts:
                if part < 1:
                    raise ValueError(f"parts must be positive, got {part}")
                if prev is not None and part > prev:
                    raise ValueError(f"parts must be weakly decreasing: {parts}")
                prev = part
        object.__setattr__(self, "_n", sum(parts))

    @property
    def n(self) -> int:
        return self._n

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return ",".join(str(part) for part in self.parts)


def conjugate(p: Partition) -> Partition:
    """Transpose the Young diagram: column lengths become the new parts."""
    parts = p.parts
    if not parts:
        return Partition(())
    conj = []
    k = len(parts)
    for s in range(1, parts[0] + 1):
        # parts are decreasing, so the count of parts >= s is a prefix length
        while parts[k - 1] < s:
            k -= 1
        conj.append(k)
    return Partition(tuple(conj))


def cells(p: Partition) -> Iterator[Cell]:
    """Yield the n cells row-major from row 1.

    This order is the contract for the uniform-cell index map used by the
    samplers, so it must never change.
    """
    for t, row_len in enumerate(p.parts, start=1):
        for s in range(1, row_len + 1):
            yield Cell(t, s)


def _count_parts_ge(parts: tuple[int, ...], s: float) -> int:
    # parts descending; count entries >= s via bisect on the negated order
    return bisect_right(parts, -s, key=lambda v: -v)


def hook_length(p: Partition, c: Cell) -> int:
    """Number of cells in the hook of c: the cell itself, the cells to its
    right in its row, and the cells above it in its column."""
    t, s = c
    parts = p.parts
    if not (1 <= t <= len(parts)) or not (1 <= s <= parts[t - 1]):
        raise ValueError(f"cell ({t},{s}) lies outside the diagram of {p}")
    conj_s = _count_parts_ge(parts, s)
    return parts[t - 1] - s + conj_s - t + 1


def profile(p: Partition, t: float) -> int:
    """Height of the diagram boundary at abscissa t: the number of parts >= t.

    Piecewise constant and nonincreasing; equals the number of parts for
    0 <= t <= 1 and 0 beyond the largest part.
    """
    if t < 0:
        raise ValueError(f"profile argument must be nonnegative, got {t}")
    return _count_parts_ge(p.parts, t)
