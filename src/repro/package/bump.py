"""Bump balls and the per-quadrant bump-ball array.

In the canonical quadrant frame (see :mod:`repro.geometry.transform`) the
fingers sit on a horizontal row at the top and the bump-ball rows extend
downwards.  Row ``y = R`` (``R`` = row count) is the *highest* horizontal
line, i.e. the one nearest the fingers — the paper's ``y = n``.  Row ``y = 1``
is the outermost ring of the BGA quadrant.  Outer rows hold at least as many
balls as inner rows (the quadrant is a trapezoid cut by the diagonal
cut-lines of Fig. 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import PackageModelError
from ..geometry import Point


@dataclass(frozen=True)
class BumpBall:
    """One bump ball: the landing site of one net on layer 2.

    ``col``/``row`` are 1-based indices inside the quadrant's bump array;
    ``col`` counts left-to-right within the row, ``row`` counts from the
    outermost ring (1) towards the fingers (``row_count``).
    """

    net_id: int
    col: int
    row: int

    def __post_init__(self) -> None:
        if self.col < 1 or self.row < 1:
            raise PackageModelError(
                f"bump ball indices must be 1-based, got ({self.col},{self.row})"
            )


class BumpArray:
    """The bump balls of one quadrant, organized by row: rows of net ids, no
    object per ball (:meth:`ball_of` builds a :class:`BumpBall` on demand).

    Parameters
    ----------
    rows:
        ``rows[i]`` is the left-to-right sequence of net ids of row ``i + 1``
        (row 1 is the outermost ring, the last row is nearest the fingers).
    pitch:
        Physical bump-ball pitch in micrometres (Table 1's "bump ball
        space" plus the ball diameter).
    """

    def __init__(self, rows: Sequence[Sequence[int]], pitch: float = 1.0) -> None:
        if pitch <= 0:
            raise PackageModelError(f"bump pitch must be positive, got {pitch}")
        if not rows:
            raise PackageModelError("bump array needs at least one row")
        self._rows: List[List[int]] = [list(row) for row in rows]
        self.pitch = float(pitch)
        for row_index, row in enumerate(self._rows, start=1):
            if not row:
                raise PackageModelError(f"bump row {row_index} is empty")
        self._count = sum(map(len, self._rows))
        net_ids = np.fromiter(chain.from_iterable(self._rows), np.int64, self._count)
        self._sorted_ids = np.sort(net_ids)
        repeated = self._sorted_ids[1:][self._sorted_ids[1:] == self._sorted_ids[:-1]]
        if len(repeated):
            raise PackageModelError(f"net {repeated[0]} owns more than one bump ball")

    @cached_property
    def _row_col(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Ball row and ball column by net id (built on first lookup)."""
        row_of: Dict[int, int] = {}
        col_of: Dict[int, int] = {}
        for row_index, row in enumerate(self._rows, start=1):
            row_of.update(dict.fromkeys(row, row_index))
            col_of.update(zip(row, range(1, len(row) + 1)))
        return row_of, col_of

    # -- structure ---------------------------------------------------------

    @property
    def row_count(self) -> int:
        """Number of horizontal bump rows (the paper's ``n``)."""
        return len(self._rows)

    @property
    def net_count(self) -> int:
        """Total number of balls (== number of nets in the quadrant)."""
        return self._count

    def row_nets(self, row: int) -> List[int]:
        """Net ids of row *row* (1-based), left to right."""
        self._check_row(row)
        return list(self._rows[row - 1])

    def row_size(self, row: int) -> int:
        """Number of balls in row *row*."""
        self._check_row(row)
        return len(self._rows[row - 1])

    def ball_of(self, net_id: int) -> BumpBall:
        """The bump ball owned by *net_id* (a new value on every call)."""
        row = self.row_of(net_id)  # raises for a net without a ball
        return BumpBall(net_id=net_id, col=self._row_col[1][net_id], row=row)

    def row_of(self, net_id: int) -> int:
        """Row of the ball owned by *net_id* (``ball_of(net_id).row``)."""
        try:
            return self._row_col[0][net_id]
        except KeyError:
            raise PackageModelError(f"net {net_id} has no bump ball") from None

    def rows_top_down(self) -> List[int]:
        """Row indices from the highest line (nearest fingers) outwards.

        This is the processing order of both IFA and DFA (paper Figs. 9, 11):
        ``y = n`` first, then ``y = n-1`` and so on.
        """
        return list(range(self.row_count, 0, -1))

    def _check_row(self, row: int) -> None:
        if not (1 <= row <= self.row_count):
            raise PackageModelError(
                f"row {row} outside 1..{self.row_count}"
            )

    # -- physical coordinates (canonical quadrant frame) --------------------

    def row_y(self, row: int) -> float:
        """Physical y coordinate of row *row*; fingers sit at y = 0 above."""
        self._check_row(row)
        return -(self.row_count - row + 1) * self.pitch

    def ball_position(self, net_id: int) -> Point:
        """Physical centre of the ball owned by *net_id*.

        Each row is centred on x = 0, so the quadrant trapezoid is symmetric
        about the vertical axis through the middle of the finger row.
        """
        row, col = self.row_of(net_id), self._row_col[1][net_id]
        x = (col - (self.row_size(row) + 1) / 2.0) * self.pitch
        return Point(x, self.row_y(row))

    def via_position(self, net_id: int) -> Point:
        """Physical location of the net's via: the ball's bottom-left corner.

        This is the paper's convention (section 3.1): "the connected via is
        fixed at the bottom-left corner of the bump ball".
        """
        ball_pos = self.ball_position(net_id)
        return Point(ball_pos.x - self.pitch / 2.0, ball_pos.y - self.pitch / 2.0)

    def via_candidate_xs(self, row: int) -> List[float]:
        """X coordinates of the via candidate sites on row *row*'s line.

        A row with ``m`` balls has ``m + 1`` candidates: the gaps left of the
        first ball, between each pair of adjacent balls, and right of the
        last ball ("the number of vias between four adjacent bump balls is at
        most one").  Ball ``j`` uses candidate ``j - 1`` (its bottom-left
        corner); the rightmost candidate is never owned by a ball.
        """
        row_size = self.row_size(row)
        first_ball_x = (1 - (row_size + 1) / 2.0) * self.pitch
        return [
            first_ball_x + (j - 0.5) * self.pitch for j in range(0, row_size + 1)
        ]

    def validate_against(self, net_ids: Sequence[int]) -> None:
        """Check that the array covers exactly the given (distinct) nets."""
        if not np.array_equal(np.sort(np.asarray(net_ids, np.int64)), self._sorted_ids):
            expected = set(np.asarray(net_ids).tolist())
            actual = set(self._sorted_ids.tolist())
            missing = sorted(expected - actual)
            extra = sorted(actual - expected)
            raise PackageModelError(
                f"bump array does not match netlist: missing={missing} extra={extra}"
            )
