"""Direction-aware spatial keyword search (Li et al. [13], DESKS).

The last query variant the paper's Section 2 surveys: "add the user's
driving or walking direction as a constraint".  A query carries, besides
location and keywords, a heading and an angular width; only documents
inside that sector qualify.

Implemented as a :class:`~repro.core.query.SpatialFilter` plugged into
the ordinary I3 best-first traversal: a quadtree cell is pruned when the
angular interval it subtends (as seen from the query point) cannot
overlap the query sector, and surviving documents get the exact angle
test at scoring time.  The cell test relies on a convexity fact — a
convex region not containing the viewpoint subtends an angular interval
strictly narrower than pi — which makes the corner-angle interval exact
despite wraparound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.core.query import SpatialFilter
from repro.model.query import TopKQuery
from repro.model.results import ScoredDoc
from repro.model.scoring import Ranker
from repro.spatial.geometry import Rect

__all__ = ["Sector", "DirectionAwareSearcher"]

_TWO_PI = 2.0 * math.pi


def _wrap(angle: float) -> float:
    """Normalise an angle to (-pi, pi]."""
    angle = math.fmod(angle + math.pi, _TWO_PI)
    if angle <= 0.0:
        angle += _TWO_PI
    return angle - math.pi


@dataclass(frozen=True)
class Sector(SpatialFilter):
    """An infinite angular sector anchored at a point.

    Attributes:
        x: Apex (query) location, horizontal coordinate.
        y: Apex location, vertical coordinate.
        direction: Heading of the sector's bisector, radians.
        width: Total angular width in radians, in (0, 2*pi].
    """

    x: float
    y: float
    direction: float
    width: float

    def __post_init__(self) -> None:
        if not 0.0 < self.width <= _TWO_PI:
            raise ValueError(f"sector width must be in (0, 2*pi], got {self.width}")

    def contains(self, px: float, py: float) -> bool:
        """Whether a point lies inside the sector (the apex counts)."""
        if self.width >= _TWO_PI:
            return True
        dx, dy = px - self.x, py - self.y
        if dx == 0.0 and dy == 0.0:
            return True
        deviation = abs(_wrap(math.atan2(dy, dx) - self.direction))
        return deviation <= self.width / 2.0 + 1e-12

    def may_intersect(self, rect: Rect) -> bool:
        """Whether the sector could intersect the rectangle (exact).

        True when the apex lies inside the rectangle; otherwise the
        rectangle subtends an angular interval < pi (it is convex and
        excludes the apex), so interval overlap against the sector's
        own interval decides exactly.
        """
        if self.width >= _TWO_PI:
            return True
        if rect.contains_point(self.x, self.y):
            return True
        corners = [
            (rect.min_x, rect.min_y),
            (rect.max_x, rect.min_y),
            (rect.min_x, rect.max_y),
            (rect.max_x, rect.max_y),
        ]
        base = math.atan2(corners[0][1] - self.y, corners[0][0] - self.x)
        # Map every corner angle into base ± pi; the subtended interval
        # is their min..max (narrower than pi by convexity).
        offsets = [
            _wrap(math.atan2(cy - self.y, cx - self.x) - base)
            for cx, cy in corners
        ]
        lo, hi = min(offsets), max(offsets)
        center = base + (lo + hi) / 2.0
        half_width = (hi - lo) / 2.0
        separation = abs(_wrap(center - self.direction))
        return separation <= half_width + self.width / 2.0 + 1e-12


class DirectionAwareSearcher:
    """Top-k spatial keyword search restricted to a heading sector."""

    def __init__(self, index) -> None:
        self.index = index

    def search(
        self,
        query: TopKQuery,
        direction: float,
        width: float,
        ranker: Optional[Ranker] = None,
    ) -> List[ScoredDoc]:
        """Answer ``query`` considering only documents within the sector
        of ``width`` radians centred on ``direction`` from the query
        location.  Ranking and semantics are unchanged."""
        if ranker is None:
            ranker = Ranker(self.index.space)
        sector = Sector(x=query.x, y=query.y, direction=direction, width=width)
        return self.index.engine_processor().search(
            query, ranker, spatial_filter=sector
        )
