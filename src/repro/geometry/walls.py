"""Wall segments, pillars and intersection predicates for the ray tracer.

The floorplan is a collection of straight wall segments (with a material) and
circular concrete pillars.  The ray tracer needs three geometric operations:

* segment/segment intersection (does a propagation path cross a wall?),
* mirroring a point across a wall's supporting line (image-source method for
  specular reflections), and
* segment/circle intersection (is the path blocked by a pillar?).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import GeometryError
from repro.geometry.materials import Material, get_material
from repro.geometry.vector import Point2D

__all__ = ["Wall", "Pillar", "segments_intersect", "segment_circle_intersects"]

_EPS = 1e-9


@dataclass(frozen=True)
class Wall:
    """A straight wall segment with an associated building material.

    Attributes
    ----------
    start, end:
        Segment endpoints in metres.
    material:
        A :class:`~repro.geometry.materials.Material`; accepts a material
        name for convenience.
    name:
        Optional label used in floorplan inventories and debugging output.
    """

    start: Point2D
    end: Point2D
    material: Material = field(default_factory=lambda: get_material("drywall"))
    name: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.material, str):
            object.__setattr__(self, "material", get_material(self.material))
        if self.start.distance_to(self.end) < _EPS:
            raise GeometryError(
                f"wall {self.name or '(unnamed)'} is degenerate: "
                f"{self.start} -> {self.end}")

    @property
    def length(self) -> float:
        """Length of the wall segment in metres."""
        return self.start.distance_to(self.end)

    @property
    def direction(self) -> Point2D:
        """Unit vector pointing from ``start`` to ``end``."""
        return (self.end - self.start).normalized()

    @property
    def normal(self) -> Point2D:
        """Unit normal of the wall (rotated +90 degrees from direction)."""
        return self.direction.perpendicular()

    @property
    def midpoint(self) -> Point2D:
        """Midpoint of the segment."""
        return (self.start + self.end) / 2.0

    def mirror_point(self, point: Point2D) -> Point2D:
        """Mirror ``point`` across the infinite line supporting this wall.

        This is the image-source construction: the reflection of a
        transmitter across a wall behaves, for the reflected path, like a
        virtual transmitter at the mirrored position.
        """
        direction = self.direction
        relative = point - self.start
        along = direction * relative.dot(direction)
        perpendicular = relative - along
        return point - perpendicular * 2.0

    def intersection_with_segment(
            self, a: Point2D, b: Point2D) -> Point2D | None:
        """Return the intersection point of segment ``a``-``b`` with this wall.

        Returns ``None`` when the segments do not intersect or are parallel.
        Touching exactly at an endpoint counts as an intersection.
        """
        return _segment_intersection(self.start, self.end, a, b)

    def blocks(self, a: Point2D, b: Point2D) -> bool:
        """Return True if the straight path from ``a`` to ``b`` crosses this wall.

        Endpoints lying exactly on the wall (e.g. the specular reflection
        point itself) do not count as blocking.
        """
        hit = self.intersection_with_segment(a, b)
        if hit is None:
            return False
        # Ignore grazing hits at the path endpoints: those arise when the
        # reflection point of the path lies on this very wall.
        if hit.distance_to(a) < 1e-6 or hit.distance_to(b) < 1e-6:
            return False
        return True


@dataclass(frozen=True)
class Pillar:
    """A circular concrete pillar that obstructs the direct path.

    The testbed description (Section 4) places some clients behind concrete
    pillars so that the direct path between AP and client is obstructed; the
    pillar model attenuates any path passing through its footprint.  The
    default material is the "pillar" entry of the registry, whose loss
    reflects diffraction around a free-standing obstruction rather than
    transmission through a solid concrete wall.
    """

    center: Point2D
    radius: float
    material: Material = field(default_factory=lambda: get_material("pillar"))
    name: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.material, str):
            object.__setattr__(self, "material", get_material(self.material))
        if self.radius <= 0:
            raise GeometryError(
                f"pillar {self.name or '(unnamed)'} must have positive radius")

    def blocks(self, a: Point2D, b: Point2D) -> bool:
        """Return True if the segment from ``a`` to ``b`` passes through the pillar."""
        return segment_circle_intersects(a, b, self.center, self.radius)


def _segment_intersection(p1: Point2D, p2: Point2D,
                          q1: Point2D, q2: Point2D) -> Point2D | None:
    """Return the intersection point of segments ``p1p2`` and ``q1q2``."""
    r = p2 - p1
    s = q2 - q1
    denom = r.cross(s)
    if abs(denom) < _EPS:
        return None  # Parallel or collinear: treat as non-intersecting.
    qp = q1 - p1
    t = qp.cross(s) / denom
    u = qp.cross(r) / denom
    if -_EPS <= t <= 1.0 + _EPS and -_EPS <= u <= 1.0 + _EPS:
        return p1 + r * t
    return None


def segments_intersect(p1: Point2D, p2: Point2D,
                       q1: Point2D, q2: Point2D) -> bool:
    """Return True if the two closed segments intersect (non-parallel case)."""
    return _segment_intersection(p1, p2, q1, q2) is not None


def segment_circle_intersects(a: Point2D, b: Point2D,
                              center: Point2D, radius: float) -> bool:
    """Return True if segment ``a``-``b`` intersects the closed disk.

    Endpoints strictly inside the disk count as an intersection; this models
    a client standing immediately behind (or inside the footprint of) a
    pillar as blocked.
    """
    ab = b - a
    length_sq = ab.dot(ab)
    if length_sq < _EPS:
        return a.distance_to(center) <= radius
    t = max(0.0, min(1.0, (center - a).dot(ab) / length_sq))
    closest = a + ab * t
    return closest.distance_to(center) <= radius


def point_segment_distance(point: Point2D, a: Point2D, b: Point2D) -> float:
    """Return the distance from ``point`` to the closed segment ``a``-``b``."""
    ab = b - a
    length_sq = ab.dot(ab)
    if length_sq < _EPS:
        return point.distance_to(a)
    t = max(0.0, min(1.0, (point - a).dot(ab) / length_sq))
    closest = a + ab * t
    return point.distance_to(closest)


def reflection_point(wall: Wall, source: Point2D,
                     destination: Point2D) -> Point2D | None:
    """Return the specular reflection point on ``wall`` for a source/destination pair.

    Uses the image-source construction: mirror the source across the wall and
    intersect the line from the image to the destination with the wall
    segment.  Returns ``None`` when no valid specular point exists on the
    finite segment (including when source and destination are on the same
    side such that the geometry degenerates).
    """
    image = wall.mirror_point(source)
    hit = wall.intersection_with_segment(image, destination)
    if hit is None:
        return None
    # The specular point must lie strictly within the wall segment (allowing
    # endpoints) and the unfolded path must have positive length on each leg.
    if hit.distance_to(image) < _EPS or hit.distance_to(destination) < _EPS:
        return None
    return hit

