"""Piecewise-linear embedded graphs and planar surface patches.

Graphs live in a single chart of R^3.  Edges are oriented polylines that may
meet only at endpoint vertices; surfaces are bounded planar polygonal patches
(open: boundary points excluded).  This module provides validation,
subdivision, common refinements of pairs of graphs, surface punctures with
above/below/tangent classification, and the orientation sign of edge triples
at a vertex.

All geometric comparisons use the absolute tolerance ``GEO_TOL`` (1e-9);
configurations within tolerance of a degeneracy that cannot be classified
(e.g. a crossing on a patch boundary) raise ``IllPosedIntersectionError``.
"""

from __future__ import annotations

import types
import weakref
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "GEO_TOL",
    "Edge",
    "EmbeddedGraph",
    "Surface",
    "Puncture",
    "PunctureHalfEdge",
    "PunctureResult",
    "RefinementMap",
    "ValidationIssue",
    "InvalidGraphError",
    "IllPosedIntersectionError",
    "NonConformingOverlapError",
    "validate",
    "ensure_valid",
    "subdivide",
    "subdivide_many",
    "common_refinement",
    "punctures",
    "outgoing_tangent",
    "half_edges_at",
    "is_spurious",
    "identity_refinement",
    "compose_refinements",
]

GEO_TOL = 1e-9


class IllPosedIntersectionError(Exception):
    """Geometry too degenerate to classify within tolerance."""


class NonConformingOverlapError(Exception):
    """Two polylines share an interval that is an exact subchain of neither."""


class InvalidGraphError(Exception):
    def __init__(self, issues: "list[ValidationIssue]"):
        super().__init__("; ".join(i.message for i in issues))
        self.issues = issues


@dataclass(frozen=True)
class ValidationIssue:
    message: str
    edges: tuple[int, ...] = ()
    point: Optional[np.ndarray] = None


# ---------------------------------------------------------------------------
# data model


@dataclass(frozen=True, eq=False)
class Edge:
    """Oriented polyline from vertex ``start`` to vertex ``end``."""

    start: int
    end: int
    polyline: np.ndarray  # (k >= 2, 3)

    def __post_init__(self):
        poly = np.array(self.polyline, dtype=float)
        if poly.ndim != 2 or poly.shape[1] != 3 or poly.shape[0] < 2:
            raise ValueError("polyline must be a (k>=2, 3) point array")
        poly.flags.writeable = False
        object.__setattr__(self, "polyline", poly)


class EmbeddedGraph:
    """Vertices plus oriented polyline edges in one chart of R^3.

    A graph is immutable: the vertex and polyline arrays are read-only and
    ``edges`` is a tuple of frozen ``Edge``s.  That is what lets
    ``ensure_valid`` remember, in ``_valid``, that a graph passed, and
    ``punctures`` remember, in ``_punctures``, its result per surface.
    """

    __slots__ = ("vertices", "edges", "_valid", "_punctures")

    def __init__(self, vertices, edges: Iterable[Edge]):
        verts = np.array(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 3:
            raise ValueError("vertices must be an (n, 3) array")
        verts.flags.writeable = False
        self.vertices = verts
        self.edges = tuple(edges)
        for e in self.edges:
            if not (0 <= e.start < len(verts) and 0 <= e.end < len(verts)):
                raise ValueError(f"edge endpoints {e.start}->{e.end} out of range")
        self._valid = False
        self._punctures = None  # surface -> PunctureResult, made on first use

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @staticmethod
    def build(vertices, edge_specs) -> "EmbeddedGraph":
        """Construct from (start, end[, polyline]) tuples; omitted polylines
        are straight segments."""
        verts = np.asarray(vertices, dtype=float)
        edges = []
        for spec in edge_specs:
            if len(spec) == 2:
                s, t = spec
                if not (0 <= s < len(verts) and 0 <= t < len(verts)):
                    raise ValueError(f"edge endpoints {s}->{t} out of range")
                poly = np.vstack([verts[s], verts[t]])
            else:
                s, t, poly = spec
                poly = np.asarray(poly, dtype=float)
            edges.append(Edge(s, t, poly))
        return EmbeddedGraph(verts, edges)


@dataclass(frozen=True)
class RefinementMap:
    """Maps each coarse edge to its oriented chain of fine edges.

    ``chains[e]`` is a tuple of (fine edge id, sign) pairs ordered from the
    coarse edge's start to its end; sign -1 means the fine edge is traversed
    against its own orientation.  ``chains`` is a read-only view of a copy
    of the given mapping, so a map shared between callers cannot change.
    """

    coarse: EmbeddedGraph
    fine: EmbeddedGraph
    chains: Mapping[int, tuple[tuple[int, int], ...]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "chains", types.MappingProxyType(dict(self.chains)))

    def is_identity(self) -> bool:
        return self.coarse.n_edges == self.fine.n_edges and all(
            self.chains[e] == ((e, 1),) for e in range(self.coarse.n_edges)
        )


def identity_refinement(graph: EmbeddedGraph) -> RefinementMap:
    return RefinementMap(graph, graph, {e: ((e, 1),) for e in range(graph.n_edges)})


def compose_refinements(outer: RefinementMap, inner: RefinementMap) -> RefinementMap:
    """Chain inner: g1 -> g2 with outer: g2 -> g3 into g1 -> g3."""
    chains = {}
    for e, chain in inner.chains.items():
        out: list[tuple[int, int]] = []
        for fid, sign in chain:
            mapped = outer.chains[fid]
            if sign == 1:
                out.extend(mapped)
            else:
                out.extend((gid, -gs) for gid, gs in reversed(mapped))
        chains[e] = tuple(out)
    return RefinementMap(inner.coarse, outer.fine, chains)


# ---------------------------------------------------------------------------
# low-level geometry


def _point_segment(p, a, b) -> tuple[float, float]:
    """Distance from point p to segment [a, b] and the closest parameter."""
    u = b - a
    uu = float(u @ u)
    if uu == 0.0:
        return float(np.linalg.norm(p - a)), 0.0
    t = float((p - a) @ u) / uu
    t = min(1.0, max(0.0, t))
    return float(np.linalg.norm(a + t * u - p)), t


def _segment_closest(p0, p1, q0, q1) -> tuple[float, float, float]:
    """Closest approach of two segments: (distance, s, t)."""
    u = p1 - p0
    v = q1 - q0
    w0 = p0 - q0
    a = float(u @ u)
    b = float(u @ v)
    c = float(v @ v)
    d = float(u @ w0)
    e = float(v @ w0)
    denom = a * c - b * b
    if denom > 1e-12 * max(a * c, 1e-300):
        s = (b * e - c * d) / denom
    else:
        s = 0.0
    s = min(1.0, max(0.0, s))
    t = ((b * s + e) / c) if c > 0.0 else 0.0
    if t < 0.0:
        t = 0.0
        s = min(1.0, max(0.0, -d / a)) if a > 0.0 else 0.0
    elif t > 1.0:
        t = 1.0
        s = min(1.0, max(0.0, (b - d) / a)) if a > 0.0 else 0.0
    dist = float(np.linalg.norm((p0 + s * u) - (q0 + t * v)))
    return dist, s, t


def _segment_pairs(pa: np.ndarray, pb: np.ndarray):
    """Every (segment of polyline pa, segment of polyline pb) pair, as the
    endpoints (p0, p1, q0, q1)."""
    for i in range(len(pa) - 1):
        for k in range(len(pb) - 1):
            yield pa[i], pa[i + 1], pb[k], pb[k + 1]


def _collinear_overlap(p0, p1, q0, q1, tol: float = GEO_TOL):
    """Shared interval of two collinear segments, as arclength along [p0, p1].

    Returns (lo, hi) with hi - lo > tol, or None when the segments are not
    collinear or barely touch.
    """
    u = p1 - p0
    length = float(np.linalg.norm(u))
    if length == 0.0:
        return None
    uhat = u / length
    dq0 = q0 - p0
    dq1 = q1 - p0
    if np.linalg.norm(dq0 - (dq0 @ uhat) * uhat) > tol:
        return None
    if np.linalg.norm(dq1 - (dq1 @ uhat) * uhat) > tol:
        return None
    t0 = float(dq0 @ uhat)
    t1 = float(dq1 @ uhat)
    lo = max(0.0, min(t0, t1))
    hi = min(length, max(t0, t1))
    if hi - lo <= tol:
        return None
    return lo, hi


def _point_on_polyline(poly: np.ndarray, point: np.ndarray, tol: float = GEO_TOL):
    """Locate a point on a polyline: (segment index, parameter) or None."""
    best = None
    for i in range(len(poly) - 1):
        dist, t = _point_segment(point, poly[i], poly[i + 1])
        if dist <= tol and (best is None or dist < best[0]):
            best = (dist, i, t)
    if best is None:
        return None
    return best[1], best[2]


def outgoing_tangent(graph: EmbeddedGraph, edge_id: int, at_start: bool) -> np.ndarray:
    """Unit tangent pointing from an endpoint vertex into the edge body."""
    poly = graph.edges[edge_id].polyline
    d = poly[1] - poly[0] if at_start else poly[-2] - poly[-1]
    n = np.linalg.norm(d)
    if n == 0.0:
        raise ValueError(f"edge {edge_id} has a zero-length end segment")
    return d / n


def half_edges_at(graph: EmbeddedGraph, vertex: int) -> list[tuple[int, str]]:
    """Incident half-edges as (edge id, 'start'|'end'), loops listed twice."""
    out = []
    for eid, e in enumerate(graph.edges):
        if e.start == vertex:
            out.append((eid, "start"))
        if e.end == vertex:
            out.append((eid, "end"))
    return out


def is_spurious(graph: EmbeddedGraph, vertex: int, tol: float = GEO_TOL) -> bool:
    """True for a 2-valent vertex where two distinct edges continue straight
    through (anti-collinear outgoing tangents)."""
    hes = half_edges_at(graph, vertex)
    if len(hes) != 2:
        return False
    (e1, end1), (e2, end2) = hes
    if e1 == e2:
        return False  # a loop's base point cannot be removed
    t1 = outgoing_tangent(graph, e1, end1 == "start")
    t2 = outgoing_tangent(graph, e2, end2 == "start")
    return float(t1 @ t2) < 0.0 and float(np.linalg.norm(np.cross(t1, t2))) < tol


def tangent_orientation(t1, t2, t3, tol: float = GEO_TOL) -> int:
    """Orientation sign of three explicit tangent vectors (normalized)."""
    mats = []
    for t in (t1, t2, t3):
        t = np.asarray(t, dtype=float)
        n = np.linalg.norm(t)
        if n == 0.0:
            raise ValueError("zero tangent vector")
        mats.append(t / n)
    det = float(np.linalg.det(np.array(mats)))
    if abs(det) < tol:
        return 0
    return 1 if det > 0 else -1


# ---------------------------------------------------------------------------
# validation


def validate(graph: EmbeddedGraph) -> list[ValidationIssue]:
    """Check embedding constraints; an empty report means the graph is ok."""
    issues: list[ValidationIssue] = []
    if not np.all(np.isfinite(graph.vertices)):
        issues.append(ValidationIssue("non-finite vertex coordinates"))
    for eid, e in enumerate(graph.edges):
        poly = e.polyline
        if not np.all(np.isfinite(poly)):
            issues.append(ValidationIssue(f"edge {eid}: non-finite polyline", (eid,)))
            continue
        if np.linalg.norm(poly[0] - graph.vertices[e.start]) > GEO_TOL:
            issues.append(
                ValidationIssue(f"edge {eid}: polyline start does not match vertex {e.start}", (eid,))
            )
        if np.linalg.norm(poly[-1] - graph.vertices[e.end]) > GEO_TOL:
            issues.append(
                ValidationIssue(f"edge {eid}: polyline end does not match vertex {e.end}", (eid,))
            )
        segs = np.diff(poly, axis=0)
        lens = np.linalg.norm(segs, axis=1)
        if np.any(lens <= GEO_TOL):
            issues.append(ValidationIssue(f"edge {eid}: zero-length polyline segment", (eid,)))
            continue
        # consecutive segments must not double back onto each other
        for i in range(len(segs) - 1):
            d1, d2 = segs[i] / lens[i], segs[i + 1] / lens[i + 1]
            if float(d1 @ d2) < 0.0 and np.linalg.norm(np.cross(d1, d2)) < GEO_TOL:
                issues.append(
                    ValidationIssue(f"edge {eid}: polyline doubles back at breakpoint {i + 1}", (eid,))
                )
        # non-adjacent segments of the same edge must stay apart (a loop's
        # first and last segment may touch at the base vertex)
        for i in range(len(segs)):
            for k in range(i + 2, len(segs)):
                wraps = e.start == e.end and i == 0 and k == len(segs) - 1
                dist, s, t = _segment_closest(poly[i], poly[i + 1], poly[k], poly[k + 1])
                if dist >= GEO_TOL:
                    continue
                if wraps:
                    contact = 0.5 * (poly[i] + s * segs[i] + poly[k] + t * segs[k])
                    if np.linalg.norm(contact - graph.vertices[e.start]) <= GEO_TOL:
                        continue
                issues.append(
                    ValidationIssue(f"edge {eid}: polyline self-intersection", (eid,))
                )
    # pairwise edge separation: interiors may not touch; contact is allowed
    # only at shared endpoint vertices
    for a in range(graph.n_edges):
        ea = graph.edges[a]
        pa = ea.polyline
        for b in range(a + 1, graph.n_edges):
            eb = graph.edges[b]
            pb = eb.polyline
            shared = {ea.start, ea.end} & {eb.start, eb.end}
            shared_pts = [graph.vertices[v] for v in shared]
            # at most one issue per pair of edges
            for p0, p1, q0, q1 in _segment_pairs(pa, pb):
                if _collinear_overlap(p0, p1, q0, q1) is not None:
                    issues.append(
                        ValidationIssue(f"edges {a} and {b}: overlapping interiors", (a, b))
                    )
                    break
                dist, s, t = _segment_closest(p0, p1, q0, q1)
                if dist >= GEO_TOL:
                    continue
                contact = 0.5 * (p0 + s * (p1 - p0) + q0 + t * (q1 - q0))
                if any(np.linalg.norm(contact - p) <= GEO_TOL for p in shared_pts):
                    continue
                issues.append(
                    ValidationIssue(f"edges {a} and {b}: interiors intersect", (a, b), contact)
                )
                break
    return issues


def ensure_valid(graph: EmbeddedGraph) -> None:
    """Raise ``InvalidGraphError`` unless ``validate`` reports no issue.

    A clean result is remembered on the (immutable) graph, so later calls
    return at once; a failure is not remembered and is raised on every call.
    """
    if graph._valid:
        return
    issues = validate(graph)
    if issues:
        raise InvalidGraphError(issues)
    graph._valid = True


# ---------------------------------------------------------------------------
# subdivision


def subdivide(graph: EmbeddedGraph, edge_id: int, point) -> tuple[EmbeddedGraph, RefinementMap]:
    """Split one edge at an interior point, which becomes a new vertex.

    The two halves replace the split edge in order, so edge ids beyond it
    shift up by one; the returned refinement map records the chains.
    """
    point = np.asarray(point, dtype=float)
    e = graph.edges[edge_id]
    loc = _point_on_polyline(e.polyline, point, GEO_TOL)
    if loc is None:
        raise ValueError(f"point {point.tolist()} does not lie on edge {edge_id}")
    seg, t = loc
    poly = e.polyline
    # snap to an existing breakpoint when the point is within tolerance of one
    if np.linalg.norm(point - poly[seg]) <= GEO_TOL:
        cut = seg
        point = poly[seg]
    elif np.linalg.norm(point - poly[seg + 1]) <= GEO_TOL:
        cut = seg + 1
        point = poly[seg + 1]
    else:
        cut = None
    if np.linalg.norm(point - graph.vertices[e.start]) <= GEO_TOL or np.linalg.norm(
        point - graph.vertices[e.end]
    ) <= GEO_TOL:
        raise ValueError("split point must lie in the edge interior")
    if cut is not None:
        first = poly[: cut + 1]
        second = poly[cut:]
    else:
        first = np.vstack([poly[: seg + 1], point])
        second = np.vstack([point, poly[seg + 1 :]])
    new_vid = graph.n_vertices
    verts = np.vstack([graph.vertices, point])
    edges = list(graph.edges)
    edges[edge_id : edge_id + 1] = [Edge(e.start, new_vid, first), Edge(new_vid, e.end, second)]
    fine = EmbeddedGraph(verts, edges)
    chains = {}
    for old in range(graph.n_edges):
        if old < edge_id:
            chains[old] = ((old, 1),)
        elif old == edge_id:
            chains[old] = ((edge_id, 1), (edge_id + 1, 1))
        else:
            chains[old] = ((old + 1, 1),)
    return fine, RefinementMap(graph, fine, chains)


def subdivide_many(
    graph: EmbeddedGraph, events: Sequence[tuple[int, np.ndarray]]
) -> tuple[EmbeddedGraph, RefinementMap]:
    """Split several edges at several interior points in one deterministic pass."""
    by_edge: dict[int, list[tuple[int, float, np.ndarray]]] = {}
    for eid, point in events:
        point = np.asarray(point, dtype=float)
        loc = _point_on_polyline(graph.edges[eid].polyline, point, GEO_TOL)
        if loc is None:
            raise ValueError(f"split point {point.tolist()} not on edge {eid}")
        e = graph.edges[eid]
        if (
            np.linalg.norm(point - graph.vertices[e.start]) <= GEO_TOL
            or np.linalg.norm(point - graph.vertices[e.end]) <= GEO_TOL
        ):
            continue  # already a vertex
        entries = by_edge.setdefault(eid, [])
        if any(np.linalg.norm(point - p) <= GEO_TOL for _, _, p in entries):
            continue
        entries.append((loc[0], loc[1], point))
    current = graph
    total = identity_refinement(graph)
    # descending edge ids keep earlier ids stable; descending arc positions
    # keep every remaining split inside the head half (which keeps its id)
    for eid in sorted(by_edge, reverse=True):
        for _, _, point in sorted(by_edge[eid], key=lambda it: (it[0], it[1]), reverse=True):
            current, step = subdivide(current, eid, point)
            total = compose_refinements(step, total)
    return current, total


# ---------------------------------------------------------------------------
# surfaces and punctures


class Surface:
    """Open planar polygonal patch: base point, unit normal, simple polygon.

    Surfaces compare by identity; ``punctures`` keys its memo weakly on them.
    """

    __slots__ = ("base", "normal", "polygon", "_u", "_v", "_poly2d", "__weakref__")

    def __init__(self, base, normal, polygon):
        base = np.array(base, dtype=float)
        normal = np.array(normal, dtype=float)
        n = np.linalg.norm(normal)
        if n < GEO_TOL:
            raise ValueError("surface normal must be nonzero")
        normal = normal / n
        polygon = np.array(polygon, dtype=float)
        if polygon.ndim != 2 or polygon.shape[1] != 3 or polygon.shape[0] < 3:
            raise ValueError("polygon must be an (k>=3, 3) array")
        off = (polygon - base) @ normal
        if np.max(np.abs(off)) > GEO_TOL:
            raise ValueError("polygon vertices must lie in the surface plane")
        # deterministic in-plane frame
        seed = np.array([1.0, 0.0, 0.0])
        if abs(normal @ seed) > 0.9:
            seed = np.array([0.0, 1.0, 0.0])
        u = seed - (seed @ normal) * normal
        u = u / np.linalg.norm(u)
        v = np.cross(normal, u)
        for arr in (base, normal, polygon):
            arr.flags.writeable = False
        self.base = base
        self.normal = normal
        self.polygon = polygon
        self._u = u
        self._v = v
        self._poly2d = self.plane_coords(polygon)

    def reversed(self) -> "Surface":
        return Surface(self.base, -self.normal, self.polygon)

    def signed_distance(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return (pts - self.base) @ self.normal

    def plane_coords(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        rel = pts - self.base
        return np.stack([rel @ self._u, rel @ self._v], axis=-1)

    def boundary_distance(self, point2d) -> float:
        poly = self._poly2d
        return min(
            _point_segment(point2d, poly[i], poly[(i + 1) % len(poly)])[0]
            for i in range(len(poly))
        )

    def contains(self, point) -> bool:
        """Strict interior test for an on-plane point; ill-posed near the
        patch boundary."""
        q = self.plane_coords(np.asarray(point, dtype=float))
        if self.boundary_distance(q) <= GEO_TOL:
            raise IllPosedIntersectionError(
                f"intersection at {np.asarray(point).tolist()} lies within tolerance "
                "of the patch boundary"
            )
        poly = self._poly2d
        crossings = 0
        for i in range(len(poly)):
            a = poly[i]
            b = poly[(i + 1) % len(poly)]
            if (a[1] > q[1]) != (b[1] > q[1]):
                x = a[0] + (q[1] - a[1]) * (b[0] - a[0]) / (b[1] - a[1])
                if x > q[0]:
                    crossings += 1
        return crossings % 2 == 1


@dataclass(frozen=True)
class PunctureHalfEdge:
    edge: int
    direction: str  # 'away' (edge starts at the puncture) or 'toward'
    kappa: int  # +1 above, -1 below, 0 tangent


@dataclass(frozen=True)
class Puncture:
    vertex: int
    point: np.ndarray
    half_edges: tuple[PunctureHalfEdge, ...]


@dataclass(frozen=True)
class PunctureResult:
    punctures: tuple[Puncture, ...]
    graph: EmbeddedGraph  # subdivided so every puncture is a vertex
    refinement: RefinementMap  # from the input graph


def _edge_plane_events(poly: np.ndarray, dist: np.ndarray, in_plane_seg) -> list[np.ndarray]:
    """Interior points where a polyline meets the surface plane.

    ``dist`` is the signed plane distance of every breakpoint and
    ``in_plane_seg`` the ``_in_plane_segments`` of the polyline.  Returns
    candidate points on the polyline; its endpoints are not reported (they
    are already vertices).  Interior points of in-plane runs are skipped: an
    edge riding inside the plane meets the surface along a stretch, and only
    the entry/exit points are events.
    """
    nseg = len(poly) - 1
    events: list[np.ndarray] = []

    def on_plane(i: int) -> bool:
        return abs(dist[i]) <= GEO_TOL

    for i in range(nseg):
        a, b = poly[i], poly[i + 1]
        da, db = dist[i], dist[i + 1]
        if in_plane_seg[i]:
            continue  # run boundaries are caught via breakpoint handling
        if on_plane(i):
            if 0 < i:
                events.append(a)
            continue
        if on_plane(i + 1):
            if i + 1 < nseg:
                events.append(b)
            continue
        if da * db < 0.0:
            t = da / (da - db)
            events.append(a + t * (b - a))
    # breakpoints bounding in-plane runs
    for i in range(1, nseg):
        if in_plane_seg[i] != in_plane_seg[i - 1] and on_plane(i):
            events.append(poly[i])
    # dedupe
    out: list[np.ndarray] = []
    for p in events:
        if not any(np.linalg.norm(p - q) <= GEO_TOL for q in out):
            out.append(p)
    return out


def _in_plane_segments(poly: np.ndarray, dist: np.ndarray) -> list[bool]:
    """Per polyline segment: does it run inside the plane, given the signed
    plane distance ``dist`` of every breakpoint?"""
    return [
        abs(dist[i + 1] - dist[i]) < GEO_TOL * float(np.linalg.norm(poly[i + 1] - poly[i]))
        and abs(dist[i]) <= GEO_TOL
        for i in range(len(poly) - 1)
    ]


def _check_in_plane_segments(graph: EmbeddedGraph, surface: Surface, in_plane) -> None:
    """In-plane polyline segments may not touch the patch boundary;
    ``in_plane[e]`` is the ``_in_plane_segments`` of edge e."""
    for eid, edge in enumerate(graph.edges):
        poly = edge.polyline
        for i, inside in enumerate(in_plane[eid]):
            if not inside:
                continue
            # the segment and the closed patch boundary in plane coordinates, at z = 0
            seg = np.column_stack([surface.plane_coords(poly[i : i + 2]), np.zeros(2)])
            ring = np.vstack([surface._poly2d, surface._poly2d[:1]])
            boundary = np.column_stack([ring, np.zeros(len(ring))])
            pairs = _segment_pairs(seg, boundary)
            if any(_segment_closest(*ends)[0] <= GEO_TOL for ends in pairs):
                raise IllPosedIntersectionError(
                    f"edge {eid} runs inside the surface plane and touches the patch boundary"
                )


def punctures(graph: EmbeddedGraph, surface: Surface) -> PunctureResult:
    """Isolated intersection points of graph and surface, with kappa tags.

    The graph is subdivided so that every puncture is a vertex; each incident
    half-edge is classified by the side its outgoing tangent leaves to:
    kappa = +1 strictly above (positive normal side), -1 strictly below,
    0 tangent (normal component below tolerance).

    The result is remembered on the (immutable) graph for as long as the
    surface lives, and later calls with the same surface object return that
    same, read-only result; a failure is not remembered and is raised on
    every call.
    """
    memo = graph._punctures
    if memo is None:
        memo = graph._punctures = weakref.WeakKeyDictionary()
    result = memo.get(surface)
    if result is None:
        result = memo[surface] = _find_punctures(graph, surface)
    return result


def _find_punctures(graph: EmbeddedGraph, surface: Surface) -> PunctureResult:
    ensure_valid(graph)
    dists = [surface.signed_distance(edge.polyline) for edge in graph.edges]
    in_plane = [_in_plane_segments(edge.polyline, d) for edge, d in zip(graph.edges, dists)]
    _check_in_plane_segments(graph, surface, in_plane)
    events = []
    for eid, edge in enumerate(graph.edges):
        for point in _edge_plane_events(edge.polyline, dists[eid], in_plane[eid]):
            if abs(float(surface.signed_distance(point))) > GEO_TOL:
                continue
            if surface.contains(point):  # may raise near the boundary
                events.append((eid, point))
    fine, rmap = subdivide_many(graph, events)
    punct = []
    for vid in range(fine.n_vertices):
        p = fine.vertices[vid]
        if abs(float(surface.signed_distance(p))) > GEO_TOL:
            continue
        if not surface.contains(p):
            continue
        hes = half_edges_at(fine, vid)
        if not hes:
            continue
        records = []
        for eid, end in hes:
            away = end == "start"
            comp = float(outgoing_tangent(fine, eid, away) @ surface.normal)
            kappa = 0 if abs(comp) < GEO_TOL else (1 if comp > 0 else -1)
            records.append(PunctureHalfEdge(eid, "away" if away else "toward", kappa))
        punct.append(Puncture(vid, p, tuple(records)))
    return PunctureResult(tuple(punct), fine, rmap)


# ---------------------------------------------------------------------------
# common refinement


def _vertex_on_edge_events(target: EmbeddedGraph, other: EmbeddedGraph):
    """Split events where a vertex of ``other`` lies on an edge of ``target``."""
    events = []
    for eid, edge in enumerate(target.edges):
        for vid in range(other.n_vertices):
            p = other.vertices[vid]
            if _point_on_polyline(edge.polyline, p, GEO_TOL) is None:
                continue
            events.append((eid, p))
    return events


def _crossing_events(g1: EmbeddedGraph, g2: EmbeddedGraph):
    """Transverse interior crossing points between the two edge systems."""
    events1, events2 = [], []
    for e1, edge1 in enumerate(g1.edges):
        for e2, edge2 in enumerate(g2.edges):
            for p0, p1, q0, q1 in _segment_pairs(edge1.polyline, edge2.polyline):
                if _collinear_overlap(p0, p1, q0, q1) is not None:
                    continue  # handled by the conformance check
                dist, s, t = _segment_closest(p0, p1, q0, q1)
                if dist >= GEO_TOL:
                    continue
                point = 0.5 * (p0 + s * (p1 - p0) + q0 + t * (q1 - q0))
                events1.append((e1, point))
                events2.append((e2, point))
    return events1, events2


def _conformance_check(g1: EmbeddedGraph, g2: EmbeddedGraph) -> None:
    """After splitting, any collinear overlap must be segment-identical."""
    for e1, edge1 in enumerate(g1.edges):
        for e2, edge2 in enumerate(g2.edges):
            for p0, p1, q0, q1 in _segment_pairs(edge1.polyline, edge2.polyline):
                if _collinear_overlap(p0, p1, q0, q1) is None:
                    continue
                same = (
                    np.linalg.norm(p0 - q0) <= GEO_TOL and np.linalg.norm(p1 - q1) <= GEO_TOL
                ) or (
                    np.linalg.norm(p0 - q1) <= GEO_TOL and np.linalg.norm(p1 - q0) <= GEO_TOL
                )
                if not same:
                    raise NonConformingOverlapError(
                        f"edges {e1} (first graph) and {e2} (second graph) share an "
                        "interval that is an exact subchain of neither polyline"
                    )


def _polylines_match(a: np.ndarray, b: np.ndarray, tol: float = GEO_TOL):
    """Compare two polylines pointwise: +1 same, -1 reversed, None different."""
    if len(a) == len(b):
        if np.max(np.linalg.norm(a - b, axis=1)) <= tol:
            return 1
        if np.max(np.linalg.norm(a - b[::-1], axis=1)) <= tol:
            return -1
    return None


def common_refinement(
    g1: EmbeddedGraph, g2: EmbeddedGraph
) -> tuple[EmbeddedGraph, RefinementMap, RefinementMap]:
    """Coarsest common refinement of two graphs in the same chart.

    Splits both graphs at mutual crossings and at each other's vertices, then
    merges coincident vertices and edges.  Returns the refined graph together
    with refinement maps from each input.
    """
    ensure_valid(g1)
    ensure_valid(g2)
    ev1 = _vertex_on_edge_events(g1, g2)
    ev2 = _vertex_on_edge_events(g2, g1)
    cr1, cr2 = _crossing_events(g1, g2)
    f1, m1 = subdivide_many(g1, ev1 + cr1)
    f2, m2 = subdivide_many(g2, ev2 + cr2)
    _conformance_check(f1, f2)

    verts = [f1.vertices[i] for i in range(f1.n_vertices)]
    vmap2 = {}
    for vid in range(f2.n_vertices):
        p = f2.vertices[vid]
        match = None
        for cid, q in enumerate(verts):
            if np.linalg.norm(p - q) <= GEO_TOL:
                match = cid
                break
        if match is None:
            verts.append(p)
            match = len(verts) - 1
        vmap2[vid] = match

    edges: list[Edge] = list(f1.edges)
    chains2: dict[int, tuple[tuple[int, int], ...]] = {}
    for eid, e in enumerate(f2.edges):
        s, t = vmap2[e.start], vmap2[e.end]
        placed = None
        for cid, ce in enumerate(edges):
            sign = _polylines_match(ce.polyline, e.polyline)
            if sign == 1 and (ce.start, ce.end) == (s, t):
                placed = (cid, 1)
                break
            if sign == -1 and (ce.start, ce.end) == (t, s):
                placed = (cid, -1)
                break
        if placed is None:
            edges.append(Edge(s, t, e.polyline))
            placed = (len(edges) - 1, 1)
        chains2[eid] = (placed,)

    g3 = EmbeddedGraph(np.array(verts), edges)
    embed1 = RefinementMap(f1, g3, {e: ((e, 1),) for e in range(f1.n_edges)})
    embed2 = RefinementMap(f2, g3, chains2)
    return g3, compose_refinements(embed1, m1), compose_refinements(embed2, m2)
