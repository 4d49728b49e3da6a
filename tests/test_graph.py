import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinnet import graphs
from spinnet.graphs import (
    Edge,
    EmbeddedGraph,
    IllPosedIntersectionError,
    InvalidGraphError,
    NonConformingOverlapError,
    Surface,
    common_refinement,
    ensure_valid,
    half_edges_at,
    is_spurious,
    outgoing_tangent,
    punctures,
    subdivide,
    subdivide_many,
    tangent_orientation,
)

V = np.array


def square_patch(z=0.0, half=2.0):
    return Surface(
        V([0.0, 0.0, z]),
        V([0.0, 0.0, 1.0]),
        V([[-half, -half, z], [half, -half, z], [half, half, z], [-half, half, z]]),
    )


def line_graph():
    return EmbeddedGraph.build(V([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]]), [(0, 1)])


def test_build_and_incidence():
    g = EmbeddedGraph.build(
        V([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), [(0, 1), (0, 2), (1, 2)]
    )
    assert g.n_vertices == 3 and g.n_edges == 3
    assert half_edges_at(g, 0) == [(0, "start"), (1, "start")]
    assert half_edges_at(g, 2) == [(1, "end"), (2, "end")]
    ensure_valid(g)


def test_build_rejects_bad_specs():
    with pytest.raises(ValueError):
        EmbeddedGraph.build(V([[0.0, 0.0, 0.0]]), [(0, 1)])  # endpoint out of range
    with pytest.raises(ValueError):
        EmbeddedGraph.build(V([[0.0, 0.0]]), [])  # not 3d


def test_crossing_edges_flagged():
    g = EmbeddedGraph.build(
        V([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 1.0, 0.0]]),
        [(0, 1), (2, 3)],
    )
    with pytest.raises(InvalidGraphError):
        ensure_valid(g)  # interiors intersect away from any shared vertex


def test_validation_is_remembered_only_when_clean(monkeypatch):
    calls = []
    validate = graphs.validate

    def counted(graph):
        calls.append(graph)
        return validate(graph)

    monkeypatch.setattr(graphs, "validate", counted)
    g = line_graph()
    for _ in range(3):
        assert len(punctures(g, square_patch()).punctures) == 1
    assert len(calls) == 1

    crossing = EmbeddedGraph.build(
        V([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 1.0, 0.0]]),
        [(0, 1), (2, 3)],
    )
    for n in (2, 3, 4):
        with pytest.raises(InvalidGraphError):
            punctures(crossing, square_patch(z=0.5))
        assert len(calls) == n


def test_outgoing_tangents_unit():
    poly = V([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    g = EmbeddedGraph.build(V([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]]), [(0, 1, poly)])
    t0 = outgoing_tangent(g, 0, at_start=True)
    t1 = outgoing_tangent(g, 0, at_start=False)
    assert np.allclose(t0, [1.0, 0.0, 0.0])
    assert np.allclose(t1, [0.0, -1.0, 0.0])  # leaving the end vertex backwards


def test_tangent_orientation_sign():
    e1, e2, e3 = V([1.0, 0.0, 0.0]), V([0.0, 1.0, 0.0]), V([0.0, 0.0, 1.0])
    assert tangent_orientation(e1, e2, e3) == 1
    assert tangent_orientation(e2, e1, e3) == -1
    assert tangent_orientation(e1, e2, e1 + e2) == 0  # coplanar triple


def test_spurious_detection():
    straight = EmbeddedGraph.build(
        V([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]), [(0, 1), (1, 2)]
    )
    assert is_spurious(straight, 1)
    kinked = EmbeddedGraph.build(
        V([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]), [(0, 1), (1, 2)]
    )
    assert not is_spurious(kinked, 1)
    assert not is_spurious(straight, 0)  # univalent


# ---------------------------------------------------------------------------
# subdivision and refinement maps


def test_subdivide_midpoint():
    g = line_graph()
    fine, rmap = subdivide(g, 0, V([0.0, 0.0, 0.25]))
    assert fine.n_vertices == 3 and fine.n_edges == 2
    assert [(e.start, e.end) for e in fine.edges] == [(0, 2), (2, 1)]
    assert rmap.chains == {0: ((0, 1), (1, 1))}
    assert not rmap.is_identity()
    with pytest.raises(ValueError):
        subdivide(g, 0, V([5.0, 0.0, 0.0]))  # not on the edge
    with pytest.raises(ValueError):
        subdivide(g, 0, V([0.0, 0.0, -1.0]))  # endpoint, not interior


def test_subdivide_many_no_events_returns_same_graph():
    g = line_graph()
    fine, rmap = subdivide_many(g, [])
    assert fine is g
    assert rmap.is_identity()


def test_common_refinement_roundtrip():
    g = line_graph()
    fine, _ = subdivide(g, 0, V([0.0, 0.0, 0.0]))
    ref, m1, m2 = common_refinement(g, fine)
    assert m2.is_identity()
    assert m1.chains[0] == ((0, 1), (1, 1))
    assert ref.n_edges == 2


def test_common_refinement_of_staggered_lines():
    # overlap endpoints become vertices after mutual splitting, so two
    # staggered collinear segments merge into one three-edge line
    a = EmbeddedGraph.build(V([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]), [(0, 1)])
    b = EmbeddedGraph.build(V([[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]]), [(0, 1)])
    ref, m1, m2 = common_refinement(a, b)
    assert ref.n_edges == 3
    assert m1.chains[0] == ((0, 1), (1, 1))


def test_common_refinement_rejects_nonconforming():
    # same support, but the interior breakpoints of the chains disagree
    a = EmbeddedGraph.build(
        V([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
        [(0, 1, V([[0.0, 0.0, 0.0], [0.8, 0.0, 0.0], [2.0, 0.0, 0.0]]))],
    )
    b = EmbeddedGraph.build(
        V([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
        [(0, 1, V([[0.0, 0.0, 0.0], [1.2, 0.0, 0.0], [2.0, 0.0, 0.0]]))],
    )
    with pytest.raises(NonConformingOverlapError):
        common_refinement(a, b)


# ---------------------------------------------------------------------------
# punctures


def test_transverse_crossing():
    pr = punctures(line_graph(), square_patch())
    assert len(pr.punctures) == 1
    p = pr.punctures[0]
    assert p.vertex == 2
    assert np.allclose(p.point, [0.0, 0.0, 0.0])
    # bottom half-edge points toward the puncture from below, top leaves upward
    tags = sorted((h.edge, h.direction, h.kappa) for h in p.half_edges)
    assert tags == [(0, "toward", -1), (1, "away", 1)]
    assert pr.refinement.chains == {0: ((0, 1), (1, 1))}


def test_vertex_on_surface_no_resubdivision():
    g = EmbeddedGraph.build(
        V([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 1.0]]), [(0, 1), (1, 2)]
    )
    pr = punctures(g, square_patch())
    assert pr.refinement.is_identity()
    assert len(pr.punctures) == 1
    assert pr.punctures[0].vertex == 1
    kappas = {(h.edge, h.direction): h.kappa for h in pr.punctures[0].half_edges}
    assert kappas == {(0, "toward"): -1, (1, "away"): 1}


def test_tangent_half_edge_gets_kappa_zero():
    g = EmbeddedGraph.build(
        V([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), [(0, 1), (0, 2)]
    )
    pr = punctures(g, square_patch())
    at0 = {p.vertex: p for p in pr.punctures}[0]
    kappas = {(h.edge, h.direction): h.kappa for h in at0.half_edges}
    assert kappas[(0, "away")] == 0  # runs inside the plane
    assert kappas[(1, "away")] == 1


def test_no_intersection_is_empty():
    pr = punctures(line_graph(), square_patch(z=5.0))
    assert pr.punctures == ()
    assert pr.refinement.is_identity()


def test_boundary_touch_is_ill_posed():
    g = EmbeddedGraph.build(V([[2.0, 0.0, -1.0], [2.0, 0.0, 1.0]]), [(0, 1)])
    with pytest.raises(IllPosedIntersectionError):
        punctures(g, square_patch())


def test_edge_in_plane_crossing_boundary_is_ill_posed():
    g = EmbeddedGraph.build(V([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]]), [(0, 1)])
    with pytest.raises(IllPosedIntersectionError):
        punctures(g, square_patch())


def test_surface_validation():
    with pytest.raises(ValueError):
        Surface(V([0.0, 0.0, 0.0]), V([0.0, 0.0, 0.0]), np.eye(3))  # zero normal
    with pytest.raises(ValueError):
        Surface(
            V([0.0, 0.0, 0.0]),
            V([0.0, 0.0, 1.0]),
            V([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.5]]),  # off-plane corner
        )


def test_polyline_crossing_counts_each_pass():
    # a zig-zag polyline that pierces the plane three times on one edge
    poly = V(
        [
            [0.0, 0.0, -1.0],
            [0.2, 0.0, 1.0],
            [0.4, 0.0, -1.0],
            [0.6, 0.0, 1.0],
        ]
    )
    g = EmbeddedGraph.build(V([[0.0, 0.0, -1.0], [0.6, 0.0, 1.0]]), [(0, 1, poly)])
    pr = punctures(g, square_patch())
    assert len(pr.punctures) == 3
    assert pr.refinement.fine.n_edges == 4
    for p in pr.punctures:
        ks = sorted(h.kappa for h in p.half_edges)
        assert ks == [-1, 1]


# ---------------------------------------------------------------------------
# the punctures memo


STAR_DIRECTIONS = (
    (1.0, 0.3, 1.0),
    (-1.0, 0.5, 0.7),
    (0.5, -1.0, -1.0),
    (-0.4, -0.6, -1.0),
    (0.2, 1.0, -0.3),
    (-0.9, -0.2, 0.4),
)


@st.composite
def _star_and_patch(draw):
    """A 3-5-valent star at the origin and a square patch with a random tilt,
    offset and size."""
    dirs = draw(
        st.lists(st.sampled_from(STAR_DIRECTIONS), unique=True, min_size=3, max_size=5)
    )
    lengths = draw(st.lists(st.floats(0.5, 2.0), min_size=len(dirs), max_size=len(dirs)))
    verts = [[0.0, 0.0, 0.0]] + [list(length * np.array(d)) for d, length in zip(dirs, lengths)]
    graph = EmbeddedGraph.build(V(verts), [(0, k) for k in range(1, len(verts))])
    tilt, turn = draw(st.floats(0.0, 1.2)), draw(st.floats(0.0, 2 * np.pi))
    normal = V([np.sin(tilt) * np.cos(turn), np.sin(tilt) * np.sin(turn), np.cos(tilt)])
    u = np.cross(normal, [0.0, 1.0, 0.0] if abs(normal[1]) < 0.9 else [1.0, 0.0, 0.0])
    u /= np.linalg.norm(u)
    w = np.cross(normal, u)
    base = draw(st.floats(-0.6, 0.6)) * normal + draw(st.floats(-0.3, 0.3)) * u
    half = draw(st.floats(0.5, 2.5))
    corners = [base + a * half * u + b * half * w for a, b in [(-1, -1), (1, -1), (1, 1), (-1, 1)]]
    return graph, Surface(base, normal, np.vstack(corners))


def _copy_graph(g):
    edges = [Edge(e.start, e.end, e.polyline.copy()) for e in g.edges]
    return EmbeddedGraph(g.vertices.copy(), edges)


def _same_result(a, b):
    assert a.graph.vertices.tobytes() == b.graph.vertices.tobytes()
    assert [(e.start, e.end) for e in a.graph.edges] == [(e.start, e.end) for e in b.graph.edges]
    assert [e.polyline.tobytes() for e in a.graph.edges] == [
        e.polyline.tobytes() for e in b.graph.edges
    ]
    assert a.refinement.chains == b.refinement.chains
    assert len(a.punctures) == len(b.punctures)
    for p, q in zip(a.punctures, b.punctures):
        assert p.vertex == q.vertex
        assert p.point.tobytes() == q.point.tobytes()
        assert p.half_edges == q.half_edges


@settings(max_examples=60, deadline=None)
@given(_star_and_patch())
def test_punctures_memo_matches_a_fresh_computation(case):
    g, surface = case
    try:
        fresh = punctures(_copy_graph(g), surface)
    except IllPosedIntersectionError:
        for _ in range(2):
            with pytest.raises(IllPosedIntersectionError):
                punctures(g, surface)
        return
    first = punctures(g, surface)
    assert punctures(g, surface) is first
    _same_result(first, fresh)


def test_punctures_repeated_call_returns_the_same_object():
    g, s = line_graph(), square_patch()
    pr = punctures(g, s)
    assert punctures(g, s) is pr
    assert punctures(g, square_patch()) is not pr  # surfaces compare by identity


def test_punctures_failure_is_raised_on_every_call():
    g = EmbeddedGraph.build(V([[2.0, 0.0, -1.0], [2.0, 0.0, 1.0]]), [(0, 1)])
    s = square_patch()
    for _ in range(3):
        with pytest.raises(IllPosedIntersectionError):
            punctures(g, s)
    assert s not in g._punctures


def test_punctures_memo_entry_goes_with_its_surface():
    g, s = line_graph(), square_patch()
    punctures(g, s)
    assert len(g._punctures) == 1
    gone = weakref.ref(s)
    del s
    gc.collect()
    assert gone() is None
    assert len(g._punctures) == 0


def test_shared_puncture_results_are_read_only():
    pr = punctures(line_graph(), square_patch())
    with pytest.raises(TypeError):
        pr.refinement.chains[0] = ((0, 1),)
    assert not pr.punctures[0].point.flags.writeable
