import numpy as np
import pytest

from spinnet import graphs
from spinnet.graphs import (
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
