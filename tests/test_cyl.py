"""Cylindrical functions: evaluation, Haar inner products, promotion under
refinement, holonomies of connections, and spin-network bases."""

import contextlib
import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinnet.graphs import (
    EmbeddedGraph,
    RefinementMap,
    common_refinement,
    half_edges_at,
    identity_refinement,
    is_spurious,
    subdivide,
    subdivide_many,
)
from spinnet.su2 import (
    TAU,
    GroupElement,
    HalfInt,
    LieVector,
    haar_sample,
    magnetic_range,
    multiply,
    wigner,
)
from spinnet.cyl import (
    Connection,
    CylFun,
    GaugeTransformation,
    evaluate,
    gauge_transform_holonomy,
    gram,
    holonomy,
    inner_product,
    mc_inner_product,
    monomial,
    promote,
    spin_network_basis,
    states_for_spins,
    transform_at_vertices,
    wilson_loop,
)
from spinnet import cyl
from spinnet.cyl import TRIVIAL, _holonomy_steps

V = np.array
RNG = np.random.default_rng(11)
HALF = Fraction(1, 2)


def line_graph():
    return EmbeddedGraph.build(V([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]]), [(0, 1)])


def theta_graph():
    return EmbeddedGraph.build(
        V([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        [
            (0, 1),
            (0, 1, V([[0.0, 0.0, 0.0], [0.5, 0.7, 0.0], [1.0, 0.0, 0.0]])),
            (0, 1, V([[0.0, 0.0, 0.0], [0.5, 0.0, 0.7], [1.0, 0.0, 0.0]])),
        ],
    )


def kink_graph():
    return EmbeddedGraph.build(
        V([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 1.0]]), [(0, 1), (1, 2)]
    )


def star4_graph():
    return EmbeddedGraph.build(
        V(
            [
                [0.0, 0.0, 0.0],
                [1.0, 1.0, 1.0],
                [-1.0, 1.0, 1.0],
                [1.0, 1.0, -1.0],
                [-1.0, -1.0, -1.0],
            ]
        ),
        [(0, 1), (0, 2), (0, 3), (0, 4)],
    )


# ---------------------------------------------------------------------------
# evaluation


def test_monomial_evaluates_to_normalized_wigner_entry():
    g = line_graph()
    u = haar_sample(RNG)
    for j, m, n in [(HALF, HALF, -HALF), (1, 0, 1), (Fraction(3, 2), HALF, -HALF)]:
        f = monomial(g, [(j, m, n)])
        D = wigner(j, u).entries
        tj = HalfInt.of(j).twice
        r = (tj - HalfInt.of(m).twice) // 2
        c = (tj - HalfInt.of(n).twice) // 2
        expect = math.sqrt(tj + 1) * D[r, c]
        assert abs(evaluate(f, [u]) - expect) < 1e-13


def test_monomial_rejects_bad_labels():
    g = line_graph()
    with pytest.raises(ValueError):
        monomial(g, [(HALF, 1, HALF)])  # m not in the magnetic range parity
    with pytest.raises(ValueError):
        monomial(g, [(1, 2, 0)])  # |m| > j
    with pytest.raises(ValueError):
        CylFun(g, {((1, 1, 1), (1, 1, 1)): 1.0})  # label count != edge count


@pytest.mark.parametrize("bad", [(1, 1.9, -1), (3.5, 1, 1)])
def test_cylfun_rejects_non_integral_label_entries(bad):
    # int() used to truncate these to (1, 1, -1) and (3, 1, 1); the second
    # call hits the per-label memo, which must not remember a failure
    for _ in range(2):
        with pytest.raises(ValueError, match="integral"):
            CylFun(line_graph(), {(bad,): 1.0})


def test_cylfun_accepts_integral_floats_and_numpy_ints():
    for lab in [(1.0, 1.0, -1.0), (np.int64(1), np.int32(1), -1), (1, 1, -1)]:
        fun = CylFun(line_graph(), {(lab,): 2.0})
        assert fun.coefficients == {((1, 1, -1),): 2.0 + 0j}
        assert all(type(x) is int for x in next(iter(fun.coefficients))[0])


def test_evaluate_multi_edge_product():
    g = theta_graph()
    us = [haar_sample(RNG) for _ in range(3)]
    f = monomial(g, [(HALF, HALF, HALF), (0, 0, 0), (1, -1, 0)])
    expect = math.sqrt(2) * wigner(HALF, us[0]).entries[0, 0]
    expect *= math.sqrt(3) * wigner(1, us[2]).entries[2, 1]
    assert abs(evaluate(f, us) - expect) < 1e-13


def test_cylfun_arithmetic():
    g = line_graph()
    a = monomial(g, [(HALF, HALF, HALF)])
    b = monomial(g, [(HALF, -HALF, HALF)])
    s = 2.0 * a + (1j) * b - a
    u = haar_sample(RNG)
    assert abs(evaluate(s, [u]) - (evaluate(a, [u]) + 1j * evaluate(b, [u]))) < 1e-13
    assert s.n_terms == 2
    assert (a - a).prune().n_terms == 0


# ---------------------------------------------------------------------------
# inner products


def test_small_peter_weyl_gram_is_exact_identity():
    # every monomial pair with j <= 1 on one edge: 1 + 4 + 9 = 14 functions
    g = line_graph()
    funs = []
    for tj in range(0, 3):
        for tm in range(-tj, tj + 1, 2):
            for tn in range(-tj, tj + 1, 2):
                funs.append(CylFun(g, {((tj, tm, tn),): 1.0}))
    gm = gram(funs)
    assert np.array_equal(gm, np.eye(14))  # exact, not just close


def test_gram_sparse_matches_dense():
    g = theta_graph()
    basis = spin_network_basis(g, 1)
    funs = [b.fun for b in basis]
    dense = gram(funs)
    sparse = gram(funs, sparse=True)
    assert np.max(np.abs(sparse.toarray() - dense)) == 0.0


def test_inner_product_is_antilinear_in_first_slot():
    g = line_graph()
    a = monomial(g, [(HALF, HALF, HALF)])
    b = monomial(g, [(HALF, HALF, -HALF)])
    f = 2j * a + b
    h = a - 1j * b
    assert abs(inner_product(f, h) - (np.conj(2j) * 1.0 + np.conj(1.0) * (-1j))) < 1e-15


def test_mc_inner_product_statistics():
    g = theta_graph()
    state = states_for_spins(g, [HALF, HALF, 1])[0]
    est, err = mc_inner_product(state.fun, state.fun, 20000, seed=5)
    assert abs(est - 1.0) < 4 * err
    other = monomial(g, [(HALF, HALF, HALF), (HALF, HALF, HALF), (1, 1, 1)])
    est2, err2 = mc_inner_product(state.fun, other, 20000, seed=6)
    assert abs(est2) < 4 * max(err2, 1e-3)


@pytest.mark.parametrize("samples", [0, -3])
def test_mc_inner_product_refuses_fewer_than_one_sample(samples):
    # refused before any Haar draw, with no average over zero samples
    g = theta_graph()
    f = states_for_spins(g, [HALF, HALF, 1])[0].fun
    with mock.patch.object(cyl, "haar_quaternions", side_effect=AssertionError("drew")):
        with pytest.raises(ValueError, match="samples"):
            mc_inner_product(f, f, samples)


@pytest.mark.parametrize("samples", [2.5, 10.0, "10", None, True, False, np.bool_(True)], ids=repr)
def test_mc_inner_product_refuses_a_sample_count_that_is_not_an_integer(samples):
    g = theta_graph()
    f = states_for_spins(g, [HALF, HALF, 1])[0].fun
    with mock.patch.object(cyl, "haar_quaternions", side_effect=AssertionError("drew")):
        with pytest.raises(ValueError, match="samples must be an integer"):
            mc_inner_product(f, f, samples)


@pytest.mark.parametrize("samples", [np.int64(10), np.uint8(10)], ids=repr)
def test_mc_inner_product_takes_a_numpy_integer_count(samples):
    g = theta_graph()
    f = states_for_spins(g, [HALF, HALF, 1])[0].fun
    est, err = mc_inner_product(f, f, samples, seed=3)
    assert type(est) is complex and type(err) is float
    assert (est, err) == mc_inner_product(f, f, 10, seed=3)


# ---------------------------------------------------------------------------
# promotion


def test_promotion_is_isometric():
    g = line_graph()
    fine, rmap = subdivide(g, 0, V([0.0, 0.0, 0.3]))
    rng = np.random.default_rng(3)
    for _ in range(5):
        labels = []
        for _ in range(2):
            tj = rng.integers(0, 4)
            tm = rng.integers(0, tj + 1) * 2 - tj
            tn = rng.integers(0, tj + 1) * 2 - tj
            labels.append((tj, tm, tn))
        f = CylFun(g, {(labels[0],): 0.8}) + CylFun(g, {(labels[1],): 0.6j})
        h = CylFun(g, {(labels[1],): 1.0})
        before = inner_product(f, h)
        after = inner_product(promote(f, rmap), promote(h, rmap))
        assert abs(before - after) < 1e-13


def test_promotion_preserves_values():
    g = line_graph()
    fine, rmap = subdivide(g, 0, V([0.0, 0.0, -0.4]))
    f = monomial(g, [(1, 0, -1)]) + 0.3 * monomial(g, [(HALF, HALF, HALF)])
    pf = promote(f, rmap)
    u1, u2 = haar_sample(RNG), haar_sample(RNG)
    # the coarse holonomy is the later-left product of its pieces
    assert abs(evaluate(f, [multiply(u2, u1)]) - evaluate(pf, [u1, u2])) < 1e-12


@st.composite
def _split_graphs(draw):
    """A star or a path of 2-4 straight edges, each pointing either way,
    with 1-2 interior split points per edge, at least 0.02 of its length
    from each other and from its ends."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_edges = draw(st.integers(2, 4))
    if draw(st.booleans()):  # star: edge k joins the centre and tip k + 1
        verts = np.vstack([np.zeros(3), rng.normal(size=(n_edges, 3))])
        ends = [(0, k + 1) for k in range(n_edges)]
    else:  # path: edge k joins vertices k and k + 1
        verts = np.cumsum(rng.normal(size=(n_edges + 1, 3)), axis=0)
        ends = [(k, k + 1) for k in range(n_edges)]
    g = EmbeddedGraph.build(verts, [(b, a) if draw(st.booleans()) else (a, b) for a, b in ends])
    events = []
    for eid, edge in enumerate(g.edges):
        for k in draw(st.lists(st.integers(1, 9), min_size=1, max_size=2, unique=True)):
            t = k / 10 + draw(st.floats(-0.04, 0.04))
            events.append((eid, edge.polyline[0] + t * (edge.polyline[-1] - edge.polyline[0])))
    return g, events, rng


def _random_cylfun(rng, g, terms):
    coeffs = {}
    for _ in range(terms):
        labels = []
        for _ in range(g.n_edges):
            tj = int(rng.integers(0, 4))
            tm, tn = rng.integers(0, tj + 1, size=2) * 2 - tj
            labels.append((tj, int(tm), int(tn)))
        coeffs[tuple(labels)] = complex(rng.normal(), rng.normal())
    return CylFun(g, coeffs)


@settings(max_examples=40, deadline=None)
@given(_split_graphs())
def test_inner_product_is_refinement_invariant_on_random_graphs(case):
    g, events, rng = case
    f1 = _random_cylfun(rng, g, 3)
    # one shared term, so that the inner product is usually nonzero
    f2 = _random_cylfun(rng, g, 2) + CylFun(g, {next(iter(f1.coefficients)): 0.7 - 0.2j})
    # unit norms: the rounding of the up to 16^4 promoted terms scales with |f1| |f2|
    f1, f2 = (1.0 / f1.norm()) * f1, (1.0 / f2.norm()) * f2
    fine, rmap = subdivide_many(g, events)
    assert fine.n_edges == g.n_edges + len(events)
    for a, b in ((f1, f2), (f2, f1), (f1, f1)):
        before = inner_product(a, b)
        after = inner_product(promote(a, rmap), promote(b, rmap))
        assert abs(before - after) < 1e-12


def test_cross_graph_inner_product_auto_refines():
    g = line_graph()
    fine, rmap = subdivide(g, 0, V([0.0, 0.0, 0.0]))
    f = monomial(g, [(1, 1, 0)])
    assert abs(inner_product(f, promote(f, rmap)) - 1.0) < 1e-13


def test_reversed_edge_identification():
    # the same segment traversed backwards carries h^{-1}; the monomial with
    # both magnetic labels flipped and swapped is the same function
    a = EmbeddedGraph.build(V([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), [(0, 1)])
    b = EmbeddedGraph.build(V([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), [(1, 0)])
    f = monomial(a, [(HALF, HALF, HALF)])
    gfun = monomial(b, [(HALF, -HALF, -HALF)])
    assert abs(inner_product(f, gfun) - 1.0) < 1e-13


def _promote_reference(fun, refinement):
    """Term-by-term chain expansion with pairwise dict merges: the reference
    that ``promote`` must reproduce bit for bit, insertion order included."""
    n_fine = refinement.fine.n_edges
    out = {}
    for labels, coeff in fun.coefficients.items():
        partial = [(complex(coeff), {})]
        for ce, (tj, tm, tn) in enumerate(labels):
            if tj == 0:
                continue
            chain = refinement.chains[ce]
            L = len(chain)
            scale = (tj + 1) ** (0.5 * (1 - L))
            expanded = []
            for mid in itertools.product(range(-tj, tj + 1, 2), repeat=L - 1):
                seq = (tn,) + tuple(mid) + (tm,)
                sign = 1.0
                assign = {}
                for k, (fid, s) in enumerate(chain):
                    lo, hi = seq[k], seq[k + 1]
                    if s == 1:
                        assign[fid] = (tj, hi, lo)
                    else:
                        sign *= (-1.0) ** ((lo - hi) // 2)
                        assign[fid] = (tj, -lo, -hi)
                expanded.append((scale * sign, assign))
            partial = [(c0 * c1, {**d0, **d1}) for c0, d0 in partial for c1, d1 in expanded]
        for c, d in partial:
            key = tuple(d.get(f, TRIVIAL) for f in range(n_fine))
            out[key] = out.get(key, 0j) + c
    return {l: c for l, c in out.items() if abs(c) > 1e-15}


def _reversed_edges(graph, flips):
    return EmbeddedGraph.build(
        graph.vertices,
        [
            (e.end, e.start, e.polyline[::-1]) if k in flips else (e.start, e.end, e.polyline)
            for k, e in enumerate(graph.edges)
        ],
    )


def _split_events(graph, fractions):
    """One split point per (edge, fraction of the straight edge)."""
    out = []
    for e, ts in enumerate(fractions):
        a, b = graph.vertices[graph.edges[e].start], graph.vertices[graph.edges[e].end]
        out.extend((e, a + t * (b - a)) for t in ts)
    return out


@st.composite
def _edge_labels(draw, n_edges):
    labels = []
    for _ in range(n_edges):
        tj = draw(st.integers(0, 2))
        tm = 2 * draw(st.integers(0, tj)) - tj
        tn = 2 * draw(st.integers(0, tj)) - tj
        labels.append((tj, tm, tn))
    return tuple(labels)


@st.composite
def _promotion_cases(draw):
    """A random function on a kink or star graph, and a refinement map of it:
    either a subdivision, or the map into the common refinement with a
    subdivided copy whose reversed edges give chains of sign -1."""
    graph = draw(st.sampled_from([kink_graph(), star4_graph()]))
    n = graph.n_edges
    fractions = [
        draw(st.lists(st.sampled_from([0.3, 0.6]), unique=True, max_size=2)) for _ in range(n)
    ]
    events = _split_events(graph, fractions)
    if draw(st.booleans()):
        flips = draw(st.sets(st.integers(0, n - 1)))
        other, _ = subdivide_many(_reversed_edges(graph, flips), events)
        _, _, rmap = common_refinement(other, graph)
    else:
        _, rmap = subdivide_many(graph, events)
    coeffs = draw(
        st.dictionaries(
            _edge_labels(n),
            st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0),
            min_size=1,
            max_size=3,
        )
    )
    return CylFun(graph, coeffs), rmap


@settings(max_examples=60, deadline=None)
@given(_promotion_cases())
def test_promote_matches_term_by_term_expansion(case):
    fun, rmap = case
    got = list(promote(fun, rmap).coefficients.items())
    assert got == list(_promote_reference(fun, rmap).items())


def test_promote_reversed_chain_matches_term_by_term_expansion():
    g = kink_graph()
    other, _ = subdivide_many(_reversed_edges(g, {0}), _split_events(g, [[0.3, 0.6], [0.6]]))
    _, _, rmap = common_refinement(other, g)
    assert len(rmap.chains[0]) == 3 and {s for _, s in rmap.chains[0]} == {-1}
    fun = CylFun(g, {((2, 0, 2), (1, -1, 1)): 0.8 - 0.1j, ((1, 1, -1), (2, -2, 0)): 0.6j})
    got = list(promote(fun, rmap).coefficients.items())
    assert got == list(_promote_reference(fun, rmap).items())


def test_promote_rejects_overlapping_chains():
    g = kink_graph()
    rmap = RefinementMap(g, g, {0: ((0, 1),), 1: ((0, 1),)})
    with pytest.raises(ValueError, match="refinement chains overlap on a fine edge"):
        promote(monomial(g, [(HALF, HALF, HALF), (HALF, HALF, -HALF)]), rmap)


def _assert_same_bits(got: dict, want: dict):
    assert list(got) == list(want)
    for g, w in zip(got.values(), want.values()):
        assert type(g) is type(w)
        assert (g.real.hex(), g.imag.hex()) == (w.real.hex(), w.imag.hex())


def test_promote_identity_refinement_matches_term_by_term_expansion():
    # no chain is expanded along an identity refinement, yet -0.0 parts must
    # still come out as +0.0 and |c| <= 1e-15 must still be pruned
    graph = kink_graph()
    coeffs = {
        ((1, 1, 1), (1, 1, 1)): complex(-0.0, 1.0),
        ((1, 1, -1), (1, 1, 1)): complex(1.0, -0.0),
        ((1, -1, 1), (1, 1, 1)): complex(-0.0, -0.0),
        ((1, -1, -1), (1, 1, 1)): complex(1e-16, 0.0),
        ((1, 1, 1), (1, 1, -1)): complex(-0.0, -5e-16),
        ((1, 1, 1), (1, -1, 1)): complex(1e-15, 0.0),
        ((1, 1, 1), (1, -1, -1)): complex(2e-15, -0.0),
        ((0, 0, 0), (1, -1, -1)): complex(-3.0, -0.0),
        ((2, 0, -2), (0, 0, 0)): complex(-0.0, 0.5),
    }
    fun = CylFun._trusted(graph, coeffs)  # the public constructor would clear the -0.0 parts
    rmap = identity_refinement(graph)
    got = promote(fun, rmap)
    want = _promote_reference(fun, rmap)
    assert got.graph is graph
    assert len(want) == 5
    _assert_same_bits(got.coefficients, want)


def test_promote_identity_refinement_expands_no_chain(monkeypatch):
    graph = kink_graph()
    fun = CylFun(graph, {((1, 1, 1), (1, 1, 1)): 1.0})

    def refuse(*args):
        raise AssertionError("chain expanded along an identity refinement")

    monkeypatch.setattr(cyl, "_chain_expansion", refuse)
    assert promote(fun, identity_refinement(graph)).n_terms == 1


# ---------------------------------------------------------------------------
# holonomy


def test_constant_holonomy_closed_form():
    kappa = 0.7
    C = np.zeros((3, 3))
    C[2, 0] = kappa  # tau_3 component picked up along x
    conn = Connection(C)
    L = 2.0
    h = holonomy(conn, V([[0.0, 0.0, 0.0], [L, 0.0, 0.0]]))
    expect = GroupElement.exp([0.0, 0.0, -kappa * L])
    assert np.max(np.abs(h.matrix - expect.matrix)) < 1e-10


def test_holonomy_composition_and_inverse():
    conn = Connection(lambda x: np.array([[0.3 * x[1], 0.1, 0.0], [0.2, -0.1, 0.4 * x[0]], [0.0, 0.5, 0.2 * x[2]]]))
    p = V([[0.0, 0.0, 0.0], [0.5, 0.2, 0.1], [1.0, 0.7, 0.4]])
    h_full = holonomy(conn, p)
    h_a = holonomy(conn, p[:2])
    h_b = holonomy(conn, p[1:])
    assert np.max(np.abs((h_b @ h_a).matrix - h_full.matrix)) < 1e-9
    h_rev = holonomy(conn, p[::-1])
    assert np.max(np.abs((h_rev @ h_full).matrix - np.eye(2))) < 1e-9


def test_holonomy_gauge_covariance():
    conn = Connection(lambda x: np.array([[0.2, 0.1 * x[2], 0.0], [0.0, -0.3, 0.4], [0.1 * x[0], 0.0, 0.1]]))
    gauge = GaugeTransformation(lambda x: GroupElement.exp([0.3 * x[0], -0.2 * x[1], 0.5 + 0.1 * x[2]]))
    p = V([[0.0, 0.0, 0.0], [0.4, 0.3, 0.2], [0.9, 0.1, 0.6]])
    h = holonomy(conn, p)
    h_t = holonomy(gauge.transform_connection(conn), p)
    expect = gauge_transform_holonomy(h, gauge(p[0]), gauge(p[-1]))
    assert np.max(np.abs(h_t.matrix - expect.matrix)) < 1e-6


def _transform_reference(gauge, connection, eps):
    """Gauge transform of ``connection`` as an (x, u) form evaluated one node
    at a time: the reference for the stacked evaluation."""

    def form(x, u):
        g = gauge(x).matrix
        ginv = np.conjugate(g.T)
        amat = LieVector(connection.apply(x, u)).matrix()
        norm_u = np.linalg.norm(u)
        if norm_u == 0.0:
            return np.zeros(3)
        uhat = u / norm_u
        dg = (gauge(x + eps * uhat).matrix - gauge(x - eps * uhat).matrix) / (2 * eps)
        m = g @ amat @ ginv - (dg * norm_u) @ ginv
        m = 0.5 * (m - np.conjugate(m.T))
        m -= 0.5 * np.trace(m) * np.eye(2)
        return np.array([-2.0 * np.trace(m @ t).real for t in TAU])

    return Connection(form)


_C_REF = V([[0.2, 0.1, 0.0], [0.0, -0.3, 0.4], [0.1, 0.0, 0.1]])


def _gauge_field_a(x):
    return GroupElement.exp([0.3 * x[0], -0.2 * x[1], 0.5 + 0.1 * math.sin(x[2])])


def _gauge_field_b(x):
    return GroupElement.exp([0.1, 0.4 * x[2], -0.3 * x[0] * x[1]])


_GAUGE_A = GaugeTransformation(_gauge_field_a, fd_step=1e-4)
_GAUGE_B = GaugeTransformation(_gauge_field_b, fd_step=-1e-5)


def _inner_connections():
    field = Connection(lambda x: _C_REF + math.sin(x[0] - 2.0 * x[1]) * _C_REF.T)
    return {
        "field": (field, field),
        "constant": (Connection(_C_REF), Connection(_C_REF)),
        "form": (Connection(lambda x, u: (1.0 + x[2]) * (_C_REF @ u)),) * 2,
        "nested": (
            _GAUGE_B.transform_connection(field),
            _transform_reference(_GAUGE_B, field, _GAUGE_B.fd_step),
        ),
    }


@pytest.mark.parametrize("kind", ["field", "constant", "form", "nested"])
def test_transformed_connection_matches_per_node_reference(kind):
    inner, inner_ref = _inner_connections()[kind]
    conn = _GAUGE_A.transform_connection(inner)
    ref = _transform_reference(_GAUGE_A, inner_ref, _GAUGE_A.fd_step)
    rng = np.random.default_rng(17)
    for _ in range(4):
        points, u = rng.uniform(-1.0, 1.0, size=(5, 3)), rng.normal(size=3)
        want = np.array([ref.apply(x, u) for x in points])
        assert np.max(np.abs(conn._apply_at(points, u) - want)) <= 1e-15
        assert np.max(np.abs(conn.apply(points[0], u) - want[0])) <= 1e-15
    assert not conn._apply_at(points, np.zeros(3)).any()
    assert not conn.apply(points[0], np.zeros(3)).any()


def test_transformed_connection_keeps_its_fd_step():
    gauge = GaugeTransformation(_gauge_field_a, fd_step=1e-4)
    conn = gauge.transform_connection(Connection(_C_REF))
    x, u = V([0.3, -0.2, 0.5]), V([0.4, 0.1, -0.7])
    before = conn.apply(x, u)
    gauge.fd_step = 0.5
    assert conn.apply(x, u).tobytes() == before.tobytes()
    # the central difference is symmetric, so the sign of the step does not matter
    flipped = GaugeTransformation(_gauge_field_a, fd_step=-1e-4)
    assert flipped.transform_connection(Connection(_C_REF)).apply(x, u).tobytes() == before.tobytes()


@pytest.mark.parametrize("step", [0.0, -0.0, math.nan, math.inf, -math.inf])
def test_gauge_transformation_rejects_bad_fd_step(step):
    with pytest.raises(ValueError, match="fd_step"):
        GaugeTransformation(_gauge_field_a, fd_step=step)
    gauge = GaugeTransformation(_gauge_field_a)
    with pytest.raises(ValueError, match="fd_step"):
        gauge.fd_step = step
    assert gauge.fd_step == 1e-6


def _bad_at_one_node(x):
    return np.zeros((2, 2)) if x[0] > 0.5 else _C_REF


_SHAPE_MESSAGE = r"connection component field must return a \(3, 3\) array"


@pytest.mark.parametrize("field", [_bad_at_one_node, lambda x: np.zeros((2, 2)), lambda x: np.zeros(3)])
def test_component_field_shape_is_checked_per_pass(field):
    conn = Connection(field)
    with pytest.raises(ValueError, match=_SHAPE_MESSAGE):
        conn.apply(V([0.9, 0.0, 0.0]), V([1.0, 0.0, 0.0]))
    # the first pass has one node on each side of x0 = 0.5
    with pytest.raises(ValueError, match=_SHAPE_MESSAGE):
        holonomy(conn, V([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))


def test_connection_constructor_forms_agree():
    C = np.array([[0.2, 0.0, 0.1], [0.0, 0.3, 0.0], [0.4, 0.0, -0.2]])
    p = V([[0.0, 0.0, 0.0], [0.8, 0.5, 0.3]])
    hs = [
        holonomy(Connection(C), p),
        holonomy(Connection(lambda x: C), p),
        holonomy(Connection(lambda x, u: C @ u), p),
        # parameters with defaults do not make a component field an (x, u) form
        holonomy(Connection(lambda x, k=1.0: k * C), p),
        holonomy(Connection(lambda x, u, k=1.0: k * (C @ u)), p),
    ]
    for h in hs[1:]:
        assert np.max(np.abs(h.matrix - hs[0].matrix)) < 1e-12


def _wave_connection(C0, C1, w):
    return Connection(lambda x: C0 + math.sin(float(w @ x)) * C1)


def test_holonomy_magnus_is_fourth_order():
    # a non-commuting field: halving the step cuts the error about 16-fold,
    # where a second-order rule such as midpoint would cut it 4-fold
    conn = _wave_connection(
        V([[0.5, -0.3, 0.2], [0.1, 0.4, -0.6], [-0.2, 0.3, 0.5]]),
        V([[0.0, 0.6, -0.1], [-0.4, 0.0, 0.3], [0.2, -0.5, 0.0]]),
        V([1.3, -0.7, 0.9]),
    )
    p = V([[0.0, 0.0, 0.0], [1.0, 0.6, -0.4]])
    exact = _holonomy_steps(conn, p, 1024)
    err = {n: np.max(np.abs(_holonomy_steps(conn, p, n) - exact)) for n in (4, 8)}
    assert err[4] / err[8] >= 10.0


def test_holonomy_step_budget():
    # the acceptance battery's fields converge at tol 1e-9 within 64 steps per
    # segment, far below what a lower-order rule would need
    rng = np.random.default_rng(7)
    for _ in range(100):
        C0 = rng.normal(scale=0.25, size=(3, 3))
        C1 = rng.normal(scale=0.15, size=(3, 3))
        conn = _wave_connection(C0, C1, rng.normal(size=3))
        a = rng.uniform(-0.6, 0.6, size=3)
        b = a + rng.uniform(-0.8, 0.8, size=3)
        mid = 0.5 * (a + b) + rng.uniform(-0.2, 0.2, size=3)
        pts = np.vstack([a, mid, b])
        for path in (pts, pts[:2], pts[1:], pts[::-1]):
            holonomy(conn, path, tol=1e-9, max_steps=64)
    with pytest.raises(RuntimeError, match=r"residual .* at 4 steps"):
        holonomy(conn, pts, tol=1e-15, max_steps=4)


def test_holonomy_rejects_non_finite_connection():
    p = V([[0.0, 0.0, 0.0], [0.5, 0.2, 0.1], [1.0, 0.7, 0.4]])
    bad = np.zeros((3, 3))
    bad[2, 0] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        holonomy(Connection(bad), p)
    with pytest.raises(ValueError, match="not finite"):
        holonomy(Connection(lambda x: bad if x[0] > 0.7 else np.eye(3)), p)


_small = st.floats(-0.5, 0.5, allow_nan=False)
_small_matrix = st.lists(_small, min_size=9, max_size=9).map(lambda xs: np.reshape(xs, (3, 3)))
_point = st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=3, max_size=3).map(np.array)


@settings(max_examples=40, deadline=None)
@given(_small_matrix, _small_matrix, _point, _point, _point)
def test_holonomy_composition_and_inverse_properties(C0, C1, a, mid, b):
    conn = Connection(lambda x: C0 + x[0] * C1 + math.sin(x[1]) * C1.T)
    p = np.vstack([a, mid, b])
    h_full = holonomy(conn, p, tol=1e-10)
    h_a = holonomy(conn, p[:2], tol=1e-10)
    h_b = holonomy(conn, p[1:], tol=1e-10)
    assert np.max(np.abs((h_b @ h_a).matrix - h_full.matrix)) < 1e-8
    h_rev = holonomy(conn, p[::-1], tol=1e-10)
    assert np.max(np.abs((h_rev @ h_full).matrix - np.eye(2))) < 1e-8


def test_wilson_loop_character_identity():
    conn = Connection(np.array([[0.0, 0.4, 0.0], [0.0, 0.0, 0.3], [0.6, 0.0, 0.0]]))
    loop = V(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [1.0, 1.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0],
        ]
    )
    w_half = wilson_loop(HALF, loop, conn)
    w_one = wilson_loop(1, loop, conn)
    # chi_1 = chi_{1/2}^2 - 1 on SU(2)
    assert abs(w_one - (w_half**2 - 1.0)) < 1e-9
    with pytest.raises(ValueError):
        wilson_loop(HALF, loop[:-1], conn)  # open polyline


# ---------------------------------------------------------------------------
# spin-network states


def test_theta_state_is_unit_and_gauge_invariant():
    g = theta_graph()
    states = states_for_spins(g, [HALF, HALF, 1])
    assert len(states) == 1
    psi = states[0]
    assert abs(inner_product(psi.fun, psi.fun) - 1.0) < 1e-12
    us = [haar_sample(RNG) for _ in range(3)]
    gauge = [haar_sample(RNG) for _ in range(2)]
    transformed = transform_at_vertices(g, us, gauge)
    assert abs(evaluate(psi.fun, us) - evaluate(psi.fun, list(transformed))) < 1e-12


def test_monomial_is_not_gauge_invariant():
    g = theta_graph()
    f = monomial(g, [(HALF, HALF, HALF), (0, 0, 0), (0, 0, 0)])
    us = [haar_sample(RNG) for _ in range(3)]
    gauge = [haar_sample(RNG) for _ in range(2)]
    transformed = transform_at_vertices(g, us, gauge)
    assert abs(evaluate(f, us) - evaluate(f, list(transformed))) > 1e-3


def test_open_star_has_no_invariant_states():
    # a lone spin-1/2 at a univalent vertex cannot couple to a singlet
    assert states_for_spins(star4_graph(), [HALF] * 4) == []


def test_melon_intertwiner_states():
    # two vertices joined by four arcs: a 2d recoupling space at each end
    g = EmbeddedGraph.build(
        V([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        [
            (0, 1, V([[0.0, 0.0, 0.0], [0.5, 0.7, 0.0], [1.0, 0.0, 0.0]])),
            (0, 1, V([[0.0, 0.0, 0.0], [0.5, -0.7, 0.0], [1.0, 0.0, 0.0]])),
            (0, 1, V([[0.0, 0.0, 0.0], [0.5, 0.0, 0.7], [1.0, 0.0, 0.0]])),
            (0, 1, V([[0.0, 0.0, 0.0], [0.5, 0.0, -0.7], [1.0, 0.0, 0.0]])),
        ],
    )
    states = states_for_spins(g, [HALF] * 4)
    assert len(states) == 4  # 2 x 2 tree choices
    funs = [s.fun for s in states]
    assert np.max(np.abs(gram(funs) - np.eye(4))) < 1e-12
    assert len({s.vertex_labels for s in states}) == 4


def test_extended_basis_counts():
    g = EmbeddedGraph.build(
        V([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        [(0, 1), (0, 2), (0, 3)],
    )
    free = states_for_spins(g, [HALF] * 3, gauge_invariant=False)
    assert len(free) == 2**6  # one free magnetic pair per edge
    labels = {tuple(s.fun.coefficients) for s in free}
    assert len(labels) == 64


def test_spurious_vertex_conventions():
    line = EmbeddedGraph.build(
        V([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]), [(0, 1), (1, 2)]
    )
    # gauge-invariant states on a straight-through vertex live on the coarser
    # graph, so the fixed-spin family is empty here
    assert states_for_spins(line, [HALF, HALF]) == []
    ext = states_for_spins(line, [HALF, HALF], gauge_invariant=False)
    # middle pair recouples to J = 1 only (J = 0 would again be coarser)
    assert len(ext) == 3 * 2 * 2


def test_spin_network_basis_enumeration():
    g = theta_graph()
    basis = spin_network_basis(g, 1)
    assert len(basis) == 4
    spins = sorted(tuple(j.twice for j in b.spins) for b in basis)
    assert spins == [(1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2, 2)]
    with pytest.raises(ValueError):
        states_for_spins(g, [0, HALF, HALF])  # zero spins are not labels


def test_loop_state_is_character():
    g = EmbeddedGraph.build(
        V([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        [
            (0, 1),
            (1, 0, V([[1.0, 0.0, 0.0], [0.5, 0.8, 0.0], [0.0, 0.0, 0.0]])),
        ],
    )
    states = states_for_spins(g, [1, 1])
    assert len(states) == 1
    u1, u2 = haar_sample(RNG), haar_sample(RNG)
    val = evaluate(states[0].fun, [u1, u2])
    char = wigner(1, multiply(u2, u1)).trace()
    assert abs(abs(val) - abs(char)) < 1e-12


def _states_for_spins_reference(graph, spins, gauge_invariant):
    """The one-hot construction that ``states_for_spins`` must reproduce bit
    for bit: every free magnetic label gets a dense one-hot tensor, and every
    combination of vertex options scans each vertex tensor again."""
    spins = tuple(HalfInt.of(j) for j in spins)
    vertex_slots = []
    for v in range(graph.n_vertices):
        slots = half_edges_at(graph, v)
        if slots:
            vertex_slots.append((v, slots))
    families = []
    for v, slots in vertex_slots:
        spins_at = tuple(spins[e] for e, _ in slots)
        toward_axes = [i for i, (_, end) in enumerate(slots) if end == "end"]
        spurious = is_spurious(graph, v)
        if gauge_invariant:
            if spurious:
                return []
            tensors = cyl._dressed_intertwiner_tensors(spins_at, toward_axes)
            if not tensors:
                return []
            families.append(tensors)
        elif spurious and spins_at[0] == spins_at[1]:
            families.append(cyl._recoupled_tensors(spins_at[0], toward_axes))
        else:
            dims = tuple(j.twice + 1 for j in spins_at)
            tensors = []
            for idx in itertools.product(*(range(d) for d in dims)):
                T = np.zeros(dims, dtype=complex)
                T[idx] = 1.0
                label = tuple(magnetic_range(spins_at[i])[k] for i, k in enumerate(idx))
                tensors.append((label, T))
            families.append(tensors)
    states = []
    for combo in itertools.product(*families):
        partial = [(1.0 + 0j, {})]
        for (v, slots), (_, tensor) in zip(vertex_slots, combo):
            entries = []
            for idx, val in np.ndenumerate(tensor):
                if abs(val) < 1e-14:
                    continue
                assign = {}
                for slot_i, (e, end) in enumerate(slots):
                    mag = magnetic_range(spins[e])[idx[slot_i]]
                    assign[(e, "n" if end == "start" else "m")] = mag.twice
                entries.append((complex(val), assign))
            partial = [(c0 * c1, {**d0, **d1}) for c0, d0 in partial for c1, d1 in entries]
        coeffs = {}
        for c, d in partial:
            key = tuple((spins[e].twice, d[(e, "m")], d[(e, "n")]) for e in range(graph.n_edges))
            coeffs[key] = coeffs.get(key, 0j) + c
        coeffs = {l: c for l, c in coeffs.items() if abs(c) > 1e-15}
        states.append((spins, tuple(lab for lab, _ in combo), coeffs))
    return states


def _oriented(specs, flips):
    """Edge specs (start, end[, polyline]) with the flagged ones reversed."""
    out = []
    for spec, flip in zip(specs, flips):
        if flip:
            spec = (spec[1], spec[0]) + tuple(p[::-1] for p in spec[2:])
        out.append(spec)
    return out


STAR_TIPS = V([[1.0, 0.2, 0.3], [-0.4, 1.0, 0.2], [-0.6, -0.7, 0.5], [0.3, -0.4, -1.0]])
THETA_ARCS = [
    (0, 1),
    (0, 1, V([[0.0, 0.0, 0.0], [0.5, 0.7, 0.0], [1.0, 0.0, 0.0]])),
    (0, 1, V([[0.0, 0.0, 0.0], [0.5, 0.0, 0.7], [1.0, 0.0, 0.0]])),
]
LOOP_CORNERS = V([[0.0, 0.0, 0.0], [1.0, 0.1, 0.0], [1.2, 1.0, 0.3], [0.1, 0.9, -0.4]])


@st.composite
def _spin_network_cases(draw):
    """A graph with random edge orientations, positive spins and a mode: a
    1-4-valent star, a closed loop of 2-4 edges, two loop edges joined by a
    third edge, a theta graph, or a line or square with a straight-through
    vertex (equal or unequal spins there)."""
    kinds = ["star", "loop", "loop-edges", "theta", "spurious-line", "spurious-square"]
    kind = draw(st.sampled_from(kinds))
    if kind == "star":
        k = draw(st.integers(1, 4))
        vertices = np.vstack([np.zeros(3), STAR_TIPS[:k]])
        specs = [(0, i + 1) for i in range(k)]
    elif kind == "loop":
        k = draw(st.integers(2, 4))
        if k == 2:  # a bigon: two arcs between two vertices
            vertices, specs = V([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), THETA_ARCS[:2]
        else:
            vertices = LOOP_CORNERS[:k]
            specs = [(i, (i + 1) % k) for i in range(k)]
    elif kind == "loop-edges":
        vertices = V([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        specs = [
            (0, 1),
            (0, 0, V([[0.0, 0.0, 0.0], [-0.5, 0.5, 0.0], [-0.5, -0.5, 0.3], [0.0, 0.0, 0.0]])),
            (1, 1, V([[1.0, 0.0, 0.0], [1.5, 0.5, 0.0], [1.5, -0.5, -0.3], [1.0, 0.0, 0.0]])),
        ]
    elif kind == "theta":
        vertices, specs = V([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), THETA_ARCS
    elif kind == "spurious-line":
        vertices = V([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        specs = [(0, 1), (1, 2)]
    else:  # vertex 1 sits straight through on the side from vertex 0 to vertex 2
        vertices = V([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        specs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    n = len(specs)
    flips = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    graph = EmbeddedGraph.build(vertices, _oriented(specs, flips))
    top = 3 if n <= 3 else 2 if n == 4 else 1
    twice = draw(st.lists(st.integers(1, top), min_size=n, max_size=n))
    if kind.startswith("spurious") and draw(st.booleans()):
        twice[1] = twice[0]  # equal spins recouple at the straight-through vertex
    return graph, [HalfInt(t) for t in twice], draw(st.booleans())


def _under_the_cut(tensors_of):
    """Vertex tensors with every zero entry set to 8e-15: under the 1e-14 cut
    of the vertex entries, but over the 1e-15 prune once multiplied out."""

    def noisy(*args):
        return [(label, np.where(T == 0, 8e-15, T)) for label, T in tensors_of(*args)]

    return noisy


@settings(max_examples=80, deadline=None)
@given(_spin_network_cases(), st.booleans())
def test_states_for_spins_matches_the_one_hot_construction(case, noisy):
    graph, spins, gauge_invariant = case
    with contextlib.ExitStack() as stack:
        if noisy:
            for name in ("_dressed_intertwiner_tensors", "_recoupled_tensors"):
                stack.enter_context(mock.patch.object(cyl, name, _under_the_cut(getattr(cyl, name))))
        got = states_for_spins(graph, spins, gauge_invariant)
        want = _states_for_spins_reference(graph, spins, gauge_invariant)
    assert len(got) == len(want)
    for state, (w_spins, w_labels, w_coeffs) in zip(got, want):
        assert state.fun.graph is graph and state.gauge_invariant is gauge_invariant
        assert (state.spins, state.vertex_labels) == (w_spins, w_labels)
        _assert_same_bits(state.fun.coefficients, w_coeffs)
