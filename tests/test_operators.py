"""Flux, area and volume: derivation actions, matrix realizations, spectra.

The heavier randomized batteries live in test_acceptance; these are the
structural checks and small frozen cases.
"""

import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from spinnet import cyl, graphs, operators, su2
from spinnet.graphs import EmbeddedGraph, Surface, punctures
from spinnet.su2 import HalfInt, angular_momentum, haar_sample, wigner
from spinnet.cyl import (
    CylFun,
    evaluate,
    graphs_equal,
    inner_product,
    monomial,
    promote,
    states_for_spins,
)
from spinnet.operators import (
    FluxSpec,
    Spectrum,
    area_apply,
    area_matrix,
    area_spectrum,
    area_vertex_matrix,
    edge_vertex_operator,
    flux_apply,
    flux_commutator,
    flux_commutator_closed_form,
    flux_matrix,
    vertex_generator,
    volume_spectrum,
    volume_vertex_matrix,
)

V = np.array
RNG = np.random.default_rng(23)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
HALF = Fraction(1, 2)
SQ3 = math.sqrt(3.0)


def patch(base, normal, u, w, half=2.0):
    base, u, w = V(base, dtype=float), V(u, dtype=float), V(w, dtype=float)
    corners = [base + a * half * u + b * half * w for a, b in [(-1, -1), (1, -1), (1, 1), (-1, 1)]]
    return Surface(base, V(normal, dtype=float), np.vstack(corners))


Z_PATCH = patch([0, 0, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0])
X_PATCH = patch([0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1])


def line_graph():
    return EmbeddedGraph.build(V([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]]), [(0, 1)])


def kink_graph():
    return EmbeddedGraph.build(
        V([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 1.0]]), [(0, 1), (1, 2)]
    )


def star3_graph():
    return EmbeddedGraph.build(
        V([[0.0, 0.0, 0.0], [1.0, 0.5, 1.0], [-1.0, 0.5, 0.7], [0.5, -1.0, -1.0]]),
        [(0, 1), (0, 2), (0, 3)],
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
# flux on a single crossing


def test_flux_insertion_matches_generator_sandwich():
    # crossing a j-monomial inserts sqrt(d) D(h_top) (f.J) D(h_bottom)
    g = line_graph()
    f = V([0.4, -0.2, 0.9])
    F = FluxSpec(Z_PATCH, f)
    for j in (HALF, 1, Fraction(3, 2)):
        tj = HalfInt.of(j).twice
        mono = monomial(g, [(j, j, j)])  # top-left entry
        image = flux_apply(F, mono)
        u1, u2 = haar_sample(RNG), haar_sample(RNG)
        got = evaluate(image, [u1, u2])
        Js = angular_momentum(j)
        sandwich = (
            wigner(j, u2).entries
            @ sum(f[i] * Js[i] for i in range(3))
            @ wigner(j, u1).entries
        )
        assert abs(got - math.sqrt(tj + 1) * sandwich[0, 0]) < 1e-12


def test_flux_squares_to_casimir_factor():
    # a straight crossing gives F^2 = |f|^2/4 exactly on a spin-1/2 monomial
    g = line_graph()
    f = V([0.3, 0.5, -0.2])
    F = FluxSpec(Z_PATCH, f)
    mono = monomial(g, [(HALF, HALF, -HALF)])
    twice = flux_apply(F, flux_apply(F, mono))
    pr = punctures(g, Z_PATCH)
    expect = (f @ f / 4.0) * promote(mono, pr.refinement)
    assert (twice - expect).norm() < 1e-14


def test_flux_away_from_surface_is_zero():
    g = line_graph()
    F = FluxSpec(patch([0, 0, 5], [0, 0, 1], [1, 0, 0], [0, 1, 0]), V([0, 0, 1.0]))
    mono = monomial(g, [(1, 0, 1)])
    assert flux_apply(F, mono).norm() == 0.0


def test_flux_linear_in_smearing():
    g = kink_graph()
    mono = monomial(g, [(HALF, HALF, HALF), (1, 0, -1)])
    f1, f2 = V([0.2, 0.0, 1.0]), V([-0.5, 0.3, 0.1])
    a = flux_apply(FluxSpec(Z_PATCH, 2.0 * f1 + f2), mono)
    b = 2.0 * flux_apply(FluxSpec(Z_PATCH, f1), mono) + flux_apply(FluxSpec(Z_PATCH, f2), mono)
    assert (a - b).norm() < 1e-14


def test_flux_matrix_kinked_crossing_eigenvalues():
    # one transverse kink at the patch, both spins 1/2, unit normal smearing:
    # the 16-dim free basis splits into eigenvalues -1/2, 0, +1/2
    g = kink_graph()
    basis = states_for_spins(g, [HALF, HALF], gauge_invariant=False)
    assert len(basis) == 16
    M = flux_matrix(FluxSpec(Z_PATCH, V([0.0, 0.0, 1.0])), basis)
    assert np.array_equal(M, M.conj().T)
    eigs = np.linalg.eigvalsh(M)
    expect = np.array([-0.5] * 4 + [0.0] * 8 + [0.5] * 4)
    assert np.max(np.abs(eigs - expect)) < 1e-12


def test_flux_matrix_rotation_covariance():
    # eigenvalues depend on the smearing only through its length
    g = kink_graph()
    basis = states_for_spins(g, [HALF, 1], gauge_invariant=False)
    f = V([0.6, -0.3, 0.9])
    e1 = np.linalg.eigvalsh(flux_matrix(FluxSpec(Z_PATCH, f), basis))
    fr = np.linalg.norm(f) * V([0.0, 0.0, 1.0])
    e2 = np.linalg.eigvalsh(flux_matrix(FluxSpec(Z_PATCH, fr), basis))
    assert np.max(np.abs(e1 - e2)) < 1e-12


def test_flux_matrix_straight_crossing_compresses_to_zero():
    # tr J = 0 in every spin: the flux vanishes on the coarse monomial block
    g = line_graph()
    basis = [
        monomial(g, [(HALF, m, n)])
        for m in (HALF, -HALF)
        for n in (HALF, -HALF)
    ]
    M = flux_matrix(FluxSpec(Z_PATCH, V([0.1, 0.7, 0.4])), basis)
    assert np.max(np.abs(M)) == 0.0


def test_flux_matrix_requires_orthonormal_basis():
    g = line_graph()
    a = monomial(g, [(HALF, HALF, HALF)])
    b = monomial(g, [(HALF, HALF, -HALF)])
    with pytest.raises(ValueError, match="orthonormal"):
        flux_matrix(FluxSpec(Z_PATCH, V([0, 0, 1.0])), [a, a + b])


def test_gram_deviation_matches_the_dense_gram():
    g = star3_graph()
    basis = [b.fun for b in states_for_spins(g, [HALF, 1, HALF], gauge_invariant=False)]
    a = monomial(g, [(HALF, HALF, HALF)] * 3)
    b = monomial(g, [(HALF, HALF, -HALF), (1, 0, 1), (HALF, -HALF, HALF)])
    rng = np.random.default_rng(5)
    noisy = [
        CylFun(g, {k: c + 1e-9 * complex(*rng.normal(size=2)) for k, c in f.coefficients.items()})
        for f in basis[:20]
    ]
    families = {
        "basis": basis,
        "overlap": [a, a + b],
        "empty-function": [a, CylFun(g, {}), b],  # a diagonal entry the sparse Gram does not store
        "scaled": [a, (1 + 1e-12j) * b],
        "noisy": noisy,
    }
    for name, funs in families.items():
        dense = np.max(np.abs(cyl.gram(funs) - np.eye(len(funs))))
        assert operators._gram_deviation(funs).hex() == dense.hex(), name


def test_gram_deviation_matches_the_dense_gram_in_any_label_order():
    # each function lists its labels in its own random order, so the order
    # of first appearance in the family differs from every dict order
    g = star3_graph()
    labels = [
        ((1, m, n), (2, a, b), (1, n, m))
        for m in (-1, 1) for n in (-1, 1) for a in (-2, 0, 2) for b in (-2, 0, 2)
    ]
    rng = np.random.default_rng(8)
    for _ in range(100):
        funs = []
        for _ in range(int(rng.integers(1, 10))):
            picked = rng.permutation(len(labels))[: int(rng.integers(0, 10))]
            scale = 1e-9 if rng.random() < 0.5 else 1.0
            funs.append(CylFun(g, {labels[i]: scale * complex(*rng.normal(size=2)) for i in picked}))
        dense = np.max(np.abs(cyl.gram(funs) - np.eye(len(funs))))
        assert operators._gram_deviation(funs).hex() == dense.hex()


def melon_graph():
    """Two vertices joined by four arcs: gauge-invariant states of four
    spin-1/2 edges span a 2 x 2 intertwiner space, 16-24 terms each."""
    return EmbeddedGraph.build(
        V([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        [
            (0, 1, V([[0.0, 0.0, 0.0], [0.5, 0.7, 0.0], [1.0, 0.0, 0.0]])),
            (0, 1, V([[0.0, 0.0, 0.0], [0.5, -0.7, 0.0], [1.0, 0.0, 0.0]])),
            (0, 1, V([[0.0, 0.0, 0.0], [0.5, 0.0, 0.7], [1.0, 0.0, 0.0]])),
            (0, 1, V([[0.0, 0.0, 0.0], [0.5, 0.0, -0.7], [1.0, 0.0, 0.0]])),
        ],
    )


def _dot_matrix(funs, refinement, image_for):
    """Reference operator matrix: one coefficient dot per entry, with each
    image decoded back to label tuples."""
    proms = [promote(f, refinement).coefficients for f in funs]
    codec = operators._LabelCodec(refinement.fine.n_edges, proms)
    image = image_for(codec)
    images = [codec.decode(image(codec.encode(c))) for c in proms]
    mat = np.array([[cyl._dot(p, q) for q in images] for p in proms])
    return (mat + mat.conj().T) / 2.0


@pytest.mark.parametrize(
    "basis, surface",
    [
        (states_for_spins(star3_graph(), [HALF, 1, HALF], gauge_invariant=False), X_PATCH),
        (
            states_for_spins(melon_graph(), [HALF] * 4),
            patch([0.25, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]),
        ),
    ],
    ids=["extended-star3", "invariant-melon"],
)
def test_operator_matrices_match_entrywise_dots(basis, surface):
    funs = [b.fun for b in basis]
    pr = punctures(funs[0].graph, surface)
    assert pr.punctures and len(basis) in (144, 4)
    F = FluxSpec(surface, V([0.4, -0.7, 0.3]))
    flux = flux_matrix(F, basis)
    area = area_matrix(surface, basis)
    flux_ref = _dot_matrix(funs, pr.refinement, lambda codec: operators._flux_image(pr, F, codec))
    area_ref = _dot_matrix(
        funs, pr.refinement, lambda codec: operators._area_image(pr, basis[0].spins, codec)
    )
    # the flux compresses to zero on gauge-invariant states (a vector
    # operator between scalars), the area does not
    assert np.max(np.abs(area_ref)) > 1.0
    assert np.max(np.abs(flux - flux_ref)) <= 1e-14
    assert np.max(np.abs(area - area_ref)) <= 1e-14


# ---------------------------------------------------------------------------
# flux commutators


def test_commutator_double_application_matches_closed_form():
    g = star3_graph()
    psi = monomial(g, [(HALF, HALF, HALF)] * 3)
    F1 = FluxSpec(Z_PATCH, V([0.3, 0.2, 0.9]))
    F2 = FluxSpec(X_PATCH, V([0.8, -0.1, 0.2]))
    double = flux_commutator(F1, F2, psi)
    closed = flux_commutator_closed_form(F1, F2, psi)
    assert double.norm() > 0.1  # mixed orientation signs: genuinely nonzero
    assert (double - closed).norm() < 1e-14


def test_commutator_antisymmetry():
    g = star3_graph()
    psi = monomial(g, [(HALF, HALF, -HALF), (1, 0, 1), (HALF, -HALF, HALF)])
    F1 = FluxSpec(Z_PATCH, V([0.1, 0.4, 0.7]))
    F2 = FluxSpec(X_PATCH, V([0.9, 0.2, -0.3]))
    ab = flux_commutator(F1, F2, psi)
    ba = flux_commutator(F2, F1, psi)
    assert (ab + ba).norm() < 1e-14


def test_commutator_disjoint_surfaces_vanishes():
    g = star4_graph()
    psi = monomial(g, [(HALF, HALF, HALF)] * 4)
    up = patch([0, 0, 0.5], [0, 0, 1], [1, 0, 0], [0, 1, 0])
    down = patch([0, 0, -0.5], [0, 0, 1], [1, 0, 0], [0, 1, 0])
    F1 = FluxSpec(up, V([0.3, 0.6, 0.2]))
    F2 = FluxSpec(down, V([-0.4, 0.1, 0.8]))
    # cancellation is exact up to float reassociation of the scale factors
    assert flux_commutator(F1, F2, psi).norm() < 1e-15
    assert flux_commutator_closed_form(F1, F2, psi).norm() == 0.0


def _four_apply_commutator(F1, F2, psi):
    """The reference double application: four public flux_apply calls on the
    graph pre-subdivided at both surfaces."""
    fun = operators._presubdivided(psi, F1, F2)
    a = flux_apply(F1, flux_apply(F2, fun))
    b = flux_apply(F2, flux_apply(F1, fun))
    return a - b


def _assert_same_bytes(got, want):
    assert got.graph is want.graph or graphs_equal(got.graph, want.graph)
    assert list(got.coefficients) == list(want.coefficients)
    values = [np.array(list(f.coefficients.values()), dtype=complex) for f in (got, want)]
    assert values[0].tobytes() == values[1].tobytes()


DIAG_PATCH = patch([0, 0, 0], [1, 1, 0], [1, -1, 0], [0, 0, 1])


@st.composite
def _star_commutator_cases(draw):
    """A random 1-3-term state on the 3- or 4-valent star and two fluxes
    through distinct patches."""
    graph = draw(st.sampled_from([star3_graph(), star4_graph()]))

    def labels():
        out = []
        for _ in range(graph.n_edges):
            tj = draw(st.integers(1, 2))
            out.append((tj, 2 * draw(st.integers(0, tj)) - tj, 2 * draw(st.integers(0, tj)) - tj))
        return tuple(out)

    coeffs = {
        labels(): draw(st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0))
        for _ in range(draw(st.integers(1, 3)))
    }
    surfaces = draw(st.permutations([Z_PATCH, X_PATCH, DIAG_PATCH]))
    smear = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(V)
    return (
        FluxSpec(surfaces[0], draw(smear)),
        FluxSpec(surfaces[1], draw(smear)),
        CylFun(graph, coeffs),
    )


@settings(max_examples=40, deadline=None)
@given(_star_commutator_cases())
def test_flux_commutator_bytes_match_four_flux_applies_on_stars(case):
    _assert_same_bytes(flux_commutator(*case), _four_apply_commutator(*case))


def _kinked_edge_graph():
    # one edge whose polyline bends at the origin, where both patches meet it
    poly = V([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 1.0]])
    return EmbeddedGraph.build(V([poly[0], poly[-1]]), [(0, 1, poly)])


@pytest.mark.parametrize("case", ["loop", "kinked-edge"])
def test_flux_commutator_bytes_match_four_flux_applies(case):
    if case == "loop":
        psi = states_for_spins(jacobi_loop_graph(), [HALF] * 4)[0].fun
        pairs = [(Z_PATCH, X_PATCH), (X_PATCH, DIAG_PATCH), (DIAG_PATCH, Z_PATCH)]
    else:
        psi = monomial(_kinked_edge_graph(), [(1, 1, 0)])
        pairs = [(Z_PATCH, X_PATCH), (X_PATCH, Z_PATCH)]
    for s1, s2 in pairs:
        F1 = FluxSpec(s1, V([0.3, -0.7, 0.5]))
        F2 = FluxSpec(s2, V([0.6, 0.2, -0.9]))
        _assert_same_bytes(flux_commutator(F1, F2, psi), _four_apply_commutator(F1, F2, psi))


def test_flux_commutator_prunes_the_first_image():
    # the 1e-14 term's image under the faint F2 falls to |c| <= 1e-15, which
    # flux_apply's promotion drops before F1 acts; the second edge's labels
    # keep its keys apart from the unit term's
    g = star3_graph()
    psi = CylFun(
        g,
        {
            ((1, 1, 1), (1, 1, 1), (1, 1, 1)): 1.0 + 0j,
            ((1, 1, 1), (2, 0, 2), (1, 1, 1)): 1e-14 + 0j,
        },
    )
    F1 = FluxSpec(Z_PATCH, V([0.8, -0.4, 0.6]))
    F2 = FluxSpec(X_PATCH, V([0.01, 0.0, 0.02]))
    fun = operators._presubdivided(psi, F1, F2)
    codec = operators._LabelCodec(fun.graph.n_edges, [fun.coefficients])
    image = operators._flux_image(punctures(fun.graph, F2.surface), F2, codec)
    first = image(codec.encode(fun.coefficients))
    assert any(0 < abs(c) <= 1e-15 for c in first.values())
    _assert_same_bytes(flux_commutator(F1, F2, psi), _four_apply_commutator(F1, F2, psi))


def jacobi_loop_graph():
    # a quadrilateral loop threading the origin, which lies on all three patches
    return EmbeddedGraph.build(
        V(
            [
                [1.0, 0.2, 1.0],
                [0.0, 0.0, 0.0],
                [-1.0, 0.3, -0.8],
                [1.5, 0.5, -0.8],
            ]
        ),
        [(0, 1), (1, 2), (2, 3), (3, 0)],
    )


def test_jacobi_identity_on_wilson_loop():
    g = jacobi_loop_graph()
    psi = states_for_spins(g, [HALF] * 4)[0].fun
    diag = patch([0, 0, 0], [1, 1, 0], [1, -1, 0], [0, 0, 1])
    specs = [
        FluxSpec(Z_PATCH, V([0.2, 0.9, 0.4])),
        FluxSpec(X_PATCH, V([0.7, -0.3, 0.5])),
        FluxSpec(diag, V([0.1, 0.6, -0.8])),
    ]
    # pre-subdivide once so every term lives on one graph
    from spinnet.operators import _presubdivided

    psi_fine = _presubdivided(psi, *specs)
    terms = []
    for i in range(3):
        a, b, c = specs[i], specs[(i + 1) % 3], specs[(i + 2) % 3]
        inner = flux_commutator(b, c, psi_fine)
        t = flux_apply(a, inner) - flux_commutator(b, c, flux_apply(a, psi_fine))
        assert t.norm() > 1e-3  # individually nonvanishing
        terms.append(t)
    total = terms[0] + terms[1] + terms[2]
    assert total.norm() < 1e-12


# ---------------------------------------------------------------------------
# area


def two_valent_puncture(ju, jd):
    pr = punctures(kink_graph(), Z_PATCH)
    spins = [HalfInt.of(jd), HalfInt.of(ju)]  # edge 0 is below, edge 1 above
    return pr.punctures[0], spins


@pytest.mark.parametrize(
    "ju,jd",
    [(HALF, HALF), (1, HALF), (1, 1), (Fraction(3, 2), 1), (Fraction(3, 2), Fraction(3, 2))],
)
def test_area_vertex_eigenvalues_match_coupling_formula(ju, jd):
    p, spins = two_valent_puncture(ju, jd)
    op = area_vertex_matrix(p, spins)
    got = np.sort(np.linalg.eigvalsh(op.matrix))
    tu, td = HalfInt.of(ju).twice, HalfInt.of(jd).twice
    expect = []
    for tud in range(abs(tu - td), tu + td + 1, 2):
        lam = (2 * tu * (tu + 2) + 2 * td * (td + 2) - tud * (tud + 2)) / 4.0
        expect.extend([lam] * (tud + 1))
    assert np.max(np.abs(got - np.sort(expect))) < 1e-12


def test_area_vertex_all_tangent_is_zero_block():
    g = EmbeddedGraph.build(
        V([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), [(0, 1), (0, 2)]
    )
    pr = punctures(g, Z_PATCH)
    at0 = {p.vertex: p for p in pr.punctures}[0]
    op = area_vertex_matrix(at0, [HalfInt(1), HalfInt(1)])
    assert op.slots == ()
    assert np.array_equal(op.matrix, np.zeros((1, 1)))


def _kron_embed(slot_mats, dims):
    """Embed per-slot matrices ({slot: matrix}) in the joint slot space by
    Kronecker products with identities: the dense reference construction."""
    out = np.eye(1)
    for s, d in enumerate(dims):
        out = np.kron(out, slot_mats[s] if s in slot_mats else np.eye(d))
    return out


def _dense_area_reference(puncture, spins):
    """(J^(u) - J^(d))^2 with every generator embedded by Kronecker products."""
    slots = [
        (he.direction, HalfInt.of(spins[he.edge]).twice, he.kappa)
        for he in puncture.half_edges
        if he.kappa != 0
    ]
    dims = [tj + 1 for _, tj, _ in slots]
    size = int(np.prod(dims))
    mat = np.zeros((size, size), dtype=complex)
    for axis in range(3):
        comp = np.zeros_like(mat)
        for s, (d, tj, kappa) in enumerate(slots):
            gen = su2._slot_generators(tj, d == "away")[axis]
            comp += kappa * _kron_embed({s: gen}, dims)
        mat += comp @ comp
    return (mat + mat.conj().T) / 2.0


def _random_puncture(rng, n):
    """A puncture with n half-edges of random direction and kappa in {-1, 0, 1},
    at least one of them transverse, and spins 2j <= 3."""
    kappas = rng.choice([-1, 0, 1], size=n)
    kappas[rng.integers(n)] = rng.choice([-1, 1])
    half_edges = tuple(
        graphs.PunctureHalfEdge(e, str(rng.choice(["away", "toward"])), int(k))
        for e, k in enumerate(kappas)
    )
    spins = [HalfInt(int(t)) for t in rng.integers(0, 4, size=n)]
    return graphs.Puncture(0, np.zeros(3), half_edges), spins


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_area_vertex_matrix_matches_kronecker_construction(n):
    rng = np.random.default_rng(300 + n)
    for _ in range(8):
        p, spins = _random_puncture(rng, n)
        mat = area_vertex_matrix(p, spins).matrix
        ref = _dense_area_reference(p, spins)
        assert mat.shape == ref.shape
        assert np.max(np.abs(mat - ref)) <= 1e-13 * max(np.max(np.abs(ref)), 1.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_vertex_generator_matches_kronecker_construction(n):
    rng = np.random.default_rng(400 + n)
    for _ in range(4):
        slots = [
            (e, str(rng.choice(["away", "toward"])), int(rng.integers(0, 4)))
            for e in range(n)
        ]
        dims = [tj + 1 for _, _, tj in slots]
        for axis in (1, 2, 3):
            ref = sum(
                _kron_embed({s: su2._slot_generators(tj, d == "away")[axis - 1]}, dims)
                for s, (_, d, tj) in enumerate(slots)
            )
            got = vertex_generator(slots, axis)
            assert np.max(np.abs(got - ref)) <= 1e-13 * max(np.max(np.abs(ref)), 1.0)


def bigon_graph():
    return EmbeddedGraph.build(
        V([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]]),
        [
            (0, 1, V([[0.0, 0.0, -1.0], [0.5, 0.0, 0.0], [0.0, 0.0, 1.0]])),
            (0, 1, V([[0.0, 0.0, -1.0], [-0.5, 0.0, 0.0], [0.0, 0.0, 1.0]])),
        ],
    )


def test_area_eigenstate_two_crossings():
    # each spin-1/2 puncture contributes sqrt(3) on the bigon singlet
    g = bigon_graph()
    psi = states_for_spins(g, [HALF, HALF])[0]
    image = area_apply(Z_PATCH, psi)
    pr = punctures(g, Z_PATCH)
    expect = (2.0 * SQ3) * promote(psi.fun, pr.refinement)
    assert (image - expect).norm() < 1e-12
    M = area_matrix(Z_PATCH, [psi])
    assert abs(M[0, 0] - 2.0 * SQ3) < 1e-12


def test_area_additivity_over_split_patch():
    # two parallel strands; the patch area is the sum of the half-patch areas
    g = EmbeddedGraph.build(
        V(
            [
                [-0.5, 0.0, -1.0],
                [-0.5, 0.0, 1.0],
                [0.5, 0.0, -1.0],
                [0.5, 0.0, 1.0],
            ]
        ),
        [(0, 1), (2, 3)],
    )
    basis = states_for_spins(g, [HALF, 1], gauge_invariant=False)
    left = patch([-1, 0, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0], half=1.0)
    right = patch([1, 0, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0], half=1.0)
    whole = Z_PATCH
    A = area_matrix(whole, basis)
    assert np.max(np.abs(A - area_matrix(left, basis) - area_matrix(right, basis))) < 1e-12


def test_area_spectrum_single_crossing():
    spec = area_spectrum(line_graph(), Z_PATCH, HALF)
    assert [e.value for e in spec] == pytest.approx([0.0, SQ3], abs=1e-12)
    assert spec.entries[1].multiplicity == 1
    assert "ju=1/2" in spec.entries[1].labels


def test_area_spectrum_two_strands():
    g = EmbeddedGraph.build(
        V([[-0.5, 0.0, -1.0], [-0.5, 0.0, 1.0], [0.5, 0.0, -1.0], [0.5, 0.0, 1.0]]),
        [(0, 1), (2, 3)],
    )
    spec = area_spectrum(g, Z_PATCH, 1)
    vals = set(np.round(spec.values, 10))
    # spin-1/2 and spin-1 strands together: sqrt(3) + 2 sqrt(2)
    assert round(SQ3 + 2.0 * math.sqrt(2.0), 10) in vals
    assert round(2.0 * SQ3, 10) in vals  # both strands at spin 1/2


def test_area_spectrum_no_punctures():
    far = patch([0, 0, 9], [0, 0, 1], [1, 0, 0], [0, 1, 0])
    spec = area_spectrum(line_graph(), far, 1)
    assert len(spec) == 1
    assert spec.entries[0].value == 0.0
    assert spec.entries[0].labels == "no punctures"


def test_area_spectrum_validates_max_spin():
    with pytest.raises(ValueError):
        area_spectrum(line_graph(), Z_PATCH, 0)


def test_area_commutators_matrix_level():
    # both patches cut the kink vertex with different up/down splits
    g = star3_graph()
    basis = states_for_spins(g, [HALF, HALF, HALF], gauge_invariant=False)
    A1 = area_matrix(Z_PATCH, basis)
    A2 = area_matrix(X_PATCH, basis)
    comm = A1 @ A2 - A2 @ A1
    assert np.max(np.abs(comm)) > 1e-6


# ---------------------------------------------------------------------------
# per-slot generators


def test_slot_generators_close_the_algebra():
    g = kink_graph()
    for edge, direction in [(0, "toward"), (1, "away")]:
        ops = [
            edge_vertex_operator(g, 1, edge, 1, axis, direction).matrix
            for axis in (1, 2, 3)
        ]
        for a, b, c in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            comm = ops[a] @ ops[b] - ops[b] @ ops[a]
            assert np.max(np.abs(comm - 1j * ops[c])) < 1e-13
        for o in ops:
            assert np.max(np.abs(o - o.conj().T)) < 1e-13


def test_edge_vertex_operator_direction_handling():
    g = kink_graph()
    op = edge_vertex_operator(g, 1, 0, HALF, 3)
    assert op.direction == "toward"
    with pytest.raises(ValueError):
        edge_vertex_operator(g, 1, 0, HALF, 5)
    with pytest.raises(ValueError):
        edge_vertex_operator(g, 0, 1, HALF, 1)  # edge 1 not incident at vertex 0


def test_edge_vertex_operator_refuses_a_contradicting_direction():
    # on the path 0 -> 1 -> 2, edge 0 ends at vertex 1 and edge 1 starts there
    g = kink_graph()
    assert edge_vertex_operator(g, 1, 0, HALF, 3, direction="toward").direction == "toward"
    assert edge_vertex_operator(g, 1, 1, HALF, 3, direction="away").direction == "away"
    with pytest.raises(ValueError, match="edge 0 points 'toward' at vertex 1, not 'away'"):
        edge_vertex_operator(g, 1, 0, 1, 3, direction="away")
    with pytest.raises(ValueError, match="edge 1 points 'away' at vertex 1, not 'toward'"):
        edge_vertex_operator(g, 1, 1, 1, 3, direction="toward")


def test_edge_vertex_operator_needs_a_direction_on_a_loop_edge():
    # edge 1 leaves vertex 0 and comes back to it
    g = EmbeddedGraph.build(
        V([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        [(0, 1), (0, 0, V([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.5], [0.0, 0.0, 0.0]]))],
    )
    with pytest.raises(ValueError, match="loop edge"):
        edge_vertex_operator(g, 0, 1, HALF, 3)
    away = edge_vertex_operator(g, 0, 1, HALF, 3, direction="away")
    toward = edge_vertex_operator(g, 0, 1, HALF, 3, direction="toward")
    assert (away.direction, toward.direction) == ("away", "toward")
    assert np.array_equal(toward.matrix, -away.matrix.T)


def test_half_edge_directions_are_away_or_toward():
    # the endpoint tags of half_edges_at are not slot directions
    g = kink_graph()
    with pytest.raises(ValueError, match="'start'"):
        edge_vertex_operator(g, 1, 1, HALF, 1, direction="start")
    with pytest.raises(ValueError, match="'end'"):
        vertex_generator([(0, "away", 1), (1, "end", 1)], 3)


@pytest.mark.parametrize("axis", [0, 4])
def test_vertex_generator_rejects_an_axis_out_of_range(axis):
    # axis 0 must not wrap round to the axis-3 generator
    with pytest.raises(ValueError, match="axis"):
        vertex_generator([(0, "away", 1), (1, "toward", 1)], axis)


def test_vertex_generator_annihilates_singlet():
    # the total generator kills the two-spin singlet pairing
    slots = [(0, "away", 1), (1, "away", 1)]
    E = np.array([[0.0, 1.0], [-1.0, 0.0]])  # spin-flip pairing tensor
    singlet = E.reshape(-1) / math.sqrt(2.0)
    for axis in (1, 2, 3):
        T = vertex_generator(slots, axis)
        assert np.max(np.abs(T @ singlet)) < 1e-13


# ---------------------------------------------------------------------------
# volume


def test_volume_trivalent_vertex_vanishes():
    g = EmbeddedGraph.build(
        V([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        [(0, 1), (0, 2), (0, 3)],
    )
    op = volume_vertex_matrix(g, 0, [1, 1, 2])
    assert op.gauge_invariant
    assert op.matrix.shape == (1, 1)
    assert np.max(np.abs(op.matrix)) == 0.0


def test_volume_planar_vertex_vanishes():
    g = EmbeddedGraph.build(
        V(
            [
                [0.0, 0.0, 0.0],
                [1.0, 0.2, 0.0],
                [-0.3, 1.0, 0.0],
                [-1.0, -0.4, 0.0],
                [0.5, -1.0, 0.0],
            ]
        ),
        [(0, 1), (0, 2), (0, 3), (0, 4)],
    )
    op = volume_vertex_matrix(g, 0, [HALF] * 4)
    assert np.max(np.abs(op.matrix)) == 0.0


def test_volume_generic_four_valent():
    g = star4_graph()
    op = volume_vertex_matrix(g, 0, [HALF] * 4)
    assert op.matrix.shape == (2, 2)
    assert np.max(np.abs(op.matrix - op.matrix.conj().T)) == 0.0
    assert abs(np.trace(op.matrix)) < 1e-12
    eigs = np.sort(np.linalg.eigvalsh(op.matrix))
    assert np.max(np.abs(eigs - [-3.0 * SQ3, 3.0 * SQ3])) < 1e-10


def test_volume_reversal_invariance():
    # flipping one edge orientation must not move the eigenvalues
    g = star4_graph()
    flipped = EmbeddedGraph.build(
        g.vertices,
        [(0, 1), (0, 2), (3, 0), (0, 4)],
    )
    a = np.linalg.eigvalsh(volume_vertex_matrix(g, 0, [HALF] * 4).matrix)
    b = np.linalg.eigvalsh(volume_vertex_matrix(flipped, 0, [HALF] * 4).matrix)
    assert np.max(np.abs(np.sort(a) - np.sort(b))) < 1e-12


def test_volume_full_slot_matrix_is_hermitian():
    g = star4_graph()
    op = volume_vertex_matrix(g, 0, [HALF] * 4, gauge_invariant=False)
    assert op.matrix.shape == (16, 16)
    assert np.max(np.abs(op.matrix - op.matrix.conj().T)) == 0.0


#: (i, j, k, sign) for every nonzero entry of the Levi-Civita symbol
LEVI_CIVITA = ((0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0),
               (0, 2, 1, -1.0), (2, 1, 0, -1.0), (1, 0, 2, -1.0))


def _dense_volume_reference(graph, vertex, spins, gauge_invariant):
    """(edges, basis labels, matrix) from the dense slot-space construction:
    every ordered triple of slots, each Levi-Civita term embedded by
    Kronecker products, Hermitized, then compressed onto the dressed
    intertwiners."""

    slots = [
        (e, d)
        for e, d in graphs.half_edges_at(graph, vertex)
        if HalfInt.of(spins[e]).twice > 0
    ]
    if not slots:
        return (), ("trivial",), np.zeros((1, 1))
    tjs = [HalfInt.of(spins[e]).twice for e, _ in slots]
    tvecs = [graphs.outgoing_tangent(graph, e, d == "start") for e, d in slots]
    dims = [tj + 1 for tj in tjs]
    size = int(np.prod(dims))
    gens = [su2._slot_generators(tj, d == "start") for tj, (_, d) in zip(tjs, slots)]
    mat = np.zeros((size, size), dtype=complex)
    for a, b, c in itertools.permutations(range(len(slots)), 3):
        eps = graphs.tangent_orientation(tvecs[a], tvecs[b], tvecs[c])
        if eps == 0:
            continue
        for i, j, k, sgn in LEVI_CIVITA:
            mat += (eps * sgn) * _kron_embed(
                {a: gens[a][i], b: gens[b][j], c: gens[c][k]}, dims
            )
    mat = (mat + mat.conj().T) / 2.0
    edges = tuple((e, d, tj) for (e, d), tj in zip(slots, tjs))
    if not gauge_invariant:
        return edges, (), mat
    toward = [s for s, (_, d) in enumerate(slots) if d == "end"]
    dressed = cyl._dressed_intertwiner_tensors([HalfInt(tj) for tj in tjs], toward)
    if not dressed:
        return edges, (), np.zeros((0, 0))
    basis = np.column_stack([t.reshape(-1) for _, t in dressed])
    comp = basis.conj().T @ mat @ basis
    labels = tuple("(" + " ".join(str(x) for x in tree) + ")" for tree, _ in dressed)
    return edges, labels, (comp + comp.conj().T) / 2.0


def _star(directions, toward=()):
    """Edges from the origin to each direction; those listed in ``toward``
    point into the origin instead."""
    verts = np.vstack([np.zeros(3), np.asarray(directions, dtype=float)])
    return EmbeddedGraph.build(
        verts, [(i + 1, 0) if i in toward else (0, i + 1) for i in range(len(directions))]
    )


_PIN_RNG = np.random.default_rng(41)
VOLUME_PIN_VERTICES = [
    *[
        (_PIN_RNG.normal(size=(n, 3)), tuple(np.flatnonzero(_PIN_RNG.random(n) < 0.4)))
        for n in (3, 4, 4, 5, 5)
    ],
    # tangents 0, 1, 2 are coplanar: that triple has eps = 0
    (V([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.2, -0.3, 1.0]]), (1,)),
]


@pytest.mark.parametrize("case", range(len(VOLUME_PIN_VERTICES)))
@pytest.mark.parametrize("gauge_invariant", [True, False])
def test_volume_vertex_matrix_matches_dense_construction(case, gauge_invariant):
    directions, toward = VOLUME_PIN_VERTICES[case]
    g = _star(directions, toward)
    rng = np.random.default_rng(case)
    assignments = [[2] * len(directions)] + [
        list(rng.integers(0, 3, size=len(directions))) for _ in range(6)
    ]
    for tjs in assignments:
        spins = [HalfInt(int(t)) for t in tjs]
        op = volume_vertex_matrix(g, 0, spins, gauge_invariant=gauge_invariant)
        edges, labels, ref = _dense_volume_reference(g, 0, spins, gauge_invariant)
        assert op.edges == edges
        assert op.basis_labels == labels
        assert op.matrix.shape == ref.shape
        if ref.size:
            # relative to the largest entry, or to 1 where the terms cancel
            scale = max(np.max(np.abs(ref)), 1.0)
            assert np.max(np.abs(op.matrix - ref)) <= 1e-12 * scale


def test_volume_full_slot_space_spans_several_column_blocks():
    # 2j = 3 on four slots: 256 basis tensors, four blocks of q B products
    directions, _ = VOLUME_PIN_VERTICES[1]
    g = _star(directions)
    spins = [HalfInt(3)] * 4
    op = volume_vertex_matrix(g, 0, spins, gauge_invariant=False)
    _, _, ref = _dense_volume_reference(g, 0, spins, gauge_invariant=False)
    assert ref.shape == (256, 256) and 256 > 3 * operators._VOLUME_BLOCK_COLUMNS
    assert np.max(np.abs(op.matrix - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1.0)
    assert np.array_equal(op.matrix, op.matrix.conj().T)


@pytest.mark.parametrize("gauge_invariant", [True, False])
def test_volume_all_planar_vertex_is_exactly_zero(gauge_invariant):
    directions = [
        [1.0, 0.2, 0.0], [-0.3, 1.0, 0.0], [-1.0, -0.4, 0.0], [0.5, -1.0, 0.0], [0.7, 0.7, 0.0]
    ]
    g = _star(directions, toward=(1, 3))
    for tjs in ([1, 1, 2, 1, 1], [2] * 5):
        spins = [HalfInt(t) for t in tjs]
        op = volume_vertex_matrix(g, 0, spins, gauge_invariant=gauge_invariant)
        assert op.matrix.size > 0
        assert np.max(np.abs(op.matrix)) == 0.0


@pytest.mark.parametrize("tj", range(1, 7))
def test_volume_four_valent_tridiagonal_in_coupling_basis(tj):
    # Brunnemann & Thiemann, CQG 23 (2006) 1289: at a 4-valent vertex the
    # volume matrix in the left-to-right coupling basis (labelled by the
    # intermediate spin j12) is purely imaginary and couples only j12 to
    # j12 +- 1, so it is tridiagonal with a zero diagonal.
    doc = yaml.safe_load((FIXTURES / "star4.yaml").read_text())
    g = EmbeddedGraph.build(
        V(doc["vertices"], dtype=float), [(e["from"], e["to"]) for e in doc["edges"]]
    )
    op = volume_vertex_matrix(g, 0, [HalfInt(tj)] * 4)
    j12 = [Fraction(label[1:-1].split()[0]) for label in op.basis_labels]
    assert j12 == [Fraction(k) for k in range(tj + 1)]
    mat = op.matrix
    tol = 1e-12 * np.max(np.abs(mat))
    assert tol > 0
    assert np.max(np.abs(mat.real)) <= tol
    rows, cols = np.indices(mat.shape)
    assert np.max(np.abs(mat[np.abs(rows - cols) != 1]), initial=0.0) <= tol


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 6), st.integers(0, 2**32 - 1))
def test_volume_vertex_eigenvalues_come_in_plus_minus_pairs(valence, seed):
    # in the real intertwiner basis q_v is i times a real antisymmetric
    # matrix, so its spectrum is symmetric about zero
    rng = np.random.default_rng(seed)
    toward = tuple(np.flatnonzero(rng.random(valence) < 0.4))
    g = _star(rng.normal(size=(valence, 3)), toward)
    top = 3 if valence <= 4 else 2
    twice = rng.integers(1, top + 1, size=valence)
    if twice.sum() % 2:  # an odd total has no intertwiner
        twice[-1] += 1 if twice[-1] < top else -1
    spins = [HalfInt(int(t)) for t in twice]
    eigs = np.linalg.eigvalsh(volume_vertex_matrix(g, 0, spins).matrix)
    assert np.max(np.abs(eigs + eigs[::-1]), initial=0.0) <= 1e-10


def test_volume_spectrum_star_region():
    spec = volume_spectrum(star4_graph(), [0], HALF)
    vol = math.sqrt(3.0 * SQ3 / 48.0)
    assert [e.value for e in spec] == pytest.approx([0.0, vol], abs=1e-12)
    assert [e.multiplicity for e in spec] == [7, 2]
    doubled = volume_spectrum(star4_graph(), [0], HALF, c=2.0)
    assert doubled.values[-1] == pytest.approx(2.0 * vol, abs=1e-12)


def test_volume_spectrum_all_region_requires_leaf_invariance():
    # selecting the leaves too removes every nonzero assignment
    spec = volume_spectrum(star4_graph(), "all", HALF)
    assert list(spec.values) == [0.0]


def test_volume_spectrum_validation():
    with pytest.raises(ValueError):
        volume_spectrum(star4_graph(), [0], HALF, c=0.0)
    with pytest.raises(ValueError):
        volume_spectrum(star4_graph(), [9], HALF)
    with pytest.raises(ValueError):
        volume_spectrum(star4_graph(), [0], 0)


# ---------------------------------------------------------------------------
# spectrum container


def test_spectrum_from_samples_groups_and_sorts():
    spec = Spectrum.from_samples(
        [(1.0, 2, "a"), (-0.0, 1, "zero"), (1.0 + 1e-15, 3, "b"), (0.5, 1, "c")]
    )
    assert [e.value for e in spec] == [0.0, 0.5, 1.0]
    assert [e.multiplicity for e in spec] == [1, 1, 5]
    assert spec.entries[2].labels == "a"  # first label wins
    assert math.copysign(1.0, spec.entries[0].value) == 1.0  # -0.0 folded


def test_spectrum_from_samples_clusters_across_rounding_boundary():
    # lo and hi are adjacent doubles on either side of the point near
    # 0.5 + 5e-13 where round(v, 12) steps from 0.5 to 0.500000000001
    x = 0.5 + 5e-13
    while round(x, 12) != 0.5:
        x = math.nextafter(x, 0.0)
    while round(math.nextafter(x, 1.0), 12) == 0.5:
        x = math.nextafter(x, 1.0)
    lo, hi = x, math.nextafter(x, 1.0)
    assert round(lo, 12) != round(hi, 12)
    spec = Spectrum.from_samples([(hi, 1, "hi"), (lo, 2, "lo")])
    assert [(e.value, e.multiplicity, e.labels) for e in spec] == [(hi, 3, "hi")]
    apart = Spectrum.from_samples([(0.5 + 2e-12, 1, "b"), (0.5, 1, "a")])
    assert [e.labels for e in apart] == ["a", "b"]


def test_spectrum_validation():
    from spinnet.operators import SpectrumEntry

    with pytest.raises(ValueError):
        Spectrum((SpectrumEntry(1.0, 1, "x"), SpectrumEntry(0.5, 1, "y")))
    with pytest.raises(ValueError):
        Spectrum((SpectrumEntry(0.0, 0, "x"),))


# ---------------------------------------------------------------------------
# labels are validated once, by the public constructor


def test_internal_results_skip_label_checks_and_rebuild_equal(monkeypatch):
    line = monomial(line_graph(), [(1, 1, -1)])
    other = monomial(line_graph(), [(HALF, HALF, -HALF)])
    split = punctures(line_graph(), Z_PATCH).refinement
    same = punctures(star3_graph(), X_PATCH).refinement
    assert not split.is_identity() and same.is_identity()
    F1 = FluxSpec(Z_PATCH, [0.3, -0.2, 0.9])
    F2 = FluxSpec(X_PATCH, [0.1, 0.7, -0.4])
    checked = []
    monkeypatch.setattr(cyl, "_check_label", lambda lab: checked.append(lab))
    state = states_for_spins(star3_graph(), [HALF, 1, HALF], gauge_invariant=False)[5]
    results = {
        "prune": (line + other).prune(),
        "add": line + other,
        "sub": line - other,
        "scale": np.float64(2.5) * line,
        "promote": promote(line, split),
        "promote identity": promote(state.fun, same),
        "states_for_spins": state.fun,
        "flux_apply": flux_apply(F1, state.fun),
        "closed form": flux_commutator_closed_form(F1, F2, state.fun),
        "area_apply": area_apply(Z_PATCH, state),
    }
    assert checked == []
    monkeypatch.undo()
    for name, fun in results.items():
        assert fun.n_terms > 0, name
        assert all(type(c) is complex for c in fun.coefficients.values()), name
        assert CylFun(fun.graph, fun.coefficients).coefficients == fun.coefficients, name


def test_area_apply_rejects_mismatched_spins():
    psi = states_for_spins(star3_graph(), [HALF, HALF, 1], gauge_invariant=False)[0]
    wrong = type(psi)(psi.fun, (HalfInt(2), HalfInt(1), HalfInt(2)), psi.vertex_labels, False)
    with pytest.raises(ValueError, match="edge 0 carries spin 1/2, expected 1"):
        area_apply(Z_PATCH, wrong)
