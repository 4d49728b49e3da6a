"""Flux, area and volume: derivation actions, matrix realizations, spectra.

The heavier randomized batteries live in test_acceptance; these are the
structural checks and small frozen cases.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from spinnet import cyl
from spinnet.graphs import EmbeddedGraph, Surface, punctures
from spinnet.su2 import HalfInt, angular_momentum, haar_sample, wigner
from spinnet.cyl import (
    CylFun,
    evaluate,
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
