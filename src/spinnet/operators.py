"""Flux derivations and the area and volume operators.

The flux smeared over a surface acts on a cylindrical function as a sum of
angular-momentum insertions, one per half-edge meeting the surface at a
puncture, weighted by the transversality sign kappa and the smearing value
there:

    F[S, f] = (1/2) sum_p sum_h kappa(h) f^i(p) Jhat_i^{(h)} .

Per half-edge we use the Hermitian slot realizations: an outgoing ("away")
half-edge acts on the column label of its edge's matrix element with the spin-j
angular momentum matrices J_i, an incoming ("toward") one acts on the row
label with -J_i^T.  Both satisfy [A_i, A_j] = i eps_{ijk} A_k, so the usual
angular-momentum recoupling applies verbatim and flux matrices are Hermitian.

The area operator at a puncture is the square root of

    -Delta = (J^(u) - J^(d))^2 = 2 J^(u)^2 + 2 J^(d)^2 - (J^(u+d))^2,

the unique natural quadratic in the up/down family generators whose
eigenvalues are 2 j_u(j_u+1) + 2 j_d(j_d+1) - j_ud(j_ud+1).  The volume
operator at a vertex sums eps_{ijk} times the tangent orientation sign over
ordered triples of distinct half-edges; per vertex the physical value is
c * |q / 48|^(1/2).

Spectra are reported dimensionless: area in units of 4*pi*gamma*lP^2 and
volume in units of (8*pi*gamma*lP^2)^(3/2), with gamma = lP = 1 internally.
The command-line layer applies the physical prefactors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence, Union

import numpy as np

from .cyl import CylFun, SpinNetworkState, graphs_equal, gram, promote
from .cyl import _dot, _dressed_intertwiner_tensors
from .graphs import (
    EmbeddedGraph,
    Puncture,
    Surface,
    half_edges_at,
    outgoing_tangent,
    punctures,
    tangent_orientation,
)
from .su2 import HalfInt, LieVector, angular_momentum, total_spins

__all__ = [
    "FluxSpec",
    "EdgeVertexOperator",
    "AreaVertexOperator",
    "VolumeVertexOperator",
    "Spectrum",
    "SpectrumEntry",
    "edge_vertex_operator",
    "vertex_generator",
    "flux_apply",
    "flux_matrix",
    "flux_commutator",
    "flux_commutator_closed_form",
    "area_vertex_matrix",
    "area_matrix",
    "area_apply",
    "area_spectrum",
    "volume_vertex_matrix",
    "volume_spectrum",
]

HERMITICITY_TOL = 1e-12
ORTHONORMALITY_TOL = 1e-10
VOLUME_ZERO_CLIP = 1e-12
SPECTRUM_TOL = 1e-12

#: (i, j, k, sign) for every nonzero entry of the Levi-Civita symbol.
_LEVI = (
    (0, 1, 2, 1.0),
    (1, 2, 0, 1.0),
    (2, 0, 1, 1.0),
    (0, 2, 1, -1.0),
    (2, 1, 0, -1.0),
    (1, 0, 2, -1.0),
)


def _is_away(direction: str) -> bool:
    if direction in ("away", "start"):
        return True
    if direction in ("toward", "end"):
        return False
    raise ValueError(f"unknown half-edge direction {direction!r}")


@lru_cache(maxsize=None)
def _slot_generators(tj: int, away: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hermitian generator triple acting on one label slot of a spin-j edge."""
    jmats = angular_momentum(HalfInt(tj))
    mats = tuple(np.array(m) if away else -np.array(m).T for m in jmats)
    for m in mats:
        m.flags.writeable = False
    return mats


def _flux_columns(away: bool, f: np.ndarray, scale):
    """Column lookup for scale * (f . Jhat) on one half-edge slot."""

    def lookup(tjs):
        if tjs[0] == 0:
            return ()  # trivial representation: generators vanish
        a, b, c = _slot_generators(tjs[0], away)
        return _column_table(scale * (f[0] * a + f[1] * b + f[2] * c), tjs)

    return lookup


def _column_table(mat, tjs) -> list:
    """Per column of a matrix on the slot-major product of the spaces of
    ``tjs``: its nonzero (row twice-magnetic labels, value) pairs."""
    rows = list(itertools.product(*(range(tj, -tj - 1, -2) for tj in tjs)))
    return [
        [(rows[r], v) for r, v in enumerate(column) if v != 0]
        for column in mat.T.tolist()
    ]


def _slot_action(coeffs, slots, columns_for, acc: dict) -> None:
    """Add to ``acc`` the image of ``coeffs`` under a matrix on label slots.

    ``slots`` lists (edge, away) pairs: an away slot acts on the column label
    n of its edge's matrix element, a toward slot on the row label m.
    ``columns_for(twice_spins)`` gives the matrix for those slot spins as a
    ``_column_table``, empty where the action vanishes; it is looked up once
    per spin tuple.  The terms of one call are summed before they are added
    to ``acc``.
    """
    out: dict = {}
    tables: dict = {}
    for labels, coef in coeffs.items():
        tjs = tuple(labels[e][0] for e, _ in slots)
        table = tables.get(tjs)
        if table is None:
            table = tables[tjs] = columns_for(tjs)
        if not table:
            continue
        col = 0
        for (e, away), tj in zip(slots, tjs):
            _, tm, tn = labels[e]
            col = col * (tj + 1) + (tj - (tn if away else tm)) // 2
        for mags, v in table[col]:
            new = list(labels)
            for (e, away), mag in zip(slots, mags):
                tj, tm, tn = new[e]
                new[e] = (tj, tm, mag) if away else (tj, mag, tn)
            key = tuple(new)
            out[key] = out.get(key, 0j) + coef * v
    for key, v in out.items():
        acc[key] = acc.get(key, 0j) + v


# ---------------------------------------------------------------------------
# flux derivations


@dataclass(frozen=True)
class FluxSpec:
    """A surface together with a smearing f^i: point -> generator components.

    ``smearing`` may be a LieVector, a 3-sequence (constant smearing), or a
    callable taking a point and returning either.
    """

    surface: Surface
    smearing: Union[LieVector, Sequence, Callable]

    def components_at(self, point) -> np.ndarray:
        s = self.smearing
        if callable(s) and not isinstance(s, LieVector):
            s = s(np.asarray(point, dtype=float))
        v = s.components if isinstance(s, LieVector) else np.asarray(s, dtype=float)
        if v.shape != (3,):
            raise ValueError("smearing must provide three components")
        return v


def _flux_image(pr, F: FluxSpec, coeffs: dict) -> dict:
    acc: dict = {}
    for p in pr.punctures:
        f = F.components_at(p.point)
        for he in p.half_edges:
            if he.kappa == 0:
                continue  # tangent half-edges do not contribute
            away = _is_away(he.direction)
            _slot_action(
                coeffs, [(he.edge, away)], _flux_columns(away, f, 0.5 * he.kappa), acc
            )
    return acc


def flux_apply(F: FluxSpec, psi: CylFun) -> CylFun:
    """Flux derivation applied to a cylindrical function.

    The graph is first subdivided so every intersection with the surface is a
    vertex; the result lives on that subdivided graph.  A graph disjoint from
    the surface maps to the zero function.
    """
    pr = punctures(psi.graph, F.surface)
    fine = promote(psi, pr.refinement)
    return CylFun._trusted(pr.graph, _flux_image(pr, F, fine.coefficients))


def _state_funs(basis) -> list[CylFun]:
    if not basis:
        raise ValueError("basis is empty")
    return [b.fun if isinstance(b, SpinNetworkState) else b for b in basis]


def _check_orthonormal(funs: Sequence[CylFun]) -> None:
    g = funs[0].graph
    for f in funs[1:]:
        if not graphs_equal(f.graph, g):
            raise ValueError("basis states must share a common graph")
    dev = np.max(np.abs(gram(funs) - np.eye(len(funs))))
    if dev > ORTHONORMALITY_TOL:
        raise ValueError(
            f"basis is not orthonormal: Gram matrix deviates from identity by {dev:.3e}"
        )


def _operator_matrix(funs: Sequence[CylFun], refinement, image) -> np.ndarray:
    """Matrix of an operator in an orthonormal basis of functions.

    ``image`` maps a coefficient dict on the refined graph to the operator's
    image there.  Promotion is an isometry, so matrix elements are taken
    between the promoted functions.  The raw matrix is checked to be
    Hermitian to HERMITICITY_TOL and returned exactly Hermitian.
    """
    _check_orthonormal(funs)
    proms = [promote(f, refinement).coefficients for f in funs]
    images = [image(c) for c in proms]
    n = len(funs)
    mat = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            mat[i, j] = _dot(proms[i], images[j])
    dev = np.max(np.abs(mat - mat.conj().T))
    if dev > HERMITICITY_TOL:
        raise ArithmeticError(f"operator matrix failed the Hermiticity check: {dev:.3e}")
    return (mat + mat.conj().T) / 2.0


def flux_matrix(F: FluxSpec, basis) -> np.ndarray:
    """Matrix of the flux derivation in an orthonormal basis of states,
    checked to be Hermitian to HERMITICITY_TOL and returned exactly Hermitian."""
    funs = _state_funs(basis)
    pr = punctures(funs[0].graph, F.surface)
    return _operator_matrix(funs, pr.refinement, lambda c: _flux_image(pr, F, c))


def _presubdivided(psi: CylFun, *specs: FluxSpec):
    """Promote psi onto the graph subdivided at the punctures of all surfaces."""
    fun = psi
    for F in specs:
        pr = punctures(fun.graph, F.surface)
        fun = promote(fun, pr.refinement)
    return fun


def flux_commutator(F1: FluxSpec, F2: FluxSpec, psi: CylFun) -> CylFun:
    """[F1, F2] psi by double application.

    Both orders are evaluated on the graph pre-subdivided at both surfaces, so
    the two images live on the same graph and subtract directly.
    """
    fun = _presubdivided(psi, F1, F2)
    a = flux_apply(F1, flux_apply(F2, fun))
    b = flux_apply(F2, flux_apply(F1, fun))
    return a - b


def flux_commutator_closed_form(F1: FluxSpec, F2: FluxSpec, psi: CylFun) -> CylFun:
    """The commutator as a single vertex sum over common punctures.

    Since same-slot generators close as [A_i, A_j] = i eps_{ijk} A_k and
    distinct slots commute,

        [F1, F2] = (i/4) sum_p sum_h kappa1(h) kappa2(h) (f1 x f2).Jhat^{(h)},

    summed over punctures common to both surfaces.  Half-edges tangent to
    either surface drop out through the kappa product.
    """
    fun = _presubdivided(psi, F1, F2)
    pr1 = punctures(fun.graph, F1.surface)
    pr2 = punctures(fun.graph, F2.surface)
    if not (pr1.refinement.is_identity() and pr2.refinement.is_identity()):
        raise AssertionError("pre-subdivided graph still produced subdivisions")
    by_vertex = {p.vertex: p for p in pr2.punctures}
    acc: dict = {}
    for p1 in pr1.punctures:
        p2 = by_vertex.get(p1.vertex)
        if p2 is None:
            continue
        cross = np.cross(F1.components_at(p1.point), F2.components_at(p2.point))
        kappa2 = {(he.edge, he.direction): he.kappa for he in p2.half_edges}
        for he in p1.half_edges:
            kk = he.kappa * kappa2.get((he.edge, he.direction), 0)
            if kk == 0:
                continue
            away = _is_away(he.direction)
            _slot_action(
                fun.coefficients, [(he.edge, away)], _flux_columns(away, cross, 0.25j * kk), acc
            )
    return CylFun._trusted(fun.graph, acc)


# ---------------------------------------------------------------------------
# per-edge and per-vertex angular momentum


@dataclass(frozen=True)
class EdgeVertexOperator:
    """One angular-momentum component on a single edge slot at a vertex."""

    vertex: int
    edge: int
    axis: int
    direction: str
    matrix: np.ndarray


def edge_vertex_operator(
    graph: EmbeddedGraph, vertex: int, edge: int, spin, axis: int, direction=None
) -> EdgeVertexOperator:
    """Jhat_axis^{(v,e)} for the given incident edge carrying the given spin.

    ``direction`` is inferred from the graph ('away' if the edge starts at the
    vertex) and must be supplied explicitly for a loop edge.
    """
    if axis not in (1, 2, 3):
        raise ValueError("axis must be 1, 2 or 3")
    dirs = [d for (e, d) in half_edges_at(graph, vertex) if e == edge]
    if not dirs:
        raise ValueError(f"edge {edge} is not incident at vertex {vertex}")
    if direction is None:
        if len(dirs) > 1:
            raise ValueError("loop edge: specify direction='away' or 'toward'")
        direction = "away" if dirs[0] == "start" else "toward"
    tj = HalfInt.of(spin).twice
    mat = np.array(_slot_generators(tj, _is_away(direction))[axis - 1])
    return EdgeVertexOperator(vertex, edge, axis, direction, mat)


def _kron_embed(slot_mats: dict[int, np.ndarray], dims: Sequence[int]) -> np.ndarray:
    out = np.eye(1)
    for s, d in enumerate(dims):
        out = np.kron(out, slot_mats[s] if s in slot_mats else np.eye(d))
    return out


def vertex_generator(slots, axis: int) -> np.ndarray:
    """Jhat_v^axis = sum of half-edge generators on the joint slot space.

    ``slots`` is a sequence of (edge, direction, twice-spin) triples fixing
    both the slot order and the tensor factor dimensions.
    """
    dims = [tj + 1 for (_, _, tj) in slots]
    total = np.zeros((int(np.prod(dims)), int(np.prod(dims))), dtype=complex)
    for s, (_, d, tj) in enumerate(slots):
        total += _kron_embed({s: _slot_generators(tj, _is_away(d))[axis - 1]}, dims)
    return total


# ---------------------------------------------------------------------------
# area


@dataclass(frozen=True)
class AreaVertexOperator:
    """-Delta at one puncture: (J^(u) - J^(d))^2 on the non-tangent slots."""

    vertex: int
    up: tuple
    down: tuple
    slots: tuple  # (edge, direction, twice-spin) per non-tangent half-edge
    matrix: np.ndarray


def area_vertex_matrix(puncture: Puncture, spins) -> AreaVertexOperator:
    """Realize -Delta = (J^(u) - J^(d))^2 at a puncture.

    ``spins`` maps edge ids to spins (any mapping or sequence).  Tangent
    half-edges (kappa = 0) are excluded; if every half-edge is tangent the
    operator is the zero matrix on a trivial slot space.
    """
    slots = []
    signs = []
    for he in puncture.half_edges:
        if he.kappa == 0:
            continue
        tj = HalfInt.of(spins[he.edge]).twice
        slots.append((he.edge, he.direction, tj))
        signs.append(he.kappa)
    if not slots:
        return AreaVertexOperator(puncture.vertex, (), (), (), np.zeros((1, 1)))
    dims = [tj + 1 for (_, _, tj) in slots]
    size = int(np.prod(dims))
    mat = np.zeros((size, size), dtype=complex)
    for axis in range(3):
        comp = np.zeros_like(mat)
        for s, ((_, d, tj), kappa) in enumerate(zip(slots, signs)):
            comp += kappa * _kron_embed({s: _slot_generators(tj, _is_away(d))[axis]}, dims)
        mat += comp @ comp
    mat = (mat + mat.conj().T) / 2.0
    up = tuple((e, d) for (e, d, _), k in zip(slots, signs) if k > 0)
    down = tuple((e, d) for (e, d, _), k in zip(slots, signs) if k < 0)
    return AreaVertexOperator(puncture.vertex, up, down, tuple(slots), mat)


def _sqrt_psd(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def _coarse_parents(refinement) -> dict[int, int]:
    """Coarse parent edge of every fine edge of a refinement."""
    return {fe: ce for ce, chain in refinement.chains.items() for fe, _sign in chain}


def _fine_spins(pr, coarse_spins) -> list[HalfInt]:
    """Spin per fine edge, inherited from the coarse parent through the chains."""
    parent = _coarse_parents(pr.refinement)
    return [HalfInt.of(coarse_spins[parent[fe]]) for fe in range(len(pr.graph.edges))]


def _area_image(pr, coarse_spins):
    """Coefficient map of sum_p sqrt(-Delta_p) on the punctured graph; entries
    of sqrt(-Delta_p) of magnitude up to 1e-15 are dropped."""
    spins = _fine_spins(pr, coarse_spins)
    actions = []
    for p in pr.punctures:
        op = area_vertex_matrix(p, spins)
        if not op.slots:
            continue  # all half-edges tangent: zero contribution
        smat = _sqrt_psd(op.matrix)
        smat[np.abs(smat) <= 1e-15] = 0.0
        slots = [(e, _is_away(d)) for e, d, _ in op.slots]
        actions.append((slots, _fixed_spin_columns(op.slots, smat)))

    def image(coeffs):
        acc: dict = {}
        for slots, lookup in actions:
            _slot_action(coeffs, slots, lookup, acc)
        return acc

    return image


def _fixed_spin_columns(slots, mat):
    """Column lookup for a matrix built for the spins listed in ``slots``;
    other spins on those edges raise ``ValueError``."""
    table = _column_table(mat, [tj for _, _, tj in slots])

    def lookup(tjs):
        for (e, _, tj), t in zip(slots, tjs):
            if t != tj:
                raise ValueError(f"edge {e} carries spin {HalfInt(t)}, expected {HalfInt(tj)}")
        return table

    return lookup


def area_apply(surface: Surface, psi: SpinNetworkState) -> CylFun:
    """sum_p sqrt(-Delta_p) applied to a spin-network state.

    Each puncture operator is diagonalized, its eigenvalues replaced by their
    square roots, and the result applied to the label slots.  Values are in
    units of 4*pi*gamma*lP^2.  A state not meeting the surface maps to zero.
    """
    pr = punctures(psi.fun.graph, surface)
    fine = promote(psi.fun, pr.refinement)
    return CylFun._trusted(pr.graph, _area_image(pr, psi.spins)(fine.coefficients))


def area_matrix(surface: Surface, basis) -> np.ndarray:
    """Matrix of the area operator in an orthonormal basis of spin-network states.

    All states must share one graph and one spin assignment.  The matrix is
    checked to be Hermitian to HERMITICITY_TOL and returned exactly Hermitian.
    """
    funs = _state_funs(basis)
    spins = basis[0].spins
    if any(b.spins != spins for b in basis[1:]):
        raise ValueError("basis states must share one spin assignment")
    pr = punctures(funs[0].graph, surface)
    return _operator_matrix(funs, pr.refinement, _area_image(pr, spins))


def _area_eigenvalue(tu: int, td: int, tud: int) -> float:
    # 2 j_u(j_u+1) + 2 j_d(j_d+1) - j_ud(j_ud+1), in twice-spin arithmetic
    return (2 * tu * (tu + 2) + 2 * td * (td + 2) - tud * (tud + 2)) / 4.0


def area_spectrum(graph: EmbeddedGraph, surface: Surface, max_spin) -> Spectrum:
    """All area eigenvalues realizable with spins up to ``max_spin``.

    Per puncture the up family couples to j_u, the down family to j_d, and
    gauge invariance at the puncture vertex forces the pair (j_u, j_d) to
    couple against the tangent family to a singlet, restricting j_ud.  The
    puncture contributes sqrt(2 j_u(j_u+1) + 2 j_d(j_d+1) - j_ud(j_ud+1)) and
    punctures add.  Values are in units of 4*pi*gamma*lP^2; multiplicity
    counts the realizing (spin assignment, recoupling) choices.

    The enumeration is exhaustive over (2*max_spin + 1)^n_edges assignments,
    intended for small benchmark graphs.
    """
    tmax = HalfInt.of(max_spin).twice
    if tmax < 1:
        raise ValueError("max_spin must be at least 1/2")
    pr = punctures(graph, surface)
    if not pr.punctures:
        return Spectrum.from_samples([(0.0, 1, "no punctures")])
    parent = _coarse_parents(pr.refinement)
    families = []
    for p in pr.punctures:
        up = [parent[he.edge] for he in p.half_edges if he.kappa > 0]
        down = [parent[he.edge] for he in p.half_edges if he.kappa < 0]
        tang = [parent[he.edge] for he in p.half_edges if he.kappa == 0]
        families.append((p.vertex, up, down, tang))
    n_edges = len(graph.edges)
    samples = []
    for assign in itertools.product(range(tmax + 1), repeat=n_edges):
        spins = [HalfInt(t) for t in assign]
        prefix = " ".join(f"e{e}={j}" for e, j in enumerate(spins))
        options = []
        feasible = True
        for vid, up, down, tang in families:
            opts = []
            tang_set = {J.twice for J in total_spins([spins[e] for e in tang])}
            for tu in sorted(J.twice for J in total_spins([spins[e] for e in up])):
                for td in sorted(J.twice for J in total_spins([spins[e] for e in down])):
                    for tud in range(abs(tu - td), tu + td + 1, 2):
                        if tud not in tang_set:
                            continue
                        value = np.sqrt(max(_area_eigenvalue(tu, td, tud), 0.0))
                        opts.append(
                            (
                                value,
                                f"v{vid} ju={HalfInt(tu)} jd={HalfInt(td)}"
                                f" jud={HalfInt(tud)}",
                            )
                        )
            if not opts:
                feasible = False
                break
            options.append(opts)
        if not feasible:
            continue
        for combo in itertools.product(*options):
            total = sum(v for v, _ in combo)
            label = prefix + " | " + " | ".join(part for _, part in combo)
            samples.append((total, 1, label))
    return Spectrum.from_samples(samples)


# ---------------------------------------------------------------------------
# volume


@dataclass(frozen=True)
class VolumeVertexOperator:
    """qhat_v, either on the gauge-invariant intertwiner space or on all slots."""

    vertex: int
    edges: tuple  # (edge, direction, twice-spin) per positive-spin slot
    matrix: np.ndarray
    gauge_invariant: bool
    basis_labels: tuple = ()


def volume_vertex_matrix(
    graph: EmbeddedGraph,
    vertex: int,
    spins,
    gauge_invariant: bool = True,
    tangents=None,
) -> VolumeVertexOperator:
    """qhat_v = sum over ordered half-edge triples of eps(t1,t2,t3) eps_{ijk} J J J.

    Repeated half-edges drop out through the orientation sign, so the sum
    effectively runs over triples of distinct half-edges; for a vertex without
    loops this is the ordered-triple sum over distinct incident edges.  Spin-0
    edges are omitted.  With ``gauge_invariant`` the matrix is compressed onto
    the orthonormal dressed-intertwiner basis at the vertex (an empty basis
    yields a 0x0 matrix); otherwise the full slot-space matrix is returned.
    ``tangents`` optionally overrides outgoing tangent vectors per
    (edge, direction) pair.
    """
    slots = [
        (e, d)
        for (e, d) in half_edges_at(graph, vertex)
        if HalfInt.of(spins[e]).twice > 0
    ]
    if not slots:
        mat = np.zeros((1, 1))
        return VolumeVertexOperator(vertex, (), mat, gauge_invariant, ("trivial",))
    tjs = [HalfInt.of(spins[e]).twice for (e, _) in slots]
    tvecs = []
    for e, d in slots:
        if tangents is not None and (e, d) in tangents:
            tvecs.append(np.asarray(tangents[(e, d)], dtype=float))
        else:
            tvecs.append(outgoing_tangent(graph, e, d == "start"))
    dims = [tj + 1 for tj in tjs]
    size = int(np.prod(dims))
    gens = [_slot_generators(tj, d == "start") for tj, (_, d) in zip(tjs, slots)]
    mat = np.zeros((size, size), dtype=complex)
    for a, b, c in itertools.permutations(range(len(slots)), 3):
        eps = tangent_orientation(tvecs[a], tvecs[b], tvecs[c])
        if eps == 0:
            continue
        for i, j, k, sgn in _LEVI:
            mat += (eps * sgn) * _kron_embed(
                {a: gens[a][i], b: gens[b][j], c: gens[c][k]}, dims
            )
    mat = (mat + mat.conj().T) / 2.0
    edges = tuple((e, d, tj) for (e, d), tj in zip(slots, tjs))
    if not gauge_invariant:
        return VolumeVertexOperator(vertex, edges, mat, False)
    toward = [s for s, (_, d) in enumerate(slots) if d == "end"]
    dressed = _dressed_intertwiner_tensors([HalfInt(tj) for tj in tjs], toward)
    if not dressed:
        return VolumeVertexOperator(vertex, edges, np.zeros((0, 0)), True)
    basis = np.column_stack([t.reshape(-1) for _, t in dressed])
    comp = basis.conj().T @ mat @ basis
    comp = (comp + comp.conj().T) / 2.0
    labels = tuple("(" + " ".join(str(x) for x in tree) + ")" for tree, _ in dressed)
    return VolumeVertexOperator(vertex, edges, comp, True, labels)


def volume_spectrum(
    graph: EmbeddedGraph, region, max_spin, c: float = 1.0
) -> Spectrum:
    """Volume eigenvalues c * sum_v |q_v / 48|^(1/2) over the selected vertices.

    ``region`` is "all" or an iterable of vertex ids; gauge invariance is
    imposed at the selected vertices only, and spin assignments admitting no
    intertwiner at some selected vertex are skipped.  Eigenvalues |q| below
    1e-12 are clipped to zero before the square root.  Values are in units of
    (8*pi*gamma*lP^2)^(3/2); multiplicity counts realizing choices.  The
    enumeration is exhaustive, as in area_spectrum.
    """
    tmax = HalfInt.of(max_spin).twice
    if tmax < 1:
        raise ValueError("max_spin must be at least 1/2")
    if not c > 0:
        raise ValueError("the volume constant c must be positive")
    n_vertices = len(graph.vertices)
    if isinstance(region, str):
        if region != "all":
            raise ValueError("region must be 'all' or an iterable of vertex ids")
        verts = list(range(n_vertices))
    else:
        verts = sorted(set(int(v) for v in region))
        for v in verts:
            if not 0 <= v < n_vertices:
                raise ValueError(f"vertex {v} is not in the graph")
    n_edges = len(graph.edges)
    samples = []
    for assign in itertools.product(range(tmax + 1), repeat=n_edges):
        spins = [HalfInt(t) for t in assign]
        prefix = " ".join(f"e{e}={j}" for e, j in enumerate(spins))
        options = []
        feasible = True
        for v in verts:
            op = volume_vertex_matrix(graph, v, spins, gauge_invariant=True)
            if op.matrix.shape[0] == 0:
                feasible = False  # no intertwiner at a selected vertex
                break
            eigs = np.linalg.eigvalsh(op.matrix)
            buckets: dict[float, list] = {}
            for lam in eigs:
                mag = abs(float(lam))
                if mag < VOLUME_ZERO_CLIP:
                    mag = 0.0
                vol = c * np.sqrt(mag / 48.0)
                key = round(vol, 12)
                if key in buckets:
                    buckets[key][1] += 1
                else:
                    buckets[key] = [vol, 1]
            options.append(
                [(vol, cnt, f"v{v} vol={vol:.6g}") for vol, cnt in buckets.values()]
            )
        if not feasible:
            continue
        for combo in itertools.product(*options):
            total = sum(v for v, _, _ in combo)
            count = 1
            for _, cnt, _ in combo:
                count *= cnt
            label = prefix
            if combo:
                label += " | " + " | ".join(part for _, _, part in combo)
            samples.append((total, count, label))
    return Spectrum.from_samples(samples)


# ---------------------------------------------------------------------------
# spectra


@dataclass(frozen=True)
class SpectrumEntry:
    value: float
    multiplicity: int
    labels: str


@dataclass(frozen=True)
class Spectrum:
    """Discrete eigenvalue list: ascending values with counting multiplicity."""

    entries: tuple

    def __post_init__(self):
        vals = [e.value for e in self.entries]
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise ValueError("spectrum entries must be sorted ascending")
        if any(e.multiplicity < 1 for e in self.entries):
            raise ValueError("multiplicities must be at least 1")

    @staticmethod
    def from_samples(samples) -> "Spectrum":
        """Group (value, count, label) samples whose values lie within
        SPECTRUM_TOL of the smallest value in their group.

        Each group keeps the value and label of its first sample in sample
        order; a kept value within SPECTRUM_TOL of zero is reported by its
        magnitude, so -0.0 and negative rounding noise read as zero-like.
        """
        samples = [(float(v), count, label) for v, count, label in samples]
        groups: list[list] = []  # [smallest value, first sample index, total count]
        for i in sorted(range(len(samples)), key=lambda i: samples[i][0]):
            value, count, _ = samples[i]
            if groups and value - groups[-1][0] <= SPECTRUM_TOL:
                groups[-1][1] = min(groups[-1][1], i)
                groups[-1][2] += count
            else:
                groups.append([value, i, count])
        entries = []
        for _, first, count in groups:
            value, _, label = samples[first]
            if abs(value) <= SPECTRUM_TOL:
                value = abs(value)
            entries.append(SpectrumEntry(value, count, label))
        return Spectrum(tuple(sorted(entries, key=lambda e: e.value)))

    @property
    def values(self) -> tuple:
        return tuple(e.value for e in self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)
