"""Flux derivations and the area and volume operators.

The flux smeared over a surface acts on a cylindrical function as a sum of
angular-momentum insertions, one per half-edge meeting the surface at a
puncture, weighted by the transversality sign kappa and the smearing value
there:

    F[S, f] = (1/2) sum_p sum_h kappa(h) f^i(p) Jhat_i^{(h)} .

Per half-edge we use the Hermitian slot triples of ``su2``, i times the
invariant derivatives of ``invariant_generator``: an outgoing ("away")
half-edge acts on the column label n of its edge's D^j_{mn} with J_i (side
'left'), an incoming ("toward") one on the row label m with -J_i^T ('right').
Both satisfy [A_i, A_j] = i eps_{ijk} A_k, so the usual angular-momentum
recoupling applies verbatim and flux matrices are Hermitian.

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
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .cyl import CylFun, SpinNetworkState, graphs_equal, promote
from .cyl import _dressed_intertwiner_tensors
from .graphs import (
    EmbeddedGraph,
    Puncture,
    Surface,
    half_edges_at,
    outgoing_tangent,
    punctures,
    tangent_orientation,
)
from .su2 import HalfInt, LieVector, total_spins
from .su2 import _slot_generators

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
#: basis tensors per block of the volume operator's q B products
_VOLUME_BLOCK_COLUMNS = 64
#: edges per remembered chunk when a label key is decoded
_DECODE_CHUNK = 4
#: matrix rows per block of the operator matrices' Hermiticity check
_HERMITICITY_BLOCK_ROWS = 64


def _is_away(direction: str) -> bool:
    if direction not in ("away", "toward"):
        raise ValueError(f"unknown half-edge direction {direction!r}")
    return direction == "away"


class _LabelCodec:
    """One int per label tuple, for the length of one operator application.

    Edge e's label (2j, 2m, 2n) is the digit (2j K + (2j - 2m)/2) K +
    (2j - 2n)/2 at place R**e, with K = 1 + the largest 2j of the
    coefficient dicts the codec is made for and R = K**3; a trivial edge
    has digit 0.  Relabelling a slot then adds an int to the key: an away
    slot moves the n figure of its edge's digit, a toward slot the m figure.
    Decoding reads a key _DECODE_CHUNK edges at a time and remembers the
    labels of each chunk value, since the keys of one application share
    most of their digits.
    """

    def __init__(self, n_edges: int, coefficient_dicts):
        tmax = max(
            (lab[0] for coeffs in coefficient_dicts for labels in coeffs for lab in labels),
            default=0,
        )
        self.base = tmax + 1
        self.radix = self.base**3
        # per chunk of edges, from edge 0 up: (width, chunk value -> labels)
        self._chunks = [
            (min(_DECODE_CHUNK, n_edges - e), {}) for e in range(0, n_edges, _DECODE_CHUNK)
        ]

    def encode(self, coeffs: dict) -> dict:
        K, R = self.base, self.radix
        out = {}
        for labels, c in coeffs.items():
            key = 0
            for tj, tm, tn in reversed(labels):
                key = key * R + (tj * K + (tj - tm) // 2) * K + (tj - tn) // 2
            out[key] = c
        return out

    def decode(self, keyed: dict) -> dict:
        place = self.radix**_DECODE_CHUNK
        out = {}
        for key, c in keyed.items():
            labels = ()
            for width, known in self._chunks:
                key, value = divmod(key, place)
                part = known.get(value)
                if part is None:
                    part = known[value] = self._labels(value, width)
                labels += part
            out[labels] = c
        return out

    def _labels(self, value: int, width: int) -> tuple:
        K = self.base
        labels = []
        for _ in range(width):
            value, d = divmod(value, self.radix)
            tj, rest = divmod(d, K * K)
            a, b = divmod(rest, K)
            labels.append((tj, tj - 2 * a, tj - 2 * b))
        return tuple(labels)


class _SlotAction:
    """A matrix acting on label slots of int-keyed coefficient dicts.

    ``slots`` lists (edge, away) pairs: an away slot acts on the column label
    n of its edge's matrix element, a toward slot on the row label m.
    ``matrix_for(twice_spins)`` gives the matrix on the slot-major product of
    the slot spaces for those spins, or None where the action vanishes; it
    is called once per spin tuple.  Per int of slot digits the action keeps
    the (key delta, value) pairs of the matching nonzero column entries, so
    each is worked out once per operator application.
    """

    def __init__(self, codec: _LabelCodec, slots, matrix_for):
        self.codec = codec
        self.places = [codec.radix**e for e, _ in slots]
        self.aways = [away for _, away in slots]
        self.matrix_for = matrix_for
        self.matrices: dict = {}  # twice spins -> matrix
        self.columns: dict = {}  # slot digits -> [(key delta, value)]

    def apply(self, coeffs: dict, acc: dict) -> None:
        """Add to ``acc`` the image of ``coeffs``; the terms of one call are
        summed before they are added to ``acc``."""
        R, places, columns = self.codec.radix, self.places, self.columns
        out: dict = {}
        for key, coef in coeffs.items():
            digits = 0
            for p in places:
                digits = digits * R + key // p % R
            column = columns.get(digits)
            if column is None:
                column = columns[digits] = self._column(digits)
            for delta, v in column:
                k = key + delta
                out[k] = out.get(k, 0j) + coef * v
        for k, v in out.items():
            acc[k] = acc.get(k, 0j) + v

    def _column(self, digits: int) -> list:
        K, R = self.codec.base, self.codec.radix
        slots = []  # (twice spin, acted-on index, key step) per slot
        for p, away in zip(reversed(self.places), reversed(self.aways)):
            digits, d = divmod(digits, R)
            tj, rest = divmod(d, K * K)
            slots.append((tj, rest % K, p) if away else (tj, rest // K, p * K))
        slots.reverse()
        tjs = tuple(tj for tj, _, _ in slots)
        if tjs not in self.matrices:
            self.matrices[tjs] = self.matrix_for(tjs)
        mat = self.matrices[tjs]
        if mat is None:
            return []
        col = 0
        for tj, i, _ in slots:
            col = col * (tj + 1) + i
        column = []
        for r, v in enumerate(mat[:, col].tolist()):
            if v == 0:
                continue
            delta = 0
            for tj, i, step in reversed(slots):
                r, new = divmod(r, tj + 1)
                delta += (new - i) * step
            column.append((delta, v))
        return column


def _summed(actions):
    """Image function adding up the ``_SlotAction``s in order."""

    def image(coeffs: dict) -> dict:
        acc: dict = {}
        for action in actions:
            action.apply(coeffs, acc)
        return acc

    return image


def _applied(graph, coeffs: dict, image_for) -> CylFun:
    """One operator application: ``image_for(codec)`` on coefficients
    encoded once, decoded once."""
    codec = _LabelCodec(graph.n_edges, [coeffs])
    return CylFun._trusted(graph, codec.decode(image_for(codec)(codec.encode(coeffs))))


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


def _insertion(codec: _LabelCodec, edge: int, away: bool, f, scale) -> _SlotAction:
    """scale * (f . Jhat) on one half-edge slot for the smearing vector f;
    the action builds the matrix once per spin it meets."""

    def matrix_for(tjs):
        (tj,) = tjs
        if tj == 0:
            return None  # trivial representation: generators vanish
        a, b, c = _slot_generators(tj, away)
        return scale * (f[0] * a + f[1] * b + f[2] * c)

    return _SlotAction(codec, [(edge, away)], matrix_for)


def _flux_image(pr, F: FluxSpec, codec: _LabelCodec):
    """F on int-keyed coefficient dicts of ``codec`` on the punctured graph."""
    actions = []
    for p in pr.punctures:
        f = F.components_at(p.point)
        for he in p.half_edges:
            if he.kappa != 0:  # tangent half-edges do not contribute
                away = _is_away(he.direction)
                actions.append(_insertion(codec, he.edge, away, f, 0.5 * he.kappa))
    return _summed(actions)


def flux_apply(F: FluxSpec, psi: CylFun) -> CylFun:
    """Flux derivation applied to a cylindrical function.

    The graph is first subdivided so every intersection with the surface is a
    vertex; the result lives on that subdivided graph.  A graph disjoint from
    the surface maps to the zero function.
    """
    pr = punctures(psi.graph, F.surface)
    fine = promote(psi, pr.refinement)
    return _applied(pr.graph, fine.coefficients, lambda codec: _flux_image(pr, F, codec))


def _state_funs(basis) -> list[CylFun]:
    if not basis:
        raise ValueError("basis is empty")
    return [b.fun if isinstance(b, SpinNetworkState) else b for b in basis]


def _row_index(coefficient_dicts) -> dict:
    """label -> [(i, conjugated coefficient i)], in order of first appearance."""
    rows: dict = {}
    for i, coeffs in enumerate(coefficient_dicts):
        for lab, a in coeffs.items():
            rows.setdefault(lab, []).append((i, a.conjugate()))
    return rows


def _column(rows: dict, image: dict) -> dict:
    """i -> sum of conj(a_i[lab]) * image[lab] over the labels of ``image`` in order."""
    column: dict = {}
    for lab, b in image.items():
        for i, ca in rows.get(lab, ()):
            column[i] = column.get(i, 0j) + ca * b
    return column


def _operator_matrix(basis, surface: Surface, image) -> np.ndarray:
    """Matrix of a surface operator in an orthonormal basis of states or functions.

    ``image(pr, codec)`` gives the operator's image map on int-keyed
    coefficient dicts of the graph punctured by ``surface``, for whatever
    spins the labels carry.  The basis is promoted to the punctured graph
    and encoded once, and one index from label key to basis rows gives
    both the Gram matrix, checked to be the identity to ORTHONORMALITY_TOL
    (promotion is an isometry, so the verdict is that of ``gram`` up to
    rounding), and the matrix, one image column at a time.  The raw matrix
    is checked to be Hermitian to HERMITICITY_TOL and returned exactly
    Hermitian.
    """
    funs = _state_funs(basis)
    pr = punctures(funs[0].graph, surface)
    for f in funs[1:]:
        if not graphs_equal(f.graph, funs[0].graph):
            raise ValueError("basis states must share a common graph")
    proms = [promote(f, pr.refinement).coefficients for f in funs]
    codec = _LabelCodec(pr.graph.n_edges, proms)
    proms = [codec.encode(c) for c in proms]
    rows = _row_index(proms)
    dev = 0.0
    for c, coeffs in enumerate(proms):
        column = _column(rows, coeffs)
        dev = max(dev, abs(column.pop(c, 0j) - 1.0), *map(abs, column.values()))
    if dev > ORTHONORMALITY_TOL:
        raise ValueError(
            f"basis is not orthonormal: Gram matrix deviates from identity by {dev:.3e}"
        )
    image_map = image(pr, codec)
    n = len(funs)
    mat = np.zeros((n, n), dtype=complex)
    for j, coeffs in enumerate(proms):
        for i, v in _column(rows, image_map(coeffs)).items():
            mat[i, j] = v
    adjoint = mat.conj().T
    B = _HERMITICITY_BLOCK_ROWS  # rows at a time: no n x n difference is held
    dev = np.max([np.max(np.abs(mat[i : i + B] - adjoint[i : i + B])) for i in range(0, n, B)])
    if dev > HERMITICITY_TOL:
        raise ArithmeticError(f"operator matrix failed the Hermiticity check: {dev:.3e}")
    mat += adjoint  # made exactly Hermitian in place
    mat /= 2.0
    return mat


def flux_matrix(F: FluxSpec, basis) -> np.ndarray:
    """Matrix of the flux derivation in an orthonormal basis of states,
    checked to be Hermitian to HERMITICITY_TOL and returned exactly Hermitian."""
    return _operator_matrix(basis, F.surface, lambda pr, codec: _flux_image(pr, F, codec))


def _presubdivided(psi: CylFun, *specs: FluxSpec):
    """Promote psi onto the graph subdivided at the punctures of all surfaces."""
    fun = psi
    for F in specs:
        pr = punctures(fun.graph, F.surface)
        fun = promote(fun, pr.refinement)
    return fun


def _commutator_setup(F1: FluxSpec, F2: FluxSpec, psi: CylFun):
    """psi pre-subdivided at both surfaces, and the punctures of each surface
    on that graph, which must need no further subdivision."""
    fun = _presubdivided(psi, F1, F2)
    pr1 = punctures(fun.graph, F1.surface)
    pr2 = punctures(fun.graph, F2.surface)
    if not (pr1.refinement.is_identity() and pr2.refinement.is_identity()):
        raise AssertionError("pre-subdivided graph still produced subdivisions")
    return fun, pr1, pr2


def flux_commutator(F1: FluxSpec, F2: FluxSpec, psi: CylFun) -> CylFun:
    """[F1, F2] psi by double application.

    Both orders are evaluated on the graph pre-subdivided at both surfaces, so
    the two images live on the same graph and subtract directly.  The first
    image is pruned of |c| <= 1e-15 before the second application, as
    ``flux_apply`` does through its promotion.
    """
    fun, pr1, pr2 = _commutator_setup(F1, F2, psi)
    codec = _LabelCodec(fun.graph.n_edges, [fun.coefficients])
    keys = codec.encode(fun.coefficients)
    E1, E2 = _flux_image(pr1, F1, codec), _flux_image(pr2, F2, codec)

    def twice(Ea, Eb) -> dict:
        return Ea({k: c for k, c in Eb(keys).items() if abs(c) > 1e-15})

    diff = twice(E1, E2)  # minus twice(E2, E1), in the arithmetic of CylFun.__sub__
    for k, c in twice(E2, E1).items():
        diff[k] = diff.get(k, 0j) + complex(-1.0) * c
    return CylFun._trusted(fun.graph, codec.decode(diff))


def flux_commutator_closed_form(F1: FluxSpec, F2: FluxSpec, psi: CylFun) -> CylFun:
    """The commutator as a single vertex sum over common punctures.

    Since same-slot generators close as [A_i, A_j] = i eps_{ijk} A_k and
    distinct slots commute,

        [F1, F2] = (i/4) sum_p sum_h kappa1(h) kappa2(h) (f1 x f2).Jhat^{(h)},

    summed over punctures common to both surfaces.  Half-edges tangent to
    either surface drop out through the kappa product.
    """
    fun, pr1, pr2 = _commutator_setup(F1, F2, psi)
    by_vertex = {p.vertex: p for p in pr2.punctures}

    def image_for(codec):
        actions = []
        for p1 in pr1.punctures:
            p2 = by_vertex.get(p1.vertex)
            if p2 is None:
                continue
            f = np.cross(F1.components_at(p1.point), F2.components_at(p2.point))
            kappa2 = {(he.edge, he.direction): he.kappa for he in p2.half_edges}
            for he in p1.half_edges:
                kk = he.kappa * kappa2.get((he.edge, he.direction), 0)
                if kk != 0:
                    away = _is_away(he.direction)
                    actions.append(_insertion(codec, he.edge, away, f, 0.25j * kk))
        return _summed(actions)

    return _applied(fun.graph, fun.coefficients, image_for)


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
    vertex) and must be supplied explicitly for a loop edge; for any other
    edge an explicit ``direction`` must agree with the graph.
    """
    if axis not in (1, 2, 3):
        raise ValueError("axis must be 1, 2 or 3")
    dirs = [d for (e, d) in half_edges_at(graph, vertex) if e == edge]
    if not dirs:
        raise ValueError(f"edge {edge} is not incident at vertex {vertex}")
    if direction is None and len(dirs) > 1:
        raise ValueError("loop edge: specify direction='away' or 'toward'")
    inferred = "away" if dirs[0] == "start" else "toward"
    away = _is_away(inferred if direction is None else direction)
    if len(dirs) == 1 and away != (inferred == "away"):
        raise ValueError(f"edge {edge} points {inferred!r} at vertex {vertex}, not {direction!r}")
    mat = np.array(_slot_generators(HalfInt.of(spin).twice, away)[axis - 1])
    return EdgeVertexOperator(vertex, edge, axis, "away" if away else "toward", mat)


def _on_slot(mat: np.ndarray, stack: np.ndarray, slot: int) -> np.ndarray:
    """Apply ``mat`` to tensor axis ``slot`` of a C-contiguous basis stack.

    The contraction runs as one batched matmul on a (left, d, right) view,
    which needs no axis moves or copies, and returns a C-contiguous stack.
    """
    shape = stack.shape
    left = math.prod(shape[:slot])
    return np.matmul(mat, stack.reshape(left, shape[slot], -1)).reshape(shape)


def _slot_sum(stack: np.ndarray, terms) -> np.ndarray:
    """sum of w * mat on tensor axis ``slot`` of a basis stack, over the
    (slot, mat, w) ``terms``."""
    out = np.zeros_like(stack)
    for slot, mat, w in terms:
        out += w * _on_slot(mat, stack, slot)
    return out


def _identity_stack(dims) -> np.ndarray:
    """The identity on the slot space as a stack of basis tensors."""
    size = math.prod(dims)
    return np.eye(size, dtype=complex).reshape(tuple(dims) + (size,))


def vertex_generator(slots, axis: int) -> np.ndarray:
    """Jhat_v^axis = sum of half-edge generators on the joint slot space.

    ``slots`` is a sequence of (edge, direction, twice-spin) triples fixing
    both the slot order and the tensor factor dimensions.
    """
    if axis not in (1, 2, 3):
        raise ValueError("axis must be 1, 2 or 3")
    dims = [tj + 1 for (_, _, tj) in slots]
    gens = [_slot_generators(tj, _is_away(d))[axis - 1] for _, d, tj in slots]
    terms = [(s, g, 1.0) for s, g in enumerate(gens)]
    size = math.prod(dims)
    return _slot_sum(_identity_stack(dims), terms).reshape(size, size)


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
    transverse = [he for he in puncture.half_edges if he.kappa != 0]
    slots = [(he.edge, he.direction, HalfInt.of(spins[he.edge]).twice) for he in transverse]
    signs = [he.kappa for he in transverse]
    if not slots:
        return AreaVertexOperator(puncture.vertex, (), (), (), np.zeros((1, 1)))
    dims = [tj + 1 for (_, _, tj) in slots]
    size = math.prod(dims)
    identity = _identity_stack(dims)
    mat = np.zeros((size, size), dtype=complex)
    gens = [_slot_generators(tj, _is_away(d)) for _, d, tj in slots]
    for axis in range(3):
        terms = [(s, g[axis], kappa) for s, (g, kappa) in enumerate(zip(gens, signs))]
        # (sum_s kappa_s J^s_axis)^2, one slot application at a time
        mat += _slot_sum(_slot_sum(identity, terms), terms).reshape(size, size)
    mat = (mat + mat.conj().T) / 2.0
    up = tuple((e, d) for (e, d, _), k in zip(slots, signs) if k > 0)
    down = tuple((e, d) for (e, d, _), k in zip(slots, signs) if k < 0)
    return AreaVertexOperator(puncture.vertex, up, down, tuple(slots), mat)


def _sqrt_psd(mat: np.ndarray) -> np.ndarray:
    """Square root of a puncture's -Delta.  Its eigenvalues are 0 or at least
    (j_u - j_d)^2 + j_u + j_d >= 3/4, so ones below 1e-9 are the rounding
    noise of 0 and count as 0: a zero area reads 0, not about 1e-8."""
    w, v = np.linalg.eigh(mat)
    return (v * np.sqrt(np.where(w < 1e-9, 0.0, w))) @ v.conj().T


def _coarse_parents(refinement) -> dict[int, int]:
    """Coarse parent edge of every fine edge of a refinement."""
    return {fe: ce for ce, chain in refinement.chains.items() for fe, _sign in chain}


def _area_image(pr, codec: _LabelCodec):
    """sum_p sqrt(-Delta_p) on int-keyed coefficient dicts of ``codec`` on the
    punctured graph, built per puncture for each tuple of spins its labels
    carry; entries of sqrt(-Delta_p) of magnitude up to 1e-15 are dropped."""
    actions = []
    for p in pr.punctures:
        transverse = [he for he in p.half_edges if he.kappa != 0]
        if not transverse:
            continue  # all half-edges tangent: zero contribution

        def matrix_for(tjs, p=p, edges=tuple(he.edge for he in transverse)):
            smat = _sqrt_psd(area_vertex_matrix(p, dict(zip(edges, map(HalfInt, tjs)))).matrix)
            smat[np.abs(smat) <= 1e-15] = 0.0
            return smat

        slots = [(he.edge, _is_away(he.direction)) for he in transverse]
        actions.append(_SlotAction(codec, slots, matrix_for))
    return _summed(actions)


def area_apply(surface: Surface, psi: Union[SpinNetworkState, CylFun]) -> CylFun:
    """sum_p sqrt(-Delta_p) applied to a spin-network state or a function.

    Each puncture operator is built for the spins the labels carry,
    diagonalized, its eigenvalues replaced by their square roots, and the
    result applied to the label slots.  Values are in units of
    4*pi*gamma*lP^2.  A function not meeting the surface maps to zero.
    """
    (fun,) = _state_funs([psi])
    pr = punctures(fun.graph, surface)
    fine = promote(fun, pr.refinement)
    return _applied(pr.graph, fine.coefficients, lambda codec: _area_image(pr, codec))


def area_matrix(surface: Surface, basis) -> np.ndarray:
    """Matrix of the area operator in an orthonormal basis of spin-network
    states or functions on one graph, with any mix of spin assignments.

    The operator is diagonal in the edge spins, so states of different
    assignments meet in exact zero blocks.  The matrix is checked to be
    Hermitian to HERMITICITY_TOL and returned exactly Hermitian.
    """
    return _operator_matrix(basis, surface, _area_image)


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

    def options(spins, family):
        vid, up, down, tang = family
        tang_set = {J.twice for J in total_spins([spins[e] for e in tang])}
        opts = []
        for tu in sorted(J.twice for J in total_spins([spins[e] for e in up])):
            for td in sorted(J.twice for J in total_spins([spins[e] for e in down])):
                for tud in range(abs(tu - td), tu + td + 1, 2):
                    if tud not in tang_set:
                        continue
                    value = np.sqrt(max(_area_eigenvalue(tu, td, tud), 0.0))
                    label = f"v{vid} ju={HalfInt(tu)} jd={HalfInt(td)} jud={HalfInt(tud)}"
                    opts.append((value, label))
        return opts

    return _spectrum(len(graph.edges), tmax, families, options)


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


def _triple_sum(stack: np.ndarray, gens, tvecs) -> np.ndarray:
    """sum over slots a < b < c of eps(t_a, t_b, t_c) J^a . (J^b x J^c),
    applied to a basis stack one slot generator at a time."""
    q = np.zeros_like(stack)
    for c in range(2, len(gens)):
        jc = [_on_slot(g, stack, c) for g in gens[c]]
        for b in range(1, c):
            eps = [(a, tangent_orientation(tvecs[a], tvecs[b], tvecs[c])) for a in range(b)]
            eps = [(a, e) for a, e in eps if e != 0]
            if not eps:
                continue
            for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
                # (J^b x J^c)_i B = eps_{ijk} J^b_j J^c_k B
                cross = _on_slot(gens[b][j], jc[k], b)
                cross -= _on_slot(gens[b][k], jc[j], b)
                for a, e in eps:
                    (np.add if e > 0 else np.subtract)(q, _on_slot(gens[a][i], cross, a), out=q)
    return q


def volume_vertex_matrix(
    graph: EmbeddedGraph, vertex: int, spins, gauge_invariant: bool = True
) -> VolumeVertexOperator:
    """qhat_v = sum over ordered half-edge triples of eps(t1,t2,t3) eps_{ijk} J J J.

    Generators on distinct slots commute, so the six orderings of a triple
    give equal terms and the sum runs over unordered triples a < b < c
    times 6 eps(t_a, t_b, t_c).  Repeated half-edges drop out through the
    orientation sign; for a vertex without loops the triples are those of
    distinct incident edges.  Spin-0 edges are omitted.

    No generator is embedded in the slot space by Kronecker products: each
    is applied to its slot of a stack of basis tensors B, one tensor per
    basis vector, and the result is B^dagger (q B), made exactly Hermitian.
    With ``gauge_invariant`` B is the orthonormal dressed-intertwiner basis
    at the vertex (an empty basis yields a 0x0 matrix before any generator
    work); otherwise B is the identity on the slot space and the full
    slot-space matrix is returned.  q B is formed for at most
    _VOLUME_BLOCK_COLUMNS basis tensors at a time, which bounds the memory
    of the full slot-space matrix.
    """
    slots = [(e, d) for e, d in half_edges_at(graph, vertex) if HalfInt.of(spins[e]).twice > 0]
    if not slots:
        mat = np.zeros((1, 1))
        return VolumeVertexOperator(vertex, (), mat, gauge_invariant, ("trivial",))
    tjs = [HalfInt.of(spins[e]).twice for (e, _) in slots]
    edges = tuple((e, d, tj) for (e, d), tj in zip(slots, tjs))
    aways = [d == "start" for _, d in slots]
    labels = ()
    if gauge_invariant:
        toward = [s for s, away in enumerate(aways) if not away]
        dressed = _dressed_intertwiner_tensors([HalfInt(tj) for tj in tjs], toward)
        if not dressed:
            return VolumeVertexOperator(vertex, edges, np.zeros((0, 0)), True)
        stack = np.stack([t for _, t in dressed], axis=-1)
        labels = tuple("(" + " ".join(str(x) for x in tree) + ")" for tree, _ in dressed)
    else:
        stack = _identity_stack([tj + 1 for tj in tjs])
    tvecs = [outgoing_tangent(graph, e, away) for (e, _), away in zip(slots, aways)]
    gens = [_slot_generators(tj, away) for tj, away in zip(tjs, aways)]
    n = stack.shape[-1]
    adjoint = stack.reshape(-1, n).conj().T
    mat = np.empty((n, n), dtype=complex)
    for lo in range(0, n, _VOLUME_BLOCK_COLUMNS):
        hi = min(lo + _VOLUME_BLOCK_COLUMNS, n)
        q = _triple_sum(np.ascontiguousarray(stack[..., lo:hi]), gens, tvecs)
        mat[:, lo:hi] = adjoint @ q.reshape(-1, hi - lo)
    mat *= 6.0  # the six orderings of each triple, applied once
    mat += mat.conj().T  # made exactly Hermitian in place
    mat /= 2.0
    return VolumeVertexOperator(vertex, edges, mat, gauge_invariant, labels)


def volume_spectrum(
    graph: EmbeddedGraph, region, max_spin, c: float = 1.0
) -> Spectrum:
    """Volume eigenvalues c * sum_v |q_v / 48|^(1/2) over the selected vertices.

    ``region`` is "all" or an iterable of vertex ids; gauge invariance is
    imposed at the selected vertices only, and spin assignments admitting no
    intertwiner at some selected vertex are skipped.  Eigenvalues |q| below
    1e-12 are clipped to zero before the square root; a volume that overflows
    raises OverflowError.  Values are in units of
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

    def options(spins, v):
        # an empty intertwiner space gives no eigenvalue, so no option
        opts = []
        for lam in np.linalg.eigvalsh(volume_vertex_matrix(graph, v, spins).matrix):
            mag = abs(float(lam))
            if mag < VOLUME_ZERO_CLIP:
                mag = 0.0
            vol = float(c) * math.sqrt(mag / 48.0)  # Python floats: overflow gives inf, no warning
            if not math.isfinite(vol):
                raise OverflowError(f"the volume constant c = {c!r} makes a vertex volume overflow")
            opts.append((vol, f"v{v} vol={vol:.6g}"))
        return opts

    return _spectrum(len(graph.edges), tmax, verts, options)


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


def _spectrum(n_edges: int, tmax: int, vertices, options) -> Spectrum:
    """Enumerate every assignment of twice-spins 0..tmax to the edges.

    ``options(spins, vertex)`` lists the (value, label) choices at each of
    ``vertices``; an assignment where some vertex has none is skipped.  Each
    combination of one choice per vertex is a sample of the summed value,
    labelled by the assignment and the chosen labels.
    """
    samples = []
    for assign in itertools.product(range(tmax + 1), repeat=n_edges):
        spins = [HalfInt(t) for t in assign]
        per_vertex = []
        for v in vertices:
            opts = options(spins, v)
            if not opts:
                break
            per_vertex.append(opts)
        else:
            prefix = " ".join(f"e{e}={j}" for e, j in enumerate(spins))
            for combo in itertools.product(*per_vertex):
                total = sum(value for value, _ in combo)
                label = prefix + "".join(" | " + part for _, part in combo)
                samples.append((total, 1, label))
    return Spectrum.from_samples(samples)
