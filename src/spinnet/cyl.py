"""Cylindrical functions: graph-local wave functions of holonomies.

A cylindrical function depends on a connection only through the holonomies
along the edges of a fixed embedded graph.  Everything here lives in the
linear span of *normalized matrix-element monomials*: the monomial with
labels (j_e, m_e, n_e) per edge evaluates to

    prod_e  sqrt(2 j_e + 1) * D^{j_e}_{m_e n_e}(h_e),

with j_e = 0 meaning no dependence on that edge.  In this normalization
distinct monomials are orthonormal for the product Haar measure, so inner
products reduce to coefficient dots once both functions live on a common
graph.  Promotion to a refined graph re-expands each matrix element along the
chain of fine edges and is exactly norm-preserving.

Holonomies are h = P exp(-int A) and compose later-on-the-left: a path
running e1 then e2 has holonomy h(e2) @ h(e1).  Gauge transformations act by
h_e -> g(target) h_e g(source)^{-1}, so on cylindrical functions they act
only through the gauge values at the vertices.
"""

from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .graphs import (
    GEO_TOL,
    EmbeddedGraph,
    RefinementMap,
    common_refinement,
    half_edges_at,
    is_spurious,
)
from .su2 import (
    GroupElement,
    HalfInt,
    LieVector,
    TAU,
    clebsch_gordan,
    haar_quaternions,
    intertwiner_basis,
    magnetic_range,
    spin_flip_matrix,
    su2_exp,
    wigner,
)
from .su2 import _quaternion_entries, _wigner_entry_kernel

__all__ = [
    "Connection",
    "CylFun",
    "GaugeTransformation",
    "SpinNetworkState",
    "monomial",
    "holonomy",
    "gauge_transform_holonomy",
    "edge_holonomies",
    "evaluate",
    "wilson_loop",
    "transform_at_vertices",
    "promote",
    "inner_product",
    "gram",
    "mc_inner_product",
    "spin_network_basis",
    "states_for_spins",
    "graphs_equal",
]

TRIVIAL = (0, 0, 0)

Label = tuple[int, int, int]  # (2j, 2m, 2n) per edge
Labels = tuple[Label, ...]


# ---------------------------------------------------------------------------
# connections and holonomies


def _required_positional(fn) -> int:
    """Positional parameters of ``fn`` without a default (2 when its
    signature cannot be inspected)."""
    try:
        params = inspect.signature(fn).parameters.values()
    except (TypeError, ValueError):
        return 2
    return sum(
        p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD) and p.default is p.empty
        for p in params
    )


class Connection:
    """su(2)-valued connection one-form A.

    ``apply(x, u)`` evaluates the form at the point x on the direction u and
    returns the three tau components; it is linear in u.  Accepted
    constructors arguments:

    * a constant (3, 3) array C with C[i, a] the tau_i component on the
      spatial basis vector e_a (so apply(x, u) = C @ u);
    * a callable x -> C(x) returning such component arrays;
    * a callable (x, u) -> LieVector (or length-3 sequence).

    A callable is told apart by its required positional parameters: one
    makes it a component field, two make it an (x, u) form.  Parameters with
    defaults do not count, so ``lambda x, k=1.0: k * C`` is a component
    field.  A callable without an inspectable signature is taken as an
    (x, u) form.
    """

    __slots__ = ("_form", "_components", "_const")

    def __init__(self, form):
        self._form = None
        self._components = None
        self._const = None
        if callable(form):
            if _required_positional(form) >= 2:
                self._form = form
            else:
                self._components = form
        else:
            mat = np.array(form, dtype=float)
            if mat.shape != (3, 3):
                raise ValueError("constant connection must be a (3, 3) coefficient array")
            mat.flags.writeable = False
            self._const = mat

    @property
    def is_constant(self) -> bool:
        return self._const is not None

    def apply(self, x, u) -> np.ndarray:
        """Components of A(x)(u) in the tau basis."""
        x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
        if self._form is not None:
            out = self._form(x, u)
            if isinstance(out, LieVector):
                return out.components
            out = np.asarray(out, dtype=float)
            if out.shape != (3,):
                raise ValueError("connection form must return three tau components")
            return out
        return np.array(self._apply_at(x[None], u)[0])

    def _apply_at(self, points, u) -> np.ndarray:
        """A(x)(u) at every row x of ``points``, stacked to shape (m, 3)."""
        if self._const is not None:
            return np.broadcast_to(self._const @ u, (len(points), 3))
        if self._components is not None:
            try:
                mats = np.array([self._components(x) for x in points], dtype=float)
            except ValueError as err:  # ragged shapes across the nodes
                raise ValueError("connection component field must return a (3, 3) array") from err
            if mats.shape[1:] != (3, 3):
                raise ValueError("connection component field must return a (3, 3) array")
            return mats @ u
        return np.array([self.apply(x, u) for x in points])


_TAU_STACK = np.array(TAU)


class _GaugeTransformed(Connection):
    """A^g = g A g^{-1} - (dg) g^{-1}, evaluated as one stack per pass.

    dg along u is the central difference (g(x + eps u^) - g(x - eps u^)) |u| / (2 eps),
    with the step eps captured when the transform was made.  Each node goes
    through the arithmetic of the per-node reference form in tests/test_cyl.py,
    so a stack equals the per-node results bit for bit.
    """

    __slots__ = ("_gauge", "_inner", "_eps")

    def __init__(self, gauge: "GaugeTransformation", inner: Connection, eps: float):
        self._form = self._components = self._const = None
        self._gauge, self._inner, self._eps = gauge, inner, eps

    def _apply_at(self, points, u) -> np.ndarray:
        norm_u = np.linalg.norm(u)
        if norm_u == 0.0:
            return np.zeros((len(points), 3))
        step = self._eps * (u / norm_u)
        g, g_up, g_down = (
            np.array([self._gauge(x).matrix for x in pts])
            for pts in (points, points + step, points - step)
        )
        ginv = np.conjugate(np.swapaxes(g, 1, 2))
        a = self._inner._apply_at(points, u)[:, :, None, None]
        amat = a[:, 0] * TAU[0] + a[:, 1] * TAU[1] + a[:, 2] * TAU[2]
        dg = (g_up - g_down) / (2 * self._eps)
        m = g @ amat @ ginv - (dg * norm_u) @ ginv
        m = 0.5 * (m - np.conjugate(np.swapaxes(m, 1, 2)))
        m -= (0.5 * (m[:, 0, 0] + m[:, 1, 1]))[:, None, None] * np.eye(2)
        # component extraction via tr(tau_i tau_j) = -delta_ij / 2
        mt = m[:, None] @ _TAU_STACK
        return -2.0 * (mt[..., 0, 0].real + mt[..., 1, 1].real)


# 2-point Gauss-Legendre nodes on [0, 1] and the commutator weight of the
# fourth-order Magnus step
_GAUSS_NODES = 0.5 + np.array([-1.0, 1.0]) * (math.sqrt(3.0) / 6.0)
_MAGNUS_WEIGHT = math.sqrt(3.0) / 12.0


def _holonomy_steps(connection: Connection, poly: np.ndarray, n: int) -> np.ndarray:
    """Ordered product of n fourth-order Magnus steps on every segment.

    With v1, v2 = A(x)(dx) at the two Gauss nodes of a step, the step is
    exp(-(v1 + v2)/2 + (sqrt(3)/12) v2 x v1): the sign of B = -A cancels in
    the commutator [v2.tau, v1.tau] = (v2 x v1).tau.
    """
    t = ((np.arange(n)[:, None] + _GAUSS_NODES) / n).ravel()
    mat = np.eye(2, dtype=complex)
    for a, b in zip(poly[:-1], poly[1:]):
        v = connection._apply_at(a + np.outer(t, b - a), (b - a) / n).reshape(n, 2, 3)
        v1, v2 = v[:, 0], v[:, 1]
        for step in su2_exp(-0.5 * (v1 + v2) + _MAGNUS_WEIGHT * np.cross(v2, v1)):
            mat = step @ mat
    if not np.isfinite(mat).all():
        raise ValueError(
            f"holonomy is not finite at {n} steps per segment; "
            "the connection is NaN or infinite on the path"
        )
    return mat


def holonomy(
    connection: Connection, polyline, tol: float = 1e-10, max_steps: int = 2**14
) -> GroupElement:
    """Path-ordered exponential P exp(-int A) along a polyline.

    Each segment is integrated with n fourth-order Magnus steps (2-point
    Gauss-Legendre), each of which is exactly in SU(2).  n starts at 1 and
    doubles until two successive passes agree entrywise within ``tol``; a
    constant connection on one segment is integrated exactly by the first
    pass and returned at once.  ``max_steps`` caps n per segment: past it a
    ``RuntimeError`` reports the last residual.  A pass that is not finite
    raises ``ValueError`` at once.
    """
    poly = np.asarray(polyline, dtype=float)
    n = 1
    prev = _holonomy_steps(connection, poly, n)
    if connection.is_constant and len(poly) == 2:
        return GroupElement(prev)
    residual = math.inf
    while 2 * n <= max_steps:
        n *= 2
        cur = _holonomy_steps(connection, poly, n)
        residual = float(np.max(np.abs(cur - prev)))
        if residual < tol:
            return GroupElement(cur)
        prev = cur
    raise RuntimeError(
        f"holonomy did not converge within max_steps={max_steps} steps per segment: "
        f"residual {residual:.3e} at {n} steps, tol {tol:.1e}"
    )


def gauge_transform_holonomy(
    h: GroupElement, g_p: GroupElement, g_q: GroupElement
) -> GroupElement:
    """Transformed holonomy g(q) h g(p)^{-1} for a path from p to q."""
    return GroupElement(g_q.matrix @ h.matrix @ g_p.inverse().matrix)


class GaugeTransformation:
    """Pointwise SU(2) gauge field x -> g(x).

    ``transform_connection`` produces A' = g A g^{-1} - (dg) g^{-1} with the
    derivative taken by a central finite difference, which is what makes the
    holonomy covariance h[A'] = g(q) h[A] g(p)^{-1} checkable numerically.
    The difference step ``fd_step`` must be nonzero and finite (its sign does
    not matter); a transformed connection keeps the step it was made with.
    """

    __slots__ = ("_field", "_fd_step")

    def __init__(self, field: Callable[[np.ndarray], GroupElement], fd_step: float = 1e-6):
        self._field = field
        self.fd_step = fd_step

    @property
    def fd_step(self) -> float:
        return self._fd_step

    @fd_step.setter
    def fd_step(self, value: float) -> None:
        step = float(value)
        if step == 0.0 or not math.isfinite(step):
            raise ValueError(f"fd_step must be nonzero and finite, got {value!r}")
        self._fd_step = step

    def __call__(self, x) -> GroupElement:
        g = self._field(np.asarray(x, dtype=float))
        return g if isinstance(g, GroupElement) else GroupElement(np.asarray(g, dtype=complex))

    def vertex_elements(self, graph: EmbeddedGraph) -> tuple[GroupElement, ...]:
        return tuple(self(p) for p in graph.vertices)

    def transform_connection(self, connection: Connection) -> Connection:
        return _GaugeTransformed(self, connection, self.fd_step)


def edge_holonomies(connection: Connection, graph: EmbeddedGraph) -> tuple[GroupElement, ...]:
    return tuple(holonomy(connection, e.polyline) for e in graph.edges)


# ---------------------------------------------------------------------------
# cylindrical functions


@lru_cache(maxsize=None)
def _check_label(lab) -> Label:
    """Canonical form of one public edge label, remembered per label value;
    an invalid label raises on every call, since exceptions are not cached."""
    tj, tm, tn = twice = tuple(int(x) for x in lab)
    if twice != tuple(lab):
        raise ValueError(f"bad edge label {lab}: entries must be integral twice-values")
    if tj < 0 or (tj - tm) % 2 or (tj - tn) % 2 or abs(tm) > tj or abs(tn) > tj:
        raise ValueError(f"bad edge label {lab}: need |m|, |n| <= j with matching parity")
    if tj == 0:
        return TRIVIAL
    return (tj, tm, tn)


@dataclass
class CylFun:
    """Linear combination of normalized matrix-element monomials on a graph.

    ``coefficients`` maps a per-edge label tuple ((2j, 2m, 2n), ...) to a
    complex amplitude.  The label (0, 0, 0) marks no dependence on that edge.
    """

    graph: EmbeddedGraph
    coefficients: dict[Labels, complex]

    def __post_init__(self):
        ne = self.graph.n_edges
        clean: dict[Labels, complex] = {}
        for labels, coeff in self.coefficients.items():
            if len(labels) != ne:
                raise ValueError("label tuple length must equal the edge count")
            key = tuple(map(_check_label, labels))
            clean[key] = clean.get(key, 0j) + complex(coeff)
        self.coefficients = clean

    @classmethod
    def _trusted(cls, graph: EmbeddedGraph, coefficients: dict[Labels, complex]) -> "CylFun":
        """Wrap a dict of canonical labels and complex values built inside the
        package, skipping the label checks of the public constructor."""
        fun = cls.__new__(cls)
        fun.graph = graph
        fun.coefficients = coefficients
        return fun

    @property
    def n_terms(self) -> int:
        return len(self.coefficients)

    def norm(self) -> float:
        return math.sqrt(sum(abs(c) ** 2 for c in self.coefficients.values()))

    def prune(self, eps: float = 1e-15) -> "CylFun":
        return CylFun._trusted(
            self.graph, {l: c for l, c in self.coefficients.items() if abs(c) > eps}
        )

    def __add__(self, other: "CylFun") -> "CylFun":
        if not graphs_equal(self.graph, other.graph):
            raise ValueError("can only add functions on the same graph")
        out = dict(self.coefficients)
        for l, c in other.coefficients.items():
            out[l] = out.get(l, 0j) + c
        return CylFun._trusted(self.graph, out)

    def __sub__(self, other: "CylFun") -> "CylFun":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "CylFun":
        s = complex(scalar)
        return CylFun._trusted(self.graph, {l: s * c for l, c in self.coefficients.items()})


def monomial(graph: EmbeddedGraph, labels) -> CylFun:
    """Single basis monomial; labels are per-edge (j, m, n) half-integers."""
    key = tuple(
        (HalfInt.of(j).twice, HalfInt.of(m).twice, HalfInt.of(n).twice) for j, m, n in labels
    )
    return CylFun(graph, {key: 1.0 + 0j})


def graphs_equal(a: EmbeddedGraph, b: EmbeddedGraph) -> bool:
    """Exact structural equality (same vertices, edges, and polylines)."""
    if a is b:
        return True
    if a.n_vertices != b.n_vertices or a.n_edges != b.n_edges:
        return False
    if not np.array_equal(a.vertices, b.vertices):
        return False
    return all(
        ea.start == eb.start
        and ea.end == eb.end
        and np.array_equal(ea.polyline, eb.polyline)
        for ea, eb in zip(a.edges, b.edges)
    )


# ---------------------------------------------------------------------------
# evaluation


def _as_matrices(assignment) -> list[np.ndarray]:
    mats = []
    for g in assignment:
        mats.append(g.matrix if isinstance(g, GroupElement) else np.asarray(g, dtype=complex))
    return mats


def evaluate(fun: CylFun, assignment) -> complex:
    """Value of the function on an edge assignment of group elements, or on a
    ``Connection`` (whose edge holonomies are computed first)."""
    if isinstance(assignment, Connection):
        assignment = edge_holonomies(assignment, fun.graph)
    mats = _as_matrices(assignment)
    if len(mats) != fun.graph.n_edges:
        raise ValueError("assignment length must equal the edge count")
    wig: dict[tuple[int, int], np.ndarray] = {}
    total = 0j
    for labels, coeff in fun.coefficients.items():
        term = complex(coeff)
        for e, (tj, tm, tn) in enumerate(labels):
            if tj == 0:
                continue
            key = (e, tj)
            W = wig.get(key)
            if W is None:
                W = wigner(HalfInt(tj), GroupElement(mats[e])).entries
                wig[key] = W
            term *= math.sqrt(tj + 1) * W[(tj - tm) // 2, (tj - tn) // 2]
        total += term
    return total


def _evaluate_batch(fun: CylFun, entries: Sequence[tuple[np.ndarray, ...]], n: int) -> np.ndarray:
    """Vectorized evaluation on n edge assignments; entries[e] holds the four
    entry arrays (a, b, c, d), each of length n, of edge e's matrices
    [[a, b], [c, d]]."""
    vals = np.zeros(n, dtype=complex)
    term = np.empty(n, dtype=complex)
    cache: dict[tuple[int, int, int, int], np.ndarray] = {}
    for labels, coeff in fun.coefficients.items():
        term.fill(complex(coeff))
        for e, (tj, tm, tn) in enumerate(labels):
            if tj == 0:
                continue
            key = (e, tj, tm, tn)
            ent = cache.get(key)
            if ent is None:
                ent = _wigner_entry_kernel(tj, tm, tn, *entries[e])
                ent *= math.sqrt(tj + 1)
                cache[key] = ent
            term *= ent
        vals += term
    return vals


def transform_at_vertices(
    graph: EmbeddedGraph, assignment, gauge
) -> tuple[GroupElement, ...]:
    """Gauge transformation on an edge assignment: h_e -> g_t(e) h_e g_s(e)^{-1}.

    ``gauge`` is either one group element per vertex or a pointwise
    ``GaugeTransformation`` (only its values at the vertices matter).
    """
    mats = _as_matrices(assignment)
    if isinstance(gauge, GaugeTransformation):
        gauge = gauge.vertex_elements(graph)
    vmats = _as_matrices(gauge)
    if len(vmats) != graph.n_vertices:
        raise ValueError("need one group element per vertex")
    out = []
    for e, h in zip(graph.edges, mats):
        gt = vmats[e.end]
        gs = vmats[e.start]
        out.append(GroupElement(gt @ h @ np.conjugate(gs.T)))
    return tuple(out)


def wilson_loop(j, polyline, connection: Connection) -> complex:
    """Trace of the loop holonomy in the spin-j representation.

    The polyline must close (first point equals last point).
    """
    poly = np.asarray(polyline, dtype=float)
    if np.linalg.norm(poly[0] - poly[-1]) > GEO_TOL:
        raise ValueError("Wilson loops require a closed polyline")
    return wigner(HalfInt.of(j), holonomy(connection, poly)).trace()


# ---------------------------------------------------------------------------
# promotion and inner products


def _chain_expansion(chain, tj: int, tm: int, tn: int) -> list:
    """Terms of D^j_{mn} along one chain of fine edges: (scale * sign,
    [(fine id, fine label), ...]) per run of intermediate magnetic labels."""
    L = len(chain)
    scale = (tj + 1) ** (0.5 * (1 - L))
    expanded = []
    for mid in itertools.product(range(-tj, tj + 1, 2), repeat=L - 1):
        seq = (tn,) + mid + (tm,)
        sign = 1.0
        assign = []
        for k, (fid, s) in enumerate(chain):
            lo, hi = seq[k], seq[k + 1]  # this factor is D_{hi, lo}
            if s == 1:
                assign.append((fid, (tj, hi, lo)))
            else:
                sign *= (-1.0) ** ((lo - hi) // 2)
                assign.append((fid, (tj, -lo, -hi)))
        expanded.append((scale * sign, assign))
    return expanded


def promote(fun: CylFun, refinement: RefinementMap) -> CylFun:
    """Re-express a function on the refined graph.

    Each matrix element along a coarse edge is expanded over its fine chain,
    D(h_L ... h_1)_{mn} = sum D(h_L)_{m a} ... D(h_1)_{b n}, with reversed
    chain entries rewritten through D(h^{-1})_{rc} = (-1)^{c-r} D(h)_{-c,-r}.
    The coefficient rescaling (2j+1)^{(1-L)/2} keeps the normalized-monomial
    coefficients, and hence all inner products, exactly intact.  Each
    (coarse edge, label) pair is expanded once per call.
    """
    if refinement.is_identity():  # expanding would only add each coefficient to 0j
        coeffs = {l: 0j + c for l, c in fun.coefficients.items() if abs(c) > 1e-15}
        return CylFun._trusted(refinement.fine, coeffs)
    fids = [fid for chain in refinement.chains.values() for fid, _ in chain]
    if len(set(fids)) != len(fids):
        raise ValueError("refinement chains overlap on a fine edge")
    n_fine = refinement.fine.n_edges
    table: dict[tuple[int, Label], list] = {}
    out: dict[Labels, complex] = {}
    for labels, coeff in fun.coefficients.items():
        entries = []
        for ce, lab in enumerate(labels):
            if lab[0] == 0:
                continue
            expanded = table.get((ce, lab))
            if expanded is None:
                expanded = table[ce, lab] = _chain_expansion(refinement.chains[ce], *lab)
            entries.append(expanded)
        for combo in itertools.product(*entries):
            c = complex(coeff)
            fine = [TRIVIAL] * n_fine
            for factor, assign in combo:
                c = c * factor
                for fid, flab in assign:
                    fine[fid] = flab
            key = tuple(fine)
            out[key] = out.get(key, 0j) + c
    return CylFun._trusted(refinement.fine, out).prune()


def _dot(c1: dict[Labels, complex], c2: dict[Labels, complex]) -> complex:
    if len(c2) < len(c1):
        return complex(np.conjugate(_dot(c2, c1)))
    total = 0j
    for lab, a in c1.items():
        b = c2.get(lab)
        if b is not None:
            total += np.conjugate(a) * b
    return total


def inner_product(f1: CylFun, f2: CylFun) -> complex:
    """Haar inner product <f1, f2>, antilinear in the first argument.

    Functions on different graphs are promoted to the common refinement
    first; orthonormality of the monomial basis does the rest.
    """
    if graphs_equal(f1.graph, f2.graph):
        return _dot(f1.coefficients, f2.coefficients)
    _, m1, m2 = common_refinement(f1.graph, f2.graph)
    return _dot(promote(f1, m1).coefficients, promote(f2, m2).coefficients)


def gram(funs: Sequence[CylFun], sparse: bool = False):
    """Gram matrix of a family of functions on one shared graph.

    Returns a dense array by default; with ``sparse=True`` a CSR matrix, which
    is the right choice for large nearly-orthogonal families.
    """
    funs = list(funs)
    for f in funs[1:]:
        if not graphs_equal(f.graph, funs[0].graph):
            raise ValueError("gram requires all functions on the same graph")
    index: dict[Labels, int] = {}
    rows, cols, vals = [], [], []
    for i, f in enumerate(funs):
        for lab, c in f.coefficients.items():
            k = index.setdefault(lab, len(index))
            rows.append(i)
            cols.append(k)
            vals.append(c)
    import scipy.sparse  # deferred: only this function needs it, and it is slow to import

    C = scipy.sparse.csr_matrix(
        (vals, (rows, cols)), shape=(len(funs), max(len(index), 1)), dtype=complex
    )
    G = C.conjugate() @ C.T
    return G if sparse else np.asarray(G.todense())


#: Haar samples drawn per edge at a time; it fixes the order of the random stream
_MC_CHUNK = 250_000


def mc_inner_product(
    f1: CylFun,
    f2: CylFun,
    samples: int,
    seed: Optional[int] = None,
) -> tuple[complex, float]:
    """Monte Carlo check of the Haar inner product.

    Draws i.i.d. Haar tuples, averages conj(f1) * f2, and returns the
    estimate with the standard error of the mean.  ``samples`` must be at
    least 1.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if not graphs_equal(f1.graph, f2.graph):
        _, m1, m2 = common_refinement(f1.graph, f2.graph)
        f1 = promote(f1, m1)
        f2 = promote(f2, m2)
    rng = np.random.default_rng(seed)
    n_edges = f1.graph.n_edges
    total = 0j
    total_sq = 0.0
    done = 0
    while done < samples:
        n = min(_MC_CHUNK, samples - done)
        entries = [_quaternion_entries(haar_quaternions(rng, n)) for _ in range(n_edges)]
        v1 = _evaluate_batch(f1, entries, n)
        v2 = _evaluate_batch(f2, entries, n)
        z = np.conjugate(v1) * v2
        total += complex(z.sum())
        total_sq += float(np.sum(np.abs(z) ** 2))
        done += n
    mean = total / samples
    var = max(total_sq / samples - abs(mean) ** 2, 0.0)
    return mean, math.sqrt(var / samples)


# ---------------------------------------------------------------------------
# spin-network states


@dataclass(frozen=True)
class SpinNetworkState:
    """One member of a spin-network basis: edge spins plus a vertex label
    (coupling-tree intermediates, free magnetic labels, or a recoupled (J, M)
    pair at a straight-through vertex)."""

    fun: CylFun
    spins: tuple[HalfInt, ...]
    vertex_labels: tuple
    gauge_invariant: bool


def _dress(T: np.ndarray, spins_at, toward_axes) -> np.ndarray:
    """Apply the spin-flip matrix on every incoming-edge slot of a tensor."""
    for ax in toward_axes:
        E = spin_flip_matrix(spins_at[ax])
        T = np.moveaxis(np.tensordot(E, T, axes=(1, ax)), 0, ax)
    return T


def _dressed_intertwiner_tensors(spins_at, toward_axes):
    """Orthonormal gauge-invariant vertex tensors: intertwiners with the
    spin-flip dressing applied on every incoming-edge slot."""
    basis = intertwiner_basis(spins_at)
    dims = tuple(j.twice + 1 for j in spins_at)
    return [
        (tree, _dress(vec.reshape(dims).astype(complex), spins_at, toward_axes))
        for tree, vec in zip(basis.trees, basis.vectors.T)
    ]


def _recoupled_tensors(j: HalfInt, toward_axes):
    """Non-invariant recoupled tensors at a straight-through vertex: total
    spin J >= 1 combinations of the two slots, dressed like the invariant
    case so that J = 0 would be exactly the coarse-graph contraction."""
    dims = (j.twice + 1, j.twice + 1)
    out = []
    for block in clebsch_gordan(j, j):
        if block.j.twice == 0:
            continue
        for col, M in enumerate(magnetic_range(block.j)):
            T = block.matrix[:, col].reshape(dims).astype(complex)
            out.append((("recoupled", block.j, M), _dress(T, (j, j), toward_axes)))
    return out


def spin_network_basis(
    graph: EmbeddedGraph, max_spin, gauge_invariant: bool = True
) -> list[SpinNetworkState]:
    """All spin-network states with every edge spin in (0, max_spin].

    Enumerates spin assignments edge by edge and delegates to
    ``states_for_spins``; states are grouped by assignment in lexicographic
    order of the twice-spin tuples.
    """
    tmax = HalfInt.of(max_spin).twice
    if tmax < 1:
        raise ValueError("max_spin must be at least 1/2")
    out: list[SpinNetworkState] = []
    for twice in itertools.product(range(1, tmax + 1), repeat=graph.n_edges):
        out.extend(states_for_spins(graph, [HalfInt(t) for t in twice], gauge_invariant))
    return out


def _tensor_entries(tensor: np.ndarray, keys, spins_at) -> list:
    """The (coefficient, {(edge, 'm'|'n'): 2m}) entries of a vertex tensor
    with |value| >= 1e-14, in ``np.ndenumerate`` order; index k on a slot of
    spin j is 2m = 2j - 2k."""
    tjs = [j.twice for j in spins_at]
    return [
        (complex(val), {key: tj - 2 * k for key, tj, k in zip(keys, tjs, idx)})
        for idx, val in np.ndenumerate(tensor)
        if abs(val) >= 1e-14
    ]


def _vertex_options(graph: EmbeddedGraph, spins, gauge_invariant: bool) -> list:
    """Each occupied vertex's (vertex label, entries) options in id order; an
    empty list at any vertex leaves the (validated) spins without a state."""
    options = []
    for v in range(graph.n_vertices):
        slots = half_edges_at(graph, v)
        if not slots:
            continue
        spins_at = tuple(spins[e] for e, _ in slots)
        keys = [(e, "n" if end == "start" else "m") for e, end in slots]
        toward_axes = [i for i, (_, end) in enumerate(slots) if end == "end"]
        spurious = is_spurious(graph, v)
        if gauge_invariant:
            tensors = [] if spurious else _dressed_intertwiner_tensors(spins_at, toward_axes)
        elif spurious and spins_at[0] == spins_at[1]:
            tensors = _recoupled_tensors(spins_at[0], toward_axes)
        else:
            free = itertools.product(*(magnetic_range(j) for j in spins_at))
            options.append(
                [(ms, [(1 + 0j, {k: m.twice for k, m in zip(keys, ms)})]) for ms in free]
            )
            continue
        options.append([(label, _tensor_entries(T, keys, spins_at)) for label, T in tensors])
    return options


def _state_from_options(graph, spins, combo, gauge_invariant) -> SpinNetworkState:
    """The state of one (vertex label, entries) option per occupied vertex."""
    partial: list[tuple[complex, dict]] = [(1.0 + 0j, {})]
    for _, entries in combo:
        partial = [(c0 * c1, {**d0, **d1}) for c0, d0 in partial for c1, d1 in entries]
    coeffs = {  # the products carry distinct labels, so none merge
        tuple((j.twice, d[e, "m"], d[e, "n"]) for e, j in enumerate(spins)): 0j + c
        for c, d in partial
    }
    fun = CylFun._trusted(graph, coeffs).prune()
    return SpinNetworkState(fun, tuple(spins), tuple(lab for lab, _ in combo), gauge_invariant)


def states_for_spins(
    graph: EmbeddedGraph, spins, gauge_invariant: bool = True
) -> list[SpinNetworkState]:
    """Orthonormal spin-network states for fixed positive edge spins.

    Gauge-invariant mode attaches an intertwiner to every vertex and returns
    nothing when the graph has a straight-through (spurious) vertex, since
    such states already live on the coarser graph.  In the extended mode the
    magnetic indices at ordinary vertices are free, while the index pair at a
    spurious vertex is recoupled to total spin J with J = 0 excluded, again
    to avoid double-counting coarser graphs.

    States run row-major over the occupied vertices in id order.  A vertex's
    slots are its half-edges in ``half_edges_at`` order; its options are the
    coupling trees of ``intertwiner_basis`` over those slots, free magnetic
    labels (m descending, row-major over the slots), or recoupled (J, M)
    pairs (J ascending, M descending).
    """
    spins = tuple(HalfInt.of(j) for j in spins)
    if len(spins) != graph.n_edges:
        raise ValueError("need one spin per edge")
    if any(j.twice <= 0 for j in spins):
        raise ValueError("spins must be positive; remove zero-spin edges from the graph")
    return [
        _state_from_options(graph, spins, combo, gauge_invariant)
        for combo in itertools.product(*_vertex_options(graph, spins, gauge_invariant))
    ]
