"""SU(2) representation machinery: group elements, Wigner matrices, invariant
derivative generators, Clebsch-Gordan coupling, intertwiners and Haar sampling.

Spin and magnetic labels are exact half-integers (stored as twice-values);
floating point enters only through matrix entries.  Conventions used
throughout the package:

* tau_i = sigma_i/(2i), so [tau_i, tau_j] = eps_{ijk} tau_k and
  exp(2 pi tau_3) = -identity.
* Representation matrices come from the degree-2j polynomial model of the
  symmetrized tensor power of the fundamental.  Basis vectors are ordered by
  descending magnetic number m = j, j-1, ..., -j; for j = 1/2 the Wigner
  matrix is the group element itself and exp(theta tau_3) maps to
  diag(exp(-i m theta)).
* The left realization L_i of the invariant derivative acts on the column
  index of D^j_{mn}, the right realization R_i on the row index; both
  families satisfy [X_i, X_j] = eps_{ijk} X_k and commute with each other.
  They are anti-Hermitian; contraction with the (negative-definite) invariant
  metric gives the Casimir -sum_i X_i^2 = j(j+1).
* Clebsch-Gordan coefficients follow the Condon-Shortley phase convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "HalfInt",
    "GroupElement",
    "LieVector",
    "WignerMatrix",
    "CGBlock",
    "IntertwinerBasis",
    "PAULI",
    "TAU",
    "multiply",
    "wigner",
    "wigner_entry",
    "angular_momentum",
    "invariant_generator",
    "adjoint_rotation",
    "casimir_eigenvalue",
    "clebsch_gordan",
    "cg_coefficient",
    "intertwiner_basis",
    "haar_sample",
    "haar_quaternions",
    "quaternions_to_matrices",
    "spin_flip_matrix",
    "su2_exp",
    "spin_range",
    "magnetic_range",
    "total_spins",
]

TOL_ALGEBRA = 1e-12


# ---------------------------------------------------------------------------
# exact half-integer bookkeeping


@dataclass(frozen=True, order=True)
class HalfInt:
    """A half-integer stored exactly as twice its value."""

    twice: int

    def __post_init__(self):
        if not isinstance(self.twice, (int, np.integer)):
            raise TypeError(f"twice-value must be an integer, got {self.twice!r}")
        object.__setattr__(self, "twice", int(self.twice))

    @staticmethod
    def of(value) -> "HalfInt":
        """Coerce an int, an exact multiple of 1/2, or a HalfInt."""
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, (int, np.integer)):
            return HalfInt(2 * int(value))
        doubled = 2 * value
        if doubled != round(doubled):
            raise ValueError(f"{value!r} is not a half-integer")
        return HalfInt(int(round(doubled)))

    def __add__(self, other) -> "HalfInt":
        return HalfInt(self.twice + HalfInt.of(other).twice)

    def __radd__(self, other) -> "HalfInt":
        return self.__add__(other)

    def __sub__(self, other) -> "HalfInt":
        return HalfInt(self.twice - HalfInt.of(other).twice)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __abs__(self) -> "HalfInt":
        return HalfInt(abs(self.twice))

    def __float__(self) -> float:
        return self.twice / 2.0

    def __bool__(self) -> bool:
        return self.twice != 0

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def as_fraction(self) -> Fraction:
        return Fraction(self.twice, 2)

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self.twice})"


def _dim(j: HalfInt) -> int:
    return j.twice + 1


def spin_range(j1: HalfInt, j2: HalfInt) -> list[HalfInt]:
    """Spins |j1-j2|, ..., j1+j2 in unit steps (the triangle rule)."""
    lo, hi = abs(j1.twice - j2.twice), j1.twice + j2.twice
    return [HalfInt(t) for t in range(lo, hi + 1, 2)]


def magnetic_range(j: HalfInt) -> list[HalfInt]:
    """Magnetic numbers j, j-1, ..., -j (the basis ordering)."""
    return [HalfInt(t) for t in range(j.twice, -j.twice - 1, -2)]


def _mag_index(j: HalfInt, m: HalfInt) -> int:
    idx2 = j.twice - m.twice
    if idx2 < 0 or idx2 > 2 * j.twice or idx2 % 2:
        raise ValueError(f"magnetic number {m} out of range for spin {j}")
    return idx2 // 2


def total_spins(spins: Sequence[HalfInt]) -> dict[HalfInt, int]:
    """Total-spin content of a tensor product: {J: multiplicity}."""
    content = {HalfInt(0): 1}
    for j in spins:
        nxt: dict[HalfInt, int] = {}
        for J, mult in content.items():
            for Jp in spin_range(J, j):
                nxt[Jp] = nxt.get(Jp, 0) + mult
        content = nxt
    return content


# ---------------------------------------------------------------------------
# the group and its Lie algebra

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

# tau_i = sigma_i/(2i): anti-Hermitian, [tau_i, tau_j] = eps_{ijk} tau_k
TAU = tuple(-0.5j * s for s in PAULI)

_EYE2 = np.eye(2, dtype=complex)


class LieVector:
    """Element v_i tau_i of the su(2) algebra, components in the tau basis."""

    __slots__ = ("components",)

    def __init__(self, components):
        arr = np.asarray(components, dtype=float)
        if arr.shape != (3,):
            raise ValueError("a Lie vector has exactly three real components")
        arr = arr.copy()
        arr.flags.writeable = False
        self.components = arr

    def matrix(self) -> np.ndarray:
        v = self.components
        return v[0] * TAU[0] + v[1] * TAU[1] + v[2] * TAU[2]

    def __add__(self, other: "LieVector") -> "LieVector":
        return LieVector(self.components + other.components)

    def __rmul__(self, scalar: float) -> "LieVector":
        return LieVector(scalar * self.components)

    def __repr__(self) -> str:
        return f"LieVector({self.components.tolist()})"


def su2_exp(components) -> np.ndarray:
    """Closed-form exponential of v_i tau_i, for one vector or a stack.

    (v.tau)^2 = -|v|^2/4, so exp(v.tau) = cos(|v|/2) + sinc(|v|/2) (v.tau)/1.
    ``components`` of shape (..., 3) gives matrices of shape (..., 2, 2).
    """
    v = np.asarray(components, dtype=float)[..., None, None]
    half = 0.5 * np.linalg.norm(v, axis=-3)
    # np.sinc(x/pi) = sin(x)/x with the correct limit at zero
    coef = np.sinc(half / np.pi)
    vt = v[..., 0, :, :] * TAU[0] + v[..., 1, :, :] * TAU[1] + v[..., 2, :, :] * TAU[2]
    return np.cos(half) * _EYE2 + coef * vt


class GroupElement:
    """An SU(2) matrix, renormalized to unit determinant on construction."""

    __slots__ = ("matrix",)

    def __init__(self, matrix, check: bool = True):
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("group elements are 2x2 matrices")
        # project onto the alpha/beta parametrization [[a, b], [-b*, a*]]
        alpha = 0.5 * (m[0, 0] + np.conj(m[1, 1]))
        beta = 0.5 * (m[0, 1] - np.conj(m[1, 0]))
        norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        if not math.isfinite(norm):  # a NaN or infinite entry reaches alpha or beta
            raise ValueError("matrix entries must be finite to renormalize into SU(2)")
        if norm < 1e-12:
            raise ValueError("matrix is too singular to renormalize into SU(2)")
        alpha, beta = alpha / norm, beta / norm
        proj = np.array([[alpha, beta], [-np.conj(beta), np.conj(alpha)]])
        if check and np.max(np.abs(proj - m)) > 1e-6:
            raise ValueError("matrix is not close to SU(2)")
        proj.flags.writeable = False
        self.matrix = proj

    @staticmethod
    def identity() -> "GroupElement":
        return GroupElement(_EYE2, check=False)

    @staticmethod
    def exp(v) -> "GroupElement":
        if isinstance(v, LieVector):
            v = v.components
        return GroupElement(su2_exp(v), check=False)

    @staticmethod
    def from_quaternion(q) -> "GroupElement":
        q = np.asarray(q, dtype=float)
        n = np.linalg.norm(q)
        if n < 1e-12:
            raise ValueError("degenerate quaternion")
        q = q / n
        m = np.array(
            [
                [q[0] - 1j * q[3], -1j * q[1] - q[2]],
                [-1j * q[1] + q[2], q[0] + 1j * q[3]],
            ]
        )
        return GroupElement(m, check=False)

    def inverse(self) -> "GroupElement":
        return GroupElement(self.matrix.conj().T, check=False)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.matrix @ other.matrix, check=False)

    def isclose(self, other: "GroupElement", tol: float = TOL_ALGEBRA) -> bool:
        return bool(np.max(np.abs(self.matrix - other.matrix)) <= tol)

    def __repr__(self) -> str:
        return f"GroupElement({self.matrix.tolist()})"


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group product with renormalization back into SU(2)."""
    return a @ b


# ---------------------------------------------------------------------------
# Wigner matrices

# Cache of closed-form expansion terms: D^j_{rc} = sum_p coef a^pa b^pb c^pc d^pd
# where [[a, b], [c, d]] is the defining matrix.  Derived from the action on
# monomials z1^(j+m) z2^(j-m) / sqrt((j+m)!(j-m)!) of the symmetric power.
_WIGNER_TERMS: dict[tuple[int, int, int], list[tuple[float, int, int, int, int]]] = {}


def _wigner_terms(tj: int, tr: int, tc: int) -> list[tuple[float, int, int, int, int]]:
    key = (tj, tr, tc)
    cached = _WIGNER_TERMS.get(key)
    if cached is not None:
        return cached
    jpr, jmr = (tj + tr) // 2, (tj - tr) // 2
    jpc, jmc = (tj + tc) // 2, (tj - tc) // 2
    pref = Fraction(
        math.factorial(jpr) * math.factorial(jmr),
        math.factorial(jpc) * math.factorial(jmc),
    )
    root = math.sqrt(float(pref))
    terms = []
    for p in range(max(0, (tr + tc) // 2), min(jpc, jpr) + 1):
        pa = p
        pc = jpc - p
        pb = jpr - p
        pd = p - (tr + tc) // 2
        coef = math.comb(jpc, pa) * math.comb(jmc, pb)
        terms.append((coef * root, pa, pb, pc, pd))
    _WIGNER_TERMS[key] = terms
    return terms


def wigner_entry(j: HalfInt, row: HalfInt, col: HalfInt, mats: np.ndarray) -> np.ndarray:
    """D^j_{row,col} evaluated on a stacked array of 2x2 matrices.

    Vectorized over leading axes; used for Monte Carlo estimates.
    """
    mats = np.asarray(mats, dtype=complex)
    a, b = mats[..., 0, 0], mats[..., 0, 1]
    c, d = mats[..., 1, 0], mats[..., 1, 1]
    out = np.zeros(mats.shape[:-2], dtype=complex)
    for coef, pa, pb, pc, pd in _wigner_terms(j.twice, row.twice, col.twice):
        out += coef * a**pa * b**pb * c**pc * d**pd
    return out


@dataclass(frozen=True)
class WignerMatrix:
    """Spin-j representation matrix, rows/columns ordered m = j, ..., -j."""

    j: HalfInt
    entries: np.ndarray

    def __post_init__(self):
        dim = _dim(self.j)
        if self.entries.shape != (dim, dim):
            raise ValueError("entry block does not match the spin dimension")

    def trace(self) -> complex:
        return complex(np.trace(self.entries))


def wigner(j, g: GroupElement) -> WignerMatrix:
    """Wigner matrix D^j(g) of the symmetrized tensor-power representation."""
    j = HalfInt.of(j)
    if j.twice < 0:
        raise ValueError("spin labels are non-negative")
    dim = _dim(j)
    out = np.empty((dim, dim), dtype=complex)
    mags = magnetic_range(j)
    for ri, r in enumerate(mags):
        for ci, c in enumerate(mags):
            out[ri, ci] = wigner_entry(j, r, c, g.matrix)
    out.flags.writeable = False
    return WignerMatrix(j, out)


# ---------------------------------------------------------------------------
# invariant derivative generators

_ANGMOM_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def angular_momentum(j) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hermitian spin-j matrices (Jx, Jy, Jz) with [Jx, Jy] = i Jz.

    Basis ordering matches the Wigner matrices (m descending), so Jz is
    diag(j, j-1, ..., -j).
    """
    j = HalfInt.of(j)
    cached = _ANGMOM_CACHE.get(j.twice)
    if cached is not None:
        return cached
    dim = _dim(j)
    mags = [float(m) for m in magnetic_range(j)]
    jz = np.diag(np.array(mags, dtype=complex))
    jplus = np.zeros((dim, dim), dtype=complex)
    jj1 = float(j) * (float(j) + 1.0)
    for idx in range(1, dim):
        m = mags[idx]  # raising m -> m+1 moves one row up
        jplus[idx - 1, idx] = math.sqrt(jj1 - m * (m + 1.0))
    jminus = jplus.conj().T
    jx = 0.5 * (jplus + jminus)
    jy = -0.5j * (jplus - jminus)
    for arr in (jx, jy, jz):
        arr.flags.writeable = False
    _ANGMOM_CACHE[j.twice] = (jx, jy, jz)
    return jx, jy, jz


def invariant_generator(j, axis: int, side: str) -> np.ndarray:
    """Matrix realization of the invariant derivative along tau_axis.

    side='left' acts on the column index of D^j_{mn}, side='right' on the row
    index.  Both realizations are anti-Hermitian and obey
    [X_i, X_j] = eps_{ijk} X_k; left and right commute as operators on the
    span of the D^j coefficients (they touch different indices).
    """
    j = HalfInt.of(j)
    if axis not in (1, 2, 3):
        raise ValueError("axis must be 1, 2 or 3")
    jmat = angular_momentum(j)[axis - 1]
    t = -1j * jmat  # representation of tau_axis
    if side == "left":
        return t
    if side == "right":
        return -t.T
    raise ValueError("side must be 'left' or 'right'")


def adjoint_rotation(g) -> np.ndarray:
    """The SO(3) matrix R of the adjoint action: g tau_j g^-1 = sum_i R[i,j] tau_i.

    In any representation D(g) (f.J) D(g)^-1 = (Rf).J, so R describes how a
    direction vector of generator components rotates under conjugation.
    """
    m = g.matrix if isinstance(g, GroupElement) else np.asarray(g, dtype=complex)
    minv = m.conj().T
    r = np.empty((3, 3))
    for col in range(3):
        c = m @ TAU[col] @ minv
        for row in range(3):
            r[row, col] = (-2.0 * np.trace(TAU[row] @ c)).real
    return r


def casimir_eigenvalue(j) -> Fraction:
    """j(j+1) as an exact rational."""
    j = HalfInt.of(j)
    if j.twice < 0:
        raise ValueError("spin labels are non-negative")
    return Fraction(j.twice * (j.twice + 2), 4)


def spin_flip_matrix(j) -> np.ndarray:
    """The conjugation intertwiner E with conj(D^j(g)) = E D^j(g) E^T.

    E[m, m'] = (-1)^(j-m) delta_{m', -m}; E is real orthogonal.
    """
    j = HalfInt.of(j)
    dim = _dim(j)
    e = np.zeros((dim, dim))
    for i in range(dim):
        e[i, dim - 1 - i] = 1.0 if i % 2 == 0 else -1.0
    e.flags.writeable = False
    return e


# ---------------------------------------------------------------------------
# Clebsch-Gordan coupling

_CG_CACHE: dict[tuple[int, int, int, int, int, int], float] = {}


def cg_coefficient(j1, m1, j2, m2, j, m) -> float:
    """Condon-Shortley Clebsch-Gordan coefficient <j1 m1 j2 m2 | j m>.

    Evaluated from the Racah factorial sum with exact rational arithmetic;
    the only rounding is the final square root.
    """
    j1, m1, j2, m2, j, m = (HalfInt.of(x) for x in (j1, m1, j2, m2, j, m))
    key = (j1.twice, m1.twice, j2.twice, m2.twice, j.twice, m.twice)
    cached = _CG_CACHE.get(key)
    if cached is not None:
        return cached
    value = _cg_eval(j1, m1, j2, m2, j, m)
    _CG_CACHE[key] = value
    return value


def _cg_eval(j1, m1, j2, m2, j, m) -> float:
    if m1.twice + m2.twice != m.twice:
        return 0.0
    if abs(m1.twice) > j1.twice or abs(m2.twice) > j2.twice or abs(m.twice) > j.twice:
        return 0.0
    t1 = (j1.twice + j2.twice - j.twice) // 2
    t2 = (j1.twice - j2.twice + j.twice) // 2
    t3 = (-j1.twice + j2.twice + j.twice) // 2
    if t1 < 0 or t2 < 0 or t3 < 0:
        return 0.0
    if (j1.twice + j2.twice - j.twice) % 2:
        return 0.0
    f = math.factorial
    pref = Fraction(
        (j.twice + 1) * f(t1) * f(t2) * f(t3),
        f((j1.twice + j2.twice + j.twice) // 2 + 1),
    )
    pref *= Fraction(
        f((j.twice + m.twice) // 2)
        * f((j.twice - m.twice) // 2)
        * f((j1.twice - m1.twice) // 2)
        * f((j1.twice + m1.twice) // 2)
        * f((j2.twice - m2.twice) // 2)
        * f((j2.twice + m2.twice) // 2)
    )
    ksum = Fraction(0)
    klo = max(0, (j2.twice - j.twice - m1.twice) // 2, (j1.twice - j.twice + m2.twice) // 2)
    khi = min(t1, (j1.twice - m1.twice) // 2, (j2.twice + m2.twice) // 2)
    for k in range(klo, khi + 1):
        den = (
            f(k)
            * f(t1 - k)
            * f((j1.twice - m1.twice) // 2 - k)
            * f((j2.twice + m2.twice) // 2 - k)
            * f((j.twice - j2.twice + m1.twice) // 2 + k)
            * f((j.twice - j1.twice - m2.twice) // 2 + k)
        )
        ksum += Fraction((-1) ** k, den)
    if ksum == 0:
        return 0.0
    return math.sqrt(float(pref)) * float(ksum)


@dataclass(frozen=True)
class CGBlock:
    """Isometric embedding of the total-spin-j block into V_{j1} x V_{j2}."""

    j: HalfInt
    matrix: np.ndarray  # shape (dim(j1) * dim(j2), dim(j))


def clebsch_gordan(j1, j2) -> list[CGBlock]:
    """Decompose V_{j1} x V_{j2} into total-spin blocks |j1-j2| ... j1+j2.

    Each block's columns (ordered m = j ... -j) are orthonormal vectors in the
    product space, indexed row-major by (m1, m2) both descending.
    """
    j1, j2 = HalfInt.of(j1), HalfInt.of(j2)
    d1, d2 = _dim(j1), _dim(j2)
    blocks = []
    for j in spin_range(j1, j2):
        mat = np.zeros((d1 * d2, _dim(j)))
        for ci, m in enumerate(magnetic_range(j)):
            for i1, m1 in enumerate(magnetic_range(j1)):
                tm2 = m.twice - m1.twice
                if abs(tm2) > j2.twice:
                    continue
                m2 = HalfInt(tm2)
                mat[i1 * d2 + _mag_index(j2, m2), ci] = cg_coefficient(j1, m1, j2, m2, j, m)
        mat.flags.writeable = False
        blocks.append(CGBlock(j, mat))
    return blocks


# ---------------------------------------------------------------------------
# intertwiners


@dataclass(frozen=True)
class IntertwinerBasis:
    """Orthonormal basis of the invariant subspace of a tensor product.

    Columns of ``vectors`` live in the product space indexed row-major by the
    per-slot magnetic numbers (each descending).  ``trees`` records, per
    column, the intermediate spins of the left-to-right sequential coupling.
    """

    spins: tuple[HalfInt, ...]
    trees: tuple[tuple[HalfInt, ...], ...]
    vectors: np.ndarray

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]


def intertwiner_basis(spins: Iterable) -> IntertwinerBasis:
    """Invariant vectors of V_{j1} x ... x V_{jn} by sequential coupling.

    Couples slots left to right, keeps the coupling paths that end at total
    spin 0, and re-orthonormalizes the resulting columns.
    """
    spins = tuple(HalfInt.of(j) for j in spins)
    if not spins:
        raise ValueError("at least one incident spin is required")
    total_dim = 1
    for j in spins:
        total_dim *= _dim(j)
    # paths: (accumulated spin J, embedding of V_J into the product so far, tree)
    paths = [(spins[0], np.eye(_dim(spins[0])), ())]
    for j in spins[1:]:
        nxt = []
        for acc, embed, tree in paths:
            blocks = clebsch_gordan(acc, j)
            grown = np.kron(embed, np.eye(_dim(j)))
            for block in blocks:
                nxt.append((block.j, grown @ block.matrix, tree + (block.j,)))
        paths = nxt
    zero = HalfInt(0)
    columns = [embed[:, 0] for acc, embed, tree in paths if acc == zero]
    trees = tuple(tree for acc, embed, tree in paths if acc == zero)
    if not columns:
        return IntertwinerBasis(spins, (), np.zeros((total_dim, 0)))
    stacked = np.column_stack(columns)
    # sequential coupling already yields orthonormal columns; re-orthonormalize
    # defensively without reordering
    q, r = np.linalg.qr(stacked)
    q = q * np.sign(np.diag(r))[np.newaxis, :]
    q.flags.writeable = False
    return IntertwinerBasis(spins, trees, q)


# ---------------------------------------------------------------------------
# Haar sampling


def haar_quaternions(rng: np.random.Generator, n: int) -> np.ndarray:
    """n unit quaternions distributed by Haar measure (normalized Gaussians)."""
    q = rng.normal(size=(n, 4))
    norms = np.linalg.norm(q, axis=1)
    # a 4d Gaussian is almost surely nonzero; resample the pathological rows
    bad = norms < 1e-12
    while np.any(bad):
        q[bad] = rng.normal(size=(int(bad.sum()), 4))
        norms = np.linalg.norm(q, axis=1)
        bad = norms < 1e-12
    return q / norms[:, np.newaxis]


def quaternions_to_matrices(q: np.ndarray) -> np.ndarray:
    """Map unit quaternions (n, 4) to SU(2) matrices (n, 2, 2)."""
    q = np.asarray(q, dtype=float)
    out = np.empty(q.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = q[..., 0] - 1j * q[..., 3]
    out[..., 0, 1] = -1j * q[..., 1] - q[..., 2]
    out[..., 1, 0] = -1j * q[..., 1] + q[..., 2]
    out[..., 1, 1] = q[..., 0] + 1j * q[..., 3]
    return out


def haar_sample(rng: np.random.Generator) -> GroupElement:
    """One Haar-distributed SU(2) element."""
    return GroupElement(quaternions_to_matrices(haar_quaternions(rng, 1))[0], check=False)
