"""SU(2) representation machinery: group elements, Wigner matrices, invariant
derivative generators, Clebsch-Gordan coupling, intertwiners and Haar sampling.

Spin and magnetic labels are exact half-integers (stored as twice-values);
floating point enters only through matrix entries.  Conventions used
throughout the package:

* tau_i = sigma_i/(2i), so [tau_i, tau_j] = eps_{ijk} tau_k and
  exp(2 pi tau_3) = -identity.
* Representation matrices are those of the degree-2j polynomial model of the
  symmetrized tensor power of the fundamental; ``wigner`` computes them as
  exp(-i theta n.J) from the angular momentum matrices, ``wigner_entry`` from
  the polynomial expansion.  Basis vectors are ordered by descending magnetic
  number m = j, j-1, ..., -j; for j = 1/2 the Wigner matrix is the group
  element itself and exp(theta tau_3) maps to diag(exp(-i m theta)).
* On f(h) = sum_mn c_mn D^j_mn(h) the left-invariant derivative L_i acts on
  the column label n and gives d/dt f(h exp(t tau_i))|_0, the right-invariant
  R_i on the row label m and gives d/dt f(exp(-t tau_i) h)|_0.  Both families
  obey [X_i, X_j] = eps_{ijk} X_k, commute with each other and are -i times
  one Hermitian triple (J on n, -J^T on m), so -sum_i X_i^2 = j(j+1).
* Clebsch-Gordan coefficients follow the Condon-Shortley phase convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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
    "WIGNER_ENTRY_MAX_TWICE",
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

# (I, tau_0, tau_1, tau_2) at each matrix entry, signed zeros kept, for GroupElement.exp
_EXP_ENTRIES = tuple(zip(*(tuple(complex(z) for z in m.ravel()) for m in (_EYE2, *TAU))))


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
        """exp(v_i tau_i) for one vector, bitwise equal to ``su2_exp(v)``.

        The closed form of ``su2_exp`` in its operation order, on Python
        floats and complex numbers (a float enters numpy's complex product
        as x + 0j), which spares one vector numpy's per-call overhead.
        """
        if isinstance(v, LieVector):
            v = v.components
        arr = np.asarray(v, dtype=float)
        if arr.shape != (3,):
            raise ValueError("a Lie vector has exactly three real components")
        v0, v1, v2 = arr.tolist()
        half = 0.5 * math.sqrt(v0 * v0 + v1 * v1 + v2 * v2)
        if not math.isfinite(half):
            raise ValueError("matrix entries must be finite to renormalize into SU(2)")
        x = math.pi * (half / math.pi)  # np.sinc(half / pi) reads 1.0 at zero
        coef = complex(math.sin(x) / x if x else 1.0)
        cos = complex(math.cos(half))
        c0, c1, c2 = complex(v0), complex(v1), complex(v2)
        entries = [
            cos * e + coef * (c0 * t0 + c1 * t1 + c2 * t2)
            for e, t0, t1, t2 in _EXP_ENTRIES
        ]
        return GroupElement(np.array(entries).reshape(2, 2), check=False)

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

@lru_cache(maxsize=None)
def _wigner_terms(tj: int, tr: int, tc: int) -> tuple[tuple[float, int, int, int, int], ...]:
    """Closed-form expansion terms: D^j_{rc} = sum_p coef a^pa b^pb c^pc d^pd
    where [[a, b], [c, d]] is the defining matrix.  Derived from the action on
    monomials z1^(j+m) z2^(j-m) / sqrt((j+m)!(j-m)!) of the symmetric power."""
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
    return tuple(terms)


#: Largest 2j at which the binomial expansion of ``wigner_entry`` stays unitary
#: to 1e-9: over 100 Haar samples the worst error is 6.8e-10 at 2j = 49 and
#: 1.1e-9 at 2j = 50, and it roughly doubles per unit of 2j beyond.
WIGNER_ENTRY_MAX_TWICE = 49


def wigner_entry(j: HalfInt, row: HalfInt, col: HalfInt, mats: np.ndarray) -> np.ndarray:
    """D^j_{row,col} evaluated on a stacked array of 2x2 matrices.

    Vectorized over leading axes.  Raises ``ValueError`` on a non-finite
    entry and above 2j = ``WIGNER_ENTRY_MAX_TWICE``, where the expansion
    loses accuracy.  The Monte Carlo inner product calls the same kernel on
    its Haar samples.
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.shape[-2:] != (2, 2):
        raise ValueError("wigner_entry: mats must be a stack of 2x2 matrices")
    if not np.isfinite(mats).all():
        raise ValueError("wigner_entry: matrix entries must be finite")
    a, b = mats[..., 0, 0], mats[..., 0, 1]
    c, d = mats[..., 1, 0], mats[..., 1, 1]
    return _wigner_entry_kernel(j.twice, row.twice, col.twice, a, b, c, d)


def _wigner_entry_kernel(tj: int, tr: int, tc: int, a, b, c, d) -> np.ndarray:
    """D^j_{rc} on the entry arrays of [[a, b], [c, d]], trusted to be finite.

    Sums ``coef * a**pa * b**pb * c**pc * d**pd`` over ``_wigner_terms`` in
    that order, bit for bit, but multiplies each term into one buffer: a
    factor with power 0 is skipped, power 1 is x and power 2 is x * x (equal
    to x**p on finite entries); higher powers stay x**p, which no product
    order reproduces bitwise.
    """
    if tj > WIGNER_ENTRY_MAX_TWICE:
        raise ValueError(
            f"wigner_entry: 2j = {tj} is above the accuracy limit "
            f"2j <= {WIGNER_ENTRY_MAX_TWICE} of the binomial expansion"
        )
    out = np.zeros(np.shape(a), dtype=complex)
    term = np.empty_like(out)
    power = np.empty_like(out)
    for coef, *exps in _wigner_terms(tj, tr, tc):
        product = coef  # the float coefficient until a factor lands in ``term``
        for x, p in zip((a, b, c, d), exps):
            if p == 0:
                continue
            if p == 1:
                xp = x
            elif p == 2:
                xp = np.multiply(x, x, out=power)
            else:
                xp = np.power(x, p, out=power)
            product = np.multiply(product, xp, out=term)
        out += product
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
    """Wigner matrix D^j(g) of the symmetrized tensor-power representation.

    With g = exp(theta n.tau), D^j(g) = exp(-i theta n.J) = V diag(e^{-i theta m}) V^+,
    where V diagonalizes n.J and m = -j, ..., j are its exact eigenvalues in
    the ascending order of ``eigh``.  Unitary to rounding at any spin.  For
    Re a < 0 it is computed as (-1)^{2j} D^j(-g), so that theta <= pi and
    its rounding, which is multiplied by m, stays small near g = -I.
    """
    j = HalfInt.of(j)
    if j.twice < 0:
        raise ValueError("spin labels are non-negative")
    (a, b), _ = g.matrix
    flip = a.real < 0.0
    if flip:
        a, b = -a, -b
    # g = [[a, b], [-b*, a*]] = cos(theta/2) - i sin(theta/2) n.sigma
    v = (-b.imag, -b.real, -a.imag)  # sin(theta/2) n
    s = math.hypot(*v)
    jx, jy, jz = angular_momentum(j)
    # g = +-identity leaves n free: take e_z
    nj = jz if s == 0.0 else (v[0] / s) * jx + (v[1] / s) * jy + (v[2] / s) * jz
    theta = 2.0 * math.atan2(s, a.real)
    vecs = np.linalg.eigh(nj)[1]
    m = np.arange(-j.twice, j.twice + 1, 2) / 2.0
    out = (vecs * np.exp(-1j * theta * m)) @ vecs.conj().T
    if flip and j.twice % 2:
        out = -out
    out.flags.writeable = False
    return WignerMatrix(j, out)


# ---------------------------------------------------------------------------
# invariant derivative generators

def angular_momentum(j) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hermitian spin-j matrices (Jx, Jy, Jz) with [Jx, Jy] = i Jz.

    Basis ordering matches the Wigner matrices (m descending), so Jz is
    diag(j, j-1, ..., -j).  The matrices are shared: they are read-only.
    """
    return _angular_momentum(HalfInt.of(j).twice)


@lru_cache(maxsize=None)
def _angular_momentum(tj: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    j = HalfInt(tj)
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
    return jx, jy, jz


@lru_cache(maxsize=None)
def _slot_generators(tj: int, column: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shared, read-only Hermitian triple on one label of D^j_{mn}: J on
    the column label n, -J^T on the row label m."""
    if column:
        return _angular_momentum(tj)
    mats = tuple(-m.T for m in _angular_momentum(tj))
    for m in mats:
        m.flags.writeable = False
    return mats


def invariant_generator(j, axis: int, side: str) -> np.ndarray:
    """Matrix realization of the invariant derivative along tau_axis.

    On the coefficients of f(h) = sum_mn c_mn D^j_mn(h), side='left' acts on
    the column label n and gives d/dt f(h exp(t tau_axis))|_0, side='right'
    on the row label m and gives d/dt f(exp(-t tau_axis) h)|_0.  Both are
    anti-Hermitian, obey [X_i, X_j] = eps_{ijk} X_k and commute with each other.
    """
    j = HalfInt.of(j)
    if axis not in (1, 2, 3):
        raise ValueError("axis must be 1, 2 or 3")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    return -1j * _slot_generators(j.twice, side == "left")[axis - 1]


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

def cg_coefficient(j1, m1, j2, m2, j, m) -> float:
    """Condon-Shortley Clebsch-Gordan coefficient <j1 m1 j2 m2 | j m>.

    Evaluated from the Racah factorial sum with exact rational arithmetic;
    the only rounding is the final square root.
    """
    return _cg_value(*(HalfInt.of(x).twice for x in (j1, m1, j2, m2, j, m)))


@lru_cache(maxsize=None)
def _cg_value(tj1: int, tm1: int, tj2: int, tm2: int, tj: int, tm: int) -> float:
    if tm1 + tm2 != tm:
        return 0.0
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm) > tj:
        return 0.0
    t1 = (tj1 + tj2 - tj) // 2
    t2 = (tj1 - tj2 + tj) // 2
    t3 = (-tj1 + tj2 + tj) // 2
    if t1 < 0 or t2 < 0 or t3 < 0:
        return 0.0
    if (tj1 + tj2 - tj) % 2:
        return 0.0
    f = math.factorial
    pref = Fraction((tj + 1) * f(t1) * f(t2) * f(t3), f((tj1 + tj2 + tj) // 2 + 1))
    pref *= Fraction(
        f((tj + tm) // 2)
        * f((tj - tm) // 2)
        * f((tj1 - tm1) // 2)
        * f((tj1 + tm1) // 2)
        * f((tj2 - tm2) // 2)
        * f((tj2 + tm2) // 2)
    )
    ksum = Fraction(0)
    klo = max(0, (tj2 - tj - tm1) // 2, (tj1 - tj + tm2) // 2)
    khi = min(t1, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    for k in range(klo, khi + 1):
        den = (
            f(k)
            * f(t1 - k)
            * f((tj1 - tm1) // 2 - k)
            * f((tj2 + tm2) // 2 - k)
            * f((tj - tj2 + tm1) // 2 + k)
            * f((tj - tj1 - tm2) // 2 + k)
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


def clebsch_gordan(j1, j2) -> tuple[CGBlock, ...]:
    """Decompose V_{j1} x V_{j2} into total-spin blocks |j1-j2| ... j1+j2.

    Each block's columns (ordered m = j ... -j) are orthonormal vectors in the
    product space, indexed row-major by (m1, m2) both descending.  The blocks
    are computed once per (j1, j2) and shared: their matrices are read-only.
    """
    return _cg_blocks(HalfInt.of(j1).twice, HalfInt.of(j2).twice)


@lru_cache(maxsize=None)
def _cg_blocks(tj1: int, tj2: int) -> tuple[CGBlock, ...]:
    d2 = tj2 + 1
    blocks = []
    for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        mat = np.zeros(((tj1 + 1) * d2, tj + 1))
        for ci, tm in enumerate(range(tj, -tj - 1, -2)):
            for i1, tm1 in enumerate(range(tj1, -tj1 - 1, -2)):
                tm2 = tm - tm1
                if abs(tm2) <= tj2:
                    mat[i1 * d2 + (tj2 - tm2) // 2, ci] = _cg_value(tj1, tm1, tj2, tm2, tj, tm)
        mat.flags.writeable = False
        blocks.append(CGBlock(HalfInt(tj), mat))
    return tuple(blocks)


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
    spin 0, and re-orthonormalizes the resulting columns.  A path is dropped
    as soon as its accumulated spin cannot couple with the remaining slots to
    spin 0, which leaves the kept columns and their order unchanged.
    """
    spins = tuple(HalfInt.of(j) for j in spins)
    if not spins:
        raise ValueError("at least one incident spin is required")
    total_dim = math.prod(_dim(j) for j in spins)
    # paths: (accumulated spin J, embedding of V_J into the product so far, tree)
    paths = [(spins[0], np.eye(_dim(spins[0])), ())]
    for k, j in enumerate(spins[1:], start=1):
        reach = total_spins(spins[k + 1 :])
        nxt = []
        for acc, embed, tree in paths:
            # (embed x identity) @ block, without forming the Kronecker product
            for block in clebsch_gordan(acc, j):
                if block.j not in reach:
                    continue
                rows = block.matrix.reshape(embed.shape[1], -1)
                grown = (embed @ rows).reshape(-1, block.matrix.shape[1])
                nxt.append((block.j, grown, tree + (block.j,)))
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


def _row_norms(q: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an (n, 4) array, summed in the order
    ((q0² + q1²) + q2²) + q3² on column views: the bits of
    ``np.linalg.norm(q, axis=1)`` without its reduction machinery."""
    q0, q1, q2, q3 = (q[:, k] for k in range(4))
    s = q0 * q0
    s += q1 * q1
    s += q2 * q2
    s += q3 * q3
    return np.sqrt(s, out=s)


def haar_quaternions(rng: np.random.Generator, n: int) -> np.ndarray:
    """n unit quaternions distributed by Haar measure (normalized Gaussians).

    ``standard_normal`` draws the values of ``normal(size=...)``, which only
    adds 0.0 to them (turning a -0.0 draw into 0.0), without that pass."""
    q = rng.standard_normal((n, 4))
    norms = _row_norms(q)
    # a 4d Gaussian is almost surely nonzero; resample the pathological rows
    bad = norms < 1e-12
    while np.any(bad):
        q[bad] = rng.standard_normal((int(bad.sum()), 4))
        norms = _row_norms(q)
        bad = norms < 1e-12
    q /= norms[:, np.newaxis]
    return q


def _quaternion_entries(q: np.ndarray) -> tuple[np.ndarray, ...]:
    """Entry arrays a, b, c, d of the SU(2) matrices [[a, b], [c, d]] of unit
    quaternions (..., 4): q0 - i q3, -i q1 - q2, -i q1 + q2 and q0 + i q3,
    computed from strided views of the components with each i q_k formed once."""
    q0, q1, q2, q3 = (q[..., k] for k in range(4))
    iq3 = 1j * q3
    miq1 = -1j * q1
    a, b = q0 - iq3, miq1 - q2
    miq1 += q2
    iq3 += q0
    return a, b, miq1, iq3


def quaternions_to_matrices(q: np.ndarray) -> np.ndarray:
    """Map unit quaternions (n, 4) to SU(2) matrices (n, 2, 2)."""
    q = np.asarray(q, dtype=float)
    out = np.empty(q.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = _quaternion_entries(q)
    return out


def haar_sample(rng: np.random.Generator) -> GroupElement:
    """One Haar-distributed SU(2) element."""
    return GroupElement(quaternions_to_matrices(haar_quaternions(rng, 1))[0], check=False)
