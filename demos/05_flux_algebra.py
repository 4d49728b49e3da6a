"""Smeared flux operators and their non-commutative algebra.

Flux through a surface acts on cylindrical functions by inserting angular
momentum generators at the punctures.  Two consequences are worth seeing
numerically: quantized eigenvalues, and commutators that close on a third
flux — the hallmark of a non-commutative quantum geometry.
"""

import numpy as np

from spinnet import (
    EmbeddedGraph,
    FluxSpec,
    Surface,
    flux_apply,
    flux_commutator,
    flux_commutator_closed_form,
    flux_matrix,
    states_for_spins,
)

V = np.array


def patch(base, normal, u, w, half=2.0):
    base, u, w = V(base, float), V(u, float), V(w, float)
    corners = [base + a * half * u + b * half * w
               for a, b in [(-1, -1), (1, -1), (1, 1), (-1, 1)]]
    return Surface(base, V(normal, float), np.vstack(corners))


# A kinked line through z = 0: the vertex sits on the surface, one arm on
# each side, so the two half-edges contribute independently.
kink = EmbeddedGraph.build(
    V([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 1.0]]), [(0, 1), (1, 2)]
)
z_patch = patch([0, 0, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0])
spec = FluxSpec(z_patch, V([0.0, 0.0, 1.0]))

basis = states_for_spins(kink, [0.5, 0.5], gauge_invariant=False)
F = flux_matrix(spec, basis)
vals, counts = np.unique(np.round(np.linalg.eigvalsh(F), 12), return_counts=True)
print("flux eigenvalues on the 16-dim spin-1/2 basis:")
for v, c in zip(vals, counts):
    print(f"  {v:+.1f}  x{c}")

# Fluxes through intersecting surfaces do not commute; the commutator is
# again a flux, with a geometric sign at the shared puncture.
star = EmbeddedGraph.build(
    V([[0.0, 0.0, 0.0], [1.0, 0.5, 1.0], [-1.0, 0.5, 0.7], [0.5, -1.0, -1.0]]),
    [(0, 1), (0, 2), (0, 3)],
)
x_patch = patch([0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1])
F1 = FluxSpec(z_patch, V([0.3, 0.2, 0.9]))
F2 = FluxSpec(x_patch, V([0.8, -0.1, 0.2]))

psi = states_for_spins(star, [0.5, 0.5, 0.5], gauge_invariant=False)[0].fun
double = flux_commutator(F1, F2, psi)        # [F1, [F2, .]] applied twice
closed = flux_commutator_closed_form(F1, F2, psi)
print("\ncommutator norm (nonzero => non-commutative):", double.norm())
print("double application vs closed form:", (double - closed).norm())

# Disjoint surfaces commute.
far = patch([0, 0, 5], [0, 0, 1], [1, 0, 0], [0, 1, 0])
F3 = FluxSpec(far, V([1.0, 0.0, 0.0]))
print("disjoint-surface commutator norm:",
      flux_commutator_closed_form(F1, F3, psi).norm())

# And a flux squared is a multiple of the identity on a single transverse
# spin-1/2 half-edge: an edge that starts on the patch gives F = (1/2) f.J,
# so F^2 = |f|^2/16, whatever the smearing direction.  (An edge running
# through the patch gives zero here: its two half-edges insert J on the new
# vertex's intermediate index, which the unsubdivided basis sums over, and J
# is traceless.)
line = EmbeddedGraph.build(V([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), [(0, 1)])
f_dir = V([0.6, -0.3, 0.7])
spec_line = FluxSpec(z_patch, f_dir)
basis_line = states_for_spins(line, [0.5], gauge_invariant=False)
M = flux_matrix(spec_line, basis_line)
sq = M @ M
expected = float(f_dir @ f_dir) / 16
print("\nF^2 on a spin-1/2 edge starting on the patch (should be |f|^2/16 x identity):")
print("  diagonal:", np.round(np.diag(sq).real, 6), " |f|^2/16 =", expected)
print("  off-diagonal max:", np.max(np.abs(sq - np.diag(np.diag(sq)))))
print("  equals |f|^2/16 x identity:", bool(np.allclose(sq, expected * np.eye(len(basis_line)))))
