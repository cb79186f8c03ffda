"""The Berger-sphere embedding and its submanifold invariants.

A topological three-sphere with the squashed metric diag(4/9, 8/3, 8/3) in
its rotation-field frame embeds into the six-sphere as a Lagrangian
submanifold through an explicit degree-two polynomial map.  All of its
extrinsic invariants are constants, which makes it the perfect regression
target: this script recomputes every one of them from the exact jets.
"""

import numpy as np

import nk6

imm = nk6.dvv_immersion()
rng = np.random.default_rng(2)
pts = imm.chart.random_points(200, rng)

# ----------------------------------------------------------------------------
# 1. the embedding is isometric and Lagrangian
# ----------------------------------------------------------------------------
jt = imm.jet(imm.chart.to_y(pts), 1)
print("image on the unit sphere, residual:", jt.unit_image_residual())

pk = nk6.frame(imm, pts)
print("frame orthonormality residual:     ", pk.orthonormality_residual())
print("Lagrangian residual <Je_i, e_j>:   ", pk.lagrangian_residual())

# ----------------------------------------------------------------------------
# 2. second fundamental form: constant, fully symmetric, trace free
# ----------------------------------------------------------------------------
sff = nk6.second_fundamental_form(imm, pts, frame_packet=pk)
hsq = sff.norm_sq()
print("\n|h|^2 at 200 random points: min %.15f max %.15f (expect 25/8 = %.15f)"
      % (hsq.min(), hsq.max(), 25 / 8))
print("shape operator of Je_1 at the first point:")
print(nk6.shape_operator(sff, 0)[0].round(12))

# ----------------------------------------------------------------------------
# 3. curvature: the sectional range [1/16, 21/16] and scalar curvature 23/8
# ----------------------------------------------------------------------------
cp = nk6.curvature_from_sff(sff)
k_min, k_max = cp.sectional_range()
print("\nsectional curvature range: [%.10f, %.10f]" % (k_min.max(), k_max.min()))
print("scalar curvature tau:      %.10f  (6 - |h|^2 = %.10f)"
      % (cp.tau[0], cp.tau_from_h[0]))
print("Ricci eigenvalues:         ", cp.ricci_eigenvalues()[0].round(10))

# The same curvatures, computed intrinsically from the squashed metric.
spec = nk6.BergerSpec()
alpha, beta = spec.curvature_coefficients()
print("intrinsic coefficients:     K(plane) = %.6f + %.6f cos^2(angle to fiber)"
      % (alpha, beta))

# ----------------------------------------------------------------------------
# 4. the covariant derivative of h and the J-parallel property
# ----------------------------------------------------------------------------
few = pts[:10]
nh = nk6.nabla_h(imm, few)
print("\n|nabla h|^2:            %.12f  (expect 75/32 = %.12f)"
      % (nh.norm_sq().max(), 75 / 32))
print("Codazzi symmetry residual:", nh.codazzi_residual())
print("J-parallel defect:        ", float(np.max(nk6.j_parallel_defect(nh))))
