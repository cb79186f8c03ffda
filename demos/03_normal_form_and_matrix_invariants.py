"""Normal form of the second fundamental form and the commutator invariant.

At a point of a Lagrangian submanifold the cubic form f(u) = <h(u,u), Ju>
attains a maximum Theta over unit tangents; an adapted basis then squeezes h
into four parameters (lambda1, lambda2, mu1, mu2).  The combination

    Q = sum N(H_i H_j - H_j H_i) + sum trace(H_i H_j)^2

drives the Laplacian of |h|^2.  This script extracts normal forms, compares
the closed polynomial of Q against brute matrix arithmetic, and exhibits the
sign-definite regrouping that powers the integral inequality of demo 04.
"""

import numpy as np

import nk6

rng = np.random.default_rng(3)

# ----------------------------------------------------------------------------
# 1. maximizing the cubic form
# ----------------------------------------------------------------------------
h = nk6.reconstruct_sff((0.3, 0.2, 0.1, -0.1))
u, theta = nk6.maximize_theta(h)
print("synthetic tuple (0.3, 0.2, 0.1, -0.1):")
print("  Theta =", float(theta), " maximizer =", u.round(12))

scan = rng.normal(size=(200000, 3))
scan /= np.linalg.norm(scan, axis=1, keepdims=True)
brute = np.abs(np.einsum("kij,pk,pi,pj->p", h, scan, scan, scan)).max()
print("  dense random scan reaches", brute, "(never above the optimizer)")

# ----------------------------------------------------------------------------
# 2. normal-form extraction is gauge invariant
# ----------------------------------------------------------------------------
R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
h_rot = np.einsum("KIJ,Ka,Ib,Jc->abc", h, R, R, R)
cd = nk6.canonical_basis(h_rot)
print("\nextracted from a randomly rotated frame:")
print("  (lambda1, lambda2, mu1, mu2) =", np.round(cd.tuple(), 12))
print("  reconstruction residual:", cd.reconstruction_residual)

# ----------------------------------------------------------------------------
# 3. closed form of Q versus direct matrix arithmetic
# ----------------------------------------------------------------------------
tuples = rng.normal(size=(100000, 4))
cf = nk6.closed_forms(tuples)
q_direct = nk6.commutator_invariant_direct(nk6.reconstruct_sff(tuples))
rel = np.abs(cf.q_closed - q_direct) / np.maximum(1.0, np.abs(q_direct))
print("\nQ closed vs direct on 1e5 random tuples: max relative deviation",
      rel.max())

# ----------------------------------------------------------------------------
# 4. the sign-definite regrouping
# ----------------------------------------------------------------------------
# Q = 3|h|^4 - (9/2) Theta^2 |h|^2 - R with R a sum of three nonnegative
# terms; equality R = 0 forces mu1 = mu2 = 0 and lambda1 = lambda2.
print("\nremainder decomposition on the reference tuples:")
for name, tup in (("totally geodesic", (0.0, 0.0, 0.0, 0.0)),
                  ("Berger sphere   ", tuple(np.array([1, 1, 0, 0]) * np.sqrt(5) / 4)),
                  ("curvature-1/16  ", (np.sqrt(5) / 4, np.sqrt(5) / 4, np.sqrt(10) / 4, 0.0)),
                  ("generic         ", (0.5, 0.1, 0.2, -0.3))):
    c = nk6.closed_forms(tup)
    print("  %s R = %-12.6g terms = %s" % (
        name, float(c.r_residual), tuple(round(float(t), 6) for t in c.r_terms)))
print("regrouping identity residual on 1e5 tuples:", cf.regrouping_residual())
