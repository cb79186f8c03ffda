"""The seven-dimensional cross product and the structure it puts on the sphere.

R^7 carries an exceptional bilinear cross product, encoded by a table of
structure constants f_ijk in {-1, 0, +1}.  On the unit six-sphere it induces
an almost complex structure J_x u = x cross u and a skew tensor G(X, Y), the
covariant derivative of J.  This script walks through the table, the derived
operators and the identity suite that certifies the structure.
"""

import numpy as np

import nk6

# ----------------------------------------------------------------------------
# 1. the multiplication table
# ----------------------------------------------------------------------------
# The default table is the Cayley-Dickson doubling of the quaternions, the
# convention in which the Berger-sphere embedding of demo 02 is written;
# NK6_TABLE_PATH or `--table` names a file with another one.
table = nk6.default_table()
print("default table:", table.describe())

e = np.eye(7)
print("e1 x e2 =", nk6.cross(e[0], e[1], table))
print("e1 x e1 =", nk6.cross(e[0], e[0], table))

# The defining property: |u x v|^2 = |u|^2 |v|^2 - <u,v>^2.
rng = np.random.default_rng(0)
u, v = rng.normal(size=(2, 7))
w = nk6.cross(u, v, table)
print("axiom residual:", (w @ w) - ((u @ u) * (v @ v) - (u @ v) ** 2))

# ----------------------------------------------------------------------------
# 2. the almost complex structure on the sphere
# ----------------------------------------------------------------------------
x = rng.normal(size=7)
x /= np.linalg.norm(x)
t = nk6.cayley.random_tangent(x, rng)
jt = nk6.almost_complex(x, t, table)
print("\nJ is an isometry:      |Jt| - |t| =", np.linalg.norm(jt) - np.linalg.norm(t))
print("J squares to -1:       |J(Jt) + t| =", np.linalg.norm(
    nk6.almost_complex(x, jt, table) + t))

# ----------------------------------------------------------------------------
# 3. the tensor G and its complex-step oracle
# ----------------------------------------------------------------------------
# G(X, Y) has the closed form: tangential part of X cross Y.  The engine
# cross-checks this against the derivative of J along a geodesic, with Y
# parallel-transported, taken by one evaluation at an imaginary time.
X = nk6.cayley.random_tangent(x, rng)
Y = nk6.cayley.random_tangent(x, rng)
closed = nk6.g_tensor(x, X, Y, table)
fd = nk6.g_tensor_fd(x, X, Y, table)
print("\nG closed form vs complex step:", np.max(np.abs(closed - fd)))

# ----------------------------------------------------------------------------
# 4. the full identity suite
# ----------------------------------------------------------------------------
# `nk6 verify` holds every one of these residuals to 1e-12, the complex-step
# covariant derivative of G included.
residuals = nk6.verify_nk_identities(table, n_samples=2000, seed=1)
print("\nidentity suite over 2000 random samples:")
for name, residual in residuals.items():
    print(f"  {name:<28s} residual {residual:.2e}  {nk6.cayley.IDENTITY_FORMULAS[name]}")
