"""Certifying the integral inequality and its two equality cases.

For a compact Lagrangian submanifold of the six-sphere,

    integral of |h|^2 (|h|^2 - 5/4 - (3/2) Theta^2)  >=  0,

with equality exactly for the totally geodesic great sphere (h = 0) and the
Berger sphere (|h|^2 = 25/8, Theta = sqrt(5)/2).  The engine certifies this
at quadrature scale: exact jets feed a tensor-product rule in the Hopf chart,
Theta is re-maximized at every node, and refinement of the rule guards the
volume element.
"""

import numpy as np

import nk6

rule = nk6.QuadratureRule(24, 24, 24)

for name in ("dvv", "totally-geodesic"):
    imm = nk6.resolve_model(name)
    report = nk6.integrate_inequality(imm, rule)
    print(f"model {name}:")
    print(f"  volume            = {report.volume:.12f}")
    print(f"  integral          = {report.integral:.3e}")
    print(f"  integrand sup     = {report.integrand_sup_norm:.3e}")
    print(f"  |h|^2 range       = [{report.hsq_range[0]:.3e}, {report.hsq_range[1]:.3e}]")
    print(f"  Theta range       = [{report.theta_range[0]:.6f}, {report.theta_range[1]:.6f}]")
    print(f"  classification    = {report.classification}")
    print(f"  refinement delta  = {report.volume_refinement_delta:.3e}")
    print()

# Reference volumes: the Berger metric scales the round volume 2 pi^2 by
# sqrt(4/9 * 8/3 * 8/3) = 16/9.
print("expected volumes:  Berger 32 pi^2 / 9 =", 32 * np.pi**2 / 9)
print("                   great sphere 2 pi^2 =", 2 * np.pi**2)

# The pointwise inequality behind the integral bound: at every node of the
# rule, |nabla h|^2 >= (3/4) |h|^2 with equality exactly on these two models.
imm = nk6.dvv_immersion()
pts = imm.chart.random_points(25, np.random.default_rng(4))
nh = nk6.nabla_h(imm, pts)
sff = nk6.second_fundamental_form(imm, pts)
slack = nh.norm_sq() - 0.75 * sff.norm_sq()
print("\npointwise gradient bound slack on the Berger sphere:",
      float(np.max(np.abs(slack))), "(zero: the equality case)")
