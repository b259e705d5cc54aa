"""Method of characteristics: transport with boundary data, a 4D system
with closed forms, and a genuinely set-valued solution (shock).

Run:  python demos/05_characteristics_and_shocks.py
"""

import numpy as np

import viakit as vk

# --- transport on the half line: data ride the characteristics -----------------

halfline = vk.box([0.0], [np.inf])
one = vk.transport_field([1.0])
data = vk.BoundaryData(lambda X: np.sin(X[:, :1]),      # data are batch-only: rows in,
                       lambda S, X: np.cos(3.0 * S))   # (m, 1) columns out
prob = vk.CharProblem(lambda t, x, y: np.zeros_like(y), halfline, data, 1, phi=one)

for t, x in ((0.5, 2.0), (3.0, 1.0)):
    u = vk.solve_char(prob, t, [x], 1e-3)
    src = "initial datum u0(x-t)" if t <= x else "boundary datum v(t-x, 0)"
    print(f"u({t}, {x}) = {u[0]:+.6f}   carried by the {src}")

s, c = vk.exitor(one, halfline, 5.0, [2.0], 1e-3)
print("foot of the characteristic through (5, 2): time", s, "point", c)

# --- the 4D demographic system: three closed-form regimes ----------------------

rho, sigma, beta, b, r2 = 1.0, 0.5, 0.3, 2.0, np.e
u0 = lambda C: np.sin(C[:, :1]) + 0.5 * C[:, 1:2] + 0.2 * C[:, 2:3] * C[:, 3:]
v1 = lambda S, Z: np.cos(S) + 0.1 * Z[:, :1] + 0.05 * Z[:, 1:2] * Z[:, 2:]    # Z = (x2, x3, x4)
vr2 = lambda S, Z: 0.3 * S + 0.2 * Z[:, :1] + 0.1 * Z[:, 1:2] - 0.05 * Z[:, 2:]  # Z = (x1, x3, x4)
oracle = vk.demo4d(rho, sigma, beta, b, r2, 0.4, u0, v1, vr2)

K4 = vk.product(vk.box([0.0], [np.inf]), vk.box([0.0], [r2]),
                vk.box([0.0], [np.inf]), vk.box([0.0], [b]))


def vgamma(S, X):  # the x1 = 0 face, else the x2 = r2 face
    return np.where(X[:, :1] <= 1e-6, v1(S, X[:, 1:]), vr2(S, X[:, [0, 2, 3]]))


prob4 = vk.CharProblem(lambda t, x, y: -0.4 * y, K4, vk.BoundaryData(u0, vgamma),
                       1, phi=vk.demographic_field(rho, sigma, beta, b))

print("\n4D system, closed form vs numeric characteristics:")
for t, x in ((0.5, [2.0, 1.0, 1.0, 1.0]),
             (3.0, [0.4, 1.0, 0.5, 1.5]),
             (3.0, [2.5, 2.5, 1.0, 0.8])):
    ue = oracle(t, np.array(x))[0]
    un = vk.solve_char(prob4, t, np.array(x), 1e-2)[0]
    print(f"  regime {oracle.regime(t, np.array(x))}: closed {ue:+.8f} "
          f"numeric {un:+.8f}  diff {abs(ue-un):.1e}")

# --- shocks: characteristics crossing make the solution set-valued -------------

shock = vk.CharProblem(lambda t, x, y: np.zeros_like(y), vk.whole_space(1),
                       vk.BoundaryData(lambda X: -X[:, :1]), 1,
                       f=lambda t, x, y: y)
cloud = vk.graph_sample(shock, 1.2, 0.01, 41, [-1.0], [1.0])
print(f"\nshock problem x' = y with u0 = -x: cloud of {len(cloud)} graph samples")
ys = vk.query_graph(cloud, 1.0, [0.0], 0.02)
print("output values over (t, x) = (1, 0):", len(ys), "distinct branches, range",
      (float(ys[0][0]), float(ys[-1][0])))
rep = vk.frankowska_residual(cloud, shock, 100)
print("graph tangency residuals: forward", rep.max_forward,
      "backward", rep.max_backward)
print("replay defect (paths lead back to the data manifold):",
      vk.replay_check(cloud, shock, 0.01))
