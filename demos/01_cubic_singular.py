"""Why kernel choice dominates: the 1D cubic system.

The scalar flow x' = x - x^3 has a principal eigenfunction with a pole
at the domain ends, phi(x) = x / sqrt(1 - x^2).  A rank-one kernel
whose factor carries that boundary growth nails it to machine
precision; a bounded gaussian cannot get within three orders of
magnitude no matter how the scalar normalization is chosen.
"""

from flowkernels import CollocationProblem, make_kernel, make_system, solve
from flowkernels.dynamics import reference_eigenfunction
from flowkernels.grids import tensor_grid

system = make_system("cubic1d")
X = tensor_grid([(-0.99, 0.99)], [199])
reference = reference_eigenfunction("cubic1d", 1.0)

print(f"{'kernel':<14} {'residual':>12} {'rmse raw':>12} {'rmse rescaled':>14}")
for name, kern in [
    ("singular_1d", make_kernel("singular_1d")),
    ("gaussian", make_kernel("gaussian", ell=0.3)),
]:
    prob = CollocationProblem.for_eigenvalue(system, 1.0, kern, X)
    sol = solve(prob, reference=reference)
    print(f"{name:<14} {sol.residual_norm:>12.3e} {sol.rmse_raw:>12.3e} "
          f"{sol.rmse_rescaled:>14.3e}")

print()
print("the singular kernel spans the target exactly; the gaussian's best")
print("scalar multiple still misses by O(1) near the interval ends")
