"""Multiple-kernel learning on poly2d: learn, threshold, refit."""

import numpy as np

from flowkernels import MKLConfig, mkl_solve, refit_pruned, sparsify
from flowkernels.dynamics import make_system, poly2d_reference_eigenfunctions
from flowkernels.grids import tensor_grid
from flowkernels.kernels import KernelMixture, PolynomialKernel
from flowkernels.mkl import kernel_label

system = make_system("poly2d")
X = tensor_grid([(-1, 1), (-1, 1)], 21)
refs = poly2d_reference_eigenfunctions()

# full 11-kernel bank, no sparsity pressure
result = mkl_solve(system, -1.0, X, MKLConfig(), reference=refs[-1.0])
print("learned weights (lam = -1):")
for label, b in zip(result.kernel_labels, result.beta):
    print(f"  {label:<18} {b:.6f}")
print(f"rescaled rmse = {result.rmse_rescaled:.3e}, "
      f"converged = {result.converged}")

# every weight sits just below the config's 0.1 threshold, so pruning wipes
# the model out -- the library reports that instead of failing
pruned = sparsify(result)
print(f"\nafter tau=0.1 threshold: {pruned.pruned_beta.size} kernels survive")

# a hand-set trio of polynomial kernels refits essentially exactly,
# since each of them can represent the quadratic target on its own
trio = KernelMixture(
    [PolynomialKernel(degree=d, coef0=1.0) for d in (2, 3, 4)],
    [0.331, 0.378, 0.291],
)
refit = refit_pruned(system, -1.0, X, trio, reference=refs[-1.0])
print(f"hand-set poly trio refit rmse = {refit.rmse_rescaled:.3e}")

# the fast eigenfunction (rate 3) is quartic, harder for the radial
# members of the bank; the mixture still does fine
fast = mkl_solve(system, 3.0, X, MKLConfig(), reference=refs[3.0])
print(f"\nlam = 3 mixture rmse = {fast.rmse_rescaled:.3e}")
