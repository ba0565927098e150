"""Fitting replacement kernels by exact least squares.

The fitting objective ||Att - Conv_DW(V, K)||_F^2 is linear in the kernel
entries, so each channel reduces to a k^2 x k^2 normal system solved in
closed form. No gradient descent required, though the analytic gradient
exists for checking. The reported objective comes from the same normal
equations, t^T t - 2 k^T r + k^T G k, with no second pass over the samples.
"""

import numpy as np

from dwdropin import dropin, vit
from dwdropin.dropin import (
    attention_inputs,
    fit_depthwise_kernel,
    fit_kernels,
    fit_loss_and_grad,
)
from dwdropin.tensor import dwconv2d, seed_stream, seeded_fill

# --- planted-kernel sanity: targets generated by a known kernel ---------
k, c = 3, 8
planted = seeded_fill((k, k, c), 1, "gaussian", 0.0, 0.5)
v_list = [seeded_fill((8, 8, c), 2 + i, "gaussian") for i in range(3)]
t_list = [dwconv2d(v, planted) for v in v_list]
fitted, report = fit_depthwise_kernel(v_list, t_list, k)
print(f"planted kernel recovered to {np.abs(fitted - planted).max():.2e}; "
      f"objective {report.objective:.3e} (zero kernel: {report.zero_objective:.3e})")

# the gradient at the minimizer vanishes, and the direct loss agrees with
# the closed-form objective
loss, grad = fit_loss_and_grad(fitted, v_list, t_list)
print(f"gradient norm at the least-squares optimum: {np.linalg.norm(grad):.2e}; "
      f"direct loss {loss:.3e}")

# --- fitting a real head against its exact attention output -------------
cfg = vit.DESK
model = vit.init_model(cfg, seed=9)
seeds = seed_stream(90)
samples = [seeded_fill((cfg.n, cfg.d), next(seeds), "gaussian") for _ in range(8)]

# A freshly initialized head is nowhere near convolution-like (that is
# what the variance score is for), so the fit only captures a slice of it;
# the point here is the mechanics and that fitting always helps. One
# capture pass over the samples serves every head and block fitted from it.
inputs = attention_inputs(model, samples)
target = (0, 2)  # block 0, head 2
kern, rep = fit_kernels(model, target, inputs, variant="dw")
print(f"\nhead {target}: fitted depthwise kernel {kern.shape}")
print(f"  residual {rep.objective:.4f} vs zero-kernel baseline {rep.zero_objective:.4f} "
      f"({100 * (1 - rep.objective / rep.zero_objective):.1f}% explained)")

# Swap the head in, fitted vs randomly initialized.
from dwdropin.select import SelectionPlan

plan = SelectionPlan(mode="scattered", order="lowest", budget=1, targets=(target,))
x = samples[0]
base = vit.model_forward(x, model)
for label, kernel in (("fitted", kern), ("random", dropin.init_kernel("dw", cfg, 55))):
    hm = dropin.replace_heads(model, plan, {target[0]: dropin.BlockDropin(
        variant="dw", head_kernels={target[1]: kernel})})
    gap = np.abs(dropin.hybrid_forward(hm, x) - base).max()
    print(f"  model-output gap with {label} kernel: {gap:.4f}")
