"""Fitting replacement kernels by exact least squares.

The fitting objective ||Att - Conv_DW(V, K)||_F^2 is linear in the kernel
entries, so each channel reduces to a k^2 x k^2 normal system solved in
closed form. No gradient descent required, though the analytic gradient
exists for checking. The reported objective comes from the same normal
equations, t^T t - 2 k^T r + k^T G k, with no second pass over the samples.

A replaced block is fitted as one group: one value GEMM over the replaced
heads' stacked value columns, their exact outputs side by side as
targets, and one set of normal equations for the whole block. The targets
come straight from the capture: one forward per sample records each
planned block's input and the (n, d) head outputs its exact attention
computed, so no exact attention is run a second time to fit.
"""

import numpy as np

from dwdropin import dropin, vit
from dwdropin.dropin import (
    attention_inputs,
    fit_block,
    fit_depthwise_kernel,
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
# capture pass over the samples serves every block fitted from it, and one
# block fit serves all of the block's replaced heads.
inputs = attention_inputs(model, samples, blocks=[0])
a_in, heads_out = inputs[0][0]
print(f"\ncapture of block 0: {len(inputs[0])} samples of input {a_in.shape} "
      f"and head outputs {heads_out.shape}")
heads = (1, 2)  # block 0, heads 1 and 2
fits = fit_block(model, 0, "dw", heads, None, inputs)
for h, (kern, rep) in zip(heads, fits):
    print(f"\nhead (0, {h}): fitted depthwise kernel {kern.shape}")
    print(f"  residual {rep.objective:.4f} vs zero-kernel baseline {rep.zero_objective:.4f} "
          f"({100 * (1 - rep.objective / rep.zero_objective):.1f}% explained)")

# Swap both heads in, fitted vs randomly initialized kernels.
from dwdropin.select import SelectionPlan

plan = SelectionPlan(mode="scattered", order="lowest", budget=len(heads),
                     targets=tuple((0, h) for h in heads))
x = samples[0]
base = vit.model_forward(x, model)
random = [dropin.init_kernel("dw", cfg, 55 + h) for h in heads]
for label, kernels in (("fitted", [kern for kern, _ in fits]), ("random", random)):
    hm = dropin.replace_heads(model, plan, {0: dropin.BlockDropin(
        variant="dw", head_kernels=dict(zip(heads, kernels)))})
    gap = np.abs(dropin.hybrid_forward(hm, x) - base).max()
    print(f"  model-output gap with {label} kernels: {gap:.4f}")
