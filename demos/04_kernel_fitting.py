"""Fitting replacement kernels by exact least squares.

The fitting objective ||Att - Conv_DW(V, K)||_F^2 is linear in the kernel
entries, so each channel reduces to a k^2 x k^2 normal system solved in
closed form. No gradient descent required, though the analytic gradient
exists for checking. The reported objective comes from the same normal
equations, t^T t - 2 k^T r + k^T G k, with no second pass over the samples.

A replaced block is fitted as one group: one value GEMM over the replaced
heads' stacked value columns, their exact outputs side by side as
targets, and one set of normal equations for the whole block. The targets
come straight from the capture: one forward per chunk of samples hands
each planned block's inputs and the (B, n, d) head outputs its exact
attention computed to that block's fold, so no exact attention is run a
second time to fit.

The normal equations are sums over samples, so the fit never needs the
samples together: `build_dropins` folds each block's capture into them,
one sample at a time, as soon as the chunk's pass reads that block and
keeps nothing else, which holds fit memory flat however many samples are
drawn (GPTQ accumulates its calibration Gram matrices the same way).
"""

import numpy as np

from dwdropin import dropin, vit
from dwdropin.dropin import attention_inputs, fit_depthwise_kernel, fit_loss_and_grad
from dwdropin.select import SelectionPlan
from dwdropin.tensor import dwconv2d, matmul, seed_stream, seeded_fill

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
# capture pass serves every block fitted from it, and one block fit
# serves all of the block's replaced heads. `build_dropins` takes the
# samples as a one-pass iterator and folds each into the block's normal
# equations as soon as the pass reads the block for its chunk.
heads = (1, 2)  # block 0, heads 1 and 2
plan = SelectionPlan(mode="scattered", order="lowest", budget=len(heads),
                     targets=tuple((0, h) for h in heads))
fitted, reports = dropin.build_dropins(model, plan, "dw", samples=iter(samples))
for h in heads:
    rep = reports[(0, h)]
    print(f"\nhead (0, {h}): fitted depthwise kernel {fitted.dropins[0].head_kernels[h].shape}")
    print(f"  residual {rep.objective:.4f} vs zero-kernel baseline {rep.zero_objective:.4f} "
          f"({100 * (1 - rep.objective / rep.zero_objective):.1f}% explained)")

# The same heads fitted one at a time: a fold on the capture collects each
# head's values and exact output per sample, and `fit_depthwise_kernel`
# solves each head's own normal equations. The block fit's sums are the
# per-head sums side by side, so kernels and reports agree bit for bit.
block, pairs = model.blocks[0], {h: ([], []) for h in heads}


def keep_heads(a_in, out):
    # the capture hands a fold a chunk of samples, (B, n, d) each
    for a_s, out_s in zip(a_in, out):
        for h, (values, targets) in pairs.items():
            values.append(vit.grid(matmul(a_s, vit.head_cols(block.w_v, h, cfg.d_h)), cfg.m))
            targets.append(vit.grid(vit.head_cols(out_s, h, cfg.d_h), cfg.m))


attention_inputs(model, samples, {0: keep_heads})
fits = {h: fit_depthwise_kernel(values, targets, cfg.k) for h, (values, targets) in pairs.items()}
same = all(np.array_equal(fitted.dropins[0].head_kernels[h], kern) and reports[(0, h)] == rep
           for h, (kern, rep) in fits.items())
print(f"\nstreamed block fit matches the per-head fits bitwise: {same}")

# Swap both heads in, fitted vs randomly initialized kernels.
x = samples[0]
base = vit.model_forward(x, model)
random = dropin.replace_heads(model, plan, {0: dropin.BlockDropin(
    variant="dw", head_kernels={h: dropin.init_kernel("dw", cfg, 55 + h) for h in heads})})
for label, hm in (("fitted", fitted), ("random", random)):
    gap = np.abs(dropin.hybrid_forward(hm, x) - base).max()
    print(f"  model-output gap with {label} kernels: {gap:.4f}")
