"""Differentiable block selection: relaxed top-k under temperature annealing.

Instead of ranking by a score, selection can be learned: each block gets a
logit, Gumbel noise breaks ties, and a temperature-controlled relaxation
of the top-k mask lets gradients flow. As the temperature anneals toward
zero the soft weights land on the hard mask. Nothing is trained here; the
demo shows the mechanics and the limit behavior.
"""

import numpy as np

from dwdropin.select import (
    GateParams,
    gate_trace,
    gated_block_forward,
    gumbel_noise,
    gumbel_topk_relax,
    hard_topk_gate,
)
from dwdropin.tensor import seeded_generator

n_b, budget = 24, 12
logits = np.zeros(n_b)

params = GateParams(logits=logits, budget=budget, tau0=4.0, tau_end=0.05, seed=17)
trace = gate_trace(params, steps=40)

print(f"annealing {len(trace)} steps, tau {trace[0]['tau']} -> {trace[-1]['tau']}:")
for rec in trace[:: len(trace) // 8]:
    print(f"  step {rec['step']:>3}  tau={rec['tau']:7.4f}  "
          f"L1(relaxed, hard mask)={rec['l1_to_hard']:7.4f}")
final = trace[-1]
chosen = [i for i, v in enumerate(final["hard_mask"]) if v]
print(f"hard mask selects {sum(final['hard_mask'])} blocks: {chosen}")

# The relaxed weights always sum to the budget and stay in [0, 1].
for tau in (4.0, 0.5, 0.05):
    wt = gumbel_topk_relax(logits, budget, tau, seed=17)
    print(f"tau={tau:5}: sum={wt.sum():.6f}  max={wt.max():.4f}  min={wt.min():.6f}")

# With well-separated logits the cold limit reproduces the hard mask.
sep = seeded_generator(3).permutation(10.0 * np.arange(n_b))
z = sep + gumbel_noise(n_b, seed=17)
cold = gumbel_topk_relax(sep, budget, 0.01, seed=17)
print(f"well-separated logits at tau=0.01: max gap to hard mask "
      f"{np.abs(cold - hard_topk_gate(z, budget)).max():.2e}")

# The gate itself is a convex combination of the two branches; at 0 or 1
# only one branch matters (used to run selection inside a forward pass).
from dwdropin import vit
from dwdropin.tensor import seeded_fill

cfg = vit.DESK
model = vit.init_model(cfg, seed=2)
x = seeded_fill((cfg.n, cfg.d), 4, "gaussian")
repl = lambda inp: np.zeros_like(inp)
closed = gated_block_forward(x, model.blocks[0], repl, 0.0)
opened = gated_block_forward(x, model.blocks[0], repl, 1.0)
print(f"gate 0 keeps attention (std {closed.std():.3f}); "
      f"gate 1 takes the replacement (std {opened.std():.3f})")
