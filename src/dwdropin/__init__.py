"""Depthwise-convolution drop-in replacements for ViT attention heads.

A small numpy library with five layers:

  tensor   float32 kernels (matmul, row softmax, 2-D and depthwise conv,
           seeded fills)
  vit      the exact transformer forward path and its grid-form oracle
  dropin   the four replacement formulations, head surgery, kernel fitting
  select   one-pass variance scoring, structural diagnostics, relaxed
           top-k gating
  cost     closed-form FLOP/parameter accounting and a timing harness

plus a `dwdropin` CLI wiring them into reproducible runs over a model-
archive file format (see archive module).
"""

__version__ = "0.1.0"
