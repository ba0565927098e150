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

from .archive import Archive, ArchiveError, load_archive, save_archive, save_model
from .cost import bench, budget_sweep, flops_params, model_cost_report, variant_table
from .dropin import (
    BlockDropin,
    HybridModel,
    attention_inputs,
    attn_conv_full,
    attn_dw,
    build_dropins,
    ensemble_weights,
    fit_depthwise_kernel,
    fit_kernels,
    fit_loss_and_grad,
    fold_full_kernel,
    hybrid_forward,
    mhsa_dw_ensembled,
    replace_heads,
)
from .select import (
    SelectionPlan,
    WelfordState,
    anneal_tau,
    check_properties,
    gated_block_forward,
    gumbel_topk_relax,
    hard_topk_gate,
    score_model,
    sigma_block,
    sigma_head,
    welford_finalize,
    welford_update,
)
from .select import select as select_units
from .tensor import (
    ConfigError,
    NonFiniteError,
    ShapeError,
    conv2d,
    dwconv2d,
    matmul,
    seeded_fill,
    softmax_rows,
)
from .vit import (
    DESK,
    VITL,
    BlockParams,
    Model,
    ModelConfig,
    block_forward,
    explicit_attention,
    head_attention,
    head_energy,
    init_model,
    mhsa_forward,
    model_forward,
    qkv_project,
)
