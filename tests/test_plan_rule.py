"""One plan rule: surgery, archive loading, cost accounting and the CLI
refuse the same plans with the same message (`dropin.planned_heads`)."""

import numpy as np
import pytest

from dwdropin import dropin
from dwdropin.archive import Archive, ArchiveError, model_tensors, save_archive, save_model
from dwdropin.cli import main
from dwdropin.cost import model_cost_report
from dwdropin.select import SelectionPlan, plan_to_file
from dwdropin.tensor import ConfigError

from conftest import TINY

# (id, plan, variant, the refusal's message); TINY has 2 blocks of 2 heads.
PLAN_REFUSALS = [
    ("block-99", SelectionPlan("blockwise", "lowest", 1, (99,)), "dw",
     "plan targets nonexistent head (block 99, head 0)"),
    ("block-minus-1", SelectionPlan("blockwise", "lowest", 1, (-1,)), "dw",
     "plan targets nonexistent head (block -1, head 0)"),
    ("head-ge-n_h", SelectionPlan("scattered", "lowest", 1, ((0, TINY.n_h),)), "convfull",
     f"plan targets nonexistent head (block 0, head {TINY.n_h})"),
    ("ensembled-scattered-whole-block",
     SelectionPlan("scattered", "lowest", 2, ((0, 0), (0, 1))), "ens-dw",
     "ens-dw requires a blockwise plan"),
    ("ensembled-partial-block", SelectionPlan("scattered", "lowest", 1, ((1, 0),)),
     "ens-convfull", "ens-convfull requires a blockwise plan"),
    ("unknown-variant", SelectionPlan("blockwise", "lowest", 1, (0,)), "dw-typo",
     "unknown variant 'dw-typo'"),
]
CLI_REFUSALS = [r for r in PLAN_REFUSALS if r[2] in dropin.VARIANTS]


def _params(plan, variant) -> dict:
    """Well-shaped replacement parameters for every head the plan names."""
    params = {}
    for b, h in sorted(plan.covered_heads(TINY)):
        kern = np.zeros(dropin.kernel_shape(variant, TINY), np.float32)
        if variant in dropin.ENSEMBLED:
            params[b] = dropin.BlockDropin(variant, gamma=np.zeros(TINY.n_h), kernel=kern)
        else:
            params.setdefault(b, dropin.BlockDropin(variant)).head_kernels[h] = kern
    return params


def _archive_with_plan(model, plan, variant) -> Archive:
    """A hybrid archive for block 0 whose drop-in section carries `plan` and
    names `variant`, as a hand-edited archive would."""
    built_as = variant if variant in dropin.VARIANTS else "dw"
    hm, _ = dropin.build_dropins(model, SelectionPlan("blockwise", "lowest", 1, (0,)), built_as)
    extra, meta = dropin.hybrid_tensors_meta(hm)
    meta = {**meta, "plan": plan.to_json(), "variants": {"0": variant}}
    return Archive(config=TINY, tensors={**model_tensors(model), **extra}, meta={"dropin": meta})


@pytest.mark.parametrize("plan, variant, message", [r[1:] for r in PLAN_REFUSALS],
                         ids=[r[0] for r in PLAN_REFUSALS])
def test_library_paths_refuse_alike(tiny_model, plan, variant, message):
    calls = {
        "build_dropins": lambda: dropin.build_dropins(tiny_model, plan, variant),
        "replace_heads": lambda: dropin.replace_heads(tiny_model, plan, _params(plan, variant)),
        "model_cost_report": lambda: model_cost_report(TINY, plan, variant),
    }
    for name, call in calls.items():
        with pytest.raises(ConfigError) as exc:
            call()
        assert str(exc.value) == message, name
    with pytest.raises(ArchiveError) as exc:
        dropin.hybrid_from_archive(_archive_with_plan(tiny_model, plan, variant))
    assert str(exc.value) == f"bad drop-in section: {message}"


@pytest.fixture()
def tiny_archive(tmp_path, tiny_model):
    out = tmp_path / "model.bin"
    save_model(out, tiny_model)
    return out


@pytest.mark.parametrize("plan, variant, message", [r[1:] for r in CLI_REFUSALS],
                         ids=[r[0] for r in CLI_REFUSALS])
@pytest.mark.parametrize("command", [
    ("replace", "--out", "h.bin"),
    ("cost", "--format", "json"),
    ("bench", "--reps", "1", "--warmup", "0"),
], ids=["replace", "cost", "bench-plan"])
def test_cli_refuses_alike(tmp_path, tiny_archive, capsys, command, plan, variant, message):
    plan_file = tmp_path / "plan.json"
    plan_to_file(plan, plan_file)
    name, *rest = command
    rest = [str(tmp_path / a) if a.endswith(".bin") else a for a in rest]
    capsys.readouterr()
    assert main([name, "--model", str(tiny_archive), "--plan", str(plan_file),
                 "--variant", variant, *rest]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "h.bin").exists()


def test_hand_made_hybrid_with_refused_plan_exits_3(tmp_path, tiny_archive, tiny_model, capsys):
    plan = SelectionPlan("scattered", "lowest", 2, ((0, 0), (0, 1)))
    ar = _archive_with_plan(tiny_model, plan, "ens-dw")
    hybrid = tmp_path / "h.bin"
    save_archive(hybrid, ar.config, ar.tensors, ar.meta)
    capsys.readouterr()
    assert main(["verify", "--model", str(tiny_archive), "--hybrid", str(hybrid),
                 "--samples", "2"]) == 3
    assert capsys.readouterr().err == \
        f"error: {hybrid}: bad drop-in section: ens-dw requires a blockwise plan\n"
