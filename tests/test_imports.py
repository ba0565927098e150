"""Every module-level import of a package module is used by that module,
and every private module-level name (`_name`) a module defines is read
in that module. Only `tensor.all_finite` names an `isfinite`: it is the
one finiteness test. Only `vit.gelu` names an `erf`, and only
`vit.ffn_forward` names `gelu`: the GELU formula the frozen reference
pins lives in one place, and rewrites only the hidden array the FFN
owns. Only `tensor.row_taps` calls a `tile`: it is the one rule that
tiles a depthwise kernel into row taps. Only `vit.blocks_forward` calls
`block_forward`: it is the one block loop, of one sample's (n, d)
residual and of a chunk's (B, n, d), in one code path. Only `vit.chunks`
calls `chunk_size`: it is the one chunk rule, which stacks the samples of
the sample pass and of `verify`. Only `vit` names
`tensor.small_gemms`, in `blocks_forward` and the sample pass: every
forward of a config runs its GEMMs in row pieces exactly where
`vit.two_stage` holds, so a sample's bits do not depend on its chunk.
Exact `attention` runs in `vit.mhsa_forward`, in the sample pass
(`vit.attention_reads`) and in a drop-in block's kept heads
(`dropin.BlockSublayer`), nowhere else: scoring and the fit's capture
tap and fold the pass rather than run attention themselves. Only
`vit.attention_reads` starts a thread: its two-stage pipeline is the
package's one use of a second core besides BLAS's own. Only
`archive` opens files: it writes and reads every report and
archive. `cost.activation_bytes` names no drop-in variant: it prices a
block by its formulation (`dropin.DEPTHWISE`) and channel counts, as
`flops_params` does. Only `dropin` spells a `dropin.*` archive name: the
hybrid's section is read and written there alone. Only
`dropin.replace_heads` makes a `HybridModel`: reading a hybrid archive
rebuilds it through surgery.

Every module is scanned, `__init__.py` too: the package binds only
`__version__`, and each name is imported from the module that defines it.
"""

import ast
from pathlib import Path

import pytest

from dwdropin import dropin

SRC = Path(__file__).resolve().parent.parent / "src" / "dwdropin"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by the module's top-level imports that nothing reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def unread_private_names(source: str) -> list:
    """Private names (one leading underscore, not a dunder) that the
    module's top-level definitions or assignments bind and nothing in the
    module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound
            if name.startswith("_") and not name.endswith("__") and name not in read]


def test_detects_an_unused_import():
    assert unused_imports("import os\nimport re\nfrom a import b, c as d\nre.x(d)\n") == \
        ["os", "b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert MODULES
    assert unused_imports(path.read_text()) == []


def test_detects_an_unread_private_name():
    source = ("def _used():\n    pass\n\ndef _dead():\n    pass\n\nclass _Gone:\n    pass\n"
              "_TABLE, _SEEN = 1, 2\n__all__ = []\n_x: int = 3\n"
              "def public():\n    _dead = 0\n    return _used(_SEEN)\n")
    assert unread_private_names(source) == ["_dead", "_Gone", "_TABLE", "_x"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unread_private_names(path):
    assert MODULES
    assert unread_private_names(path.read_text()) == []


def name_readers(source: str, name: str) -> list:
    """The top-level definition (or "<module>") around each `name` the
    module imports or reads: as an attribute (`np.isfinite`), imported, or
    bare, called or not."""
    tree = ast.parse(source)
    return [getattr(node, "name", "<module>") for node in tree.body for n in ast.walk(node)
            if (isinstance(n, ast.Name) and n.id == name)
            or (isinstance(n, ast.Attribute) and n.attr == name)
            or (isinstance(n, ast.alias) and n.name == name)]


def test_detects_an_isfinite_reader():
    source = ("import math\nfrom numpy import isfinite\nOK = math.isfinite(1.0)\n"
              "def f(a):\n    return isfinite(a).all()\n"
              "class C:\n    def g(self, a):\n        return map(np.isfinite, a)\n")
    assert name_readers(source, "isfinite") == ["<module>", "<module>", "f", "C"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_only_all_finite_reads_isfinite(path):
    expected = ["all_finite", "all_finite"] if path.stem == "tensor" else []
    assert name_readers(path.read_text(), "isfinite") == expected


def test_detects_an_erf_reader():
    source = ("import scipy.special as sp\nfrom scipy.special import erf\n"
              "def gelu(u):\n    return erf(u, out=u)\n"
              "def act(x):\n    return gelu(x) + sp.erf(x)\n"
              "class C:\n    f = staticmethod(gelu)\n")
    assert name_readers(source, "erf") == ["<module>", "gelu", "act"]
    assert name_readers(source, "gelu") == ["act", "C"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_only_gelu_reads_erf(path):
    source = path.read_text()
    expected = ([["<module>", "gelu"], ["ffn_forward"]] if path.stem == "vit"
                else [[], []])
    assert [name_readers(source, "erf"), name_readers(source, "gelu")] == expected


def callers(source: str, name: str) -> list:
    """The top-level definition (or "<module>") around each call of
    `name`: as an attribute (`np.tile(...)`, `vit.block_forward(...)`) or
    bare (`tile(...)`)."""
    tree = ast.parse(source)
    return [getattr(node, "name", "<module>") for node in tree.body for n in ast.walk(node)
            if isinstance(n, ast.Call)
            and ((isinstance(n.func, ast.Attribute) and n.func.attr == name)
                 or (isinstance(n.func, ast.Name) and n.func.id == name))]


def test_detects_a_tile_caller():
    source = ("import numpy as np\nfrom numpy import tile\nT = np.tile([1], 2)\n"
              "def f(k):\n    return tile(k, 3)\n"
              "class C:\n    def g(self, k):\n"
              "        return numpy.tile(k, (1, 2)), np.repeat(k, 2)\n")
    assert callers(source, "tile") == ["<module>", "f", "C"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_only_row_taps_tiles(path):
    expected = ["row_taps"] if path.stem == "tensor" else []
    assert callers(path.read_text(), "tile") == expected


def test_detects_a_block_forward_caller():
    source = ("from .vit import block_forward\n"
              "def blocks_forward(x, blocks):\n"
              "    for blk in blocks:\n        x = block_forward(x, blk)\n    return x\n"
              "def chunk_pass(x, model):\n    return vit.block_forward(x, model.blocks[0])\n"
              "def gated(x, blk):\n    return gated_block_forward(x, blk, None, 0.0)\n"
              "FN = block_forward\n")
    assert callers(source, "block_forward") == ["blocks_forward", "chunk_pass"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_only_blocks_forward_calls_block_forward(path):
    """One block loop: `model_forward`, of one sample or a chunk, and the
    sample pass (`attention_reads`) both run `vit.blocks_forward`, and
    nothing else runs a block."""
    expected = ["blocks_forward"] if path.stem == "vit" else []
    assert callers(path.read_text(), "block_forward") == expected


def test_detects_a_chunk_size_caller():
    source = ("from .vit import chunk_size\n"
              "def chunks(samples, cfg):\n    return batched(samples, chunk_size(cfg))\n"
              "def verification_checks(xs, cfg):\n"
              "    return np.split(xs, range(vit.chunk_size(cfg), len(xs), 8))\n"
              "def budget(cfg):\n    return head_chunk_size(cfg), chunk_size\n")
    assert callers(source, "chunk_size") == ["chunks", "verification_checks"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_only_chunks_calls_chunk_size(path):
    """One chunk rule: the sample pass (`attention_reads`) and `verify`
    take their chunks from `vit.chunks`, and nothing else sizes one."""
    expected = ["chunks"] if path.stem == "vit" else []
    assert callers(path.read_text(), "chunk_size") == expected


def test_detects_an_attention_caller():
    source = ("from . import vit\n"
              "def score_model(model, samples):\n"
              "    return vit.attention(samples, model.w_qkv, 4, energy_tap=print)\n"
              "def oracles(x, blk):\n"
              "    return head_attention(x, blk, 0), explicit_attention(x, x)\n"
              "class BlockSublayer:\n    def __call__(self, x):\n"
              "        return attention(x, self.w_exact, 4)\n")
    assert callers(source, "attention") == ["score_model", "BlockSublayer"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_only_the_sample_pass_runs_exact_attention(path):
    """Besides the one-block sublayers that are attention (`mhsa_forward`,
    a drop-in block's kept heads), only the sample pass runs it."""
    expected = {"vit": ["mhsa_forward", "attention_reads"],
                "dropin": ["BlockSublayer"]}.get(path.stem, [])
    assert callers(path.read_text(), "attention") == expected


# Calls that start a thread or a process: `threading`, `_thread`,
# `concurrent.futures` and `multiprocessing`.
THREAD_STARTERS = ("Thread", "Timer", "start_new_thread", "ThreadPoolExecutor",
                   "ProcessPoolExecutor", "Process", "Pool")


def thread_starters(source: str) -> list:
    """The top-level definition (or "<module>") around each call of one
    of THREAD_STARTERS, as an attribute (`threading.Thread(...)`) or bare."""
    tree = ast.parse(source)
    return [getattr(node, "name", "<module>") for node in tree.body for n in ast.walk(node)
            if isinstance(n, ast.Call)
            and (n.func.attr if isinstance(n.func, ast.Attribute)
                 else getattr(n.func, "id", None)) in THREAD_STARTERS]


def test_detects_a_thread_starter():
    source = ("import threading\nfrom concurrent.futures import ThreadPoolExecutor\n"
              "T = threading.Thread(target=print)\n"
              "def attention_reads(xs):\n    return Thread(target=len, args=(xs,))\n"
              "def mapped(xs):\n    with ThreadPoolExecutor(2) as ex:\n"
              "        return list(ex.map(len, xs))\n"
              "class C:\n    def g(self):\n"
              "        return multiprocessing.Pool(2), threading.get_ident()\n")
    assert thread_starters(source) == ["<module>", "attention_reads", "mapped", "C"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_only_the_sample_pass_starts_a_thread(path):
    expected = ["attention_reads"] if path.stem == "vit" else []
    assert thread_starters(path.read_text()) == expected


def test_detects_a_small_gemms_reader():
    source = ("from .tensor import small_gemms\n"
              "def blocks_forward(x):\n    with small_gemms():\n        return x\n"
              "def pieces():\n    return tensor.small_gemms\n"
              "class C:\n    def f(self):\n        with tensor.small_gemms() as g:\n"
              "            return _small_gemms.get()\n")
    assert name_readers(source, "small_gemms") == ["<module>", "blocks_forward", "pieces", "C"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_only_vit_enters_small_gemms(path):
    """The piece rule (`vit.two_stage`) governs every forward, so no
    other module may run its own GEMMs in pieces."""
    expected = ["<module>", "blocks_forward", "attention_reads"] if path.stem == "vit" else []
    assert name_readers(path.read_text(), "small_gemms") == expected


def file_openers(source: str) -> list:
    """The top-level definition (or "<module>") around each call that
    opens, reads or writes a file: `open(...)` bare or as an
    attribute (`io.open`, `path.open`), `json.load`, `json.dump`, or a bare
    `load` or `dump` imported from json. `json.loads` and `json.dumps` work
    on strings and are not counted."""
    tree = ast.parse(source)

    def opens(f):
        if isinstance(f, ast.Name):
            return f.id in ("open", "load", "dump")
        return isinstance(f, ast.Attribute) and (
            f.attr == "open" or (f.attr in ("load", "dump")
                                 and isinstance(f.value, ast.Name) and f.value.id == "json"))

    return [getattr(node, "name", "<module>") for node in tree.body for n in ast.walk(node)
            if isinstance(n, ast.Call) and opens(n.func)]


def test_detects_a_file_opener():
    source = ("import io, json\nfrom json import dump\nF = open('x')\n"
              "def save(p, d):\n    with io.open(p, 'w') as f:\n        dump(d, f)\n"
              "def read(p):\n    return json.load(p.open())\n"
              "TEXT = json.dumps(json.loads('1'))\n"
              "class C:\n    def g(self, d, f):\n        return json.dump(d, f)\n")
    assert file_openers(source) == ["<module>", "save", "save", "read", "read", "C"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_only_archive_opens_files(path):
    expected = (["write_json", "write_json", "read_json", "read_json", "save_archive",
                 "load_archive"] if path.stem == "archive" else [])
    assert file_openers(path.read_text()) == expected


def named_strings(source: str, function: str, names) -> list:
    """The string constants among `names` that the module's top-level
    `function` holds, in source order."""
    tree = ast.parse(source)
    found = [n for node in tree.body if getattr(node, "name", None) == function
             for n in ast.walk(node)
             if isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value in names]
    return [n.value for n in sorted(found, key=lambda n: (n.lineno, n.col_offset))]


def test_detects_a_variant_name():
    source = ('def activation_bytes(variant):\n    """Prices dw."""\n'
              '    return {"dw": 1, "mhsa": 2}[variant] if variant != "ens-dw" else 0\n'
              'def other():\n    return "convfull"\n')
    assert named_strings(source, "activation_bytes", dropin.VARIANTS) == ["dw", "ens-dw"]
    assert named_strings(source, "other", dropin.VARIANTS) == ["convfull"]


def test_activation_bytes_names_no_variant():
    source = (SRC / "cost.py").read_text()
    assert "def activation_bytes(" in source
    assert named_strings(source, "activation_bytes", dropin.VARIANTS) == []


def test_detects_a_hybrid_model_maker():
    source = ("from .dropin import HybridModel\n"
              "def replace_heads(model, plan):\n"
              "    return HybridModel(base=model, dropins={}, plan=plan, sublayers={})\n"
              "def hybrid_from_archive(ar, model):\n"
              "    hm = dropin.HybridModel(model, {}, None, {})\n"
              "    return hm if isinstance(hm, HybridModel) else None\n")
    assert callers(source, "HybridModel") == ["replace_heads", "hybrid_from_archive"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_only_replace_heads_makes_a_hybrid(path):
    expected = ["replace_heads"] if path.stem == "dropin" else []
    assert callers(path.read_text(), "HybridModel") == expected


def dropin_name_spellers(source: str) -> list:
    """The top-level definition (or "<module>") around each string
    constant, or literal part of an f-string, that starts with "dropin.";
    docstrings are not counted."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef))
                  and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    return [getattr(node, "name", "<module>") for node in tree.body for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
            and n.value.startswith("dropin.") and id(n) not in docstrings]


def test_detects_a_dropin_name_speller():
    source = ('"""dropin.* names live in one module."""\n'
              'def model_from_archive(ar):\n'
              '    """Refuses dropin.* names."""\n'
              '    return [n for n in ar if n.startswith("dropin.")]\n'
              'def gamma_name(b):\n    return f"dropin.block{b}.gamma"\n'
              'META = {"dropin": 1}\n')
    assert dropin_name_spellers(source) == ["model_from_archive", "gamma_name"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_only_dropin_spells_dropin_names(path):
    expected = (["_head_kernel_name", "_gamma_name", "_ens_kernel_name", "hybrid_from_archive"]
                if path.stem == "dropin" else [])
    assert dropin_name_spellers(path.read_text()) == expected
