"""Run the README's CLI loop and print the SHA-256 of everything it writes.

The loop: `gen` a desk model (seed 3), `score` it over 256 samples
(seed 5), `plan` blockwise at budget 3, then for each variant `replace
--fit --samples 64 --seed 7` and `verify --samples 8 --tol 0.5 --out`.
Every command goes through `cli.main` in a fresh temporary directory,
with relative paths, so no path of the run reaches a file or a stream.
The script imports the `src/` of the checkout it sits in. It prints one
line per command (its exit code and the SHA-256 of its stdout and
stderr), then one line per output file. It is not a `test_*` file, so
pytest does not collect it. Run it from two checkouts and diff the
output to check that a change keeps the loop's outputs bit for bit:

    python tests/check_readme_loop.py > loop.txt

It exits 1 if a command other than `verify` (which fails its tolerance
on these models today) exits non-zero. On a 2-core x86-64 host it takes
about 3 s.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dwdropin import cli  # noqa: E402

VARIANTS = ("dw", "convfull", "ens-dw", "ens-convfull")
LOOP = [
    "gen --config desk --seed 3 --out model.bin",
    "score --model model.bin --samples 256 --seed 5 --out report.json",
    "plan --report report.json --budget 3 --mode blockwise --order lowest --out plan.json",
] + [cmd for v in VARIANTS for cmd in (
    f"replace --model model.bin --plan plan.json --variant {v} --fit --samples 64 --seed 7 "
    f"--out {v}.bin",
    f"verify --model model.bin --hybrid {v}.bin --samples 8 --tol 0.5 --out verify-{v}.json",
)]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(cmd: str) -> tuple:
    """`cli.main` on the words of `cmd`: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(cmd.split())
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for cmd in LOOP:
                code, out, err = run(cmd)
                failed |= code != 0 and not cmd.startswith("verify")
                print(f"exit {code} stdout {sha(out.encode())} stderr {sha(err.encode())}  {cmd}")
            for path in sorted(Path(tmp).iterdir()):
                print(f"{sha(path.read_bytes())}  {path.name}")
        finally:
            os.chdir(cwd)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
