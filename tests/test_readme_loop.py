"""The README's CLI loop keeps its bits: `check_readme_loop.main()` prints
the 22 lines pinned in `readme_loop.txt` (11 commands with their exit
codes and output hashes, then the 11 files they write). The pinned file
holds its own header; a change that alters what the loop writes or prints
updates it in the same diff."""

from pathlib import Path

import check_readme_loop

PINNED = Path(__file__).with_name("readme_loop.txt")


def test_readme_loop_prints_its_pinned_lines(capsys):
    want = [line for line in PINNED.read_text().splitlines() if not line.startswith("#")]
    assert len(want) == 22
    assert check_readme_loop.main() == 0
    assert capsys.readouterr().out.splitlines() == want
