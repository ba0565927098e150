"""Exhaustive check that scipy's float32 erf is odd, bit for bit.

`vit.gelu` runs erf on |u|/sqrt 2 and puts the sign of u back with
copysign; that keeps the bits of erf(u/sqrt 2) only if, for every float32
x >= 0, erf(-x) == -erf(x) bit for bit and erf(x) has a clear sign bit.
This script checks both over every finite non-negative float32 bit pattern
and +inf, 2**24 patterns at a time. It is not a `test_*` file, so pytest
does not collect it; run it after a scipy upgrade:

    python tests/check_erf_sign.py

It prints the scipy version and the mismatch count, and exits 1 on any
mismatch. On a 2-core x86-64 host it takes about half a minute.
"""

from __future__ import annotations

import sys
import time

import numpy as np
import scipy
from scipy.special import erf

CHUNK = 1 << 24
END = 0x7F800000 + 1  # every finite non-negative pattern, then +inf


def mismatches(start: int, base: np.ndarray, bufs) -> int:
    """Patterns in [start, start + len(base)) ∩ [0, END) where erf is not odd
    or erf(x) is negative, counted once each."""
    n = min(len(base), END - start)
    bits, neg, e_pos, e_neg = (b[:n] for b in bufs)
    np.add(base[:n], np.uint32(start), out=bits)
    x = bits.view(np.float32)
    np.negative(x, out=neg)
    erf(x, out=e_pos)
    erf(neg, out=e_neg)
    np.negative(e_neg, out=e_neg)  # -erf(-x): flips the sign bit only
    bad = e_pos.view(np.uint32) != e_neg.view(np.uint32)
    bad |= np.signbit(e_pos)
    return int(np.count_nonzero(bad))


def main() -> int:
    t0 = time.perf_counter()
    base = np.arange(CHUNK, dtype=np.uint32)
    bufs = (np.empty(CHUNK, np.uint32), np.empty(CHUNK, np.float32),
            np.empty(CHUNK, np.float32), np.empty(CHUNK, np.float32))
    bad = sum(mismatches(start, base, bufs) for start in range(0, END, CHUNK))
    print(f"scipy {scipy.__version__}, numpy {np.__version__}: {END} float32 patterns "
          f"(finite x >= 0 and +inf), {bad} mismatches of erf(-x) == -erf(x) "
          f"with erf(x) >= +0, in {time.perf_counter() - t0:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
