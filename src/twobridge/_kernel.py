"""The scan's batched kernel: the numpy routes and the package's C library.

This private module imports numpy at its top and builds the C library, so
nothing imports it until a batched route runs: the public functions
:func:`casson_gordon.cg_survivors`, :func:`casson_gordon.coprime_mask` and
:func:`casson_gordon.weighted_count_oracle` validate their input and then
import it, and the scan imports it where it scans a p or reads a
checkpoint record (:mod:`twobridge.enumeration`).  ``import twobridge``
and every CLI command but ``scan`` load neither it nor numpy.  The
kernels here check nothing: they take p and q as validated, q prime to
p, so no triangle has a lattice point on its hypotenuse
(:mod:`twobridge.casson_gordon`'s docstring).  Only :func:`_knot_array`
checks an array of q, for a p checked already, and :func:`_scan_window`
the sizes of its window and scratch.  :func:`_oracle_quarters` is the
brute-force count behind :func:`casson_gordon.weighted_count_oracle`,
over the bounding box.

The batched route, :func:`casson_gordon.cg_survivors`, validates p and
every q once and hands them to its kernel, :func:`_window_survivors`,
which the scan calls directly on the blocks of q that
:func:`_tested_blocks` selects, valid by construction, where the C
library does not load.  The kernel first drops the q that fail at r = 1.
That needs S(q) = sum_{x<p} floor(q x / p^2) for each q; S is a sum of
sawtooth steps, term x stepping up at q = ceil(k p^2 / x), so one sweep
over a window of consecutive q counts the steps between its ends and
yields S at every q of the window at once (:func:`_first_round_sums`);
the q of a window too sparse to repay its O(p + span) sweep take the
floor-sum recursion instead.  The kernel is numpy on every machine:
:func:`casson_gordon.cg_survivors` never loads the C library, which
serves the scan alone.  Where the library loads, the scan runs neither
this kernel nor the numpy orbit selection: :func:`_scan_window` does a
whole window in one call (see the front end below).  The scan's windows
(:func:`_windows`), the orbit selection on both routes and the choice of
route (:func:`_scan_windows`) all live in this module.

From r = 2 on both routes run one algorithm: the C library's per-q loop,
``first_failure``, on each q that passes r = 1, stopping at its first r
with |sigma| != 1, and :func:`_sigma_steps` on many q at once, in rounds
over r = 2, 3..4, 5..8, ... that drop the q with some |sigma| != 1 after
each round.  Both carry sigma from the first round's sigma_1 by
sigma_r = sigma_{r-1} + D(b), b = q (r-1) mod p (derived at
:func:`_sigma_steps`).  Up to r = p // _TAIL_SWITCH both get each
T(b) = floor_sum(p, p^2, q, b p) from one Euclid run, at some log p
steps (the numpy lanes of :func:`_floor_sum_batch`); the numpy rounds
double in width and the last is cut there.  Past it both read every T(b)
as T(0) + counts[b] from one histogram per q, built in O(p), with T(0)
from one more Euclid run (:func:`_histogram_sums`): the C loop builds it
for a q still alive there, and the numpy route takes every remaining r
up to (p-1)/2 in one round.  Both stop there by the symmetry
sigma(p, q, r) = sigma(p, q, p-r) of :mod:`twobridge.casson_gordon`'s
docstring.  The C loop's histogram takes no division: it carries
e_j = q j mod p^2 as its quotient hi and remainder lo by p, adds
q1 = floor(q / p) to hi and q0 = q mod p to lo at each j, carries one
into hi when lo reaches p, and takes p from hi when hi reaches p, that
is when e_(j-1) + q >= p^2.  Each window spans fewer than 2^18 q, and
each floor-sum call and each chunk of histograms holds about 2^18
elements.

Every intermediate of both routes stays below p^3 + p^2.  A Euclid run
of floor_sum(n, m, a, b) with 0 <= a, b < m carries y = a n + b and never
raises it: a step takes n' = floor(y / m) and b' = y mod m and swaps the
divisor to a, so the next y before its reductions is m n' + b' = y, and
the reductions a -> m mod a and b' -> b' mod a only lower it.  Here y
starts at q p + b p <= (p^2 - 1) p + (p - 1) p < p^3 + p^2, so every y,
every product a n and every quotient and remainder are below p^3 + p^2.
As y < m (n + 1), n never grows either, so (n - 1) n < p^2, and each
addend of the sum is at most the sum, T(b) <= sum_{j<p} j < p^2 / 2, as
q j + b p < (j + 1) p^2.  The numpy histogram's products q j are below
p^3 and its residues below p^2; the C loop's forms no q j, and its hi
and lo stay below 2 p.  The counts are below p per q.  Each term of
D(b) = 2 q + 4 b - 4 T(b) - 2 p - 2 floor((b + q) / p) is below 2 p^2 in
absolute value, and so is each sigma it is added to: the C loop adds it
to +-1, as it stops at the first other value, and a numpy round's
cumulative sums are the sigma_r themselves, below 2 p r by the sawtooth
form of :mod:`twobridge.casson_gordon`'s docstring.  So these sums stay
below 6 p^2 + 8 p, which is below 2^63 wherever p^3 + p^2 is.  The
first-round sweep and the orbit selection of both front ends (below)
stay below p^3.  So both routes are exact while p^3 + p^2 < 2^63, that
is p <= 2,097,151.  The public limit, casson_gordon.INT64_MAX_P = 46,340,
is lower: :func:`casson_gordon.cg_survivors`, the scan and its checkpoint
records refuse larger p.

The C front end, :func:`_scan_window`, takes a window lo <= q < hi of
consecutive q, hi <= p^2, and does the scan's orbit selection, the
r = 1 sweep and the per-q loop in one pass over it.  A table of the
inverses u = x^-1 mod p, 0 at the non-units, built once per p by the
extended Euclid algorithm, tests gcd(q, p) = 1.  Hensel lifts u to
v = q^-1 mod p^2: q u = 1 + k p, so q u (2 - q u) = 1 - k^2 p^2 and
v = u (2 - q u mod p^2) mod p^2.  The first p q of the window take that
lift; every later q takes the same step from v' = (q - p)^-1, which is
u mod p: v' (2 - q v') = v' - p v'^2, and p v'^2 = p (u^2 mod p) mod p^2,
from a second table.  q is tested when q <= v and q <= p^2 - v, the
least of its orbit {+-q, +-q^-1}.  S(q) comes from the sawtooth sweep of
:func:`_first_round_sums`: S(lo) term by term, then a step at each
q = ceil(k p^2 / x), k = floor(lo x / p^2) + 1 .. floor((hi - 1) x / p^2),
counted in an array over the window, and one running sum.  Each x writes
k p^2 = f x + g once and then walks k by whole p^2 = a x + c, so a step
costs no division.  A tested q with |sigma_1| = 1 goes on to the per-q
loop above.  Every intermediate stays below p^3: k p^2 <= (hi - 1) x < p^3,
as x < p and hi <= p^2; q u < p^2 p = p^3; v, 2 - q u mod p^2,
p (u^2 mod p) and every u^2 are below p^2, so u (2 - q u mod p^2) < p^3;
S(q) <= q (p - 1) / (2 p) < p^2 / 2, so each term of
sigma_1 = 2 q - 4 S(q) - 2 p + 1 - 2 floor(q / p) is below 2 p^2; and
the extended Euclid's numbers stay at most 2 p in absolute value.

The C library exports one function, ``scan_window``, the front end,
called through ctypes; its per-q loop and the Euclid run inside it,
a loop of :func:`casson_gordon.floor_sum`'s steps, are static helpers.
On the first scan of a process the library is built with the system
``cc -O2 -fwrapv -shared -fPIC`` into the package's own ``__pycache__``,
named by a hash of its source, flags and platform, and loaded from there
by later processes.  A scan loads it before its workers fork, so they
inherit it.  Wherever it cannot be built or loaded (no compiler, a
cache directory that cannot be written or that others can write, a
failed compile or ``dlopen``) :func:`_tested_blocks` and
:func:`_window_survivors` run in its place, silently; they stay the
reference the tests hold the C code to.  :func:`_compiled_lanes` caches
the one try per process, library or None.
"""

from __future__ import annotations

import os
import stat
import sys
from contextlib import suppress
from functools import cache
from math import gcd
from typing import Iterator

import numpy as np

from .casson_gordon import _prime_factors, _quarters
from .errors import DomainError

# Elements per floor-sum call and per chunk of histograms, and the bound on a
# first-round window's span, which the scan's windows (_windows) are cut at and
# the C front end's scratch holds: bounds the memory of one round.
_BATCH = 1 << 18
# Both routes take T(b) from a floor sum at every r <= p // _TAIL_SWITCH and
# from the O(p) histogram of the q still alive past it.  Per q alive, the
# histogram costs about p steps and a floor sum about log p, while each r
# before it still drops q the histogram would pay for.  Kernel time over the
# scan blocks of one p by the constant 16 / 32 / 64 / 128, by the C loop with
# its division-free histogram, the mean of two in-process runs' medians on a
# shared 2-vCPU host: at p = 151 0.81 / 0.80 / 1.01 / 1.22 ms, at 2001
# 0.081 / 0.081 / 0.079 / 0.076 s, at 4001 0.47 / 0.45 / 0.43 / 0.47 s and at
# 6001 1.10 / 1.04 / 1.01 / 0.98 s.  The two runs differ by up to 15 % and
# disagree on the order of the constants above p = 151, where 64 and 128
# lose; 32 stays.  With 32 the hand-over falls past r = 4, 62, 125 and 187.
_TAIL_SWITCH = 32


def _oracle_quarters(p: int, q: int, r: int) -> int:
    """Classify every lattice point of the bounding box against the closed triangle.

    No precondition checks; handles lattice apex and hypotenuse points.
    """
    n = p * r
    p2 = p * p
    top = (q * r) // p
    xs = np.arange(n + 1, dtype=np.int64)[:, None]
    ys = np.arange(top + 1, dtype=np.int64)[None, :]
    lhs = ys * p2
    rhs = q * xs
    in_tri = lhs <= rhs
    weights = np.where(in_tri, 4, 0)
    weights[in_tri & (lhs == rhs)] = 2  # hypotenuse
    weights[:, 0] = 2                   # bottom edge
    weights[n, in_tri[n, :]] = 2        # right edge
    weights[0, 0] = 0                   # origin carries no weight
    weights[n, 0] = 1
    if (q * r) % p == 0:
        weights[n, top] = 1             # lattice apex
    return int(weights.sum())


def _floor_sum_batch(n: np.ndarray, m: int, a: np.ndarray, b) -> np.ndarray:
    """floor_sum(n[k], m, a[k], b[k]) for every k, given 0 <= a[k] < m and
    0 <= b[k] < m; ``b`` may be one int for every lane.

    The recursion of :func:`casson_gordon.floor_sum`, elementwise; each step reduces a
    and b at its end, which the first step, with a and b below m, skips.

    A lane is live while y = a n + b >= m.  A finished lane stays finished
    and adds nothing: its next n = floor(y / m) is 0, and each later y is a
    remainder below its divisor.  Once a quarter of the lanes have finished,
    their accs are written out and they are dropped from the arrays, by one
    index array of the kept lanes.  The swap makes the old a the new divisor
    m; a live lane has a >= 1 (with a = 0, y = b < m), and the divisor of a
    finished lane is raised to 1, so no lane divides by zero.  y never grows
    from one step to the next (module docstring), so the lanes are exact in
    int64 while their first y = a n + b is.
    """
    out = np.empty_like(n)
    acc = np.zeros_like(n)
    m = np.full_like(n, m)
    idx = np.arange(len(n))
    while len(idx):
        y = a * n + b
        live = y >= m
        if 4 * np.count_nonzero(live) <= 3 * len(idx):
            done, keep = np.flatnonzero(~live), np.flatnonzero(live)
            out[idx[done]] = acc[done]
            idx, y, a, m, acc = idx[keep], y[keep], a[keep], m[keep], acc[keep]
        n, b = np.divmod(y, m)
        a, m = m, np.maximum(a, 1)
        k, a = np.divmod(a, m)
        acc += ((n - 1) * n >> 1) * k
        k, b = np.divmod(b, m)
        acc += n * k
    return out


# The C library: the scan's front end, scan_window, with its per-q loop
# first_failure and the Euclid run euclid (module docstring).  -fwrapv stays
# because it makes signed overflow defined, as a wrap; the module docstring's
# bounds keep every value below p^3 + p^2, so nothing wraps at the scan's p.
_LANES_SOURCE = r"""
#include <stdint.h>

/* floor_sum(n, m, a, b) for 0 <= a < m and 0 <= b < m */
static int64_t euclid(int64_t n, int64_t m, int64_t a, int64_t b)
{
    int64_t acc = 0, y, k;
    while ((y = a * n + b) >= m) {
        n = y / m;
        b = y % m;
        k = a; /* a, m = m, a */
        a = m;
        m = k;
        k = a / m;
        a %= m;
        acc += (n - 1) * n / 2 * k;
        k = b / m;
        b %= m;
        acc += n * k;
    }
    return acc;
}

/* the least r in 2..(p-1)/2 with |sigma(p, q, r)| != 1, or 0, given
   sigma = sigma(p, q, 1); counts holds p + 1 elements */
static int64_t first_failure(int64_t p, int64_t hand_over, int64_t q, int64_t sigma,
                             int64_t *counts)
{
    const int64_t p2 = p * p, half = (p - 1) / 2, q0 = q % p, q1 = q / p;
    int64_t b = 0, t0 = -1, t;
    for (int64_t r = 2; r <= half; r++) {
        b += q0; /* q (r-1) mod p */
        if (b >= p)
            b -= p;
        if (r <= hand_over) {
            t = euclid(p, p2, q, b * p);
        } else {
            if (t0 < 0) { /* counts[b] = #{0 < j < p : (q j mod p^2) / p >= p - b} */
                int64_t hi = 0, lo = 0; /* q j mod p^2 = hi p + lo */
                for (int64_t j = 0; j <= p; j++)
                    counts[j] = 0;
                for (int64_t j = 1; j < p; j++) {
                    lo += q0;
                    hi += q1;
                    if (lo >= p) {
                        lo -= p;
                        hi++;
                    }
                    if (hi >= p)
                        hi -= p;
                    counts[p - hi]++;
                }
                for (int64_t j = 1; j <= p; j++)
                    counts[j] += counts[j - 1];
                t0 = euclid(p, p2, q, 0);
            }
            t = t0 + counts[b];
        }
        sigma += 2 * q + 4 * b - 4 * t - 2 * p - 2 * (q1 + (b + q0 >= p));
        if (sigma != 1 && sigma != -1)
            return r;
    }
    return 0;
}

/* The window lo <= q < hi of the scan at p, 1 <= lo <= hi <= p^2: returns the
   number of q tested, the least member of each orbit {+-q, +-q^-1} mod p^2
   among its units, and writes those that pass every r to out, ascending, and
   their number to *found.  units holds 3 p elements, all 0 before the first
   window of p: the first call writes u = x^-1 mod p at [x] (0 at the
   non-units) and p (u^2 mod p) at [p + x], later calls reuse them, and each
   call keeps in [2 p + x] the inverse mod p^2 of the next q = x mod p.
   steps holds hi - lo elements and counts p + 1. */
int64_t scan_window(int64_t p, int64_t lo, int64_t hi, int64_t hand_over, int64_t *units,
                    int64_t *steps, int64_t *counts, int64_t *out, int64_t *found)
{
    const int64_t p2 = p * p, span = hi - lo;
    int64_t *inv = units, *drift = units + p, *next = units + 2 * p;
    int64_t tested = 0, n = 0, s = 0;
    if (inv[1] != 1) /* extended Euclid per residue: u x = g mod p */
        for (int64_t x = 1; x < p; x++) {
            int64_t g = x, m = p, u = 1, v = 0, k, t;
            while (m) {
                k = g / m;
                t = g - k * m, g = m, m = t;
                t = u - k * v, u = v, v = t;
            }
            inv[x] = g != 1 ? 0 : u < 0 ? u + p : u;
            drift[x] = inv[x] * inv[x] % p * p;
        }
    /* S(q) = sum_{x<p} floor(q x / p^2): term x steps up by one at each
       q = ceil(k p^2 / x); S(lo) term by term, then the steps at lo < q < hi */
    for (int64_t i = 0; i < span; i++)
        steps[i] = 0;
    for (int64_t x = 1; x < p; x++) {
        const int64_t below = lo * x / p2, top = (hi - 1) * x / p2;
        s += below;
        if (top > below) { /* k p^2 = f x + g for k = below + 1 .. top, by whole p^2 = a x + c */
            const int64_t a = p2 / x, c = p2 % x, first = (below + 1) * p2;
            int64_t f = first / x, g = first % x;
            for (int64_t k = below + 1; k <= top; k++) {
                steps[f + (g != 0) - lo]++;
                f += a;
                g += c;
                if (g >= x) {
                    f++;
                    g -= x;
                }
            }
        }
    }
    int64_t res = lo % p, q1 = lo / p; /* q = q1 p + res */
    for (int64_t q = lo; q < hi; q++) {
        s += steps[q - lo];
        const int64_t u = inv[res];
        if (u) {
            /* Hensel: q u = 1 + k p, so q u (2 - q u) = 1 - k^2 p^2 gives
               v = q^-1 mod p^2; then v (2 - (q + p) v) = v - p v^2 is
               (q + p)^-1, and p v^2 = p (u^2 mod p) mod p^2 */
            int64_t v;
            if (q - lo < p) {
                v = (2 - q * u) % p2;
                if (v < 0)
                    v += p2;
                v = u * v % p2;
            } else {
                v = next[res];
            }
            next[res] = v >= drift[res] ? v - drift[res] : v - drift[res] + p2;
            if (q <= v && q <= p2 - v) {
                tested++;
                const int64_t sigma = 2 * q - 4 * s - 2 * p + 1 - 2 * q1;
                if ((sigma == 1 || sigma == -1) && !first_failure(p, hand_over, q, sigma, counts))
                    out[n++] = q;
            }
        }
        if (++res == p) {
            res = 0;
            q1++;
        }
    }
    *found = n;
    return tested;
}
"""
_LANES_FLAGS = ("-O2", "-fwrapv", "-shared", "-fPIC")


def _trusted(st: os.stat_result) -> bool:
    """Owned by this user or root, and not writable by others."""
    return st.st_uid in (0, os.getuid()) and not st.st_mode & stat.S_IWOTH


def _load_lanes():
    """The C library, its ``scan_window`` typed, built into the package's
    ``__pycache__`` on first use; None if anything fails on the way.

    The library is named by a hash of the source, the flags and the
    platform, and written through a temp file and ``os.replace``, so
    processes that build at once all succeed.  The compiler's output is
    captured and dropped.
    """
    import ctypes
    import platform
    import subprocess
    import tempfile
    import zlib  # not hashlib, whose OpenSSL adds 3.5 MB to every scan process

    cache = os.path.join(os.path.dirname(os.path.abspath(__file__)), "__pycache__")
    key = "\0".join((_LANES_SOURCE, *_LANES_FLAGS, sys.platform, platform.machine()))
    path = os.path.join(cache, f"_lanes-{zlib.crc32(key.encode()):08x}.so")
    try:
        os.makedirs(cache, exist_ok=True)
        if not _trusted(os.stat(cache)):
            return None
        if not os.path.exists(path):
            fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=cache)
            os.close(fd)
            try:
                # TMPDIR: the compiler's own temporary files go to the cache too
                subprocess.run(
                    ["cc", *_LANES_FLAGS, "-x", "c", "-", "-o", tmp],
                    input=_LANES_SOURCE.encode(), capture_output=True, check=True, timeout=60,
                    env=dict(os.environ, TMPDIR=cache),
                )
                os.chmod(tmp, 0o755)  # whatever the umask, not writable by others
                os.replace(tmp, path)
            finally:
                with suppress(FileNotFoundError):
                    os.unlink(tmp)
        if not _trusted(os.stat(path)):
            return None
        lib = ctypes.CDLL(path)
        window = lib.scan_window
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    window.argtypes = (i64, i64, i64, i64, ptr, ptr, ptr, ptr, ptr)
    window.restype = i64
    return lib


@cache
def _compiled_lanes():
    """The C library of this process, loaded on the first call; None where it does not load."""
    return _load_lanes()


def _windows(p: int) -> Iterator[tuple[int, int]]:
    """The windows lo <= q < hi the scan cuts its q at p into: _BATCH consecutive
    q each, read at call time, so a window's span is below the kernel's bound on
    a first-round window, and the memory of one round, whatever p is.  They end
    past p^2/2, as the least member of an orbit is below it (q < p^2 - q, p^2
    being odd)."""
    end = p * p // 2 + 1
    return ((lo, min(lo + _BATCH, end)) for lo in range(1, end, _BATCH))


def _window_scratch(p: int) -> tuple[np.ndarray, ...]:
    """The arrays :func:`_scan_window` works in at p, made once per p: the tables
    of the units mod p (zeros until the first window fills them), the steps of
    the widest window of :func:`_windows` at p, min(_BATCH, p^2 // 2) q with
    _BATCH read at call time, the histogram and the survivors."""
    span = min(_BATCH, p * p // 2)
    return (np.zeros(3 * p, dtype=np.int64), np.empty(span, dtype=np.int64),
            np.empty(p + 1, dtype=np.int64), np.empty(span, dtype=np.int64))


def _scan_window(lib, p: int, lo: int, hi: int, scratch) -> tuple[int, np.ndarray]:
    """The number of q the scan tests in the window lo <= q < hi at p, the least
    member of each orbit {+-q, +-q^-1} mod p^2 among its units, and those of them
    whose knot p^2/q passes, ascending: ``lib``'s ``scan_window``, the C route of
    :func:`_tested_blocks` and :func:`_window_survivors` in one call.
    ``scratch`` is :func:`_window_scratch` of p, the same for every window of p."""
    units, steps, counts, out = scratch
    if not (p >= 3 and len(units) == 3 * p and len(counts) == p + 1 and 1 <= lo <= hi <= p * p
            and hi - lo <= min(len(steps), len(out))):  # the C loop reads and writes that far
        raise ValueError(f"need a window of at most {len(steps)} q below p^2 and scratch of p, "
                         f"got {lo}..{hi} at p={p}")
    import ctypes  # loaded already, as lib is

    found = ctypes.c_int64()
    tested = lib.scan_window(p, lo, hi, p // _TAIL_SWITCH, units.ctypes.data, steps.ctypes.data,
                             counts.ctypes.data, out.ctypes.data, ctypes.byref(found))
    return tested, out[: found.value].copy()


def _coprime_mask(q: np.ndarray, p: int) -> np.ndarray:
    """gcd(q[k], p) == 1 for every k, by the prime factors of p (np.gcd is far slower):
    :func:`casson_gordon.coprime_mask`."""
    mask = np.ones(len(q), dtype=bool)
    for prime in _prime_factors(p):
        mask &= q % prime != 0
    return mask


def _knot_array(p: int, qs) -> np.ndarray:
    """``qs`` as a 1-D int64 array, every p^2/q a valid knot, for a p that
    :func:`casson_gordon._validate_int64_p` accepts."""
    arr = np.asarray(qs)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise DomainError(f"need a 1-D integer array of q, got {arr.dtype} of shape {arr.shape}")
    bad = np.flatnonzero((arr <= 0) | (arr >= p * p))
    if bad.size:
        raise DomainError(f"need 0 < q < p^2, got q={arr[bad[0]]}, p={p}")
    q = arr.astype(np.int64)
    bad = np.flatnonzero(~_coprime_mask(q, p))
    if bad.size:
        raise DomainError(f"need gcd(q, p) = 1, got q={q[bad[0]]}, p={p}")
    return q


def _first_round_sums(p: int, q: np.ndarray) -> np.ndarray:
    """S(q[i]) = sum_{x=1}^{p-1} floor(q[i] x / p^2) for ascending q with
    q[-1] - q[0] < _BATCH, by one sweep over the window lo = q[0] .. hi = q[-1].

    Term x steps up by one at each q = ceil(k p^2 / x), k = 1, 2, ...  The
    base value S(lo) is summed term by term; the steps in (lo, hi] are the
    k = floor(lo x / p^2) + 1 .. floor(hi x / p^2) of each x, fewer than
    (hi - lo) / 2 + p in all, and one bincount of their positions and one
    cumsum give S at every q of the window.  In int64: hi < p^2 and x < p,
    so k p^2 <= hi x < p^3 and lo x < p^3, and S < p^3 / 2.
    """
    p2 = p * p
    lo, hi = int(q[0]), int(q[-1])
    x = np.arange(1, p, dtype=np.int64)
    below = lo * x // p2
    steps = hi * x // p2 - below
    # the k of the steps of term x, numbered from first[x] in x order
    first = np.cumsum(steps) - steps
    xs = np.repeat(x, steps)
    k = np.arange(len(xs), dtype=np.int64) + np.repeat(below + 1 - first, steps)
    at = (k * p2 - 1) // xs + 1 - lo  # ceil(k p^2 / x) - lo, in 1 .. hi - lo
    return below.sum() + np.cumsum(np.bincount(at, minlength=hi - lo + 1))[q - lo]


def _sigma_first_round(p: int, q: np.ndarray) -> np.ndarray:
    """sigma(p, q[i], 1) for every i, from S(q[i]) = sum_{x<p} floor(q[i] x / p^2).

    The sorted q are cut into windows of span below _BATCH.  A dense window
    gets S from :func:`_first_round_sums`, at cost O(p + span); the q of the
    sparse ones go to the floor-sum lanes, :func:`_floor_sum_batch`, at O(log p) each.
    No precondition checks: q prime to p, so there is no hypotenuse point.
    """
    order = np.argsort(q, kind="stable")
    ordered = q[order]
    s = np.empty_like(q)
    sparse = []
    i = 0
    while i < len(q):
        j = int(np.searchsorted(ordered, ordered[i] + _BATCH))
        # dense: 8 len / (p + span) >= 1/2.  On a 2-vCPU host the sweep beat one
        # floor-sum call on all sparse q from 0.3..1.0 (p 1001..46339, span p..2^18)
        if 16 * (j - i) >= p + ordered[j - 1] - ordered[i]:
            s[order[i:j]] = _first_round_sums(p, ordered[i:j])
        else:
            sparse.append(order[i:j])
        i = j
    if sparse:
        at = np.concatenate(sparse)
        for k in range(0, len(at), _BATCH):
            idx = at[k : k + _BATCH]
            s[idx] = _floor_sum_batch(np.full(len(idx), p, dtype=np.int64), p * p, q[idx], 0)
    return 2 * q - _quarters(p, q, 1, s)


def _lane_sums(p: int, q: np.ndarray, b: np.ndarray) -> np.ndarray:
    """T(b[i, j]) = floor_sum(p, p^2, q[i], b[i, j] p) at [i, j], one floor-sum lane
    each, given 0 <= b < p (the T of :func:`_sigma_steps`)."""
    n = np.full(b.size, p, dtype=np.int64)
    return _floor_sum_batch(n, p * p, np.repeat(q, b.shape[1]), p * b.ravel()).reshape(b.shape)


def _histogram_sums(p: int, q: np.ndarray, b: np.ndarray) -> np.ndarray:
    """T(b[i, j]) at [i, j] as :func:`_lane_sums` gives it, from one histogram per q
    at O(p) cost per q, whatever the width of b.

    Write q j = c_j p^2 + e_j with 0 <= e_j < p^2.  Then floor((q j + b p) / p^2)
    = c_j + floor((e_j + b p) / p^2), and as 0 <= e_j + b p < 2 p^2 the last
    floor is 1 iff e_j >= (p - b) p, that is iff floor(e_j / p) >= p - b, and 0
    otherwise.  Summed over j < p,

        T(b) = T(0) + #{j < p : floor(e_j / p) >= p - b}.

    As e_0 = 0 never counts, each q takes one row of residues e_j for j = 1..p-1
    and one histogram of p - floor(e_j / p) in 1..p, whose cumulative sum is the
    count at every b, and T(0) from one floor-sum lane.  The rows share one
    bincount: row i's bins are i (p + 1) + 1 .. i (p + 1) + p, and its empty bin
    i (p + 1) is the base its counts are read from.  The products q j stay below
    p^3 and the counts below len(q) (p + 1), which the caller bounds by _BATCH.
    """
    p2 = p * p
    base = np.arange(len(q), dtype=np.int64)[:, None] * (p + 1)
    e = np.multiply.outer(q, np.arange(1, p, dtype=np.int64))
    e %= p2
    e //= p
    np.subtract(base + p, e, out=e)
    counts = np.cumsum(np.bincount(e.ravel(), minlength=len(q) * (p + 1)))
    t0 = _floor_sum_batch(np.full_like(q, p), p2, q, 0)
    return counts[b + base] + (t0 - counts[base[:, 0]])[:, None]


def _sigma_steps(p: int, q: np.ndarray, sigma, r0: int, r1: int) -> np.ndarray:
    """sigma(p, q[i], r) at [i, r - r0] for every r0 <= r < r1, given
    sigma[i] = sigma(p, q[i], r0 - 1) and 1 <= r0 < r1 <= p: the C loop's
    steps, T(b) coming from :func:`_lane_sums` up to r = p // _TAIL_SWITCH
    and from :func:`_histogram_sums` past it, chosen by r0.

    With S_r = sum_{x<pr} floor(q x / p^2), the count of
    :func:`_floorsum_quarters` gives
    sigma_r = 2 q r^2 - 4 S_r - 2 p r + 1 - 2 floor(q r / p), so sigma_0 = 1.
    Split x = p (r-1) + j with 0 <= j < p and write q (r-1) = a p + b with
    0 <= b < p; then q x = a p^2 + (q j + b p), so

        S_r - S_{r-1} = p a + T(b),   T(b) = sum_{j<p} floor((q j + b p) / p^2),

    and sigma_r = sigma_{r-1} + D(b) with

        D(b) = 2 q + 4 b - 4 T(b) - 2 p - 2 floor((b + q) / p):

    the area and block terms in a cancel, as 2 q (2r-1) - 4 p a = 2 q + 4 b,
    and floor(q r / p) - floor(q (r-1) / p) = floor((b + q) / p).  Here
    floor((b + q) / p) = floor(q / p) + [b >= p - (q mod p)], and b is
    (q mod p)(r-1) mod p.  One cumulative sum of the D(b) over r gives every
    sigma_r of the rows.  No precondition checks: q prime to p, so there is
    no hypotenuse point (:mod:`twobridge.casson_gordon`'s docstring).
    """
    q1, q0 = np.divmod(q, p)
    b = np.multiply.outer(q0, np.arange(r0 - 1, r1 - 1, dtype=np.int64))
    b %= p  # q (r-1) mod p
    t = (_lane_sums if r0 <= p // _TAIL_SWITCH else _histogram_sums)(p, q, b)
    d = 4 * (b - t) - 2 * (b >= (p - q0)[:, None])
    d += (2 * (q - p - q1))[:, None]
    d[:, 0] += sigma
    return np.cumsum(d, axis=1)


def _window_survivors(p: int, q: np.ndarray) -> np.ndarray:
    """The q whose knot p^2/q passes, in input order, for an int64 array q that
    :func:`_knot_array` would accept as it is: the numpy kernel of
    :func:`casson_gordon.cg_survivors`, with no checks, which the scan calls on
    the blocks of :func:`_tested_blocks` where the C library does not load.

    It runs the C loop's steps on every q at once: r = 1 by
    :func:`_sigma_first_round`, then :func:`_sigma_steps` over r = 2, 3..4,
    5..8, ..., the last of these rounds cut at r = p // _TAIL_SWITCH, and one
    round over every r past it up to (p-1)/2.  After each round it drops the q
    with some |sigma| != 1 and keeps the sigma of the others at the round's
    last r.  A round takes q in chunks of _BATCH lanes, or of _BATCH histogram
    bins past the hand-over."""
    sigma = _sigma_first_round(p, q)
    q, sigma = q[np.abs(sigma) == 1], sigma[np.abs(sigma) == 1]
    hand_over, end = p // _TAIL_SWITCH, (p + 1) // 2
    r0, width = 2, 1
    while len(q) and r0 < end:
        r1 = min(r0 + width, hand_over + 1, end) if r0 <= hand_over else end
        rows = max(1, _BATCH // (r1 - r0 if r0 <= hand_over else p + 1))
        last = []
        for k in range(0, len(q), rows):
            steps = _sigma_steps(p, q[k : k + rows], sigma[k : k + rows], r0, r1)
            last.append(np.where((np.abs(steps) == 1).all(axis=1), steps[:, -1], 0))
        sigma = np.concatenate(last)
        q, sigma = q[sigma != 0], sigma[sigma != 0]
        r0, width = r1, 2 * width
    return q


def _tested_blocks(p: int) -> Iterator[np.ndarray]:
    """The q the scan tests at p, ascending, one block per window of :func:`_windows`:
    the least member of each orbit {q, q^-1, -q, -q^-1} mod p^2, in numpy.

    A q is a unit when its table entry u = (q mod p)^-1 is not 0, as in the C
    loop: x mod p has an inverse exactly when gcd(x, p) = 1, and it is never 0."""
    p2 = p * p
    table = np.array([pow(x, -1, p) if gcd(x, p) == 1 else 0 for x in range(p)], dtype=np.int64)
    for lo, hi in _windows(p):
        q = np.arange(lo, hi, dtype=np.int64)
        u = table[q % p]
        unit = u != 0
        q, u = q[unit], u[unit]
        # Hensel: u = q^-1 mod p gives q u = 1 + k p, and q u (2 - q u) = 1 - k^2 p^2;
        # both products stay below p^3 (module docstring)
        inv = u * ((2 - q * u) % p2) % p2
        q = q[(q <= inv) & (q <= p2 - inv)]
        del u, unit, inv  # not held while the caller runs the kernel on q
        yield q


def _scan_windows(p: int) -> Iterator[tuple[int, np.ndarray]]:
    """The number of q tested and the survivors, ascending, of each window of
    :func:`_windows` at p: one call of the C library's ``scan_window`` per
    window where the library loads, else :func:`_tested_blocks` and
    :func:`_window_survivors`.  The one place the scan picks a route."""
    lib = _compiled_lanes()
    if lib is None:
        for qs in _tested_blocks(p):
            yield len(qs), _window_survivors(p, qs)
        return
    scratch = _window_scratch(p)
    for lo, hi in _windows(p):
        yield _scan_window(lib, p, lo, hi, scratch)
