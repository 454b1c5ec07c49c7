"""numpy's standard normal draw in plain Python, bit for bit, so that a run needs no numpy.random.

``Stream(entropy).standard_normal(shape)`` equals
``np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy))).standard_normal(shape)``:
- SeedSequence's hash mixing of the entropy words into a pool of four 32-bit words;
- PCG64, O'Neill's 128-bit LCG with XSL-RR output ("PCG: A Family of Simple Fast Space-Efficient
  Statistically Good Algorithms for Random Number Generation", HMC-CS-2014-0905), seeded from the
  pool as numpy's pcg64_srandom_r seeds it;
- the 256-layer ziggurat of Marsaglia and Tsang (J. Stat. Softw. 5(8), 2000) as numpy's
  random_standard_normal draws it, with numpy's tables read from data/ziggurat.txt on the first draw.

Importing numpy.random costs a fresh process 9-14 ms and about 6 MiB, and NEP 19 leaves Generator's
algorithms free to change between numpy releases: with this port the channel bits belong to irsgame.

Ported from numpy (numpy/random/bit_generator.pyx, src/pcg64, src/distributions):
Copyright (c) 2005-2017, NumPy Developers. All rights reserved. Redistribution and use in source and
binary forms, with or without modification, are permitted provided that the following conditions are
met: * Redistributions of source code must retain the above copyright notice, this list of conditions
and the following disclaimer. * Redistributions in binary form must reproduce the above copyright
notice, this list of conditions and the following disclaimer in the documentation and/or other
materials provided with the distribution. * Neither the name of the NumPy Developers nor the names of
any contributors may be used to endorse or promote products derived from this software without
specific prior written permission. THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND
CONTRIBUTORS "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT LIMITED TO, THE IMPLIED
WARRANTIES OF MERCHANTABILITY AND FITNESS FOR A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL
THE COPYRIGHT OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL, SPECIAL,
EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS
OR SERVICES; LOSS OF USE, DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT (INCLUDING NEGLIGENCE OR
OTHERWISE) ARISING IN ANY WAY OUT OF THE USE OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF
SUCH DAMAGE.

PCG Random Number Generation for C. Copyright 2014 Melissa O'Neill <oneill@pcg-random.org>. The MIT
License: Permission is hereby granted, free of charge, to any person obtaining a copy of this software
and associated documentation files (the "Software"), to deal in the Software without restriction,
including without limitation the rights to use, copy, modify, merge, publish, distribute, sublicense,
and/or sell copies of the Software, and to permit persons to whom the Software is furnished to do so,
subject to the following conditions: The above copyright notice and this permission notice shall be
included in all copies or substantial portions of the Software. THE SOFTWARE IS PROVIDED "AS IS",
WITHOUT WARRANTY OF ANY KIND, EXPRESS OR IMPLIED, INCLUDING BUT NOT LIMITED TO THE WARRANTIES OF
MERCHANTABILITY, FITNESS FOR A PARTICULAR PURPOSE AND NONINFRINGEMENT. IN NO EVENT SHALL THE AUTHORS
OR COPYRIGHT HOLDERS BE LIABLE FOR ANY CLAIM, DAMAGES OR OTHER LIABILITY, WHETHER IN AN ACTION OF
CONTRACT, TORT OR OTHERWISE, ARISING FROM, OUT OF OR IN CONNECTION WITH THE SOFTWARE OR THE USE OR
OTHER DEALINGS IN THE SOFTWARE.
"""

from __future__ import annotations

import math
from functools import cache
from importlib import resources

import numpy as np

M32, M64, M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED  # SeedSequence's hashes
MIX_L, MIX_R = 0xCA01F9DD, 0x4973F715
PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
EDGE, INV_EDGE = 3.6541528853610087963519472518, 0.27366123732975827203338247596  # layer 0's edge, 1 / edge


@cache
def tables() -> tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...]]:
    """The ziggurat's ki, wi and fi, read from the package's table file once per process."""
    text = resources.files("irsgame").joinpath("data/ziggurat.txt").read_text()
    ki, wi, fi = zip(*(line.split() for line in text.splitlines() if not line.startswith("#")))
    return tuple(int(k, 16) for k in ki), tuple(map(float.fromhex, wi)), tuple(map(float.fromhex, fi))


def _pool(entropy) -> list[int]:
    """SeedSequence(entropy).pool: every int splits into 32-bit words, low word first."""
    words = []
    for n in entropy:
        if n < 0:
            raise ValueError("expected non-negative integer")
        words.append(n & M32)
        while n := n >> 32:
            words.append(n & M32)
    const = INIT_A

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * MULT_A & M32
        value = value * const & M32
        return value ^ value >> 16

    def mix(x, y):
        result = (MIX_L * x - MIX_R * y) & M32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:  # entropy past the pool size is mixed into every pool word
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


class Stream:
    """PCG64 seeded by SeedSequence(entropy), drawing as Generator.standard_normal does."""

    def __init__(self, entropy):
        const, half = INIT_B, []
        for word in _pool(entropy) * 2:  # generate_state(4, uint64): eight words off the cycled pool
            word ^= const
            const = const * MULT_B & M32
            word = word * const & M32
            half.append(word ^ word >> 16)
        s_hi, s_lo, i_hi, i_lo = (half[j] | half[j + 1] << 32 for j in range(0, 8, 2))
        self.inc = ((i_hi << 64 | i_lo) << 1 | 1) & M128
        self.state = ((self.inc + (s_hi << 64 | s_lo)) * PCG_MULT + self.inc) & M128

    def next64(self) -> int:
        """The next raw 64-bit word: one LCG step, then XSL-RR of the new state."""
        state = self.state = (self.state * PCG_MULT + self.inc) & M128
        x, rot = (state >> 64) ^ (state & M64), state >> 122
        return (x >> rot | x << (64 - rot)) & M64

    def next_double(self) -> float:
        return (self.next64() >> 11) * 2.0**-53

    def standard_normal(self, shape) -> np.ndarray:
        """A float64 array of the given shape, filled in C order."""
        ki, wi, fi = tables()
        out = []
        for _ in range(math.prod(shape)):
            while True:
                r = self.next64()
                idx, sign, rabs = r & 0xFF, r >> 8 & 1, r >> 9 & 0xFFFFFFFFFFFFF
                x = -(rabs * wi[idx]) if sign else rabs * wi[idx]
                if rabs < ki[idx]:
                    break  # inside the layer's rectangle, about 99.3 % of draws
                if idx == 0:  # the tail past the edge; 1 - U keeps log1p's argument above -1
                    while True:
                        xx = -INV_EDGE * math.log1p(-self.next_double())
                        yy = -math.log1p(-self.next_double())
                        if yy + yy > xx * xx:
                            break
                    x = -(EDGE + xx) if rabs >> 8 & 1 else EDGE + xx
                    break
                if (fi[idx - 1] - fi[idx]) * self.next_double() + fi[idx] < math.exp(-0.5 * x * x):
                    break  # under the density in the wedge
            out.append(x)
        return np.array(out, dtype=np.float64).reshape(shape)
