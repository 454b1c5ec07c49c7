"""Write src/irsgame/data/ziggurat.txt from the installed numpy.

The channel draw (irsgame._draw) ports numpy's Generator.standard_normal, a 256-layer ziggurat. Its
tables ki_double, wi_double and fi_double are literals in numpy's C source; recomputing them from
Marsaglia and Tsang's construction does not reproduce those literals, so the draw reads them as data.
This script finds them in the installed numpy's _generator extension by their first entries and
writes them, one layer per line: ki as uint64 hex, wi and fi as float.hex.

    python tests/make_ziggurat_tables.py [OUT]

test_channel.py checks that the committed file equals what this script reads from the installed
numpy, so every numpy the tests run on is checked against it.
"""

import struct
import sys
from importlib.util import find_spec
from pathlib import Path

LAYERS = 256
TABLE_FILE = Path(__file__).resolve().parents[1] / "src" / "irsgame" / "data" / "ziggurat.txt"

# each table by its leading entries, packed as the extension stores them (native byte order)
FIRST_ENTRIES = {
    "ki_double": ("Q", (0x000EF33D8025EF6A,)),
    "wi_double": ("d", (8.68362706080130616677e-16,)),
    "fi_double": ("d", (1.0, 0.977101701267671596263)),
}

NOTICE = """\
# Ziggurat tables of the standard normal draw (irsgame._draw), one layer per line:
# ki as uint64 hex, then wi and fi as float.hex. They are numpy's ki_double, wi_double and
# fi_double (numpy/random/src/distributions/ziggurat_constants.h), written from the installed
# numpy's _generator extension by tests/make_ziggurat_tables.py.
#
# Copyright (c) 2005-2017, NumPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions are
# met:
#
# * Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# * Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# * Neither the name of the NumPy Developers nor the names of any
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
#
# numpy's ziggurat methods were derived from Julia:
# Copyright (c) 2009-2019: Jeff Bezanson, Stefan Karpinski, Viral B. Shah,
# and other contributors: https://github.com/JuliaLang/julia/contributors
# Permission is hereby granted, free of charge, to any person obtaining
# a copy of this software and associated documentation files (the
# "Software"), to deal in the Software without restriction, including
# without limitation the rights to use, copy, modify, merge, publish,
# distribute, sublicense, and/or sell copies of the Software, and to
# permit persons to whom the Software is furnished to do so, subject to
# the following conditions:
# The above copyright notice and this permission notice shall be
# included in all copies or substantial portions of the Software.
# THE SOFTWARE IS PROVIDED "AS IS", WITHOUT WARRANTY OF ANY KIND,
# EXPRESS OR IMPLIED, INCLUDING BUT NOT LIMITED TO THE WARRANTIES OF
# MERCHANTABILITY, FITNESS FOR A PARTICULAR PURPOSE AND
# NONINFRINGEMENT. IN NO EVENT SHALL THE AUTHORS OR COPYRIGHT HOLDERS BE
# LIABLE FOR ANY CLAIM, DAMAGES OR OTHER LIABILITY, WHETHER IN AN ACTION
# OF CONTRACT, TORT OR OTHERWISE, ARISING FROM, OUT OF OR IN CONNECTION
# WITH THE SOFTWARE OR THE USE OR OTHER DEALINGS IN THE SOFTWARE.
"""


def numpy_tables():
    """The installed numpy's ki, wi and fi, each found by its leading entries where it occurs once."""
    blob = Path(find_spec("numpy.random._generator").origin).read_bytes()
    tables = []
    for name, (code, first) in FIRST_ENTRIES.items():
        pattern = struct.pack("=%d%s" % (len(first), code), *first)
        count = blob.count(pattern)
        if count != 1:
            raise LookupError("%s: its first entries occur %d times in the _generator extension" % (name, count))
        tables.append(struct.unpack_from("=%d%s" % (LAYERS, code), blob, blob.find(pattern)))
    return tuple(tables)


def table_text(ki, wi, fi):
    """The table file's text: the notice, then one layer per line."""
    return NOTICE + "".join("0x%016x %s %s\n" % (k, w.hex(), f.hex()) for k, w, f in zip(ki, wi, fi))


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else TABLE_FILE
    out.write_text(table_text(*numpy_tables()))
