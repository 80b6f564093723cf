"""The pinned outputs: (argv, md5 of stdout, id) for commands that must not drift.

Each command of PINNED exits 0 with nothing on stderr, and its stdout
hashes to the digest.  Each of PINNED_ERRORS writes nothing to stdout
and exits with the given code and exactly the given stderr.  The module
needs only the standard library, so that tools/check_pinned.py can check
both on any supported Python, with or without pytest.
"""

import sys

PINNED = [
    (("census", "--max-x", "7"), "8a10857b5d456e4c2a9570724c9b4c2c", "census-7"),
    (("census", "--max-x", "7", "--dedupe-mirror"),
     "c673c8e15b4a771c43a81933ae3759da", "census-7-dedupe"),
    (("family", "21/13", "--json", "-"), "eb4901556cf98e4226abe2cd46231309",
     "family-json"),
    (("family", "21/13"), "85e7494786879b9db094c28d15a999fc", "family-text"),
    (("table", "--n", "200"), "9fa2b36579594bb378c2238fbe29a8e2", "table-200"),
    (("census", "--max-x", "9"), "922b40a73a25e6692b69de308e242cfd", "census-9"),
    (("census", "--max-x", "9", "--dedupe-mirror"),
     "65e39ea5855ab8fd5a3ecd045695b1d2", "census-9-dedupe"),
    (("census", "--max-x", "10"), "83b758b881246673a1d70790972e35ba", "census-10"),
    (("table", "--n", "600"), "afeb5d6e454090d6d4e4e1418e7aa79c", "table-600"),
    (("table", "--n", "1600"), "fb8f34deb44458714ad1a9facad9cf79", "table-1600"),
    (("svg-path", "3/2", "--out", "-"), "3f42d81a994e3fb257abd26749d76234",
     "svg-path"),
    (("svg-line", "3/2", "--out", "-"), "2211db43d69ba2fc1a1e806a1b8bf1fa",
     "svg-line"),
    (("word", "10007/7777"), "b854c6f4b33a8bbecd0b52c5f544a89b", "word"),
    # the branches word 10007/7777 leaves open: p < q, all digits 1 (the
    # Fibonacci slopes, both ways round) and a single long digit
    (("word", "7777/10007"), "31b5b798511dc72db7de2c5eef063a2b",
     "word-7777-10007"),
    (("word", "10946/17711"), "1798c5e11bd92e091b2c40e51f1257b3",
     "word-10946-17711"),
    (("word", "17711/10946"), "69636763234d86f29d106ca26992b227",
     "word-17711-10946"),
    (("word", "1/20000"), "abdd82d3bffbe691d4745014b242e422", "word-1-20000"),
    (("word", "20000/1"), "19dab84b9b0e7a0ca17e612a513708f7", "word-20000-1"),
    (("cutting", "--check", "10007/7777"), "e555bd595d743ec82c9df6ba3b4fc525",
     "cutting-check"),
    (("slope-info", "3/2", "--json"), "66902f9edba070544c67427b0ac52b89",
     "slope-info-json"),
    (("family", "89/55"), "6e6afab89830c85c9dfda92e11bf4706", "family-89-55"),
    (("family", "1/0"), "11abc9440c3bdd19c7e4b59f3bfca15d", "family-1-0"),
    (("family", "0/1", "--json", "-"), "792c6bf59159d9a7b6caa0d8f031cffb",
     "family-0-1-json"),
    # two rotated words, the second a square, and the canonical (LR)^1000,
    # whose trace has over 500 bits
    (("length", "LRLLRR"), "850a4064e01a5ad341d06b30636b4192", "length-6"),
    (("length", "RRLLRLRRLLRL"), "a933fc7476bde81e77464b45b5a4f388",
     "length-12"),
    (("length", "LR" * 1000), "be85683a635deb4678d1006759487a7f",
     "length-lr-1000"),
]

# 1/HUGE has a word of 2 * 10^20 letters and a path of 10^20 triangles
HUGE = str(10**20)

# (argv, exit code, stderr).  The first ten are argparse's errors: the
# first two shaped by the private _negative_number_matcher the CLI sets,
# the last five of them words that fail the CLI's letter check, a
# fullmatch of [LR]+ that neither a trailing newline nor a fullwidth L
# passes.  The rest are domain errors, the last five refusals of a slope
# too large to spell or to walk.
PINNED_ERRORS = [
    (("word", "-.5"), 2,
     "error: argument slope: malformed-slope: '-.5' is not 'p/q'\n"),
    (("table", "--n", "-.5"), 2, "error: argument --n: malformed-integer: '-.5'\n"),
    (("cutting", "0/1", "3/2"), 2, "error: unrecognized arguments: 3/2\n"),
    (("table", "--n", "1_0"), 2, "error: argument --n: malformed-integer: '1_0'\n"),
    (("census",), 2, "error: the following arguments are required: --max-x\n"),
    (("length", "LRX"), 2,
     "error: argument word: malformed-word: 'LRX' is not a nonempty word over L, R\n"),
    (("length", ""), 2,
     "error: argument word: malformed-word: '' is not a nonempty word over L, R\n"),
    (("length", "lr"), 2,
     "error: argument word: malformed-word: 'lr' is not a nonempty word over L, R\n"),
    (("length", "LR\n"), 2,
     "error: argument word: malformed-word: 'LR\\n' is not a nonempty word over L, R\n"),
    (("length", "L\uff2c"), 2,
     "error: argument word: malformed-word: 'L\uff2c' is not a nonempty word over L, R\n"),
    (("length", "LL"), 3,
     "error: parabolic: trace 2 is parabolic: no closed geodesic\n"),
    (("family", "0/0"), 3, "error: undefined-slope: 0/0\n"),
    (("word", "1/" + HUGE), 3,
     f"error: too-large: the LR word of 1/{HUGE} would have {2 * 10**20}"
     f" letters; a string holds at most {sys.maxsize}\n"),
    (("cutting", "1/" + HUGE), 3,
     f"error: too-large: the LR word of 1/{HUGE} would have {2 * 10**20}"
     f" letters; a string holds at most {sys.maxsize}\n"),
    (("family", "1/" + HUGE), 3,
     f"error: too-large: the Farey path of 1/{HUGE} has {HUGE} triangles;"
     " family takes at most 1000\n"),
    (("svg-path", "1/" + HUGE, "--out", "-"), 3,
     f"error: too-large: the Farey path of 1/{HUGE} has {HUGE} triangles;"
     " svg-path takes at most 10000\n"),
    (("svg-line", "1/" + HUGE, "--out", "-"), 3,
     f"error: too-large: the lattice line of 1/{HUGE} crosses {10**20 + 1}"
     " lines; svg-line takes at most 100000\n"),
]
