"""The pinned outputs: (argv, md5 of stdout, id) for commands that must not drift.

Each command of PINNED exits 0 with nothing on stderr, and its stdout
hashes to the digest.  Each of PINNED_ERRORS writes nothing to stdout
and exits with the given code and exactly the given stderr.  The module
needs only the standard library, so that tools/check_pinned.py can check
both on any supported Python, with or without pytest.
"""

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

# (argv, exit code, stderr).  The first five are argparse's errors, the
# first two shaped by the private _negative_number_matcher the CLI sets;
# the last two are domain errors.
PINNED_ERRORS = [
    (("word", "-.5"), 2,
     "error: argument slope: malformed-slope: '-.5' is not 'p/q'\n"),
    (("table", "--n", "-.5"), 2, "error: argument --n: malformed-integer: '-.5'\n"),
    (("cutting", "0/1", "3/2"), 2, "error: unrecognized arguments: 3/2\n"),
    (("table", "--n", "1_0"), 2, "error: argument --n: malformed-integer: '1_0'\n"),
    (("census",), 2, "error: the following arguments are required: --max-x\n"),
    (("length", "LL"), 3,
     "error: parabolic: trace 2 is parabolic: no closed geodesic\n"),
    (("family", "0/0"), 3, "error: undefined-slope: 0/0\n"),
]
