"""Tests of modlink.arith, the primality and factoring behind the discriminants.

The tests of its other helpers, and of field_discriminant, which reaches
it, are in test_psl2z.py.
"""

import math

from modlink import arith


def test_ecm_retakes_the_stage_1_powers_one_by_one_when_every_factor_falls(monkeypatch):
    # on the first curve, sigma = 6, the whole stage-1 product is a
    # multiple of the point's order modulo both 19 753 and 43 943, so the
    # gcd is n; taken one power at a time, the point dies modulo 19 753
    # first.  Rho splits this n first, so _odd_primes never gets here.
    calls = []
    ladder = arith._ladder

    def recording(k, *point):
        calls.append(k)
        return ladder(k, *point)

    monkeypatch.setattr(arith, "_ladder", recording)
    n = 19_753 * 43_943
    assert arith._ecm(n) == 19_753
    powers = arith._ecm_plan(arith._ECM_B1)[0]
    assert calls[0] == math.prod(powers)
    assert any(k in powers for k in calls[1:])
