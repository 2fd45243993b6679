"""The extreme-domain probe as a gate: quadrature is never the wrong route, and every row converges."""

from probe import probe
from secrecy_outage import quadrature


def test_quadrature_is_right_on_every_settled_key_of_the_extreme_domain():
    # 120 seeded queries far outside the validation grid; where the closed
    # form and tight quadrature disagree, the 60-digit series settles it
    tolerances = quadrature.ABS_TOL, quadrature.REL_TOL
    counts = probe(120, 12)
    assert (quadrature.ABS_TOL, quadrature.REL_TOL) == tolerances
    assert counts["failed"] == 0
    assert counts["wrong"]["quadrature"] == []
    assert counts["disagree"] > 0  # the gate has keys to settle
