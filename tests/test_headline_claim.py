"""The paper's headline claim: the optimal scheme gains more than the strongest-link
scheme from knowing which backhaul links are active.

"Gains" has two readings: the drop in outage, ku - ka, and the ratio ku / ka.
At the reference point both hold for K = 3 and 5; at K = 2 only the ratio does.
"""

from dataclasses import replace

import pytest

from secrecy_outage import REFERENCE_CONFIG, Scenario, Scheme, SopQuery, analytic_sops, quadrature_sops
from secrecy_outage.sweep import db_to_linear

ROUTES = {
    "closed form": lambda queries: [value.value for value in analytic_sops(queries)],
    "quadrature": quadrature_sops,
}


def _gains(route, K: int, zeta: float, snr_db: float) -> dict[Scheme, tuple[float, float]]:
    """Per scheme, its (drop, ratio) from ku to ka at the reference point."""
    cfg = replace(REFERENCE_CONFIG, K=K, zeta=zeta, snr=db_to_linear(snr_db))
    schemes = (Scheme.SS, Scheme.OS)
    queries = [SopQuery(cfg, scheme, scenario) for scheme in schemes for scenario in (Scenario.KU, Scenario.KA)]
    values = ROUTES[route](queries)
    return {
        scheme: (ku - ka, ku / ka)
        for scheme, ku, ka in zip(schemes, values[0::2], values[1::2])
    }


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_optimal_selection_gains_more_from_known_backhaul(route):
    for K in (3, 5):
        for zeta in (0.9, 0.99):
            for snr_db in (10.0, 30.0):
                gains = _gains(route, K, zeta, snr_db)
                (ss_drop, ss_ratio), (os_drop, os_ratio) = gains[Scheme.SS], gains[Scheme.OS]
                assert os_drop > ss_drop, (K, zeta, snr_db)
                assert os_ratio > ss_ratio, (K, zeta, snr_db)


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_two_transmitters_break_the_drop_form_only(route):
    gains = _gains(route, 2, 0.9, 10.0)
    (ss_drop, ss_ratio), (os_drop, os_ratio) = gains[Scheme.SS], gains[Scheme.OS]
    assert os_drop == pytest.approx(0.0610, abs=5e-5)
    assert ss_drop == pytest.approx(0.0646, abs=5e-5)
    assert os_drop < ss_drop
    assert os_ratio == pytest.approx(1.91, abs=5e-3)
    assert ss_ratio == pytest.approx(1.65, abs=5e-3)
    assert os_ratio > ss_ratio
