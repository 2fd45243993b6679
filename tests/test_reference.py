"""Every route's values against the stored regression oracle (see reference.py)."""

import json

from reference import PATH, TOLERANCES, reference_values, route


def test_every_route_matches_the_stored_reference():
    stored = json.loads(PATH.read_text(encoding="utf-8"))
    assert stored["tolerances"] == TOLERANCES
    computed = reference_values()
    assert list(computed) == list(stored["values"])
    for key, pairs in computed.items():
        tol = TOLERANCES[route(key)]
        reference = stored["values"][key]
        assert len(pairs) == len(reference), key
        for (label, value), expected in zip(pairs, reference):
            assert abs(value - expected) <= tol * abs(expected), (key, label, value, expected)
