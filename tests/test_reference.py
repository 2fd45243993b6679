"""Every route's values against the stored regression oracle (see reference.py)."""

import json

import reference
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


def _stored_pairs() -> dict:
    stored = json.loads(PATH.read_text(encoding="utf-8"))["values"]
    return {key: [(str(i), value) for i, value in enumerate(values)] for key, values in stored.items()}


def test_check_mode_reports_moves_and_leaves_the_file(monkeypatch, capsys):
    before = PATH.read_bytes()
    pairs = _stored_pairs()
    monkeypatch.setattr(reference, "reference_values", lambda: pairs)
    assert reference.main(["--check"]) == 0
    assert "quadrature: largest relative move 0\n" in capsys.readouterr().out
    key = next(key for key in pairs if route(key) == "quadrature")
    label, value = pairs[key][0]
    pairs[key][0] = (label, value * (1 + 4 * TOLERANCES["quadrature"]))
    assert reference.main(["--check"]) == 1
    assert "quadrature: move exceeds its tolerance" in capsys.readouterr().out
    assert PATH.read_bytes() == before
