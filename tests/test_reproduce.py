"""The reproduction catalog computes each secant it checks once."""

from grasec import field, reproduce, secant


def test_secant_checks_compute_four_secants(monkeypatch):
    calls = []
    real = secant.secant_dim

    def counting(spec, s, **kwargs):
        calls.append((str(spec), s))
        return real(spec, s, **kwargs)

    monkeypatch.setattr(secant, "secant_dim", counting)
    checks = reproduce._secant_checks(0, field.DEFAULT_PRIMES, secant.DEFAULT_TRIALS)
    assert sorted(calls) == [("1,1,1,1,1", 5), ("1,1,1,1,1", 6), ("3,3,3", 6), ("3,3,3", 7)]
    assert all(check["status"] == "PASS" for check in checks)
