"""The reproduction catalog computes each secant and direct rank it checks, and each witness tensor, once."""

from grasec import field, grassec, phimap, reproduce, secant


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


def test_slice_map_checks_assemble_each_witness_tensor_once(monkeypatch):
    built = []
    real = phimap.assemble_tensor

    def counting(lambdas, embedded_points, p):
        built.append(p)
        return real(lambdas, embedded_points, p)

    witnesses = []
    draw = phimap.random_secant_point

    def recording(*args):
        witnesses.append(draw(*args))
        return witnesses[-1]

    monkeypatch.setattr(phimap, "assemble_tensor", counting)
    monkeypatch.setattr(phimap, "random_secant_point", recording)
    checks = [reproduce._slice_map_checks(0, field.DEFAULT_PRIMES), reproduce._cardinality_check(0)]
    assert all(check["status"] == "PASS" for check in checks)
    assert len(witnesses) == 25 and len(built) == len(witnesses)


def test_grid_and_soundness_checks_compute_each_rank_once(monkeypatch):
    # the direct route depends on k only through w = min(k, s - 1): 24 distinct
    # (spec, w, s) among the grid's 36 cells; the Segre side is one walk per
    # (X, k) over s = 2..4, which computes 18 of its 36 reports at seed 0 and
    # propagates the rest; the soundness draws repeat (spec, s)
    direct, walks, secants = [], [], []
    real_direct, real_walk, real_secant = (
        grassec.gs_dim_direct, secant.classify_secant_range, secant.secant_dim)

    def counting_direct(spec, k, s, **kwargs):
        direct.append((spec, min(k, s - 1), s))
        return real_direct(spec, k, s, **kwargs)

    def counting_walk(spec, orders, **kwargs):
        walks.append((spec, orders))
        return real_walk(spec, orders, **kwargs)

    def counting_secant(spec, s, **kwargs):
        secants.append((spec, s))
        return real_secant(spec, s, **kwargs)

    monkeypatch.setattr(grassec, "gs_dim_direct", counting_direct)
    monkeypatch.setattr(secant, "classify_secant_range", counting_walk)
    monkeypatch.setattr(secant, "secant_dim", counting_secant)
    checks = reproduce._grid_checks(0, field.DEFAULT_PRIMES)
    assert all(check["status"] == "PASS" for check in checks)
    assert len(direct) == len(set(direct)) == 24
    assert len(walks) == len(set(walks)) == 12
    assert {orders for _, orders in walks} == {range(2, 5)}
    assert len(secants) == len(set(secants)) == 18
    secants.clear()
    check = reproduce._soundness_check(0, field.DEFAULT_PRIMES)
    assert check["status"] == "PASS"
    assert secants and len(secants) == len(set(secants))
