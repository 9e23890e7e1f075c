"""The reproduction catalog computes each secant and direct rank it checks, and each witness tensor, once."""

from grasec import field, grassec, phimap, reproduce, secant


def _spy(monkeypatch, module, name) -> list:
    """Record the first two positional arguments of every call of ``module.name``."""
    calls, real = [], getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args[:2])
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_secant_checks_compute_four_secants(monkeypatch):
    # sigma_top and sigma_{top-1} of two specs, and their generic ranks, come from
    # one walk per spec: three evaluations, each at the top order
    walks = _spy(monkeypatch, secant, "classify_secant_range")
    ranks = _spy(monkeypatch, secant, "terracini_rank")
    secants = _spy(monkeypatch, secant, "secant_dim")
    checks = reproduce._secant_checks(0, field.DEFAULT_PRIMES, secant.DEFAULT_TRIALS)
    assert [(str(spec), orders) for spec, orders in walks] == [
        ("1,1,1,1,1", range(1, 7)), ("3,3,3", range(1, 8))]
    assert [(str(spec), s) for spec, s in ranks] == [("1,1,1,1,1", 6), ("1,1,1,1,1", 6), ("3,3,3", 7)]
    assert secants == []
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
    # (X, k) over s = 2..4, each one evaluation sequence at s = 4, and 14
    # evaluations at seed 0; the soundness draws repeat (spec, s)
    direct, real_direct = [], grassec.gs_dim_direct

    def counting_direct(spec, k, s, **kwargs):
        direct.append((spec, min(k, s - 1), s))
        return real_direct(spec, k, s, **kwargs)

    monkeypatch.setattr(grassec, "gs_dim_direct", counting_direct)
    walks = _spy(monkeypatch, secant, "classify_secant_range")
    ranks = _spy(monkeypatch, secant, "terracini_rank")
    secants = _spy(monkeypatch, secant, "secant_dim")
    checks = reproduce._grid_checks(0, field.DEFAULT_PRIMES)
    assert all(check["status"] == "PASS" for check in checks)
    assert len(direct) == len(set(direct)) == 24
    assert len(walks) == len(set(walks)) == 12
    assert {orders for _, orders in walks} == {range(2, 5)}
    assert len(ranks) == 14 and {s for _, s in ranks} == {4}
    assert secants == []
    check = reproduce._soundness_check(0, field.DEFAULT_PRIMES)
    assert check["status"] == "PASS"
    assert secants and len(secants) == len(set(secants))
