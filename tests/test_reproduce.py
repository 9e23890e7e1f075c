"""The reproduction catalog computes each secant and direct rank it checks, and each witness tensor, once."""

from grasec import criteria, field, grassec, phimap, reproduce, secant


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
    # 20 slice-map witnesses and 5 decomposition-count pairs, one of which
    # redraws a witness whose slices are proportional (d = 1 < s = 2)
    assert len(witnesses) == 26 and len(built) == len(witnesses)


def test_grid_and_soundness_checks_compute_each_rank_once(monkeypatch):
    # the direct route depends on k only through w = min(k, s - 1): 24 distinct
    # (spec, w, s) among the grid's 36 cells; the Segre side is one walk per
    # (X, k) over s = 2..4, each one evaluation sequence at s = 4, and 14
    # evaluations at seed 0; the soundness draws repeat (spec, s), and rank
    # sigma_s(X) only: sigma_s(Seg(P^k x X)) is judged by its expected dimension
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
    assert check["status"] == "PASS" and check["computed"]["holds_seen"] > 0
    assert secants and len(secants) == len(set(secants))
    assert {str(spec) for spec, _ in secants} <= {"1,1", "2:2", "1:4", "2:3", "1,2"}


def test_decomposition_count_row_fails_on_a_wrong_count(monkeypatch):
    # the row compares the library count with a closed form that shares no code
    # with it, so a count off by one turns it to FAIL
    real = phimap.count_decompositions
    monkeypatch.setattr(phimap, "count_decompositions", lambda *args: real(*args) + 1)
    check = reproduce._cardinality_check(0)
    assert (check["status"], check["computed"]) == ("FAIL", "0/5")


def test_decomposition_count_row_closed_form_on_300_draws(monkeypatch):
    # seeds 0, 5, ..., 295 run the row on streams 0 .. 299, each up to its first
    # witness with d = 2; the pencil's pair count equals the library count on
    # every one, and both of its values, 1 and 15, occur
    counts = []
    real = phimap.count_decompositions

    def recording(*args):
        counts.append(real(*args))
        return counts[-1]

    monkeypatch.setattr(phimap, "count_decompositions", recording)
    for seed in range(0, 300, 5):
        assert reproduce._cardinality_check(seed)["computed"] == "5/5", seed
    assert len(counts) == 300 and set(counts) == {1, 15}


def test_soundness_row_fails_when_the_rule_admits_every_cell(monkeypatch):
    # with every hypothesis holding, cells whose sigma_s(Seg(P^k x X)) is
    # expected to fill its ambient space are admitted and counted as violations
    anchor, _ = criteria._RULES["rank-defect-criterion"]
    monkeypatch.setitem(criteria._RULES, "rank-defect-criterion",
                        (anchor, lambda **facts: {"always": True}))
    check = reproduce._soundness_check(0, field.DEFAULT_PRIMES)
    assert check["status"] == "FAIL" and check["computed"]["violations"] > 0

