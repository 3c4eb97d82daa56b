import random

import pytest

from orchsim.ranker import (EmptyCandidatesError, EmptyInputError, PreferenceError,
                            PreferenceList, ProviderSnapshot, RankerConfig,
                            RankerError, normalize, rank_providers, score)
def snap(pid, sla=1.0, avail=1.0, lat=10.0, locality=1.0):
    return ProviderSnapshot(provider_id=pid, sla_rank=sla, availability=avail,
                            latency_ms=lat, data_locality=locality)


def test_normalize_degenerate_singleton():
    assert normalize([5]) == [1.0]


def test_normalize_formula():
    assert normalize([0, 5, 10]) == [0.0, 0.5, 1.0]


def test_normalize_all_equal():
    assert normalize([3, 3, 3]) == [1.0, 1.0, 1.0]


def test_normalize_empty_rejected():
    with pytest.raises(EmptyInputError):
        normalize([])


def test_score_single_term():
    config = RankerConfig(w_sla=1, w_avail=0, w_lat=0, w_data=0)
    s = snap("p", avail=0.3, lat=100, locality=0.2)
    assert score(s, 0.7, 0.5, config) == pytest.approx(0.7)


def test_score_hand_sum():
    config = RankerConfig(1, 1, 1, 1)
    s = snap("p", avail=0.9, locality=1.0)
    # 0.5 + 0.9 + (1 - 0.2) + 1.0
    assert score(s, 0.5, 0.2, config) == pytest.approx(3.2)


def test_score_data_term_product():
    config = RankerConfig(w_sla=0, w_avail=0, w_lat=0, w_data=2)
    s = snap("p", locality=0.25)
    assert score(s, 1.0, 1.0, config) == pytest.approx(0.5)


def test_zero_weights_rejected():
    with pytest.raises(RankerError):
        RankerConfig(0, 0, 0, 0)
    with pytest.raises(RankerError):
        RankerConfig(w_sla=-1)


def test_snapshot_ranges_checked():
    with pytest.raises(RankerError):
        snap("p", avail=1.5)
    with pytest.raises(RankerError):
        snap("p", locality=-0.1)


def test_preference_list_rejects_duplicates():
    with pytest.raises(PreferenceError):
        PreferenceList(("a", "b", "a"))


def test_rank_single_candidate():
    assert rank_providers([snap("only")], RankerConfig()) == ["only"]


def test_rank_empty_rejected():
    with pytest.raises(EmptyCandidatesError):
        rank_providers([], RankerConfig())


def test_preferred_low_scorer_comes_first():
    a = snap("a", sla=10.0)
    b = snap("b", sla=0.1)
    config = RankerConfig(w_sla=1, w_avail=0, w_lat=0, w_data=0)
    assert rank_providers([a, b], config) == ["a", "b"]
    assert rank_providers([a, b], config, PreferenceList(("b",))) == ["b", "a"]


def test_preferences_ignore_absent_providers():
    order = rank_providers([snap("a"), snap("b")], RankerConfig(),
                           PreferenceList(("zz", "b")))
    assert order[0] == "b"
    assert "zz" not in order


# -- oracle equivalence --------------------------------------------------------


def oracle_rank(candidates, config, prefs=None):
    """Brute-force reference: recompute everything from scratch and sort."""
    slas = [c.sla_rank for c in candidates]
    lats = [c.latency_ms for c in candidates]

    def norm(values, v):
        lo, hi = min(values), max(values)
        if hi == lo:
            return 1.0
        return (v - lo) / (hi - lo)

    scores = {}
    for c in candidates:
        scores[c.provider_id] = (config.w_sla * norm(slas, c.sla_rank)
                                 + config.w_avail * c.availability
                                 + config.w_lat * (1.0 - norm(lats, c.latency_ms))
                                 + config.w_data * c.data_locality)
    preferred = [p for p in (prefs.providers if prefs else ()) if p in scores]
    rest = [pid for pid in scores if pid not in preferred]
    rest.sort(key=lambda pid: (-scores[pid], pid))
    return preferred + rest


def random_candidates(rng, lo=2, hi=10):
    n = rng.randrange(lo, hi + 1)
    ids = rng.sample(["p%02d" % i for i in range(30)], n)
    return [snap(pid,
                 sla=rng.choice([0.0, rng.uniform(0, 10), 5.0]),
                 avail=rng.random(),
                 lat=rng.choice([0.0, rng.uniform(0, 500)]),
                 locality=rng.choice([0.0, 1.0, rng.random()]))
            for pid in ids]


def random_config(rng):
    while True:
        weights = [rng.choice([0.0, rng.uniform(0, 3), 1.0]) for _ in range(4)]
        if sum(weights) > 0:
            return RankerConfig(*weights)


def test_rank_matches_oracle_on_random_inputs():
    rng = random.Random(99)
    for _ in range(500):
        candidates = random_candidates(rng)
        config = random_config(rng)
        prefs = None
        if rng.random() < 0.5:
            pool = [c.provider_id for c in candidates] + ["ghost"]
            chosen = rng.sample(pool, rng.randrange(0, len(pool)))
            prefs = PreferenceList(tuple(chosen))
        assert rank_providers(candidates, config, prefs) == \
            oracle_rank(candidates, config, prefs)


def test_rank_is_permutation_invariant():
    rng = random.Random(3)
    for _ in range(200):
        candidates = random_candidates(rng)
        config = random_config(rng)
        shuffled = candidates[:]
        rng.shuffle(shuffled)
        assert rank_providers(candidates, config) == rank_providers(shuffled, config)


def test_availability_monotonicity():
    # raising one provider's availability (weights fixed, others fixed) never
    # lowers its position; availability enters the score raw, so the
    # normalization context of the other terms does not move
    rng = random.Random(17)
    for _ in range(200):
        candidates = random_candidates(rng)
        config = random_config(rng)
        target = rng.choice(candidates).provider_id
        before = rank_providers(candidates, config).index(target)
        bumped = [
            snap(c.provider_id, sla=c.sla_rank, avail=min(1.0, c.availability + 0.3),
                 lat=c.latency_ms, locality=c.data_locality)
            if c.provider_id == target else c
            for c in candidates
        ]
        after = rank_providers(bumped, config).index(target)
        assert after <= before


def test_rank_is_pure():
    rng = random.Random(5)
    candidates = random_candidates(rng)
    config = random_config(rng)
    assert rank_providers(candidates, config) == rank_providers(candidates, config)
