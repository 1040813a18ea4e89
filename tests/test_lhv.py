import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzlab.game import (
    NO_DETECTION,
    PATTERNS,
    DeterministicTable,
    QuestionPattern,
    TableStrategy,
    quantum_strategy,
    run_experiment,
)
from ghzlab.lhv import (
    enumerate_kits,
    kit_is_admissible,
    lhv_statistics,
)
from ghzlab.qsim import Axis

import oracle

P, M, ND = 1, -1, NO_DETECTION


def kit(*entries):
    return DeterministicTable(*entries)


def test_enumerate_kits_non_empty_and_admissible():
    kits = enumerate_kits()
    assert len(kits) == 48
    for k in kits:
        assert kit_is_admissible(k)
        assert sum(e is ND for e in k) == 1


def test_enumerate_kits_sorted():
    kits = enumerate_kits()
    rank = {P: 0, M: 1, ND: 2}
    keys = [tuple(rank[e] for e in k) for k in kits]
    assert keys == sorted(keys)


def test_no_fully_detecting_kit_satisfies_all_patterns():
    # brute force over all 2**6 sign-only kits: none meets all four targets
    for signs in itertools.product((1, -1), repeat=6):
        satisfied = (
            signs[0] * signs[2] * signs[4] == -1
            and signs[0] * signs[3] * signs[5] == 1
            and signs[1] * signs[2] * signs[5] == 1
            and signs[1] * signs[3] * signs[4] == 1
        )
        assert not satisfied


def test_kit_admissibility_counterexamples():
    assert not kit_is_admissible(kit(ND, ND, P, P, P, P))  # two silent slots
    # A.X silent, but the YXY pattern product y_a * x_b * y_c is -1, not +1
    bad = kit(ND, P, M, P, P, P)
    assert (
        bad.answer(0, Axis.Y) * bad.answer(1, Axis.X) * bad.answer(2, Axis.Y) == -1
    )
    assert not kit_is_admissible(bad)


def test_play_with_kit_silences_exactly_the_right_player():
    silent_ax = next(k for k in enumerate_kits() if oracle.silent_slot(k) == (0, Axis.X))
    replies = oracle.play_with_kit(silent_ax, QuestionPattern.XXX)
    assert replies[0] is NO_DETECTION
    assert replies[1] in (1, -1) and replies[2] in (1, -1)
    # the untouched pattern YXY gets three answers meeting its target
    replies = oracle.play_with_kit(silent_ax, QuestionPattern.YXY)
    assert NO_DETECTION not in replies
    assert replies[0] * replies[1] * replies[2] == 1


def test_play_with_kit_at_most_one_silence():
    for k in enumerate_kits():
        for pattern in PATTERNS:
            replies = oracle.play_with_kit(k, pattern)
            assert sum(r is NO_DETECTION for r in replies) <= 1


def test_play_with_kit_rejects_inadmissible():
    with pytest.raises(ValueError):
        oracle.play_with_kit(kit(P, P, P, P, P, P), QuestionPattern.XXX)


def test_every_kit_detects_exactly_half_the_patterns():
    # each slot is queried by exactly 2 of the 4 patterns, so triple
    # detection has probability 1/2 kit by kit, not just on average
    for k in enumerate_kits():
        player, axis = oracle.silent_slot(k)
        queried = sum(p.axes[player] is axis for p in PATTERNS)
        assert queried == 2


def test_detected_patterns_always_win():
    for k in enumerate_kits():
        for pattern in PATTERNS:
            replies = oracle.play_with_kit(k, pattern)
            if NO_DETECTION not in replies:
                assert replies[0] * replies[1] * replies[2] == pattern.target


def test_lhv_statistics_report():
    n = 100_000
    report = lhv_statistics(n, master_seed=0)
    assert abs(report.triple_detection_rate - 0.5) < oracle.binomial_4sigma(0.5, n)
    assert report.conditional_win_rate == 1.0
    assert report.single_detections == 0
    assert report.null_detections == 0
    assert report.wins == round(report.triple_detection_rate * n)
    assert sum(report.per_pattern_trials.values()) == n


def test_lhv_statistics_reproducible():
    assert lhv_statistics(2000, 5) == lhv_statistics(2000, 5)
    assert lhv_statistics(2000, 5) != lhv_statistics(2000, 6)


def test_lhv_distinguishable_from_lossy_quantum_team():
    # the kit model never loses more than one player per run; independent
    # detector failures do, so sub-double detections tell the models apart
    records = []
    strategy = quantum_strategy(0.7)
    run_experiment(strategy, 3000, 9, record_sink=records.append)
    low_detection_runs = sum(sum(rec.detections) <= 1 for rec in records)
    assert low_detection_runs > 0
    report = lhv_statistics(3000, 9)
    assert report.single_detections == 0 and report.null_detections == 0


def test_kit_expected_win_rate_is_the_rate_played():
    # a silent seat answers a fair coin, so each pattern that asks the
    # silent slot wins half the time and the two others always win
    n = 1000
    for k, kit_ in enumerate(enumerate_kits()):
        team = TableStrategy(kit_)
        assert team.expected_win_rate() == 0.75
        report = run_experiment(team, n, 40 + k)
        assert abs(report.win_rate - 0.75) < oracle.binomial_4sigma(0.75, n)


def test_kit_describe_mentions_silence():
    text = enumerate_kits()[0].describe()
    assert "silent" in text


@settings(deadline=None, max_examples=40)
@given(trials=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_lhv_statistics_matches_reference_loop(trials, seed):
    assert lhv_statistics(trials, seed) == oracle.ref_lhv_statistics(trials, seed)
