import gc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghzlab import teleport
from ghzlab.game import (
    PATTERNS,
    DeterministicTable,
    NO_DETECTION,
    QuestionPattern,
    RandomStrategy,
    Strategy,
    TableStrategy,
    TrialStreams,
    draw_pattern,
    play_deterministic,
    quantum_strategy,
    run_experiment,
    scan_deterministic,
    theoretical_win_rate,
    wins,
)
from ghzlab.lhv import lhv_statistics
from ghzlab.prepost import generalized_elements_check
from ghzlab.qsim import Axis, StateVector, make_ghz

import oracle

ALL_PLUS = DeterministicTable(1, 1, 1, 1, 1, 1)


# ---------------------------------------------------------------------------
# referee


def test_wins_examples():
    assert wins(QuestionPattern.XXX, (1, 1, -1))
    assert wins(QuestionPattern.XYY, (1, 1, 1))
    assert not wins(QuestionPattern.XXX, (1, 1, 1))


def test_pattern_axes():
    assert QuestionPattern.XYY.axes == (Axis.X, Axis.Y, Axis.Y)
    assert QuestionPattern.YYX.target == 1
    assert QuestionPattern.XXX.target == -1


def test_draw_pattern_support_and_determinism():
    rnd = np.random.default_rng(0)
    seen = {draw_pattern(rnd) for _ in range(1000)}
    assert seen == set(PATTERNS)
    a = [draw_pattern(np.random.default_rng(5)) for _ in range(50)]
    b = [draw_pattern(np.random.default_rng(5)) for _ in range(50)]
    assert a == b


def test_draw_pattern_uniform():
    rnd = np.random.default_rng(1)
    n = 100_000
    counts = {p: 0 for p in PATTERNS}
    for _ in range(n):
        counts[draw_pattern(rnd)] += 1
    for p in PATTERNS:
        assert abs(counts[p] / n - 0.25) < oracle.binomial_4sigma(0.25, n)


# ---------------------------------------------------------------------------
# deterministic tables


def test_play_deterministic_examples():
    assert play_deterministic(ALL_PLUS, QuestionPattern.XXX) == (1, 1, 1)
    assert not wins(QuestionPattern.XXX, (1, 1, 1))
    assert play_deterministic(ALL_PLUS, QuestionPattern.XYY) == (1, 1, 1)
    assert wins(QuestionPattern.XYY, (1, 1, 1))
    flipped_c = DeterministicTable(1, 1, 1, 1, -1, 1)
    assert play_deterministic(flipped_c, QuestionPattern.XXX) == (1, 1, -1)
    assert wins(QuestionPattern.XXX, (1, 1, -1))


def test_table_validation():
    # True == 1 and 1.0 == 1, but a table of them would print and serialize wrongly
    for bad in (0, True, False, 1.0, -1.0, None):
        with pytest.raises(ValueError):
            DeterministicTable(1, 1, bad, 1, 1, 1)
    replies = (1, -1, NO_DETECTION, 1, -1, 1)
    assert tuple(DeterministicTable(*replies)) == replies


def test_scan_deterministic_ceiling():
    scan = scan_deterministic()
    assert scan.best_rate == 0.75
    assert len(scan.best_tables) == 32
    assert scan.histogram == {0.75: 32, 0.25: 32}


def test_scan_matches_independent_brute_force():
    # reimplement the evaluation directly from the rules
    import itertools

    best = 0.0
    losers_of_everything = 0
    for entries in itertools.product((-1, 1), repeat=6):
        x_a, y_a, x_b, y_b, x_c, y_c = entries
        outcomes = {
            QuestionPattern.XXX: x_a * x_b * x_c == -1,
            QuestionPattern.XYY: x_a * y_b * y_c == 1,
            QuestionPattern.YXY: y_a * x_b * y_c == 1,
            QuestionPattern.YYX: y_a * y_b * x_c == 1,
        }
        rate = sum(outcomes.values()) / 4
        best = max(best, rate)
        losers_of_everything += sum(outcomes.values()) == 4
    assert best == scan_deterministic().best_rate == 0.75
    assert losers_of_everything == 0  # no table wins all four patterns


def test_mixtures_of_tables_stay_below_ceiling():
    # shared randomness mixes deterministic tables; its expected rate is a
    # convex combination, so it can never exceed the deterministic best
    from ghzlab.game import all_tables

    rng = np.random.default_rng(123)
    rates = np.array([t.expected_win_rate() for t in all_tables()])
    for _ in range(1000):
        weights = rng.dirichlet(np.full(64, 0.3))
        assert float(weights @ rates) <= 0.75 + 1e-12


# ---------------------------------------------------------------------------
# quantum strategy


def test_quantum_strategy_always_wins_each_pattern():
    strategy = quantum_strategy()
    streams = TrialStreams(99, 4)
    for pattern in PATTERNS:
        for i in range(2000):
            _, gens = streams.trial(i)
            shared = strategy.setup(gens[0])
            answers = []
            for j in range(3):
                reply, shared = strategy.answer(shared, j, pattern.axes[j], gens[1 + j])
                answers.append(reply)
            assert wins(pattern, answers)


@pytest.mark.parametrize("pattern", [p for p in PATTERNS if p.target == 1], ids=lambda p: p.value)
@pytest.mark.parametrize("ghz", [make_ghz, oracle.plain_ghz], ids=["shared", "plain"])
def test_quantum_team_never_takes_a_rounding_branch(pattern, ghz):
    # A and B read -1, so C's other outcome keeps a weight 1 - p_plus of about
    # 3e-15 that is only rounding: the top draw must not take it
    strategy = quantum_strategy()
    shared = ghz()
    answers = []
    for site in range(3):
        reply, shared = strategy.answer(shared, site, pattern.axes[site], oracle.TopDraw())
        assert np.vdot(shared.amps, shared.amps).real == pytest.approx(1.0, abs=1e-12)
        answers.append(reply)
    assert answers[:2] == [-1, -1]
    assert wins(pattern, answers)


def test_quantum_xxx_product_is_minus_one():
    strategy = quantum_strategy()
    streams = TrialStreams(7, 4)
    for i in range(500):
        _, gens = streams.trial(i)
        shared = strategy.setup(gens[0])
        answers = []
        for j in range(3):
            reply, shared = strategy.answer(shared, j, Axis.X, gens[1 + j])
            answers.append(reply)
        assert answers[0] * answers[1] * answers[2] == -1


def test_quantum_marginal_is_fair_and_pattern_independent():
    strategy = quantum_strategy()
    streams = TrialStreams(13, 4)
    n = 4000
    rates = {}
    for pattern in PATTERNS:
        plus = 0
        for i in range(n):
            _, gens = streams.trial(i)
            shared = strategy.setup(gens[0])
            reply, shared = strategy.answer(shared, 0, pattern.axes[0], gens[1])
            plus += reply == 1
            _, shared = strategy.answer(shared, 1, pattern.axes[1], gens[2])
            strategy.answer(shared, 2, pattern.axes[2], gens[3])
        rates[pattern] = plus / n
        assert abs(rates[pattern] - 0.5) < oracle.binomial_4sigma(0.5, n)
    # pattern choice elsewhere cannot move player A's marginal
    spread = max(rates.values()) - min(rates.values())
    assert spread < 2 * oracle.binomial_4sigma(0.5, n)


# ---------------------------------------------------------------------------
# detection efficiency


def test_theoretical_win_rate_values():
    assert theoretical_win_rate(1.0) == 1.0
    assert theoretical_win_rate(0.5 ** (1 / 3)) == pytest.approx(0.75, abs=1e-12)
    assert theoretical_win_rate(0.9) == pytest.approx(0.8645, abs=1e-12)
    assert theoretical_win_rate(0.0) == 0.5
    with pytest.raises(ValueError):
        theoretical_win_rate(1.5)
    with pytest.raises(ValueError):
        theoretical_win_rate(-0.1)


def test_theoretical_win_rate_strictly_increasing():
    grid = np.linspace(0.0, 1.0, 101)
    values = [theoretical_win_rate(float(e)) for e in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_eta_one_wrapper_is_identity():
    base_records = []
    explicit_records = []
    run_experiment(quantum_strategy(), 300, 17, record_sink=base_records.append)
    run_experiment(quantum_strategy(1.0), 300, 17, record_sink=explicit_records.append)
    assert base_records == explicit_records


def test_eta_zero_gives_coin_flip_rate():
    strategy = quantum_strategy(0.0)
    n = 20_000
    report = run_experiment(strategy, n, 3)
    assert report.triple_detection_rate == 0.0
    assert abs(report.win_rate - 0.5) < oracle.binomial_4sigma(0.5, n)


def test_eta_09_matches_formula():
    strategy = quantum_strategy(0.9)
    n = 30_000
    report = run_experiment(strategy, n, 4)
    assert abs(report.win_rate - 0.8645) < oracle.binomial_4sigma(0.8645, n)
    assert abs(report.triple_detection_rate - 0.9**3) < oracle.binomial_4sigma(0.9**3, n)


def test_detection_failures_recorded():
    strategy = quantum_strategy(0.5)
    records = []
    run_experiment(strategy, 500, 5, record_sink=records.append)
    flags = [d for rec in records for d in rec.detections]
    assert any(flags) and not all(flags)
    assert all(a in (1, -1) for rec in records for a in rec.answers)


def test_table_and_coin_teams_have_no_detector_loss():
    assert TableStrategy(ALL_PLUS).eta == 1.0
    assert RandomStrategy().eta == 1.0


def test_quantum_eta_validation():
    for eta in (1.2, -0.1, float("nan")):
        with pytest.raises(ValueError):
            quantum_strategy(eta)


def test_expected_win_rate_of_each_team():
    assert quantum_strategy().expected_win_rate() == 1.0
    assert quantum_strategy(0.9).expected_win_rate() == theoretical_win_rate(0.9)
    best = scan_deterministic().best_tables[0]
    assert TableStrategy(best).expected_win_rate() == 0.75
    assert TableStrategy(ALL_PLUS).expected_win_rate() == ALL_PLUS.expected_win_rate()
    assert RandomStrategy().expected_win_rate() == 0.5


# ---------------------------------------------------------------------------
# harness


class SpyStrategy(Strategy):
    """Answers +1 and records every call; the shared resource counts the seats asked."""

    name = "spy"

    def __init__(self):
        self.calls = []

    def setup(self, rnd):
        self.calls.append(("setup", rnd))
        return 0

    def answer(self, shared, site, question, rnd):
        self.calls.append(("answer", site, question, rnd, shared))
        return 1, shared + 1


def spy_run(strategy, trials, seed, monkeypatch):
    """Play ``strategy``, returning its records and the streams of each trial."""
    streams = []
    trial = TrialStreams.trial

    def spy_trial(self, index):
        out = trial(self, index)
        streams.append(out[1])
        return out

    monkeypatch.setattr(TrialStreams, "trial", spy_trial)
    records = []
    run_experiment(strategy, trials, seed, record_sink=records.append)
    return records, streams


def test_each_seat_sees_only_its_question_and_stream(monkeypatch):
    spy = SpyStrategy()
    records, streams = spy_run(spy, 50, 3, monkeypatch)
    assert len(spy.calls) == 4 * len(records)
    calls = iter(spy.calls)
    for rec, gens in zip(records, streams):
        assert next(calls) == ("setup", gens[1])
        for site in range(3):
            # the last item is the resource, as the seat before left it
            assert next(calls) == ("answer", site, rec.pattern.axes[site], gens[2 + site], site)
        assert rec.detections == (True, True, True)


def test_undetected_seat_is_never_asked(monkeypatch):
    lossy = SpyStrategy()
    lossy.eta = 0.5
    records, streams = spy_run(lossy, 200, 4, monkeypatch)
    calls = iter(lossy.calls)
    for rec, gens in zip(records, streams):
        assert next(calls) == ("setup", gens[1])
        for site in range(3):
            if rec.detections[site]:
                assert next(calls)[1:4] == (site, rec.pattern.axes[site], gens[2 + site])
                assert rec.answers[site] == 1
    assert next(calls, None) is None
    flags = [d for rec in records for d in rec.detections]
    assert any(flags) and not all(flags)


def test_quantum_team_names_its_efficiency():
    bare = quantum_strategy()
    lossy = quantum_strategy(0.5)
    assert (bare.eta, bare.name) == (1.0, "quantum")
    assert (lossy.eta, lossy.name) == (0.5, "quantum[eta=0.5]")


def test_run_experiment_reproducible():
    records_a, records_b = [], []
    r1 = run_experiment(quantum_strategy(), 400, 11, record_sink=records_a.append)
    r2 = run_experiment(quantum_strategy(), 400, 11, record_sink=records_b.append)
    assert r1 == r2
    assert records_a == records_b
    r3 = run_experiment(quantum_strategy(), 400, 12)
    assert r3 != r1


def test_report_bookkeeping():
    report = run_experiment(TableStrategy(ALL_PLUS), 1000, 0)
    assert sum(report.per_pattern_trials.values()) == report.trials == 1000
    assert report.win_rate == report.wins / report.trials
    # all-plus wins exactly the three non-XXX patterns
    assert report.per_pattern_win_rates["XXX"] == 0.0
    for name in ("XYY", "YXY", "YYX"):
        assert report.per_pattern_win_rates[name] == 1.0
    assert report.triple_detection_rate == 1.0
    assert report.master_seed == 0


def test_best_table_hits_three_quarters():
    best = scan_deterministic().best_tables[0]
    n = 40_000
    report = run_experiment(TableStrategy(best), n, 21)
    assert abs(report.win_rate - 0.75) < oracle.binomial_4sigma(0.75, n)


def test_random_strategy_rate():
    n = 20_000
    report = run_experiment(RandomStrategy(), n, 8)
    assert abs(report.win_rate - 0.5) < oracle.binomial_4sigma(0.5, n)


def no_record(rec):
    raise AssertionError(f"record made: {rec}")


SEEDED_RUNS = {
    "run_experiment": lambda trials: run_experiment(quantum_strategy(), trials, 0, no_record),
    "lhv_statistics": lambda trials: lhv_statistics(trials, 0, no_record),
    "teleport.run_trials": lambda trials: teleport.run_trials(trials, 0, no_record),
    "generalized_elements_check": lambda trials: generalized_elements_check(make_ghz(), trials, 0),
}


@pytest.mark.parametrize("trials", [0, -1])
@pytest.mark.parametrize("run", SEEDED_RUNS.values(), ids=SEEDED_RUNS.keys())
def test_every_seeded_run_rejects_too_few_trials_before_building_streams(monkeypatch, run, trials):
    def no_streams(self, *args):
        raise AssertionError("streams built")

    monkeypatch.setattr(TrialStreams, "__init__", no_streams)
    with pytest.raises(ValueError, match="^trials must be at least 1$"):
        run(trials)


def test_no_detection_sentinel_repr():
    assert repr(NO_DETECTION) == "NO_DETECTION"


# ---------------------------------------------------------------------------
# stream derivation


def test_trial_streams_deterministic_and_order_free():
    ts1 = TrialStreams(42, 3)
    ts2 = TrialStreams(42, 3)
    seed_a, gens = ts1.trial(7)
    draws_a = [g.random() for g in gens]
    # visit another trial first on the second instance
    _, gens2 = ts2.trial(100)
    [g.random() for g in gens2]
    seed_b, gens2 = ts2.trial(7)
    draws_b = [g.random() for g in gens2]
    assert seed_a == seed_b
    assert draws_a == draws_b


def test_trial_streams_roles_and_trials_differ():
    ts = TrialStreams(0, 4)
    _, gens = ts.trial(0)
    first = [g.random() for g in gens]
    assert len(set(first)) == 4
    _, gens = ts.trial(1)
    second = [g.random() for g in gens]
    assert set(first).isdisjoint(second)


def test_trial_streams_master_seed_matters():
    a = TrialStreams(1, 1)
    b = TrialStreams(2, 1)
    assert a.trial(0)[1][0].random() != b.trial(0)[1][0].random()


def test_trial_streams_validation():
    with pytest.raises(ValueError):
        TrialStreams(-1, 2)
    with pytest.raises(ValueError):
        TrialStreams(0, 2).trial(-1)


# First draws of TrialStreams(seed, 5).trial(index) for one role, as hex
# floats, then a bounded integer, and the trial's seed label.  Seeded outputs
# rest on TrialStreams writing numpy's private Philox state, so a numpy
# release that changes that layout must fail here rather than silently
# change every report.
KNOWN_DRAWS = (
    (0, 0, 0, 0xDB2CD7E7B0F478BE,
     ("0x1.ccf2d9115c140p-7", "0x1.07f42307c03cep-2", "0x1.e2e209058bb92p-2"), 29),
    (1, 1, 7, 0x34A9DAF7166EF56C,
     ("0x1.ac8498b4730c0p-4", "0x1.4ec849dfb911cp-3", "0x1.3bdf511e80901p-1"), 1),
    (2024, 4, 99_999, 0x8B62256A4F26B50A,
     ("0x1.7a7fc28961ca8p-3", "0x1.f9c504ba75125p-1", "0x1.ea45b5f33239ep-2"), 16),
    (2**40 + 3, 2, 5, 0x430DA928DA32189D,
     ("0x1.19054006e9934p-3", "0x1.7fde1805cb966p-2", "0x1.4be2ea8f74fe8p-4"), 46),
)


@pytest.mark.parametrize("seed, role, index, label, floats, integer", KNOWN_DRAWS)
def test_trial_streams_known_answers(seed, role, index, label, floats, integer):
    streams = TrialStreams(seed, 5)
    for gen in streams.trial(index + 1)[1]:  # leave another trial's state behind first
        gen.random()
    got_label, gens = streams.trial(index)
    assert got_label == label
    assert [gens[role].random() for _ in floats] == [float.fromhex(h) for h in floats]
    assert int(gens[role].integers(48)) == integer


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**64),
    role=st.integers(0, 4),
    index=st.integers(0, 10**9) | st.sampled_from((2**31 - 1, 2**31, 10**9)),
    before=st.integers(0, 2**32),
)
@example(seed=0, role=0, index=2**31 - 1, before=0)
@example(seed=9, role=4, index=2**31, before=2**31 - 1)
@example(seed=12345, role=2, index=10**9, before=5)
def test_trial_streams_match_numpy_public_philox(seed, role, index, before):
    """The state ``TrialStreams.trial`` writes is the one numpy's public constructor builds."""
    streams = TrialStreams(seed, 5)
    for gen in streams.trial(before)[1]:  # leave another trial's state behind first
        gen.random()
    gen = streams.trial(index)[1][role]
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    public = np.random.Generator(np.random.Philox(counter=[0, role, index, 0], key=key))
    assert [gen.random() for _ in range(6)] == [public.random() for _ in range(6)]
    assert int(gen.integers(48)) == int(public.integers(48))


def test_skipped_role_matches_fresh_streams():
    streams = TrialStreams(31, 5)
    for i in range(6):  # role 3 is skipped, role 0 drawn every trial
        streams.trial(i)[1][0].random()
    _, gens = streams.trial(6)
    got = [gens[3].random(), gens[3].random(), int(gens[3].integers(1000))]
    fresh = TrialStreams(31, 5).trial(6)[1][3]
    assert got == [fresh.random(), fresh.random(), int(fresh.integers(1000))]
    ref = oracle.RefTrialStreams(31, 5).trial(6)[1][3]
    assert got == [ref.random(), ref.random(), int(ref.integers(1000))]


def test_role_reads_its_generator_state_after_seeking():
    def state(gen) -> str:  # Philox states hold arrays, so compare their repr
        return repr(gen.bit_generator.state)

    streams = TrialStreams(8, 2)
    _, (_, role) = streams.trial(3)
    role.random()
    ref = oracle.RefTrialStreams(8, 2).trial(3)[1][1]
    ref.random()
    assert state(role) == state(ref)
    assert role.standard_normal() == ref.standard_normal()
    _, (_, role) = streams.trial(4)  # a role read before its first draw seeks too
    assert state(role) == state(oracle.RefTrialStreams(8, 2).trial(4)[1][1])


def test_dropped_streams_are_freed_without_the_cyclic_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for seed in range(8):
            for gen in TrialStreams(seed, 5).trial(seed)[1]:
                gen.random()
        assert gc.collect() == 0  # reference counting alone freed every stream
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# the shared GHZ tree and the streams against their reference loops


@pytest.mark.parametrize("eta", [1.0, 0.9, 0.7937, 0.5, 0.0])
@settings(deadline=None, max_examples=12)
@given(trials=st.integers(1, 600), seed=st.integers(0, 2**40))
def test_quantum_experiment_matches_reference_loop(eta, trials, seed):
    strategy = quantum_strategy(eta)
    report = run_experiment(strategy, trials, seed)
    assert report == oracle.ref_quantum_experiment(strategy.name, eta, trials, seed)


@pytest.mark.parametrize("trials, seed", [(1, 4), (300, 11)])
def test_generalized_elements_match_reference_loop(trials, seed):
    assert generalized_elements_check(make_ghz(), trials, seed) == oracle.ref_generalized_elements(trials, seed)


def test_generalized_elements_match_reference_loop_off_ghz():
    # on a W state no pattern's product is fixed, so every count depends on
    # which stream each trial of each pattern draws
    w = np.zeros(8, dtype=complex)
    w[[1, 2, 4]] = 1 / np.sqrt(3)
    pre = StateVector(3, w)
    report = generalized_elements_check(pre, 300, 11)
    assert report == oracle.ref_generalized_elements(300, 11, pre)
    assert all(0 < check.matches < check.trials for check in report.checks)
    assert len({check.matches for check in report.checks}) > 1


def shared_nodes(state) -> int:
    return sum(1 for _ in oracle.tree_nodes(state))


def test_shared_ghz_tree_stops_growing():
    lossy = quantum_strategy(0.5)
    run_experiment(lossy, 5000, 21)
    after_5k = shared_nodes(make_ghz())
    run_experiment(lossy, 20_000, 22)
    assert shared_nodes(make_ghz()) == after_5k
