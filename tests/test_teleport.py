import dataclasses
import gc
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzlab import teleport
from ghzlab.cli import main
from ghzlab.game import PATTERNS, TrialStreams, quantum_strategy, run_experiment
from ghzlab.qsim import (
    Axis,
    BellIndex,
    StateVector,
    bell_measure,
    bell_project,
    expectation_product,
    joint_distribution,
    make_ghz,
    measure_pauli,
    pauli_product,
    reduced_density,
)
from ghzlab.teleport import (
    BELL_PAIRS,
    REMOTE_SITES,
    PatternRates,
    TeleportTrialRecord,
    build_setup,
    derive_correction_rule,
    run_trial,
    run_trials,
    summarize,
)

import oracle
from test_game import shared_nodes


def test_setup_shape_and_norm():
    state = build_setup()
    assert state.num_sites == 9
    assert state.amps.shape == (512,)
    assert np.vdot(state.amps, state.amps).real == pytest.approx(1.0, abs=1e-12)


def test_setup_remote_site_is_maximally_mixed():
    rho = reduced_density(build_setup(), [6])
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_setup_ghz_factor_untouched():
    assert expectation_product(build_setup(), pauli_product("xxx")) == pytest.approx(
        -1.0, abs=1e-12
    )


def test_correction_rule_shape():
    rule = derive_correction_rule()
    assert rule.flip(BellIndex.PSI_MINUS, Axis.X) is False
    assert rule.flip(BellIndex.PSI_MINUS, Axis.Y) is False
    for axis in (Axis.X, Axis.Y):
        assert sum(rule.flip(b, axis) for b in BellIndex) == 2


def test_correction_rule_matches_oracle_derivation():
    # independent route: teleport each axis eigenstate through explicit
    # matrices and read the flip off the remote expectation value
    rule = derive_correction_rule()
    singlet = np.zeros(4, dtype=complex)
    singlet[0b10] = oracle.SQ2
    singlet[0b01] = -oracle.SQ2
    for axis in ("x", "y"):
        evals, evecs = np.linalg.eigh(oracle.PAULI[axis])
        source = evecs[:, np.argmax(evals)]  # the +1 eigenvector
        psi = np.kron(singlet, source)  # sites: 0 source, 1 local, 2 remote
        remote = oracle.embed({2: oracle.PAULI[axis]}, 3)
        for bell in BellIndex:
            proj = oracle.bell_projector(0, 1, bell.value, 3)
            collapsed = oracle.collapse(psi, proj)
            value = oracle.expectation(collapsed, remote)
            assert abs(abs(value) - 1.0) < 1e-9
            assert rule.flip(bell, Axis(axis)) == (value < 0)


def test_exhaustive_bell_conditioning():
    # condition on each of the 64 Bell outcome triples and check that the
    # corrected remote outcomes meet the pattern target with probability 1
    rule = derive_correction_rule()
    setup = build_setup()
    total_weight = 0.0
    for b_a in BellIndex:
        p_a, state_a = bell_project(setup, *BELL_PAIRS[0], b_a)
        for b_b in BellIndex:
            p_b, state_b = bell_project(state_a, *BELL_PAIRS[1], b_b)
            for b_c in BellIndex:
                p_c, state_c = bell_project(state_b, *BELL_PAIRS[2], b_c)
                weight = p_a * p_b * p_c
                assert weight == pytest.approx(1 / 64, abs=1e-12)
                total_weight += weight
                bells = (b_a, b_b, b_c)
                for pattern in PATTERNS:
                    axes = pattern.axes
                    dist = joint_distribution(
                        state_c, [(site, axes[j]) for j, site in enumerate(REMOTE_SITES)]
                    )
                    for outcome, prob in dist.items():
                        if prob < 1e-12:
                            continue
                        corrected = [
                            outcome[j] * rule.sign(bells[j], axes[j]) for j in range(3)
                        ]
                        assert corrected[0] * corrected[1] * corrected[2] == pattern.target
    assert total_weight == pytest.approx(1.0, abs=1e-9)


def test_run_trial_records_are_consistent():
    rnd = np.random.default_rng(0)
    rule = derive_correction_rule()
    for pattern in PATTERNS:
        for _ in range(25):
            rec = run_trial(pattern, rnd)
            assert rec.win
            axes = pattern.axes
            for j in range(3):
                assert rec.corrected_outcomes[j] == rec.raw_outcomes[j] * rule.sign(
                    rec.bell_outcomes[j], axes[j]
                )


@pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.value)
def test_run_trial_never_takes_a_rounding_branch(pattern, monkeypatch):
    # the top draw takes the last branch with any weight; at site 8 the empty
    # outcome of the patterns with target +1 weighs its own overlap, exactly 0
    def unit_norm(measure):
        def checked(*args):
            outcome, state = measure(*args)
            assert np.vdot(state.amps, state.amps).real == pytest.approx(1.0, abs=1e-12)
            return outcome, state

        return checked

    monkeypatch.setattr(teleport, "bell_measure", unit_norm(teleport.bell_measure))
    monkeypatch.setattr(teleport, "measure_pauli", unit_norm(teleport.measure_pauli))
    assert run_trial(pattern, oracle.TopDraw()).win


def test_raw_success_is_fifty_fifty():
    summary = run_trials(4000, master_seed=1)
    assert summary.corrected_success_rate == 1.0
    assert abs(summary.raw_success_rate - 0.5) < oracle.binomial_4sigma(0.5, 4000)


def test_bell_histogram_uniform():
    summary = run_trials(6000, master_seed=2)
    assert len(summary.bell_histogram) == 64
    expected = 6000 / 64
    bound = 4 * np.sqrt(6000 * (1 / 64) * (63 / 64))
    for count in summary.bell_histogram.values():
        assert abs(count - expected) < bound


def test_measurement_order_does_not_matter():
    # remote spins first, Bell pairs afterwards: disjoint sites commute
    def reversed_order_trial(pattern, rnd):
        state = build_setup()
        axes = pattern.axes
        raws = []
        for j, site in enumerate(REMOTE_SITES):
            outcome, state = measure_pauli(state, site, axes[j], rnd)
            raws.append(outcome)
        bells = []
        for s1, s2 in BELL_PAIRS:
            from ghzlab.qsim import bell_measure

            outcome, state = bell_measure(state, s1, s2, rnd)
            bells.append(outcome)
        rule = derive_correction_rule()
        return tuple(raws[j] * rule.sign(bells[j], axes[j]) for j in range(3))

    streams = TrialStreams(3, 1)
    for pattern in PATTERNS:
        for i in range(200):
            _, (rnd,) = streams.trial(i)
            corrected = reversed_order_trial(pattern, rnd)
            assert corrected[0] * corrected[1] * corrected[2] == pattern.target


def test_record_is_slotted_and_frozen():
    records = []
    run_trials(200, 4, records.append)
    assert not any(hasattr(rec, "__dict__") for rec in records)
    rec = records[0]
    assert pickle.loads(pickle.dumps(rec)) == rec
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.win = not rec.win


def test_kept_record_costs_under_100_bytes(tmp_path):
    def peak(trials):
        gc.collect()
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            assert main(["teleport", "--trials", str(trials), "--seed", "3", "--format", "json",
                         "--out", str(tmp_path / f"out-{trials}")]) == 0
            return tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()

    # the first run grows the shared branch tree, which both measured runs then only walk
    assert main(["teleport", "--trials", "4000", "--seed", "3", "--format", "json",
                 "--out", str(tmp_path / "warm")]) == 0
    assert (peak(4000) - peak(1000)) / 3000 <= 100


def test_kept_record_costs_one_pointer(tmp_path):
    def peak(trials):
        gc.collect()
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            assert main(["teleport", "--trials", str(trials), "--seed", "3", "--format", "json",
                         "--out", str(tmp_path / f"out-{trials}")]) == 0
            return tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()

    # the first run grows the branch tree and the shared records, which both
    # measured runs, on the same seed, then only look up
    assert main(["teleport", "--trials", "8000", "--seed", "3", "--format", "json",
                 "--out", str(tmp_path / "warm")]) == 0
    assert (peak(8000) - peak(1000)) / 7000 <= 16


def test_one_shared_record_per_branch_path():
    teleport._record.cache_clear()
    by_path = {}
    for seed in (8, 9):
        records = []
        run_trials(20_000, seed, records.append)
        for rec in records:
            assert by_path.setdefault((rec.pattern, rec.bell_outcomes, rec.raw_outcomes), rec) is rec
    # 4 patterns x 64 Bell triples x the 4 raw triples of the right parity
    assert len(by_path) == teleport._record.cache_info().currsize <= 1024
    for path, rec in by_path.items():
        assert rec == oracle.ref_teleport_record(*path)


def test_record_table_is_bounded():
    run_trials(20_000, 99)  # grows the branch tree these trials walk, so only records are new
    teleport._record.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        run_trials(20_000, 99)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert teleport._record.cache_info().currsize <= 1024
    assert held <= 400 * 1024


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


def test_run_trials_reproducible():
    assert run_trials(500, 7) == run_trials(500, 7)


def test_summary_json_shape():
    summary = run_trials(200, 0)
    data = summary.to_json_dict()
    assert data["trials"] == 200
    assert set(data["per_pattern"]) <= {p.value for p in PATTERNS}
    assert all("," in key for key in data["bell_histogram"])


def test_all_detected_probability():
    assert oracle.all_detected_probability(1.0) == 1.0
    assert oracle.all_detected_probability(0.9) == pytest.approx(0.9**9, abs=1e-15)
    with pytest.raises(ValueError):
        oracle.all_detected_probability(1.1)


def test_nine_fold_coincidence_rate_empirical():
    # independent per-particle detection makes the all-nine rate eta**9
    rng = np.random.default_rng(4)
    eta = 0.9
    n = 50_000
    hits = int((rng.random((n, 9)) < eta).all(axis=1).sum())
    want = oracle.all_detected_probability(eta)
    assert abs(hits / n - want) < oracle.binomial_4sigma(want, n)


SIGN_TRIPLES = st.tuples(*[st.sampled_from((1, -1))] * 3)


@st.composite
def teleport_records(draw):
    pattern = draw(st.sampled_from(PATTERNS))
    bells = draw(st.tuples(*[st.sampled_from(list(BellIndex))] * 3))
    corrected = draw(SIGN_TRIPLES)
    win = math.prod(corrected) == pattern.target
    return TeleportTrialRecord(pattern, bells, draw(SIGN_TRIPLES), corrected, win)


@settings(deadline=None, max_examples=80)
@given(records=st.lists(teleport_records(), min_size=1, max_size=80))
def test_summarize_equals_per_record_count(records):
    trials, corrected, raw, histogram = {}, {}, {}, {}
    for rec in records:
        p = rec.pattern.value
        trials[p] = trials.get(p, 0) + 1
        corrected[p] = corrected.get(p, 0) + rec.win
        raw[p] = raw.get(p, 0) + (math.prod(rec.raw_outcomes) == rec.pattern.target)
        histogram[rec.bell_outcomes] = histogram.get(rec.bell_outcomes, 0) + 1
    summary = summarize(records)
    assert summary.trials == len(records)
    assert list(summary.per_pattern) == [p.value for p in PATTERNS if p.value in trials]
    for p, n in trials.items():
        assert summary.per_pattern[p] == PatternRates(n, corrected[p] / n, raw[p] / n)
    assert summary.corrected_success_rate == sum(corrected.values()) / len(records)
    assert summary.raw_success_rate == sum(raw.values()) / len(records)
    assert list(summary.bell_histogram.items()) == list(histogram.items())


@settings(deadline=None, max_examples=12)
@given(trials=st.integers(1, 600), seed=st.integers(0, 2**40))
def test_teleport_matches_reference_loop(trials, seed):
    records = []
    summary = run_trials(trials, seed, records.append)
    want = oracle.ref_teleport_records(trials, seed)
    assert records == want
    assert summary == summarize(want)


# ---------------------------------------------------------------------------
# the tree of shared branches under build_setup()


def bell_path(seed):
    rng = np.random.default_rng(seed)
    state, path = build_setup(), []
    for s1, s2 in BELL_PAIRS:
        _, state = bell_measure(state, s1, s2, rng)
        path.append(state)
    return path


def test_repeated_bell_path_returns_same_children():
    first, again = bell_path(17), bell_path(17)
    assert all(a is b for a, b in zip(first, again))
    assert first[0] in build_setup().memo[BELL_PAIRS[0]][1:]


def test_setup_tree_is_bounded_and_stops_growing():
    teleport.build_setup.cache_clear()  # count only what run_trials grows
    run_trials(10_000, 5)
    nodes = shared_nodes(build_setup())
    assert nodes <= 1 + 4 + 16 + 64 + 256 + 1024 + 1024
    run_trials(10_000, 6)
    assert shared_nodes(build_setup()) == nodes


def test_kept_branches_are_not_validated_again(monkeypatch):
    # only the roots go through StateVector's checks; a kept branch is a projection
    validate, calls = StateVector.__init__, []

    def counting(self, *args, **kwargs):
        calls.append(args)
        validate(self, *args, **kwargs)

    monkeypatch.setattr(StateVector, "__init__", counting)
    run_trials(1, 0)  # fills the caches cleared below, and those not cleared, such as the rule
    counts = []
    for trials in (200, 2000):
        for cache in (build_setup, make_ghz, teleport._record):
            cache.cache_clear()
        calls.clear()
        run_trials(trials, 3)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_memo_keys_name_only_unmeasured_sites():
    # measure_pauli and bell_measure skip the unmeasured check on a memo hit;
    # this invariant of both trees is what makes that safe
    run_experiment(quantum_strategy(0.7), 3000, 31)
    run_trials(3000, 32)
    for root in (make_ghz(), build_setup()):
        for node in oracle.tree_nodes(root):
            for key, entry in node.memo.items():
                sites = key[:1] if isinstance(key[1], Axis) else key
                assert node.measured.isdisjoint(sites), (node.measured, key)
                for branch in entry[1:]:
                    assert branch is None or branch.measured == node.measured.union(sites)


@pytest.mark.parametrize("s1, s2", [(1, 1), (0, 9), (-1, 3)])
def test_bell_measure_rejects_bad_pair_before_storing(s1, s2):
    stored = dict(build_setup().memo)
    with pytest.raises(ValueError):
        bell_measure(build_setup(), s1, s2, np.random.default_rng(0))
    assert build_setup().memo == stored
