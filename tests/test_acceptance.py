"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
enforces its runtime budget.  Statistical checks use 4 binomial standard
deviations at the stated trial counts; exact checks use the tolerances
given with each assertion.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

import oracle

from ghzlab.cli import main
from ghzlab.game import (
    PATTERNS,
    EfficiencyModel,
    TrialStreams,
    apply_detection,
    quantum_strategy,
    run_experiment,
    scan_deterministic,
    theoretical_win_rate,
)
from ghzlab.lhv import lhv_statistics
from ghzlab.parity import (
    Sat,
    Unsat,
    build_classical_game_system,
    build_stapp_system,
    drop_one_analysis,
    solve_enumerate,
    solve_gf2,
    verify_certificate,
)
from ghzlab.prepost import abl_distribution, ghz_x_ensemble, product_rule_report
from ghzlab.qsim import (
    Axis,
    BellIndex,
    ProductObservable,
    bell_project,
    joint_distribution,
    make_ghz,
    measure_pauli,
    pauli_project,
    reduced_density,
)
from ghzlab.teleport import BELL_PAIRS, REMOTE_SITES, build_setup, derive_correction_rule, run_trials

VALID_TRIPLES = ((1, 1, -1), (1, -1, 1), (-1, 1, 1), (-1, -1, -1))


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL {label}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.1f}s > {budget_seconds}s"
    print(f"ACCEPTANCE {number} PASS {label} ({elapsed:.1f}s)")


def test_criterion_1_quantum_perfection(capsys):
    with criterion(1, "quantum strategy wins every round", 5.0):
        code = main(["game", "--strategy", "quantum", "--trials", "10000", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["win_rate"] == 1.0
        assert report["trials"] == 10_000
        assert all(rate == 1.0 for rate in report["per_pattern_win_rates"].values())


def test_criterion_2_classical_ceiling():
    with criterion(2, "deterministic tables cap at 0.75", 1.0):
        scan = scan_deterministic()
        assert scan.best_rate == 0.75
        assert len(scan.best_tables) == 32
        assert scan.histogram.get(1.0, 0) == 0  # no table wins all four patterns
        rng = np.random.default_rng(2024)
        from ghzlab.game import all_tables

        rates = np.array([t.expected_win_rate() for t in all_tables()])
        assert rates.max() == 0.75
        for _ in range(1000):
            weights = rng.dirichlet(np.full(64, 0.5))
            assert float(weights @ rates) <= 0.75 + 1e-12


def test_criterion_3_efficiency_threshold():
    with criterion(3, "detection-efficiency formula and sweep", 30.0):
        threshold = 0.5 ** (1 / 3)
        assert abs(theoretical_win_rate(threshold) - 0.75) < 1e-12
        trials = 100_000
        for k, eta in enumerate((0.5, 0.7937, 0.9, 1.0)):
            strategy = apply_detection(quantum_strategy(), EfficiencyModel(eta))
            report = run_experiment(strategy, trials, master_seed=300 + k)
            want = theoretical_win_rate(eta)
            bound = oracle.binomial_4sigma(want, trials)
            assert abs(report.win_rate - want) <= max(bound, 1e-12), (eta, report.win_rate, want)


def test_criterion_4_lhv_statistics():
    with criterion(4, "instruction-kit model statistics", 10.0):
        trials = 100_000
        report = lhv_statistics(trials, master_seed=4)
        assert abs(report.triple_detection_rate - 0.5) < oracle.binomial_4sigma(0.5, trials)
        assert report.conditional_win_rate == 1.0
        assert report.single_detections == 0
        assert report.null_detections == 0


def test_criterion_5_teleport_variant():
    with criterion(5, "teleported correlations with post-hoc flips", 60.0):
        trials = 10_000
        summary = run_trials(trials, master_seed=5)
        assert summary.corrected_success_rate == 1.0
        assert sum(r.trials for r in summary.per_pattern.values()) == trials
        assert all(r.corrected_success_rate == 1.0 for r in summary.per_pattern.values())
        assert abs(summary.raw_success_rate - 0.5) < oracle.binomial_4sigma(0.5, trials)
        # exhaustive conditioning over all 64 Bell triples
        rule = derive_correction_rule()
        setup = build_setup()
        for b_a in BellIndex:
            p_a, state_a = bell_project(setup, *BELL_PAIRS[0], b_a)
            for b_b in BellIndex:
                p_b, state_b = bell_project(state_a, *BELL_PAIRS[1], b_b)
                for b_c in BellIndex:
                    p_c, state_c = bell_project(state_b, *BELL_PAIRS[2], b_c)
                    assert p_a * p_b * p_c == pytest.approx(1 / 64, abs=1e-12)
                    bells = (b_a, b_b, b_c)
                    for pattern in PATTERNS:
                        axes = pattern.axes
                        dist = joint_distribution(
                            state_c,
                            [(site, axes[j]) for j, site in enumerate(REMOTE_SITES)],
                        )
                        for outcome, prob in dist.items():
                            if prob < 1e-12:
                                continue
                            product = 1
                            for j in range(3):
                                product *= outcome[j] * rule.sign(bells[j], axes[j])
                            assert product == pattern.target


def test_criterion_6_impossibility_proofs():
    with criterion(6, "parity impossibility certificates", 1.0):
        classical = build_classical_game_system()
        for solver in (solve_enumerate, solve_gf2):
            result = solver(classical)
            assert isinstance(result, Unsat)
            assert verify_certificate(classical, result.certificate)
        assert all(isinstance(r, Sat) for r in drop_one_analysis(classical).values())
        for triple in VALID_TRIPLES:
            stapp = build_stapp_system(triple)
            for solver in (solve_enumerate, solve_gf2):
                result = solver(stapp)
                assert isinstance(result, Unsat)
                assert verify_certificate(stapp, result.certificate)
        reference = build_stapp_system((1, 1, -1))
        assert all(isinstance(r, Sat) for r in drop_one_analysis(reference).values())


def test_criterion_7_inferred_elements():
    with criterion(7, "pre/post-selected elements break the product rule", 1.0):
        ens = ghz_x_ensemble((1, 1, -1))
        wanted = {
            ((0, Axis.Y), (1, Axis.Y)): -1,
            ((0, Axis.Y), (2, Axis.Y)): 1,
            ((1, Axis.Y), (2, Axis.Y)): 1,
        }
        for factors, value in wanted.items():
            dist = abl_distribution(ens, ProductObservable(factors))
            assert dist.probs[value] >= 1 - 1e-9
        report = product_rule_report(ens)
        assert report.pairwise_product == -1
        assert report.six_factor_element.value == 1
        for triple in VALID_TRIPLES:
            assert product_rule_report(ghz_x_ensemble(triple)).violated


def test_criterion_8_quantum_core_invariants():
    with criterion(8, "statevector engine invariants", 30.0):
        g = make_ghz()

        # GHZ x-basis branch table: four triples at 1/4, product -1 each
        dist = joint_distribution(g, [(0, Axis.X), (1, Axis.X), (2, Axis.X)])
        live = {t: p for t, p in dist.items() if p > 1e-12}
        assert set(live) == {(1, 1, -1), (1, -1, 1), (-1, 1, 1), (-1, -1, -1)}
        for t, p in live.items():
            assert abs(p - 0.25) < 1e-12
            assert t[0] * t[1] * t[2] == -1

        # Born consistency at N = 1e5 against the exact distribution
        trials = 100_000
        streams = TrialStreams(8, 1)
        counts = {t: 0 for t in dist}
        norms_ok = True
        for i in range(trials):
            _, (rnd,) = streams.trial(i)
            state = g
            outcome = []
            for site in range(3):
                o, state = measure_pauli(state, site, Axis.X, rnd)
                outcome.append(o)
            norms_ok &= abs(float(np.vdot(state.amps, state.amps).real) - 1.0) < 1e-12
            counts[tuple(outcome)] += 1
        assert norms_ok
        for t, p in dist.items():
            bound = oracle.binomial_4sigma(p, trials)
            assert abs(counts[t] / trials - p) <= max(bound, 1e-12)

        # order independence of commuting single-site measurements
        base = [(0, Axis.X), (1, Axis.Y), (2, Axis.Z)]
        d1 = joint_distribution(g, base)
        d2 = joint_distribution(g, base[::-1])
        for outcome, p in d1.items():
            assert abs(d2[outcome[::-1]] - p) < 1e-12

        # no-signaling marginals, analytic
        for axis in (Axis.X, Axis.Y, Axis.Z):
            alone = joint_distribution(g, [(0, axis)])
            for others in ((Axis.X, Axis.X), (Axis.Y, Axis.X), (Axis.Z, Axis.Y)):
                joint = joint_distribution(g, [(0, axis), (1, others[0]), (2, others[1])])
                for o in (1, -1):
                    marginal = sum(p for t, p in joint.items() if t[0] == o)
                    assert abs(marginal - alone[(o,)]) < 1e-12

        # no-signaling, empirical: player A's marginal per pattern at 4 sigma
        per_pattern_trials = 25_000
        strategy = quantum_strategy()
        marginals = []
        for ordinal, pattern in enumerate(PATTERNS):
            streams = TrialStreams(80 + ordinal, 4)
            plus = 0
            for i in range(per_pattern_trials):
                _, gens = streams.trial(i)
                shared = strategy.setup(gens[0])
                axes = pattern.axes
                reply, shared = strategy.answer(shared, 0, axes[0], gens[1])
                plus += reply == 1
                _, shared = strategy.answer(shared, 1, axes[1], gens[2])
                strategy.answer(shared, 2, axes[2], gens[3])
            marginals.append(plus / per_pattern_trials)
            assert abs(marginals[-1] - 0.5) <= oracle.binomial_4sigma(0.5, per_pattern_trials)

        # each site's density matrix ignores remote measurements entirely
        for site in range(3):
            before = reduced_density(g, [site])
            others = [s for s in range(3) if s != site]
            for axis_pair in ((Axis.X, Axis.X), (Axis.Y, Axis.Z), (Axis.Z, Axis.Y)):
                averaged = np.zeros((2, 2), dtype=complex)
                for o1 in (1, -1):
                    p1, s1 = pauli_project(g, others[0], axis_pair[0], o1)
                    if s1 is None:
                        continue
                    for o2 in (1, -1):
                        p2, s2 = pauli_project(s1, others[1], axis_pair[1], o2)
                        if s2 is None:
                            continue
                        averaged += p1 * p2 * reduced_density(s2, [site])
                assert np.allclose(averaged, before, atol=1e-12)
