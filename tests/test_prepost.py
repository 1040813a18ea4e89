import numpy as np
import pytest

from ghzlab.game import PATTERNS
from ghzlab.prepost import (
    CERTAINTY_THRESHOLD,
    MalformedEnsembleError,
    PostselectionError,
    PrePostEnsemble,
    abl_distribution,
    conditionals_check,
    element_of_reality,
    format_elements_proof,
    generalized_elements_check,
    ghz_x_ensemble,
    product_rule_report,
)
from ghzlab.qsim import Axis, ProductObservable, make_ghz, pauli_eigenstate

import oracle

VALID_TRIPLES = ((1, 1, -1), (1, -1, 1), (-1, 1, 1), (-1, -1, -1))

YY = {
    (0, 1): ProductObservable.of((0, Axis.Y), (1, Axis.Y)),
    (0, 2): ProductObservable.of((0, Axis.Y), (2, Axis.Y)),
    (1, 2): ProductObservable.of((1, Axis.Y), (2, Axis.Y)),
}


# ---------------------------------------------------------------------------
# ensembles


def test_ensemble_rejects_unreachable_postselection():
    with pytest.raises(PostselectionError):
        ghz_x_ensemble((1, 1, 1))
    with pytest.raises(PostselectionError):
        ghz_x_ensemble((-1, -1, 1))


def test_ensemble_rejects_post_outcomes_that_are_not_exact_ints():
    # 1.0 and True compare equal to 1 but would reach the text report as non-ints
    for triple in ((1.0, 1, -1), (1, 1, -1.0), (True, True, -1)):
        with pytest.raises(ValueError, match="int"):
            ghz_x_ensemble(triple)


def test_ensemble_rejects_repeated_sites():
    with pytest.raises(ValueError):
        PrePostEnsemble(make_ghz(), ((0, Axis.X, 1), (0, Axis.X, 1)))


def test_ensemble_post_probability():
    ens = ghz_x_ensemble((1, 1, -1))
    assert ens.post_probability() == pytest.approx(0.25, abs=1e-12)


# ---------------------------------------------------------------------------
# the inference rule


def test_pairwise_certainties_for_the_reference_triple():
    ens = ghz_x_ensemble((1, 1, -1))
    assert abl_distribution(ens, YY[(0, 1)]).probs[-1] == pytest.approx(1.0, abs=1e-12)
    assert abl_distribution(ens, YY[(0, 2)]).probs[1] == pytest.approx(1.0, abs=1e-12)
    assert abl_distribution(ens, YY[(1, 2)]).probs[1] == pytest.approx(1.0, abs=1e-12)


def test_pairwise_values_follow_the_third_x_outcome():
    # the pairwise y product at two sites is pinned by the x result at the
    # remaining site, through the matching three-site product relation
    for triple in VALID_TRIPLES:
        ens = ghz_x_ensemble(triple)
        for (s1, s2), obs in YY.items():
            remaining = ({0, 1, 2} - {s1, s2}).pop()
            want = triple[remaining]
            dist = abl_distribution(ens, obs)
            assert dist.probs[want] == pytest.approx(1.0, abs=1e-12)


def test_single_site_y_is_uninferable():
    ens = ghz_x_ensemble((1, 1, -1))
    dist = abl_distribution(ens, ProductObservable.of((0, Axis.Y)))
    assert dist.probs[1] == pytest.approx(0.5, abs=1e-12)
    assert element_of_reality(ens, ProductObservable.of((0, Axis.Y))) is None


def test_abl_matches_dense_matrix_oracle():
    for triple in VALID_TRIPLES:
        ens = ghz_x_ensemble(triple)
        post = [(s, "x", o) for (s, _, o) in ens.post]
        for factors in ([(0, "y")], [(0, "y"), (1, "y")], [(2, "z")], [(0, "x"), (2, "y")]):
            obs = ProductObservable(tuple((s, Axis(a)) for s, a in factors))
            want = oracle.abl_probabilities(make_ghz().amps, factors, post, 3)
            got = abl_distribution(ens, obs)
            for o in (1, -1):
                assert got.probs[o] == pytest.approx(want[o], abs=1e-10)


def test_abl_reduces_to_born_rule_without_postselection():
    psi_amps = oracle.random_state(3, seed=64)
    from ghzlab.qsim import StateVector

    psi = StateVector(3, psi_amps)
    ens = PrePostEnsemble(psi, ())
    for factors in ([(0, "x")], [(1, "y"), (2, "x")]):
        obs = ProductObservable(tuple((s, Axis(a)) for s, a in factors))
        matrix = oracle.product_matrix(factors, 3)
        dist = abl_distribution(ens, obs)
        for o in (1, -1):
            born = oracle.born_probability(psi_amps, oracle.eigenprojector(matrix, o))
            assert dist.probs[o] == pytest.approx(born, abs=1e-12)


def test_eigenstate_pre_gives_certainty_regardless_of_post():
    # pre is a +1 eigenstate of x at site 0; any reachable post keeps it 1
    from ghzlab.qsim import StateVector, tensor_product

    pre = tensor_product(pauli_eigenstate(Axis.X, 1), pauli_eigenstate(Axis.Z, 1))
    obs = ProductObservable.of((0, Axis.X))
    for post in ((), ((1, Axis.Z, 1),), ((1, Axis.X, 1),), ((1, Axis.Y, -1),)):
        ens = PrePostEnsemble(pre, post)
        assert abl_distribution(ens, obs).probs[1] == pytest.approx(1.0, abs=1e-12)


def test_six_factor_element_is_certain_plus_one():
    ens = ghz_x_ensemble((1, 1, -1))
    six = ProductObservable(
        ((0, Axis.Y), (1, Axis.Y), (0, Axis.Y), (2, Axis.Y), (1, Axis.Y), (2, Axis.Y))
    )
    element = element_of_reality(ens, six)
    assert element is not None
    assert element.value == 1
    assert element.certainty >= CERTAINTY_THRESHOLD


# ---------------------------------------------------------------------------
# deterministic conditionals of the preparation


def test_conditionals_check_on_ghz():
    report = conditionals_check(make_ghz())
    assert len(report.entries) == 4
    assert all(e.deterministic and e.measured_value == e.target for e in report.entries)
    assert report.all_pairs_commute
    values = {e.observable.label(): e.measured_value for e in report.entries}
    assert values["x(0)*x(1)*x(2)"] == -1
    assert values["y(0)*y(1)*x(2)"] == 1


def test_conditionals_check_on_non_eigenstate():
    from ghzlab.qsim import StateVector

    flat = StateVector(3, np.full(8, np.sqrt(1 / 8), dtype=complex))
    report = conditionals_check(flat)
    assert not all(e.deterministic and e.measured_value == e.target for e in report.entries)


# ---------------------------------------------------------------------------
# product-rule failure


def test_product_rule_reference_outcomes():
    report = product_rule_report(ghz_x_ensemble((1, 1, -1)))
    assert [e.value for e in report.pairwise] == [-1, 1, 1]
    assert report.pairwise_product == -1
    assert report.six_factor_element.value == 1
    assert report.violated


def test_product_rule_violated_for_every_valid_triple():
    for triple in VALID_TRIPLES:
        report = product_rule_report(ghz_x_ensemble(triple))
        assert report.pairwise_product == -1  # product of the x outcomes
        assert report.six_factor_element.value == 1
        assert report.violated


def test_product_rule_requires_x_postselection():
    ens = PrePostEnsemble(
        make_ghz(), ((0, Axis.Z, 1), (1, Axis.Z, 1), (2, Axis.Z, 1))
    )
    with pytest.raises(MalformedEnsembleError):
        product_rule_report(ens)


def test_product_rule_requires_all_three_sites():
    ens = PrePostEnsemble(make_ghz(), ((0, Axis.X, 1),))
    with pytest.raises(MalformedEnsembleError):
        product_rule_report(ens)


def test_product_rule_rejects_uncertain_pairwise_elements():
    # a preparation without the needed correlations fails loudly
    from ghzlab.qsim import StateVector

    flat = StateVector(3, np.full(8, np.sqrt(1 / 8), dtype=complex))
    ens = PrePostEnsemble(flat, ((0, Axis.X, 1), (1, Axis.X, 1), (2, Axis.X, 1)))
    with pytest.raises(MalformedEnsembleError):
        product_rule_report(ens)


def test_elements_proof_text():
    ens = ghz_x_ensemble((1, 1, -1))
    text = format_elements_proof(ens, conditionals_check(ens.pre), product_rule_report(ens))
    assert "y(A)*y(B) = -1" in text
    assert "product rule violated: yes" in text


# ---------------------------------------------------------------------------
# relations between separate measurements


def test_generalized_elements_hold_on_ghz():
    report = generalized_elements_check(make_ghz(), trials=300, master_seed=0)
    assert report.all_hold
    assert not report.jointly_measurable
    assert {c.pattern for c in report.checks} == set(PATTERNS)
    for check in report.checks:
        assert check.trials == 300
        assert check.matches == 300
