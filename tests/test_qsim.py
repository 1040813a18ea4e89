import hashlib
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghzlab import qsim
from ghzlab.qsim import (
    ATOL_EXACT,
    MIN_BRANCH_PROB,
    Axis,
    BellIndex,
    ProductObservable,
    StateVector,
    _apply_factors,
    _draw,
    _picker,
    bell_measure,
    bell_project,
    expectation_product,
    joint_distribution,
    make_ghz,
    make_singlet,
    measure_pauli,
    measure_product,
    pauli_eigenstate,
    pauli_product,
    pauli_project,
    product_project,
    reduced_density,
    results_weight,
    tensor_product,
)
from ghzlab.teleport import build_setup

import oracle

SQ2 = 2**-0.5


def from_amps(amps) -> StateVector:
    arr = np.asarray(amps, dtype=complex)
    n = arr.size.bit_length() - 1
    return StateVector(n, arr)


def random_state(n: int, seed: int) -> StateVector:
    return from_amps(oracle.random_state(n, seed))


# ---------------------------------------------------------------------------
# construction


def test_ghz_amplitudes():
    g = make_ghz()
    assert oracle.amp(g, "000") == pytest.approx(0.7071068, abs=5e-8)
    assert oracle.amp(g, "111") == pytest.approx(-0.7071068, abs=5e-8)
    others = [b for b in ("001", "010", "100", "011", "101", "110")]
    assert all(oracle.amp(g, b) == 0 for b in others)
    assert np.vdot(g.amps, g.amps).real == pytest.approx(1.0, abs=1e-12)


def test_singlet_amplitudes():
    s = make_singlet()
    assert oracle.amp(s, "01") == pytest.approx(SQ2, abs=1e-12)  # site0 up, site1 down
    assert oracle.amp(s, "10") == pytest.approx(-SQ2, abs=1e-12)
    assert oracle.amp(s, "00") == 0 and oracle.amp(s, "11") == 0


def test_singlet_is_its_own_bell_outcome():
    rnd = np.random.default_rng(0)
    for _ in range(5):
        outcome, collapsed = bell_measure(make_singlet(), 0, 1, rnd)
        assert outcome is BellIndex.PSI_MINUS
        assert np.allclose(collapsed.amps, make_singlet().amps)


def test_bell_basis_orthonormal():
    vectors = [oracle.BELL_VECTORS[b.value] for b in BellIndex]
    gram = np.array([[np.vdot(u, v) for v in vectors] for u in vectors])
    assert np.allclose(gram, np.eye(4), atol=1e-12)


def expand(outcome, size: int) -> np.ndarray:
    """A basis outcome ``(scale, ((p, u), ...))`` as its dense vector over the measured sites."""
    scale, terms = outcome
    assert terms[0][1] == 1 and [p for p, _ in terms] == sorted({p for p, _ in terms})
    dense = np.zeros(size, dtype=complex)
    for p, u in terms:
        dense[p] = u * scale
    return dense


def test_bell_members_expand_to_the_oracle_vectors():
    for b in BellIndex:
        assert np.array_equal(expand(b.outcome, 4), oracle.BELL_VECTORS[b.value]), b
    assert [b.label for b in BellIndex] == ["Phi+", "Phi-", "Psi+", "Psi-"]
    assert BellIndex("psi_minus") is BellIndex.PSI_MINUS


@pytest.mark.parametrize("axis", list(Axis))
@pytest.mark.parametrize("outcome", [1, -1])
def test_pauli_basis_expands_to_unit_eigenvectors(axis, outcome):
    v = expand(qsim._PAULI_BASIS[axis][(1, -1).index(outcome)], 2)
    assert np.array_equal(v, oracle.EIGVEC[(axis, outcome)])
    assert np.array_equal(pauli_eigenstate(axis, outcome).amps, v)
    assert abs(np.vdot(v, v).real - 1.0) < 1e-12
    assert np.allclose(oracle.PAULI[axis.value] @ v, outcome * v, rtol=0, atol=1e-12)


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector(2, [1.0, 0.0])  # wrong length
    with pytest.raises(ValueError):
        StateVector(1, [1.0, 1.0])  # not normalized
    with pytest.raises(ValueError):
        StateVector(1, [np.nan, 0.0])
    with pytest.raises(ValueError):
        StateVector(0, [1.0])


def test_amps_are_read_only():
    g = make_ghz()
    with pytest.raises(ValueError):
        g.amps[0] = 1.0


def test_dump_lines_format():
    lines = oracle.basis_state("10").dump_lines()
    assert lines[0] == "00 0 0"
    assert lines[1] == "10 1 0"  # site 0 is the first character
    assert len(lines) == 4


def test_tensor_product_norm_and_amp():
    both = tensor_product(make_singlet(), make_singlet())
    assert both.num_sites == 4
    assert np.vdot(both.amps, both.amps).real == pytest.approx(1.0, abs=1e-12)
    mixed = tensor_product(make_ghz(), make_singlet())
    # product of two 1/sqrt2 coefficients
    assert oracle.amp(mixed, "00001") == pytest.approx(0.5, abs=1e-12)


def test_tensor_product_overflow():
    s7 = from_amps([1.0] + [0.0] * 127)
    with pytest.raises(ValueError):
        tensor_product(s7, tensor_product(s7, oracle.basis_state("0")))


def test_tensor_product_reduced_density_recovers_factor():
    a = random_state(2, seed=11)
    b = random_state(2, seed=12)
    combined = tensor_product(a, b)
    rho_a = reduced_density(combined, [0, 1])
    assert np.allclose(rho_a, np.outer(a.amps, a.amps.conj()), atol=1e-12)


# ---------------------------------------------------------------------------
# single-site measurement


def test_measure_pauli_on_eigenstate():
    rnd = np.random.default_rng(0)
    up = oracle.basis_state("0")
    for _ in range(5):
        outcome, collapsed = measure_pauli(up, 0, Axis.Z, rnd)
        assert outcome == 1
        assert np.allclose(collapsed.amps, up.amps)


def test_measure_pauli_ghz_x_marginal():
    # dense-matrix oracle: <GHZ| x(A) |GHZ> = 0, so both branches are 1/2
    g = make_ghz()
    assert oracle.expectation(g.amps, oracle.embed({0: oracle.PAULI["x"]}, 3)) == pytest.approx(
        0.0, abs=1e-12
    )
    p_plus, _ = pauli_project(g, 0, Axis.X, 1)
    assert p_plus == pytest.approx(0.5, abs=1e-12)
    rnd = np.random.default_rng(7)
    n = 20_000
    hits = sum(measure_pauli(g, 0, Axis.X, rnd)[0] == 1 for _ in range(n))
    assert abs(hits / n - 0.5) < oracle.binomial_4sigma(0.5, n)


def test_sequential_x_measurements_fix_the_third():
    rnd = np.random.default_rng(42)
    for _ in range(100):
        state = make_ghz()
        o1, state = measure_pauli(state, 0, Axis.X, rnd)
        o2, state = measure_pauli(state, 1, Axis.X, rnd)
        o3, state = measure_pauli(state, 2, Axis.X, rnd)
        assert o1 * o2 * o3 == -1


def test_measure_pauli_bad_site():
    with pytest.raises(ValueError):
        measure_pauli(make_ghz(), 3, Axis.X, np.random.default_rng(0))


def test_collapse_norms_stay_unit():
    rnd = np.random.default_rng(5)
    state = random_state(4, seed=21)
    for _ in range(25):
        site = int(rnd.integers(4))
        axis = (Axis.X, Axis.Y, Axis.Z)[int(rnd.integers(3))]
        _, state = measure_pauli(state, site, axis, rnd)
        assert np.vdot(state.amps, state.amps).real == pytest.approx(1.0, abs=1e-12)


def test_pauli_project_agrees_with_oracle():
    psi = random_state(3, seed=33)
    for site in range(3):
        for axis in (Axis.X, Axis.Y, Axis.Z):
            for outcome in (1, -1):
                proj = oracle.pauli_projector(site, axis.value, outcome, 3)
                want_p = oracle.born_probability(psi.amps, proj)
                got_p, collapsed = pauli_project(psi, site, axis, outcome)
                assert got_p == pytest.approx(want_p, abs=1e-12)
                if collapsed is not None:
                    assert np.allclose(
                        collapsed.amps, oracle.collapse(psi.amps, proj), atol=1e-10
                    )


# ---------------------------------------------------------------------------
# product observables


def test_product_observable_validation():
    with pytest.raises(ValueError):
        ProductObservable(())
    with pytest.raises(ValueError):
        ProductObservable(((0, Axis.X), (0, Axis.Y)))  # mixed axes on one site
    # same-axis repeats are allowed
    ProductObservable(((0, Axis.Y), (0, Axis.Y)))


# A Pauli axis must be an ``Axis``: a letter such as "x" is rejected before
# anything is computed or stored.


def test_pauli_project_rejects_axis_letter():
    with pytest.raises(ValueError, match="Axis"):
        pauli_project(pauli_eigenstate(Axis.Y, 1), 0, "x", -1)


def test_results_weight_rejects_axis_letter():
    with pytest.raises(ValueError, match="Axis"):
        results_weight(pauli_eigenstate(Axis.Y, 1), [(0, "x", -1)])


def test_product_observable_rejects_axis_letter():
    with pytest.raises(ValueError, match="Axis"):
        expectation_product(make_ghz(), ProductObservable(((0, "x"), (1, "x"), (2, "x"))))
    assert pauli_product("xYy").factors == ((0, Axis.X), (1, Axis.Y), (2, Axis.Y))


def test_measure_pauli_rejects_axis_letter_before_storing():
    with pytest.raises(ValueError, match="Axis"):
        measure_pauli(make_ghz(), 0, "x", np.random.default_rng(0))
    assert (0, "x") not in make_ghz().memo


# An outcome or sign must be an exact int: True, 1.0 and -1.0 compare equal
# to +1 or -1, and each was accepted until these checks took the type too.
NOT_EXACT_INTS = (True, 1.0, -1.0)


@pytest.mark.parametrize("value", NOT_EXACT_INTS)
def test_outcomes_and_signs_must_be_exact_ints(value):
    ghz = make_ghz()
    for call in (
        lambda: pauli_project(ghz, 0, Axis.X, value),
        lambda: product_project(ghz, pauli_product("xyy"), value),
        lambda: results_weight(ghz, [(0, Axis.X, 1), (1, Axis.X, value)]),
    ):
        with pytest.raises(ValueError, match=f"outcome must be int \\+1 or -1, got {value!r}"):
            call()
    with pytest.raises(ValueError, match=f"sign must be int \\+1 or -1, got {value!r}"):
        pauli_eigenstate(Axis.Z, value)


def test_expectation_ghz_products():
    g = make_ghz()
    for axes, want in (("xxx", -1.0), ("xyy", 1.0), ("yxy", 1.0), ("yyx", 1.0), ("yyy", 0.0)):
        assert expectation_product(g, pauli_product(axes)) == pytest.approx(want, abs=1e-12)


def test_expectation_matches_oracle_on_random_states():
    for seed in range(6):
        psi = random_state(3, seed=100 + seed)
        factors = [(0, "x"), (1, "y"), (2, "z")][: 1 + seed % 3]
        obs = ProductObservable(tuple((s, Axis(a)) for s, a in factors))
        want = oracle.expectation(psi.amps, oracle.product_matrix(factors, 3))
        assert expectation_product(psi, obs) == pytest.approx(want, abs=1e-10)


def test_measure_product_deterministic_on_ghz():
    g = make_ghz()
    rnd = np.random.default_rng(3)
    for axes, want in (("xxx", -1), ("xyy", 1), ("yxy", 1), ("yyx", 1)):
        for _ in range(5):
            outcome, collapsed = measure_product(g, pauli_product(axes), rnd)
            assert outcome == want
            # the state is an eigenstate, so the collapse leaves it alone
            assert np.allclose(collapsed.amps, g.amps, atol=1e-12)


def test_measure_product_yyy_is_fair():
    g = make_ghz()
    rnd = np.random.default_rng(11)
    n = 20_000
    hits = sum(measure_product(g, pauli_product("yyy"), rnd)[0] == 1 for _ in range(n))
    assert abs(hits / n - 0.5) < oracle.binomial_4sigma(0.5, n)


@pytest.mark.parametrize("eps", [1e-11, 1e-9, 1e-7])
def test_pauli_branches_are_never_returned_unnormalized(eps):
    # the -1 branch along each axis weighs eps, and a top draw takes it
    up, down = np.sqrt(1 - eps), np.sqrt(eps)
    for axis, amps in ((Axis.Z, [up, down]), (Axis.X, [(up + down) * SQ2, (up - down) * SQ2])):
        state = StateVector(1, amps)
        p, projected = pauli_project(state, 0, axis, -1)
        assert p == pytest.approx(eps, rel=1e-6)
        outcome, branch = measure_pauli(state, 0, axis, oracle.TopDraw())
        assert outcome == -1
        assert abs(np.vdot(branch.amps, branch.amps).real - 1.0) <= ATOL_EXACT
        assert np.array_equal(branch.amps, projected.amps)


def test_product_branches_are_never_returned_unnormalized():
    eps = 1e-11
    state = StateVector(1, [np.sqrt(1 - eps), np.sqrt(eps)])
    p, projected = product_project(state, pauli_product("z"), -1)
    assert p == pytest.approx(eps, rel=1e-12)
    assert np.vdot(projected.amps, projected.amps).real == pytest.approx(1.0, abs=1e-15)
    outcome, branch = measure_product(state, pauli_product("z"), oracle.TopDraw())
    assert outcome == -1
    assert np.vdot(branch.amps, branch.amps).real == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(branch.amps, projected.amps)


def test_apply_product_involution():
    for seed in range(4):
        psi = random_state(3, seed=200 + seed)
        obs = pauli_product("xyz"[: 1 + seed % 3])
        twice = oracle.apply_product(oracle.apply_product(psi, obs), obs)
        assert np.allclose(twice.amps, psi.amps, atol=1e-12)


def test_six_factor_product_is_identity():
    obs = ProductObservable(
        ((0, Axis.Y), (1, Axis.Y), (0, Axis.Y), (2, Axis.Y), (1, Axis.Y), (2, Axis.Y))
    )
    matrix = oracle.product_matrix([(s, a.value) for s, a in obs.factors], 3)
    assert np.allclose(matrix, np.eye(8), atol=1e-12)
    psi = random_state(3, seed=77)
    assert np.allclose(oracle.apply_product(psi, obs).amps, psi.amps, atol=1e-12)


# ---------------------------------------------------------------------------
# Bell measurement


def test_bell_project_entanglement_swap_is_uniform():
    both = tensor_product(make_singlet(), make_singlet())
    for which in BellIndex:
        # independent oracle route through explicit projector matrices
        want = oracle.born_probability(
            both.amps, oracle.bell_projector(1, 2, which.value, 4)
        )
        assert want == pytest.approx(0.25, abs=1e-12)
        got, _ = bell_project(both, 1, 2, which)
        assert got == pytest.approx(0.25, abs=1e-12)


def test_bell_measure_ghz_front_pair():
    g = make_ghz()
    for which, want in (
        (BellIndex.PHI_PLUS, 0.5),
        (BellIndex.PHI_MINUS, 0.5),
        (BellIndex.PSI_PLUS, 0.0),
        (BellIndex.PSI_MINUS, 0.0),
    ):
        assert oracle.born_probability(
            g.amps, oracle.bell_projector(0, 1, which.value, 3)
        ) == pytest.approx(want, abs=1e-12)
        got, _ = bell_project(g, 0, 1, which)
        assert got == pytest.approx(want, abs=1e-12)
    rnd = np.random.default_rng(2)
    seen = {bell_measure(g, 0, 1, rnd)[0] for _ in range(200)}
    assert seen == {BellIndex.PHI_PLUS, BellIndex.PHI_MINUS}


def test_bell_collapse_agrees_with_oracle():
    psi = random_state(3, seed=55)
    for which in BellIndex:
        proj = oracle.bell_projector(0, 2, which.value, 3)
        want_p = oracle.born_probability(psi.amps, proj)
        got_p, collapsed = bell_project(psi, 0, 2, which)
        assert got_p == pytest.approx(want_p, abs=1e-12)
        if collapsed is not None:
            assert np.allclose(collapsed.amps, oracle.collapse(psi.amps, proj), atol=1e-10)


def test_bell_measure_on_shared_ghz_keeps_its_branches():
    rng = np.random.default_rng(4)
    which, branch = bell_measure(make_ghz(), 0, 1, rng)
    assert make_ghz().memo[(0, 1)][1 + list(BellIndex).index(which)] is branch
    # a pair with a measured site gives a plain state and keeps nothing
    stored = dict(branch.memo)
    for s1, s2 in ((1, 2), (2, 0)):
        assert type(bell_measure(branch, s1, s2, rng)[1]) is StateVector
    assert type(measure_pauli(branch, 0, Axis.X, rng)[1]) is StateVector
    assert branch.memo == stored


def test_bell_measure_needs_distinct_sites():
    shared = make_ghz()
    stored = dict(shared.memo)
    for s1, s2, message in (
        (1, 1, "sites must be pairwise distinct"),
        (0, 3, "site 3 out of range for 3 sites"),
        (-1, 2, "site -1 out of range for 3 sites"),
        (7, 0, "site 7 out of range for 3 sites"),
    ):
        for state in (shared, oracle.plain_ghz()):
            with pytest.raises(ValueError, match=message):
                bell_measure(state, s1, s2, np.random.default_rng(0))
            with pytest.raises(ValueError, match=message):
                bell_project(state, s1, s2, BellIndex.PHI_PLUS)
    assert shared.memo == stored  # a rejected pair stores nothing


# ---------------------------------------------------------------------------
# joint distributions


def x3(state):
    return joint_distribution(state, [(0, Axis.X), (1, Axis.X), (2, Axis.X)])


def test_ghz_x_basis_branch_table():
    dist = x3(make_ghz())
    live = {k: v for k, v in dist.items() if v > 1e-12}
    assert set(live) == {(1, 1, -1), (1, -1, 1), (-1, 1, 1), (-1, -1, -1)}
    assert all(v == pytest.approx(0.25, abs=1e-12) for v in live.values())
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_single_site_marginal():
    dist = joint_distribution(make_ghz(), [(0, Axis.X)])
    assert dist[(1,)] == pytest.approx(0.5, abs=1e-12)
    assert dist[(-1,)] == pytest.approx(0.5, abs=1e-12)


def test_singlet_z_anticorrelation():
    dist = joint_distribution(make_singlet(), [(0, Axis.Z), (1, Axis.Z)])
    assert dist[(1, -1)] == pytest.approx(0.5, abs=1e-12)
    assert dist[(-1, 1)] == pytest.approx(0.5, abs=1e-12)
    assert dist[(1, 1)] == 0 and dist[(-1, -1)] == 0


def test_joint_distribution_rejects_repeated_sites():
    with pytest.raises(ValueError):
        joint_distribution(make_ghz(), [(0, Axis.X), (0, Axis.Y)])


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**31 - 1),
    axes=st.tuples(*[st.sampled_from(["x", "y", "z"])] * 3),
    perm=st.permutations([0, 1, 2]),
)
def test_joint_distribution_order_independence(seed, axes, perm):
    psi = random_state(3, seed=seed)
    base = [(site, Axis(axes[site])) for site in range(3)]
    shuffled = [base[i] for i in perm]
    d1 = joint_distribution(psi, base)
    d2 = joint_distribution(psi, shuffled)
    for outcome, p in d1.items():
        assert d2[tuple(outcome[base.index(shuffled[j])] for j in range(3))] == pytest.approx(
            p, abs=1e-12
        )


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**31 - 1),
    mine=st.sampled_from(["x", "y", "z"]),
    other1=st.sampled_from(["x", "y", "z"]),
    other2=st.sampled_from(["x", "y", "z"]),
)
def test_no_signaling_marginal(seed, mine, other1, other2):
    # the marginal at site 0 ignores which axes are measured elsewhere
    psi = random_state(3, seed=seed)
    alone = joint_distribution(psi, [(0, Axis(mine))])
    joint = joint_distribution(psi, [(0, Axis(mine)), (1, Axis(other1)), (2, Axis(other2))])
    for o in (1, -1):
        marginal = sum(p for t, p in joint.items() if t[0] == o)
        assert marginal == pytest.approx(alone[(o,)], abs=1e-12)


# ---------------------------------------------------------------------------
# reduced densities


def assert_valid_density(rho):
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() > -1e-10


def test_ghz_single_site_density_is_maximally_mixed():
    rho = reduced_density(make_ghz(), [0])
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)
    assert_valid_density(rho)


def test_singlet_single_site_density_is_maximally_mixed():
    assert np.allclose(reduced_density(make_singlet(), [0]), np.eye(2) / 2, atol=1e-12)


def test_reduced_density_matches_oracle():
    psi = random_state(4, seed=88)
    for keep in ([0], [2, 3], [1, 2], [0, 3, 1]):
        got = reduced_density(psi, keep)
        want = oracle.reduced_density(psi.amps, keep, 4)
        assert np.allclose(got, want, atol=1e-12)
        assert_valid_density(got)


@pytest.mark.parametrize(
    "keep, message",
    [
        ([1, 1], "sites must be pairwise distinct"),
        ([0, 3], "site 3 out of range for 3 sites"),
        ([-1], "site -1 out of range for 3 sites"),
    ],
)
def test_reduced_density_checks_sites_as_other_entry_points(keep, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        reduced_density(make_ghz(), keep)


def test_remote_measurement_leaves_local_density_unchanged():
    g = make_ghz()
    before = reduced_density(g, [0])
    for axis_b in (Axis.X, Axis.Y, Axis.Z):
        for axis_c in (Axis.X, Axis.Y, Axis.Z):
            averaged = np.zeros((2, 2), dtype=complex)
            for ob in (1, -1):
                p_b, after_b = pauli_project(g, 1, axis_b, ob)
                if after_b is None:
                    continue
                for oc in (1, -1):
                    p_c, after_c = pauli_project(after_b, 2, axis_c, oc)
                    if after_c is None:
                        continue
                    averaged += p_b * p_c * reduced_density(after_c, [0])
            assert np.allclose(averaged, before, atol=1e-12)


# ---------------------------------------------------------------------------
# commutation


def test_products_commute_on_ghz():
    g = make_ghz()
    for other in ("xyy", "xxx", "yxy"):
        assert pauli_product("xxx").commutes_with(pauli_product(other))
        assert oracle.commutes_on_state(g, pauli_product("xxx"), pauli_product(other))


def test_anticommuting_single_site_paulis_detected():
    up = oracle.basis_state("0")
    o1 = ProductObservable.of((0, Axis.X))
    o2 = ProductObservable.of((0, Axis.Y))
    assert not o1.commutes_with(o2)
    assert not oracle.commutes_on_state(up, o1, o2)


def products(n: int):
    """Products of Pauli factors on sites below ``n``, one axis per site, factors possibly repeated."""
    axes = st.lists(st.sampled_from(list(Axis)), min_size=n, max_size=n)
    return st.tuples(axes, st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)).map(
        lambda a: ProductObservable(tuple((site, a[0][site]) for site in a[1]))
    )


@settings(deadline=None, max_examples=150)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**31 - 1), data=st.data())
def test_algebraic_commutation_matches_state_based(n, seed, data):
    o1, o2 = data.draw(products(n)), data.draw(products(n))
    state = random_state(n, seed)
    assert o1.commutes_with(o2) == o2.commutes_with(o1) == oracle.commutes_on_state(state, o1, o2)


def test_pauli_eigenstate_measures_to_its_sign():
    rnd = np.random.default_rng(9)
    for axis in (Axis.X, Axis.Y, Axis.Z):
        for sign in (1, -1):
            state = pauli_eigenstate(axis, sign)
            assert measure_pauli(state, 0, axis, rnd)[0] == sign


# ---------------------------------------------------------------------------
# seeded equality with the reference samplers


def structured_state(kind: str, n: int, seed: int) -> StateVector:
    """A random state, or a product of eigenstates and singlets with dead branches."""
    if kind == "random":
        return random_state(n, seed)
    rng = np.random.default_rng(seed)
    parts = []
    while sum(p.num_sites for p in parts) < n:
        if kind == "paired" and sum(p.num_sites for p in parts) + 2 <= n and rng.random() < 0.5:
            parts.append(make_singlet())
        else:
            axis = (Axis.X, Axis.Y, Axis.Z)[int(rng.integers(3))]
            parts.append(pauli_eigenstate(axis, (1, -1)[int(rng.integers(2))]))
    state = parts[0]
    for part in parts[1:]:
        state = tensor_product(state, part)
    return state


def assert_same_sample(got, want, rng_got, rng_want):
    assert got[0] == want[0]
    assert np.array_equal(got[1].amps, want[1].amps)
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


STATE_KINDS = st.sampled_from(["random", "product", "paired"])


@settings(deadline=None, max_examples=80)
@given(kind=STATE_KINDS, n=st.integers(1, 5), seed=st.integers(0, 2**31 - 1),
       rseed=st.integers(0, 2**31 - 1), data=st.data())
def test_measure_pauli_and_product_match_reference(kind, n, seed, rseed, data):
    state = structured_state(kind, n, seed)
    rng_got, rng_want = np.random.default_rng(rseed), np.random.default_rng(rseed)
    got = want = (0, state)
    for _ in range(3):
        site = data.draw(st.integers(0, n - 1))
        axis = data.draw(st.sampled_from(list(Axis)))
        got = measure_pauli(got[1], site, axis, rng_got)
        want = oracle.ref_measure_pauli(want[1], site, axis, rng_want)
        assert_same_sample(got, want, rng_got, rng_want)
    sites = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    obs = ProductObservable(tuple((s, data.draw(st.sampled_from(list(Axis)))) for s in sites))
    got = measure_product(got[1], obs, rng_got)
    want = oracle.ref_measure_product(want[1], obs, rng_want)
    assert_same_sample(got, want, rng_got, rng_want)


@settings(deadline=None, max_examples=100)
@given(rseed=st.integers(0, 2**31 - 1),
       steps=st.lists(st.tuples(st.integers(0, 2), st.sampled_from(list(Axis))), min_size=1, max_size=6))
def test_shared_ghz_branches_match_reference(rseed, steps):
    # each walk runs twice, so the second may reuse branches the first built
    for walk_seed in (rseed, rseed + 1):
        rng_got, rng_want = np.random.default_rng(walk_seed), np.random.default_rng(walk_seed)
        got, want = (0, make_ghz()), (0, oracle.plain_ghz())
        for site, axis in steps:
            got = measure_pauli(got[1], site, axis, rng_got)
            want = oracle.ref_measure_pauli(want[1], site, axis, rng_want)
            assert_same_sample(got, want, rng_got, rng_want)


@settings(deadline=None, max_examples=80)
@given(kind=STATE_KINDS, n=st.integers(1, 5), seed=st.integers(0, 2**31 - 1), data=st.data())
def test_joint_distribution_matches_oracle(kind, n, seed, data):
    state = structured_state(kind, n, seed)
    sites = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    axes = [(s, data.draw(st.sampled_from(list(Axis)))) for s in sites]
    dist = joint_distribution(state, axes)
    k = len(axes)
    # the first entry of a tuple varies fastest
    assert list(dist) == [tuple(-1 if (m >> j) & 1 else 1 for j in range(k)) for m in range(1 << k)]
    for outcome, got in dist.items():
        proj = np.eye(1 << n)
        for (site, axis), o in zip(axes, outcome):
            proj = proj @ oracle.pauli_projector(site, axis.value, o, n)
        want = oracle.born_probability(state.amps, proj)
        assert got == pytest.approx(want, abs=1e-12)
        if want < 1e-20:
            assert got == 0.0


def test_shared_ghz_branch_is_built_once():
    rng = np.random.default_rng(5)
    first = {}
    for _ in range(20):
        outcome, branch = measure_pauli(make_ghz(), 1, Axis.Y, rng)
        assert first.setdefault(outcome, branch) is branch
    assert set(first) == {1, -1}
    # a site measured again on the path gives a fresh, unshared state
    again = [measure_pauli(first[1], 1, Axis.X, np.random.default_rng(5)) for _ in range(2)]
    assert again[0][0] == again[1][0]
    assert np.array_equal(again[0][1].amps, again[1][1].amps)
    assert again[0][1] is not again[1][1]


def test_measured_site_on_shared_node_keeps_nothing():
    rng = np.random.default_rng(8)
    _, branch = measure_pauli(make_ghz(), 1, Axis.Y, rng)
    measure_pauli(branch, 0, Axis.X, rng)  # an unmeasured site: kept
    stored = {key: list(entry) for key, entry in branch.memo.items()}
    for axis in Axis:
        for _ in range(4):
            assert type(measure_pauli(branch, 1, axis, rng)[1]) is StateVector
    assert {key: list(entry) for key, entry in branch.memo.items()} == stored


@settings(deadline=None, max_examples=60)
@given(kind=STATE_KINDS, n=st.integers(2, 5), seed=st.integers(0, 2**31 - 1),
       rseed=st.integers(0, 2**31 - 1), data=st.data())
def test_bell_measure_matches_reference(kind, n, seed, rseed, data):
    state = structured_state(kind, n, seed)
    s1, s2 = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    rng_got, rng_want = np.random.default_rng(rseed), np.random.default_rng(rseed)
    got = bell_measure(state, s1, s2, rng_got)
    want = oracle.ref_bell_measure(state, s1, s2, rng_want)
    live = sum(bell_project(state, s1, s2, which)[1] is not None for which in BellIndex)
    if live > 1:
        assert_same_sample(got, want, rng_got, rng_want)
    else:
        # the one intended difference: a lone live branch is taken without a draw
        untouched = np.random.default_rng(rseed)
        assert_same_sample(got, want, rng_got, untouched)
        untouched.random()
        assert rng_want.bit_generator.state == untouched.bit_generator.state


@settings(deadline=None, max_examples=80)
@given(kind=STATE_KINDS, n=st.integers(2, 5), seed=st.integers(0, 2**31 - 1),
       rseed=st.integers(0, 2**31 - 1), shared=st.booleans(), data=st.data())
def test_sampled_branch_is_its_projection(kind, n, seed, rseed, shared, data):
    state = structured_state(kind, n, seed)
    site, s2 = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    axis = data.draw(st.sampled_from(list(Axis)))
    sites = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    obs = ProductObservable(tuple((s, data.draw(st.sampled_from(list(Axis)))) for s in sites))
    cases = (
        (lambda psi, rnd: measure_pauli(psi, site, axis, rnd),
         lambda o: pauli_project(state, site, axis, o), (1, -1)),
        (lambda psi, rnd: bell_measure(psi, site, s2, rnd),
         lambda o: bell_project(state, site, s2, o), tuple(BellIndex)),
        (lambda psi, rnd: measure_product(psi, obs, rnd),
         lambda o: product_project(state, obs, o), (1, -1)),
    )
    for measure, project, outcomes in cases:
        sampled = qsim._SharedState(state) if shared else state
        with mock.patch.object(qsim, "_picker", wraps=qsim._picker) as picker:
            outcome, branch = measure(sampled, np.random.default_rng(rseed))
        projections = [project(o) for o in outcomes]
        # a dead branch weighs below the bound, and its projection reports 0.0
        weights = [w if w >= MIN_BRANCH_PROB else 0.0 for w in picker.call_args.args[0]]
        assert weights == [p for p, _ in projections]
        assert np.array_equal(branch.amps, projections[outcomes.index(outcome)][1].amps)


def test_bell_measure_lone_branch_draws_nothing():
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    outcome, _ = bell_measure(make_singlet(), 0, 1, rng)
    assert outcome is BellIndex.PSI_MINUS
    assert rng.bit_generator.state == before
    ref_rng = np.random.default_rng(3)
    assert oracle.ref_bell_measure(make_singlet(), 0, 1, ref_rng)[0] is BellIndex.PSI_MINUS
    assert ref_rng.bit_generator.state != before


# ---------------------------------------------------------------------------
# Pauli products as swaps and phases, the branch picker, and the partial trace


def factor_lists(n: int):
    """Any Pauli factor list on ``n`` sites, mixed axes on one site and repeats included."""
    return st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(list(Axis))),
                    min_size=1, max_size=6)


@settings(deadline=None, max_examples=200)
@given(kind=STATE_KINDS, n=st.integers(1, 5), seed=st.integers(0, 2**31 - 1), data=st.data())
def test_apply_factors_equals_dense_product(kind, n, seed, data):
    amps = structured_state(kind, n, seed).amps
    factors = data.draw(factor_lists(n))
    want = oracle.product_matrix([(s, a.value) for s, a in factors], n) @ amps
    assert np.array_equal(_apply_factors(amps, n, factors), want)


def assert_gather_matches_sequential_kernel(amps, n, factors):
    """``_apply_factors`` equals ``oracle.ref_apply_factors`` float for float, sign bits included.

    Equal nonzero floats share every bit.  A zero keeps its sign bit too,
    except after a Y factor: the sequential kernel multiplies by +-1j, whose
    0 * x term gives a zero the sign of x, so its zeros depend on the path
    (Y Y and Z Z on |up> give imaginary parts -0.0 and 0.0), and no one
    gather per operator can match them.  The gather sends each float to
    plus or minus one input float, a zero included.
    """
    got = _apply_factors(amps, n, factors).view(np.float64)
    want = oracle.ref_apply_factors(amps, n, factors).view(np.float64)
    assert np.array_equal(got, want)
    if all(axis is not Axis.Y for _, axis in factors) or np.all(want != 0):
        assert np.array_equal(np.signbit(got), np.signbit(want))


@settings(deadline=None, max_examples=300)
@given(kind=STATE_KINDS, n=st.integers(1, 5), seed=st.integers(0, 2**31 - 1), data=st.data())
def test_gather_equals_sequential_kernel(kind, n, seed, data):
    amps = structured_state(kind, n, seed).amps
    assert_gather_matches_sequential_kernel(amps, n, data.draw(factor_lists(n)))


@pytest.mark.parametrize("axes", ["yy", "zz", "xx", "yzx", "zyz"])
def test_gather_equals_sequential_kernel_on_one_site(axes):
    for bits in ("0", "1"):
        factors = [(0, Axis(a)) for a in axes]
        assert_gather_matches_sequential_kernel(oracle.basis_state(bits).amps, 1, factors)


@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_gather_equals_sequential_kernel_on_nine_sites(data):
    from ghzlab.teleport import build_setup

    assert_gather_matches_sequential_kernel(build_setup().amps, 9, data.draw(factor_lists(9)))


def test_gather_is_built_once_per_sites_and_factors():
    obs = pauli_product("xyy")
    first = qsim._gather(3, obs.factors)
    assert qsim._gather(3, pauli_product("xyy").factors) is first
    assert qsim._gather(4, obs.factors) is not first
    source, sign = first
    assert not source.flags.writeable and not sign.flags.writeable


def test_observable_past_last_site_is_rejected():
    obs = pauli_product("xxxx")
    for call in (
        lambda: expectation_product(make_ghz(), obs),
        lambda: product_project(make_ghz(), obs, 1),
        lambda: measure_product(make_ghz(), obs, np.random.default_rng(0)),
    ):
        with pytest.raises(ValueError, match="site 3 out of range for 3 sites"):
            call()


@settings(deadline=None, max_examples=200)
@given(weights=st.lists(st.floats(MIN_BRANCH_PROB, 1.0) | st.just(0.0), min_size=2, max_size=4)
       .filter(lambda w: any(x >= MIN_BRANCH_PROB for x in w)))
@example(weights=[0.5, 0.5])  # totals that are powers of two
@example(weights=[1.0, 1.0])
@example(weights=[0.25, 0.25, 0.25, 0.25])
@example(weights=[0.5, 0.0, 0.5, 1e-15])
@example(weights=[1 / 3, 2 / 3])
@example(weights=[0.1, 0.2, 0.3, 0.4])
def test_pick_top_draw_lands_in_last_live_branch(weights):
    live = [k for k, w in enumerate(weights) if w >= MIN_BRANCH_PROB]
    acc = 0.0
    for k in live:
        acc += weights[k]
    # the largest uniform scales strictly below the running sum, so no draw lands past it
    assert oracle.TopDraw().random() * acc < acc
    assert _draw(oracle.TopDraw(), _picker(weights)) == live[-1]


@settings(deadline=None, max_examples=200)
@given(weights=st.lists(st.floats(MIN_BRANCH_PROB, 1.0) | st.just(0.0), min_size=2, max_size=4)
       .filter(lambda w: any(x >= MIN_BRANCH_PROB for x in w)),
       seed=st.integers(0, 2**32 - 1))
@example(weights=[0.5, 0.5], seed=0)
@example(weights=[1.0, 1.0], seed=0)
@example(weights=[0.25, 0.25, 0.25, 0.25], seed=0)
@example(weights=[0.5, 0.0, 0.5, 1e-15], seed=0)
@example(weights=[1 / 3, 2 / 3], seed=0)
@example(weights=[0.1, 0.2, 0.3, 0.4], seed=0)
def test_prepared_picker_equals_running_sum_pick(weights, seed):
    picker = _picker(weights)
    assert _draw(oracle.TopDraw(), picker) == oracle.ref_pick(oracle.TopDraw(), weights)
    got, want = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20):
        assert _draw(got, picker) == oracle.ref_pick(want, weights)
    assert got.bit_generator.state == want.bit_generator.state


def test_draw_equals_running_sum_pick_at_every_cut_of_both_trees():
    pickers = oracle.tree_pickers()
    assert len(pickers) == 1731  # 46 in the GHZ tree, 1685 in the nine-site tree
    for picker in pickers:
        for u in oracle.boundary_uniforms(picker):
            got = _draw(oracle.FixedDraw(u), picker)
            assert got == oracle.ref_pick(oracle.FixedDraw(u), picker[3]), (u, picker)


# sha256 of both trees as ``grow_trees`` builds them, taken before Pauli and
# Bell outcomes shared one measurement kernel: every picker's total, cuts,
# default and weights, floats by ``float.hex``, and every node's amplitudes
# with -0.0 written as 0.0.  Equal pickers put every cut, at any seed, where
# it was; equal nodes are the same branches, value for value.
TREE_PICKERS_SHA256 = "2dff8ed6822d232d33cd859d4092ab6fc612da942fdb39509f2225d96d839b93"
TREE_NODES_SHA256 = "93bbee2be2068dfedef1539e7164b5131eacd0868638a093ea066306c4089d9a"


def test_tree_pickers_and_branches_are_pinned():
    pickers, nodes = hashlib.sha256(), hashlib.sha256()
    for node in (node for root in oracle.grow_trees() for node in oracle.tree_nodes(root)):
        for total, cuts, last, weights in (entry[0] for entry in node.memo.values()):
            cut_text = " ".join(f"{acc.hex()}:{k}" for acc, k in cuts)
            weight_text = " ".join(w.hex() for w in weights)
            pickers.update(f"{total.hex()} | {cut_text} | {last} | {weight_text}\n".encode())
        nodes.update((node.amps + 0.0).tobytes())  # -0.0 + 0.0 is 0.0
    assert pickers.hexdigest() == TREE_PICKERS_SHA256
    assert nodes.hexdigest() == TREE_NODES_SHA256


def test_a_miss_weighs_each_outcome_once():
    rnd = np.random.default_rng(6)
    for measure, state, calls in (
        (lambda psi: measure_pauli(psi, 0, Axis.Y, rnd), oracle.plain_ghz(), 2),
        (lambda psi: bell_measure(psi, 0, 3, rnd), StateVector(9, build_setup().amps), 4),
    ):
        with mock.patch.object(qsim, "_overlap", wraps=qsim._overlap) as overlap:
            measure(state)
        assert overlap.call_count == calls
    root = qsim._SharedState(make_ghz())
    assert measure_pauli(root, 0, Axis.X, oracle.FixedDraw(0.0))[0] == 1  # weighs both, keeps +1
    with mock.patch.object(qsim, "_overlap", wraps=qsim._overlap) as overlap:
        # a hit whose drawn child is not built yet weighs that outcome alone
        outcome, branch = measure_pauli(root, 0, Axis.X, oracle.TopDraw())
        assert (outcome, overlap.call_count) == (-1, 1)
        assert measure_pauli(root, 0, Axis.X, oracle.TopDraw()) == (-1, branch)
        assert overlap.call_count == 1


def test_memo_hit_calls_only_lookup_and_draw():
    ghz, setup = qsim._SharedState(make_ghz()), qsim._SharedState(build_setup())
    calls = []

    def profile(frame, event, arg):
        if event in ("call", "c_call"):
            calls.append(arg.__name__ if event == "c_call" else frame.f_code.co_name)

    for measure, args in ((measure_pauli, (ghz, 1, Axis.X)), (bell_measure, (setup, 0, 3))):
        rnd = oracle.FixedDraw(0.0)
        measure(*args, rnd)  # stores the picker and the branch drawn below
        sys.setprofile(profile)
        measure(*args, rnd)
        sys.setprofile(None)
        assert calls == [measure.__name__, "get", "_draw", "random", "setprofile"]
        calls.clear()


@settings(deadline=None, max_examples=150)
@given(kind=STATE_KINDS, n=st.integers(1, 7), seed=st.integers(0, 2**31 - 1), data=st.data())
def test_reduced_density_equals_index_construction(kind, n, seed, data):
    state = structured_state(kind, n, seed)
    keep = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    assert np.array_equal(reduced_density(state, keep), oracle.index_reduced_density(state, keep))


@pytest.mark.parametrize("site", [3, 5, -1])
def test_oracle_rejects_sites_out_of_range(site):
    with pytest.raises(ValueError, match=f"site {site} out of range for 3 sites"):
        oracle.product_matrix([(site, "x")], 3)
    with pytest.raises(ValueError, match=f"site {site} out of range for 3 sites"):
        oracle.pauli_projector(site, "z", 1, 3)
