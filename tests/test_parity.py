import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzlab.game import PATTERNS, all_tables, play_deterministic, wins
from ghzlab.parity import (
    ParityConstraint,
    ParitySystem,
    Sat,
    Unsat,
    build_classical_game_system,
    build_stapp_system,
    drop_one_analysis,
    format_proof,
    result_to_json_dict,
    solve_enumerate,
    solve_gf2,
    verify_certificate,
)

import oracle


def system(variables, cons):
    return ParitySystem(
        tuple(variables),
        tuple(ParityConstraint(tuple(vs), t) for vs, t in cons),
    )


# ---------------------------------------------------------------------------
# validation


def test_constraint_validation():
    with pytest.raises(ValueError):
        ParityConstraint((), 1)
    with pytest.raises(ValueError):
        ParityConstraint(("x",), 0)


def test_constraint_target_must_be_an_exact_int():
    # True and 1.0 compare equal to 1 but would reach the proof text and JSON as is
    for target in (True, False, 1.0, -1.0):
        with pytest.raises(ValueError, match="int"):
            ParityConstraint(("x",), target)


def test_system_validation():
    with pytest.raises(ValueError):
        system(["x", "x"], [])
    with pytest.raises(ValueError):
        system(["x"], [(("x", "y"), 1)])


# ---------------------------------------------------------------------------
# small systems


def test_two_variable_product():
    result = solve_enumerate(system(["x", "y"], [(("x", "y"), 1)]))
    assert result == Sat({"x": 1, "y": 1})  # lexicographically first, +1 first


def test_direct_contradiction():
    s = system(["x"], [(("x",), 1), (("x",), -1)])
    result = solve_enumerate(s)
    assert result == Unsat((0, 1))
    assert verify_certificate(s, result.certificate)


def test_squared_variable_contradiction():
    # x * x = -1 is impossible on its own; repeats cancel pairwise
    s = system(["x"], [(("x", "x"), -1)])
    for solver in (solve_enumerate, solve_gf2):
        result = solver(s)
        assert isinstance(result, Unsat)
        assert result.certificate == (0,)
        assert verify_certificate(s, result.certificate)


def test_single_game_constraint_is_satisfiable():
    full = build_classical_game_system()
    for k in range(4):
        alone = ParitySystem(full.variables, (full.constraints[k],))
        assert isinstance(solve_gf2(alone), Sat)


def test_enumeration_variable_cap():
    big = system([f"v{i}" for i in range(25)], [])
    with pytest.raises(ValueError):
        solve_enumerate(big)


# ---------------------------------------------------------------------------
# the classical game system


def test_classical_game_system_shape():
    s = build_classical_game_system()
    assert len(s.variables) == 6
    assert len(s.constraints) == 4
    assert [c.target for c in s.constraints] == [-1, 1, 1, 1]


def test_classical_game_constraints_are_the_referee_rule():
    s = build_classical_game_system()
    for table in all_tables():
        assignment = dict(zip(s.variables, table))
        for con, pattern in zip(s.constraints, PATTERNS):
            assert con.satisfied_by(assignment) == wins(pattern, play_deterministic(table, pattern))


def test_classical_game_system_unsat_both_solvers():
    s = build_classical_game_system()
    for solver in (solve_enumerate, solve_gf2):
        result = solver(s)
        assert isinstance(result, Unsat)
        assert result.certificate == (0, 1, 2, 3)
        assert verify_certificate(s, result.certificate)


def gf2_rank(bitmask_rows):
    pivots = []
    for row in bitmask_rows:
        for p in pivots:
            if (row ^ p) < row:
                row ^= p
        if row:
            pivots.append(row)
    return len(pivots)


def test_classical_game_rank_is_three():
    # the four constraint rows over GF(2) span a 3-dimensional space and
    # sum to zero, which is the whole impossibility argument
    s = build_classical_game_system()
    pos = {name: j for j, name in enumerate(s.variables)}
    masks = []
    for con in s.constraints:
        mask = 0
        for v in con.vars:
            mask ^= 1 << pos[v]
        masks.append(mask)
    assert masks[0] ^ masks[1] ^ masks[2] ^ masks[3] == 0  # rows sum to zero
    assert gf2_rank(masks) == 3
    targets_product = np.prod([c.target for c in s.constraints])
    assert targets_product == -1


def test_exactly_32_assignments_satisfy_three_constraints():
    s = build_classical_game_system()
    count = 0
    for word in range(64):
        assignment = {
            name: (-1 if (word >> j) & 1 else 1) for j, name in enumerate(s.variables)
        }
        satisfied = sum(c.satisfied_by(assignment) for c in s.constraints)
        assert satisfied in (1, 3)  # parity forces an odd number of violations
        count += satisfied == 3
    assert count == 32


def test_classical_drop_one_all_sat():
    drops = drop_one_analysis(build_classical_game_system())
    assert len(drops) == 4
    assert all(isinstance(r, Sat) for r in drops.values())


# ---------------------------------------------------------------------------
# the counterfactual-worlds system


def test_stapp_system_shape():
    s = build_stapp_system((1, 1, -1))
    assert len(s.variables) == 6
    assert len(s.constraints) == 6
    assert [c.target for c in s.constraints] == [1, 1, -1, 1, 1, 1]


def test_stapp_system_unsat_for_all_valid_triples():
    for triple in ((1, 1, -1), (1, -1, 1), (-1, 1, 1), (-1, -1, -1)):
        s = build_stapp_system(triple)
        for solver in (solve_enumerate, solve_gf2):
            result = solver(s)
            assert isinstance(result, Unsat)
            assert verify_certificate(s, result.certificate)
        assert solve_gf2(s).certificate == (0, 1, 2, 3, 4, 5)


def test_stapp_rejects_inconsistent_actual_outcomes():
    with pytest.raises(ValueError):
        build_stapp_system((1, 1, 1))
    with pytest.raises(ValueError):
        build_stapp_system((1, 0, -1))


def test_stapp_rejects_outcomes_that_are_not_exact_ints():
    for triple in ((1.0, 1, -1), (True, True, -1), (1, 1, -1.0)):
        with pytest.raises(ValueError, match="int"):
            build_stapp_system(triple)


def test_stapp_drop_one_all_sat():
    drops = drop_one_analysis(build_stapp_system((1, 1, -1)))
    assert len(drops) == 6
    assert all(isinstance(r, Sat) for r in drops.values())


def test_drop_one_preserves_sat():
    s = system(["a", "b"], [(("a", "b"), 1)])
    drops = drop_one_analysis(s)
    assert all(isinstance(r, Sat) for r in drops.values())


# ---------------------------------------------------------------------------
# solver agreement on random systems


@st.composite
def random_systems(draw, max_vars=10):
    n_vars = draw(st.integers(1, max_vars))
    names = tuple(f"v{i}" for i in range(n_vars))
    n_cons = draw(st.integers(0, 12))
    cons = []
    for _ in range(n_cons):
        size = draw(st.integers(1, 4))
        vs = tuple(draw(st.sampled_from(names)) for _ in range(size))
        cons.append(ParityConstraint(vs, draw(st.sampled_from((1, -1)))))
    return ParitySystem(names, tuple(cons))


@settings(deadline=None, max_examples=150)
@given(random_systems())
def test_solvers_agree(sys_):
    r_enum = solve_enumerate(sys_)
    r_gf2 = solve_gf2(sys_)
    assert isinstance(r_enum, Sat) == isinstance(r_gf2, Sat)
    if isinstance(r_enum, Sat):
        assert all(c.satisfied_by(r_enum.assignment) for c in sys_.constraints)
        assert all(c.satisfied_by(r_gf2.assignment) for c in sys_.constraints)
    else:
        assert verify_certificate(sys_, r_enum.certificate)
        assert verify_certificate(sys_, r_gf2.certificate)


@settings(deadline=None, max_examples=150)
@given(random_systems(max_vars=12))
def test_enumerate_matches_the_numpy_scan(sys_):
    assert solve_enumerate(sys_) == oracle.ref_solve_enumerate(sys_)


def test_enumerate_matches_the_numpy_scan_at_the_variable_cap():
    names = [f"v{i}" for i in range(24)]
    ring = system(names, [((a, b), 1) for a, b in zip(names, names[1:])] + [((names[-1], names[0]), -1)])
    assert solve_enumerate(ring) == oracle.ref_solve_enumerate(ring) == solve_gf2(ring)
    # every variable at -1 is the scan's last word
    last = system(names, [((name,), -1) for name in names])
    assert solve_enumerate(last) == oracle.ref_solve_enumerate(last) == Sat(dict.fromkeys(names, -1))


def test_enumerate_prefers_plus_one():
    # with a free variable the first satisfying assignment sets it to +1
    s = system(["a", "b", "c"], [(("b", "c"), -1)])
    result = solve_enumerate(s)
    assert result.assignment == {"a": 1, "b": 1, "c": -1}


# ---------------------------------------------------------------------------
# text interchange


def test_format_parse_round_trip():
    s = build_stapp_system((1, 1, -1))
    again = oracle.parse_system(oracle.format_system(s))
    assert again == s


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        oracle.parse_system("NOPE x y\n")
    with pytest.raises(ValueError):
        oracle.parse_system("VAR x\nCON x => 2\n")


def test_format_proof_mentions_certificate():
    s = build_classical_game_system()
    text = format_proof(s, solve_gf2(s), drop_one_analysis(s))
    assert "UNSAT" in text
    assert "[0, 1, 2, 3]" in text
    assert "without [3]: SAT" in text


def test_format_proof_of_a_satisfiable_system():
    s = build_classical_game_system().drop(0)
    text = format_proof(s, solve_gf2(s), drop_one_analysis(s))
    assert "verdict: SAT" in text.splitlines()
    (line,) = [row for row in text.splitlines() if row.startswith("  assignment: ")]
    pairs = dict(item.split("=") for item in line.removeprefix("  assignment: ").split())
    assert list(pairs) == list(s.variables) and len(pairs) == 6
    assignment = {name: int(value) for name, value in pairs.items()}
    assert all(c.satisfied_by(assignment) for c in s.constraints)


def test_result_json_shapes():
    sat = result_to_json_dict(solve_gf2(system(["x"], [(("x",), -1)])))
    assert sat == {"status": "sat", "assignment": {"x": -1}}
    unsat = result_to_json_dict(solve_gf2(build_classical_game_system()))
    assert unsat == {"status": "unsat", "certificate": [0, 1, 2, 3]}


def test_certificate_must_cite_distinct_constraints_in_range():
    s = build_classical_game_system()
    assert verify_certificate(s, (0, 1, 2, 3))
    for bad in ((-4, -3, -2, -1), (0, 1, 2, 4), (0, 1, 2, 3, 1, 1), (0, 0), ()):
        assert not verify_certificate(s, bad)


def test_drop_rejects_missing_constraint():
    s = build_classical_game_system()
    assert s.drop(3).constraints == s.constraints[:3]
    for index in (99, 4, -1):
        with pytest.raises(IndexError):
            s.drop(index)
