import contextlib
import dataclasses
import functools
import gc
import hashlib
import io
import json
import math
import os
import stat
import sys
import tempfile
import tracemalloc
from enum import Enum, IntEnum
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghzlab import cli, game, lhv, teleport
from ghzlab.cli import PlayStats, main, play_session

import oracle


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# game


def test_game_quantum_json(capsys):
    code, out, _ = run_cli(
        capsys, "game", "--strategy", "quantum", "--trials", "2000", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["win_rate"] == 1.0
    assert all(v == 1.0 for v in report["per_pattern_win_rates"].values())
    assert report["triple_detection_rate"] == 1.0


def test_game_classical_best(capsys):
    n = 20_000
    code, out, _ = run_cli(
        capsys, "game", "--strategy", "classical-best", "--trials", str(n), "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert abs(report["win_rate"] - 0.75) < oracle.binomial_4sigma(0.75, n)


def test_game_near_threshold_efficiency(capsys):
    n = 20_000
    code, out, _ = run_cli(
        capsys,
        "game", "--strategy", "quantum", "--eta", "0.7937", "--trials", str(n),
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert abs(report["win_rate"] - 0.75) < oracle.binomial_4sigma(0.75, n)


def test_game_classical_table(capsys):
    code, out, _ = run_cli(
        capsys,
        "game", "--strategy", "classical-table",
        "--table", "1", "1", "1", "1", "-1", "1",
        "--trials", "500", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["strategy"].startswith("table")


def test_game_bad_table_sign(capsys):
    code, _, err = run_cli(
        capsys,
        "game", "--strategy", "classical-table",
        "--table", "1", "1", "1", "1", "2", "1",
    )
    assert code == 1
    assert "expected +1 or -1" in err


def test_game_lhv(capsys):
    code, out, _ = run_cli(
        capsys, "game", "--strategy", "lhv", "--trials", "5000", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["conditional_win_rate"] == 1.0
    assert report["single_detections"] == 0


def test_game_lhv_jsonl_matches_json_wins(capsys):
    args = ("game", "--strategy", "lhv", "--trials", "3000", "--seed", "11")
    code, out, _ = run_cli(capsys, *args, "--format", "jsonl")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 3000
    detected_wins = sum(rec["win"] for rec in records if all(rec["detections"]))
    _, out, _ = run_cli(capsys, *args, "--format", "json")
    assert json.loads(out)["wins"] == detected_wins
    assert all(sum(rec["detections"]) >= 2 for rec in records)


def test_game_lhv_rejects_eta(capsys):
    code, _, err = run_cli(capsys, "game", "--strategy", "lhv", "--eta", "0.9")
    assert code == 1
    assert "lhv" in err


def test_game_jsonl_streams_records(capsys):
    code, out, _ = run_cli(
        capsys, "game", "--trials", "50", "--format", "jsonl"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 50
    assert lines[0]["trial_index"] == 0
    assert set(lines[0]) == {"trial_index", "seed", "pattern", "answers", "detections", "win"}


JSONL_PLAYS = ("quantum", "classical-best", "classical-table", "lhv", "random", "teleport")


def jsonl_play(which: str, eta: float, table: tuple, trials: int, seed: int):
    """The ``play`` that ``cmd_game`` or ``cmd_teleport`` hands ``cli._jsonl``."""
    if which == "lhv":
        return functools.partial(lhv.lhv_statistics, trials, seed)
    if which == "teleport":
        return functools.partial(teleport.run_trials, trials, seed)
    team = {
        "quantum": lambda: game.quantum_strategy(eta),
        "classical-best": lambda: game.TableStrategy(game.scan_deterministic().best_tables[0]),
        "classical-table": lambda: game.TableStrategy(game.DeterministicTable(*table)),
        "random": game.RandomStrategy,
    }[which]()
    return functools.partial(game.run_experiment, team, trials, seed)


@settings(deadline=None, max_examples=60)
@given(which=st.sampled_from(JSONL_PLAYS), eta=st.sampled_from((1.0, 0.9, 0.7937, 0.5, 0.0)),
       table=st.tuples(*[st.sampled_from((1, -1))] * 6), trials=st.integers(1, 200),
       seed=st.integers(0, 2**40))
def test_record_lines_match_reference_encoder(which, eta, table, trials, seed):
    play = jsonl_play(which, eta, table, trials, seed)
    written = io.StringIO()
    cli._jsonl(play)(written)
    records = []
    play(record_sink=records.append)
    lines = written.getvalue().splitlines(keepends=True)
    assert len(lines) == len(records)
    for line, rec in zip(lines, records):  # line by line: a diff of the whole text is slow
        assert line == oracle.ref_record_line(rec)


def test_record_fragments_stay_few():
    for which in JSONL_PLAYS:
        cli._jsonl(jsonl_play(which, 0.5, (1, 1, 1, 1, 1, -1), 3000, 1))(io.StringIO())
    assert len(cli._FRAGMENTS) <= 104


def test_game_text_mentions_bound(capsys):
    code, out, _ = run_cli(capsys, "game", "--trials", "300")
    assert code == 0
    assert "4-sigma bound" in out and "n=300" in out


# ---------------------------------------------------------------------------
# sweep


def test_sweep_csv_matches_formula(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--grid", "0", "0.5", "0.7937", "0.9", "1.0",
        "--trials", "4000", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eta,empirical,theoretical"
    theoretical = [float(line.split(",")[2]) for line in lines[1:]]
    assert theoretical == pytest.approx([0.5, 0.5625, 0.75, 0.8645, 1.0], abs=5e-7)
    for line in lines[1:]:
        eta, emp, theo = (float(x) for x in line.split(","))
        assert abs(emp - theo) < max(oracle.binomial_4sigma(theo, 4000), 1e-9)


def test_sweep_rejects_bad_grid(capsys):
    code, _, err = run_cli(capsys, "sweep", "--grid", "1.5")
    assert code == 1
    assert "[0, 1]" in err
    code, _, err = run_cli(capsys, "sweep", "--trials", "2", "--grid", "x")
    assert code == 1
    assert "invalid float value: 'x'" in err


# ---------------------------------------------------------------------------
# prove


def test_prove_classical(capsys):
    code, out, _ = run_cli(capsys, "prove", "classical")
    assert code == 0
    assert "UNSAT" in out
    assert "[0, 1, 2, 3]" in out
    assert out.count("SAT") >= 4  # drop-one lines


def test_prove_stapp(capsys):
    code, out, _ = run_cli(capsys, "prove", "stapp", "1", "1", "-1")
    assert code == 0
    assert "UNSAT" in out
    assert "without [5]: SAT" in out


def test_prove_stapp_json(capsys):
    code, out, _ = run_cli(capsys, "prove", "stapp", "1", "1", "-1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["status"] == "unsat"
    assert data["result"]["certificate"] == [0, 1, 2, 3, 4, 5]
    assert all(v["status"] == "sat" for v in data["drop_one"].values())


def test_prove_stapp_rejects_bad_product(capsys):
    code, _, err = run_cli(capsys, "prove", "stapp", "1", "1", "1")
    assert code == 1
    assert "multiply to -1" in err


def test_prove_checks_the_main_certificate(capsys, monkeypatch):
    from ghzlab import parity

    # constraint 0 alone does not cancel its variables
    monkeypatch.setattr(parity, "solve_gf2", lambda system: parity.Unsat((0,)))
    code, out, err = run_cli(capsys, "prove", "classical")
    assert code == 2
    assert out == ""
    assert "does not check" in err


def test_prove_checks_each_drop_one_assignment(capsys, monkeypatch):
    from ghzlab import parity

    solve = parity.solve_gf2
    everything_up = parity.Sat({v: 1 for v in parity.build_classical_game_system().variables})

    def solve_badly(system):
        # all +1 breaks X_A*X_B*X_C = -1, which only the system without [0] lacks
        return solve(system) if len(system.constraints) == 4 else everything_up

    monkeypatch.setattr(parity, "solve_gf2", solve_badly)
    code, out, err = run_cli(capsys, "prove", "classical", "--format", "json")
    assert code == 2
    assert out == ""
    assert "does not check" in err


# ---------------------------------------------------------------------------
# teleport


def test_teleport_summary_json(capsys):
    code, out, _ = run_cli(capsys, "teleport", "--trials", "400", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["corrected_success_rate"] == 1.0
    assert 0.3 < data["raw_success_rate"] < 0.7


def test_teleport_csv(capsys):
    code, out, _ = run_cli(capsys, "teleport", "--trials", "400", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "pattern,trials,corrected_success_rate,raw_success_rate"
    assert all(line.split(",")[2] == "1.000000" for line in lines[1:])


def test_teleport_jsonl(capsys):
    code, out, _ = run_cli(capsys, "teleport", "--trials", "20", "--format", "jsonl")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 20
    assert all(rec["win"] for rec in records)


# ---------------------------------------------------------------------------
# elements


def test_elements_text(capsys):
    code, out, _ = run_cli(capsys, "elements", "1", "1", "-1")
    assert code == 0
    assert "product rule violated: yes" in out


def test_elements_json_all_triples(capsys):
    for triple in (("1", "1", "-1"), ("-1", "1", "1"), ("-1", "-1", "-1")):
        code, out, _ = run_cli(capsys, "elements", *triple, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["product_rule"]["violated"] is True
        assert data["product_rule"]["six_factor_value"] == 1


def test_elements_rejects_even_product(capsys):
    code, _, err = run_cli(capsys, "elements", "1", "1", "1")
    assert code == 1
    assert "multiply to -1" in err


# ---------------------------------------------------------------------------
# shared behavior


def test_byte_identical_reruns(capsys):
    args = ("game", "--trials", "400", "--eta", "0.8", "--seed", "3", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    args = ("sweep", "--grid", "0.5", "0.9", "--trials", "300", "--format", "csv")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "game", "--trials", "100", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["trials"] == 100


def test_invalid_inputs_exit_one(capsys, tmp_path):
    assert run_cli(capsys, "game", "--trials", "0")[0] == 1
    assert run_cli(capsys, "game", "--trials", "10", "--out", str(tmp_path / "no" / "x.json"))[0] == 1
    assert run_cli(capsys, "game", "--eta", "2")[0] == 1
    assert run_cli(capsys, "game", "--seed", "-1")[0] == 1
    assert run_cli(capsys, "game", "--strategy", "nope")[0] == 1
    code, _, err = run_cli(
        capsys, "game", "--strategy", "quantum", "--table", *["1"] * 6, "--trials", "5"
    )
    assert code == 1 and "--table" in err
    for strategy in ("random", "classical-best", "classical-table"):
        table = ("--table", *["1"] * 6) if strategy == "classical-table" else ()
        argv = ("game", "--strategy", strategy, *table, "--eta", "0.5", "--trials", "5")
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and strategy in err and "--eta" in err
    code, _, err = run_cli(capsys, "game", "--strategy", "classical-table", "--trials", "5")
    assert code == 1 and "classical-table needs 6 signs" in err
    code, _, err = run_cli(capsys, "prove", "classical", "1")
    assert code == 1 and "the classical system takes no signs" in err
    assert run_cli(capsys, "nonsense")[0] == 1


@pytest.mark.parametrize("argv", [
    ("game", "--trials", "5"),
    ("sweep", "--grid", "1", "--trials", "5"),
    ("prove", "classical", "--format", "json"),
    ("teleport", "--trials", "5"),
    ("elements", "1", "1", "-1"),
], ids=lambda argv: argv[0])
def test_empty_out_is_rejected_by_name(tmp_path, monkeypatch, capsys, argv):
    # '' once resolved to the working directory: "cannot write : Is a directory"
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv, "--out", "")
    assert (code, out, err) == (1, "", "error: --out needs a file path, got an empty one\n")
    assert os.listdir(tmp_path) == []


def test_out_writes_through_symlink(tmp_path, capsys):
    target = tmp_path / "report.json"
    target.write_text("earlier report\n")
    link = tmp_path / "latest.json"
    link.symlink_to(target)
    code, _, _ = run_cli(capsys, "game", "--trials", "10", "--format", "json", "--out", str(link))
    assert code == 0
    assert link.is_symlink()
    assert json.loads(target.read_text())["trials"] == 10


def test_failed_write_leaves_existing_output(tmp_path, capsys, monkeypatch):
    import ghzlab.cli as cli_module

    target = tmp_path / "report.json"
    target.write_text("earlier report\n")

    def full_disk(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli_module.os, "replace", full_disk)
    code, _, err = run_cli(capsys, "game", "--trials", "10", "--out", str(target))
    assert code == 1
    assert "No space left on device" in err
    assert target.read_text() == "earlier report\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_out_to_device_leaves_it_in_place(capsys):
    code, out, _ = run_cli(capsys, "game", "--trials", "5", "--out", "/dev/null")
    assert code == 0 and out == ""
    assert stat.S_ISCHR(os.stat("/dev/null").st_mode)


def test_teleport_text_counts_unhit_cells(capsys):
    # one of the 64 Bell-outcome cells stays empty at this seed and size
    code, out, _ = run_cli(capsys, "teleport", "--trials", "384", "--seed", "0")
    assert code == 0
    assert out.splitlines()[-1] == (
        "Bell-outcome histogram: 63 of 64 cells hit, "
        "worst |count - 6.0| = 6.0 vs 4-sigma 9.7 over n=384"
    )


# sha256 of seeded outputs, one per format the benchmark checks; any change
# to a seeded output, however small, fails here.
KNOWN_OUTPUTS = [
    pytest.param(
        ("game", "--strategy", "quantum", "--eta", "0.9", "--trials", "300", "--seed", "7",
         "--format", "jsonl"),
        "436d91f8737f1d2b3b70c79f1bb09a6bea275c581d2107ade9b10ccf3af49538",
        id="game-quantum-eta-jsonl",
    ),
    pytest.param(
        ("game", "--strategy", "lhv", "--trials", "1000", "--seed", "7", "--format", "json"),
        "af7c01ba811133ed7c2b476e04927025b88bb6af50fa9db61437817d6ff677b1",
        id="game-lhv-json",
    ),
    pytest.param(
        ("game", "--strategy", "classical-table", "--table", "1", "-1", "1", "1", "-1", "1",
         "--trials", "300", "--seed", "7", "--format", "jsonl"),
        "49f3406c7bd966cb6373f57740c424799b1d193a0dc481699457c976d84e05d9",
        id="game-classical-table-jsonl",
    ),
    pytest.param(
        ("game", "--strategy", "classical-best", "--trials", "300", "--seed", "7", "--format", "json"),
        "c3e4c7664b5aa0bf52b5486e038a9e3225c1e00bf1d0e3eb58428b67ef26ccb1",
        id="game-classical-best-json",
    ),
    pytest.param(
        ("game", "--strategy", "quantum", "--eta", "0.9", "--trials", "300", "--seed", "7",
         "--format", "json"),
        "730241a9126990aad0e1d6f34de94b47573b1fcf20399b2b07f2815101c0c3e6",
        id="game-quantum-eta-json",
    ),
    # text outputs that print a theory value
    pytest.param(
        ("game", "--strategy", "quantum", "--eta", "0.7937", "--trials", "300", "--seed", "7"),
        "ecb128dec29fefb711707910c8e1abc236cddc2db886ebf72de69efb4faa8d54",
        id="game-quantum-eta-text",
    ),
    pytest.param(
        ("game", "--strategy", "random", "--trials", "300", "--seed", "7"),
        "527f82cd68df3932ecc82bfdd6fa2ef778a3e4771f0d95cd8a6d653655a4d71b",
        id="game-random-text",
    ),
    pytest.param(
        ("sweep", "--trials", "200", "--seed", "7", "--format", "text"),
        "8cca033aaf0c31a045f2a406dcf9ccc306f6f21dae6b1975ce5a6107f61327fc",
        id="sweep-text",
    ),
    pytest.param(
        ("sweep", "--trials", "200", "--seed", "7", "--format", "csv"),
        "67f670c9ed3cac37c271609aa590a448cd19aa15f1bfeb2f148a4d2e2ce3eac0",
        id="sweep-csv",
    ),
    pytest.param(
        ("teleport", "--trials", "128", "--seed", "7", "--format", "json"),
        "798d822def36341e3d651de1e9b6dca2adc160648feebe278c44afea1d55bac2",
        id="teleport-json",
    ),
    pytest.param(
        ("teleport", "--trials", "128", "--seed", "7", "--format", "jsonl"),
        "5632a0b66c3511e8782d5005eb77e3fa7be0d25e538066b7c5d55af0601f06c0",
        id="teleport-jsonl",
    ),
    pytest.param(
        ("teleport", "--trials", "128", "--seed", "7", "--format", "csv"),
        "88493f539105fbd1636a564aac8eb6e5be6a4a387e8344ad041c2555cb3e7635",
        id="teleport-csv",
    ),
    # the full tree of 2389 shared branches under build_setup(), and a second seed
    pytest.param(
        ("teleport", "--trials", "4096", "--seed", "11", "--format", "json"),
        "29c006703b463fe158c585f382b0329638e31df6c07a5579652a3b95be62eed6",
        id="teleport-4096-json",
    ),
    pytest.param(
        ("teleport", "--trials", "1024", "--seed", "3", "--format", "jsonl"),
        "d3376f19b3b49ee062ef3e17b7d69b7f392126b8fcd034dde0872a1a9f4ccbca",
        id="teleport-1024-jsonl",
    ),
    pytest.param(
        ("teleport", "--trials", "128", "--seed", "12345"),
        "59d6030ae349652f963f7b86a25f139b54a8913533934ac235ad10668e3729e4",
        id="teleport-text",
    ),
    # these trials take 1019 of the 1024 branch paths, so almost every shared record is made
    pytest.param(
        ("teleport", "--trials", "5000", "--seed", "12345", "--format", "json"),
        "69c5a9430b27166df505c8fe6ec530851b051c4c0a4b6ae094575f1638800a28",
        id="teleport-5000-json",
    ),
    pytest.param(
        ("elements", "1", "1", "-1", "--format", "json"),
        "30920bcc1712cf43dc3977da3b9eae004b91c411847ff79a5949ef0d827798c1",
        id="elements-json",
    ),
    pytest.param(
        ("prove", "stapp", "1", "1", "-1", "--format", "json"),
        "195c872496960823dd30b2268a6ee8bffc42806a6bada4f80c51312051320af3",
        id="prove-stapp-json",
    ),
    pytest.param(
        ("prove", "classical", "--format", "json"),
        "d3c5881b24a2bf31a6d9f9f0aea60021cd4f37e6a403a6d2af276adc26868d67",
        id="prove-classical-json",
    ),
    # the other reachable triples of both exact commands (p and m name +1 and -1), and text forms
    pytest.param(
        ("elements", "1", "-1", "1", "--format", "json"),
        "187454eb98f29f6b176a0558b8a94dd94a0f0b842c739f2430baa9235497ac47",
        id="elements-json-pmp",
    ),
    pytest.param(
        ("elements", "-1", "1", "1", "--format", "json"),
        "20179972a661b385bcfaa26f4ec7cd43fbca3ee353376717fd7153fc13b248cc",
        id="elements-json-mpp",
    ),
    pytest.param(
        ("elements", "-1", "-1", "-1", "--format", "json"),
        "a5193929096241095a10701fea278afdf5b481aabe8b7b79c1aca52a372953ab",
        id="elements-json-mmm",
    ),
    pytest.param(
        ("elements", "1", "1", "-1"),
        "2d7128253fb3464fc9a7016afb27c2d3d86de3471648326f59a81c9e9222955f",
        id="elements-text",
    ),
    pytest.param(
        ("prove", "stapp", "1", "-1", "1", "--format", "json"),
        "f10fa462e29558b8943072fd9e82d2b9237b6cc2a1ee99fcc5a70bf6f9bbd780",
        id="prove-stapp-json-pmp",
    ),
    pytest.param(
        ("prove", "stapp", "-1", "1", "1", "--format", "json"),
        "dc1173279e29ad90c217b0fa4e5d2f168254e466666a86c23a5f7c3aea9ace5b",
        id="prove-stapp-json-mpp",
    ),
    pytest.param(
        ("prove", "stapp", "-1", "-1", "-1", "--format", "json"),
        "0e2833f93848294fc59f6e0111bc20e13342861fa49ec7e40c31386edbeb078d",
        id="prove-stapp-json-mmm",
    ),
    pytest.param(
        ("prove", "classical"),
        "63a3cd0b9bd862dff580c88d95e8378b0a916921f3a6878c0aa9f0246c8b0d2c",
        id="prove-classical-text",
    ),
    pytest.param(
        ("game", "--strategy", "lhv", "--trials", "300", "--seed", "7", "--format", "jsonl"),
        "4ae1dd5026f767b9dd80bb35f876142843ffb251b1ef7defe4c489ac12a3a42b",
        id="game-lhv-jsonl",
    ),
    pytest.param(
        ("game", "--strategy", "lhv", "--trials", "300", "--seed", "7", "--format", "text"),
        "1d716c44953d2635e1aa93f8ab64d21a524fd4f28b51b327e5ef6c58534144b3",
        id="game-lhv-text",
    ),
    # larger sampled runs: both read the Born pickers of measure_pauli and bell_measure
    pytest.param(
        ("game", "--strategy", "quantum", "--eta", "0.8", "--trials", "5000", "--seed", "12345",
         "--format", "jsonl"),
        "d501fc3bc7619efe168f3f1e3b39a46ab00a863cd2a7cff9c321ec1fdbd90b40",
        id="game-quantum-eta-jsonl-5000",
    ),
    pytest.param(
        ("teleport", "--trials", "10000", "--seed", "0", "--format", "json"),
        "4cef217dd75b459f76a9a86662555897e71bda8b3dcd215cd9b5a80468681fa3",
        id="teleport-json-10000",
    ),
    # jsonl record lines of the strategies and the teleport run no other digest covers
    pytest.param(
        ("game", "--strategy", "classical-best", "--trials", "2000", "--seed", "12345",
         "--format", "jsonl"),
        "3ecebdc0cf83d8936f61746f1f38620b169760e45e6fa570a936563ef50d4172",
        id="game-classical-best-jsonl",
    ),
    pytest.param(
        ("game", "--strategy", "random", "--trials", "2000", "--seed", "12345", "--format", "jsonl"),
        "6ecc720ae4a822959e1ea1c94bc40f138df0c4f28b8ad4313c93f94fb8750369",
        id="game-random-jsonl",
    ),
    pytest.param(
        ("teleport", "--trials", "10000", "--seed", "12345", "--format", "jsonl"),
        "3b8c51d1c55474021c9e523938a333fb0c50f91236ab96211fbb55539c775e66",
        id="teleport-jsonl-10000",
    ),
]


@pytest.mark.parametrize("argv, digest", KNOWN_OUTPUTS)
def test_known_answer_outputs(tmp_path, argv, digest):
    target = tmp_path / "out"
    assert main([*argv, "--out", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


def jsonl_peak_bytes(path, trials):
    """tracemalloc peak of one ``game --format jsonl`` run, after a warm-up run."""
    argv = ["game", "--format", "jsonl", "--trials", str(trials), "--out", str(path)]
    assert main(argv) == 0
    gc.collect()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_jsonl_memory_does_not_grow_with_trials(tmp_path):
    small = jsonl_peak_bytes(tmp_path / "small.jsonl", 500)
    large = jsonl_peak_bytes(tmp_path / "large.jsonl", 4000)
    assert large - small < 64 * 1024
    assert len((tmp_path / "large.jsonl").read_text().splitlines()) == 4000


# ---------------------------------------------------------------------------
# JSON documents: one recursive pass against the standard library's writer


class Color(Enum):
    RED = "red"
    PAIR = (1, -0.0)
    NONE = None


class Level(IntEnum):
    LOW = -1
    HUGE = 2**80


@dataclasses.dataclass(frozen=True)
class Frozen:
    name: str
    value: object


@dataclasses.dataclass(frozen=True, slots=True)
class Slotted:
    value: object


class Name(str):
    pass


class Ratio(float):
    def __repr__(self):
        return "a ratio"


class Pair(tuple):
    pass


class Table(dict):
    pass


SPECIAL_FLOATS = (-0.0, 0.0, 1e300, -1e-300, math.nan, math.inf, -math.inf, 0.1, 1e16)
DOC_SCALARS = (
    st.none() | st.booleans() | st.integers(-2**100, 2**100) | st.floats()
    | st.sampled_from(SPECIAL_FLOATS) | st.text() | st.sampled_from("\x00\x1f\"\\/é☃\U0001f600")
    | st.sampled_from(list(Color)) | st.sampled_from(list(Level))
    | st.text(max_size=3).map(Name) | st.floats().map(Ratio)
)
DOC_KEYS = (
    st.text(max_size=4) | st.integers() | st.floats() | st.booleans() | st.none()
    | st.text(max_size=3).map(Name) | st.floats().map(Ratio) | st.sampled_from(list(Level))
)
DOCS = st.recursive(
    DOC_SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
        | st.lists(inner, max_size=4).map(Pair)
        | st.dictionaries(DOC_KEYS, inner, max_size=4)
        | st.dictionaries(DOC_KEYS, inner, max_size=4).map(Table)
        | st.builds(Frozen, st.text(max_size=3), inner)
    ),
    max_leaves=25,
)


def written(write, obj):
    """What ``write`` makes of ``obj``: the text, or the ``TypeError`` and its message."""
    try:
        return write(obj)
    except TypeError as exc:
        return TypeError, str(exc)


def reference_document(obj) -> str:
    return oracle.ref_document(obj) + "\n"


@settings(deadline=None, max_examples=400)
@given(obj=DOCS)
@example(obj={1: [True, False, None, 1], False: (), None: {}, 0.5: "x", -math.inf: -0.0})
@example(obj=[Frozen("slotted inside", Slotted(1))])  # vars() raises on a slotted dataclass
def test_document_equals_stdlib_indent_2(obj):
    assert written(cli._json_dumps, obj) == written(reference_document, obj)


@pytest.mark.parametrize("obj", [
    {1, 2}, 1j, b"bytes", [object()], {"a": frozenset()}, Slotted(1),
    {(1, 2): 3}, {Color.RED: 1}, {"ok": {Frozen("k", 1): 2}},
])
def test_both_writers_reject_the_same_keys_and_values(obj):
    got = written(cli._json_dumps, obj)
    assert got[0] is TypeError
    assert got == written(reference_document, obj)


def command_documents(argv):
    """Each object ``main(argv)`` hands ``_json_dumps``, with the text it wrote."""
    seen = []

    def spy(obj):
        seen.append((obj, dumps(obj)))
        return seen[-1][1]

    dumps = cli._json_dumps
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_json_dumps", spy):
        assert main([*argv, "--format", "json", "--out", f"{tmp}/out"]) == 0
    return seen


DOCUMENT_COMMANDS = [
    ("prove", "classical"),
    *[("prove", "stapp", *t) for t in (("1", "1", "-1"), ("1", "-1", "1"), ("-1", "-1", "-1"))],
    *[("elements", *t) for t in (("1", "1", "-1"), ("-1", "1", "1"), ("-1", "-1", "-1"))],
    *[("game", "--strategy", s, "--trials", "200", "--seed", "7")
      for s in ("quantum", "classical-best", "lhv", "random")],
    ("game", "--strategy", "classical-table", "--table", "1", "-1", "1", "1", "-1", "1",
     "--trials", "200"),
    ("game", "--eta", "0.9", "--trials", "200", "--seed", "12345"),
    ("sweep", "--trials", "100", "--seed", "7"),
    ("teleport", "--trials", "1024", "--seed", "3"),
]


@pytest.mark.parametrize("argv", DOCUMENT_COMMANDS, ids=" ".join)
def test_every_command_document_equals_stdlib_indent_2(argv):
    [(obj, text)] = command_documents(argv)
    assert text == reference_document(obj)


@pytest.mark.parametrize("argv", [
    ("prove", "stapp", "1", "1", "-1"),
    ("teleport", "--trials", "1024", "--seed", "3"),
], ids=" ".join)
def test_document_peak_memory_stays_within_four_times_its_length(argv):
    # the standard library's chunk list peaks at 8.6 and 6.6 times these lengths
    [(obj, text)] = command_documents(argv)
    gc.collect()
    tracemalloc.start()
    try:
        cli._json_dumps(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(text)


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "game", "--help")[0] == 0


# Tokens of fuzzed command lines.  Every subcommand that plays trials gets
# "--trials 2" first, as the defaults would take seconds; "--out" always
# comes with a path in a temporary directory, so nothing else is written.
FUZZ_COMMANDS = ("game", "sweep", "teleport", "prove", "elements", "play", "nonsense", "--help")
FUZZ_TOKENS = (
    "classical", "stapp", "--strategy", "quantum", "classical-best", "classical-table", "lhv",
    "random", "--table", "--eta", "--trials", "--seed", "--format", "--grid", "--help", "text",
    "json", "jsonl", "csv", "1", "+1", "-1", "0", "2", "0.5", "1.5", "nan", "-0.1", "x", "",
    "--out", "--out-missing-dir",
)


@settings(deadline=None, max_examples=200)
@given(command=st.sampled_from(FUZZ_COMMANDS), tokens=st.lists(st.sampled_from(FUZZ_TOKENS), max_size=8))
@example(command="sweep", tokens=["--grid", "x"])
def test_fuzzed_argv_exits_cleanly(command, tokens):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command] + (["--trials", "2"] if command in ("game", "sweep", "teleport") else [])
        for k, token in enumerate(tokens):
            if token == "--out":
                argv += ["--out", f"{tmp}/out{k}"]
            elif token == "--out-missing-dir":
                argv += ["--out", f"{tmp}/missing/out{k}"]
            else:
                argv.append(token)
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(sys.stdin, "isatty", lambda: False), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    # no fuzzed input is an internal error (2), let alone a traceback
    assert code in (0, 1), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


def test_internal_errors_exit_two(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(game, "run_experiment", boom)
    code, _, err = run_cli(capsys, "game", "--trials", "10")
    assert code == 2
    assert "internal error" in err


# ---------------------------------------------------------------------------
# play mode


def test_play_requires_tty(capsys, monkeypatch):
    import sys

    monkeypatch.setattr(sys.stdin, "isatty", lambda: False)
    code, _, err = run_cli(capsys, "play")
    assert code == 1
    assert "interactive" in err


def scripted_session(inputs, master_seed=0):
    lines = []
    feed = iter(inputs)

    def input_fn(prompt):
        try:
            return next(feed)
        except StopIteration:
            raise EOFError

    stats = play_session(master_seed, input_fn, lines.append)
    return stats, "\n".join(lines)


def test_play_measuring_always_wins():
    stats, transcript = scripted_session(["m"] * 60)
    measured = stats.data["measured"]
    assert measured["rounds"] == 60
    assert measured["wins"] == 60
    assert measured["best_streak"] == 60
    assert "LOSS" not in transcript


def test_play_fixed_answers_stay_under_ceiling():
    n = 400
    stats, _ = scripted_session(["+1"] * n)
    chosen = stats.data["chosen"]
    assert chosen["rounds"] == n
    rate = chosen["wins"] / n
    assert rate <= 0.75 + oracle.binomial_4sigma(0.75, n)


def test_play_quit_emits_partial_report():
    stats, transcript = scripted_session(["m", "m", "q"])
    assert stats.rounds == 2
    assert "session over after 2 round(s)." in transcript


def test_play_eof_quits_cleanly():
    stats, transcript = scripted_session(["m"])
    assert stats.rounds == 1
    assert "session over" in transcript


def test_play_rejects_garbage_then_continues():
    stats, transcript = scripted_session(["banana", "m", "q"])
    assert stats.rounds == 1
    assert "please type m, +1, -1, or q" in transcript


# Scripted sessions that mix measuring, fixed answers, garbage, quitting and
# end of input; any change to a transcript or to its tallies fails here.
PLAY_SCRIPTS = (
    ("m", "+1", "banana", "-1", "m", "1", "", "m", "q"),
    ("-1", "measure", "+1", "?", "m", "m", "-1"),  # ends at end of input
)


def test_play_transcripts_known_answer():
    digest = hashlib.sha256()
    for seed in (0, 7, 12345):
        for script in PLAY_SCRIPTS:
            stats, transcript = scripted_session(script, seed)
            digest.update(f"{transcript}\n{json.dumps(stats.data)}\n".encode())
    assert digest.hexdigest() == "e80114ca9db6901aa0f230bf28bcdf5a6651ca40082056b69e8563c34a91068d"


def test_play_stats_streaks():
    stats = PlayStats()
    for won in (True, True, False, True):
        stats.record("chosen", won)
    d = stats.data["chosen"]
    assert d["wins"] == 3 and d["best_streak"] == 2 and d["streak"] == 1
