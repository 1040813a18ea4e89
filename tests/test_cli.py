import contextlib
import gc
import hashlib
import io
import json
import sys
import tempfile
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    assert run_cli(capsys, "nonsense")[0] == 1


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
    import ghzlab.cli as cli_module

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli_module.game, "run_experiment", boom)
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


def scripted_session(inputs, master_seed=0, max_rounds=None):
    lines = []
    feed = iter(inputs)

    def input_fn(prompt):
        try:
            return next(feed)
        except StopIteration:
            raise EOFError

    stats = play_session(master_seed, input_fn, lines.append, max_rounds=max_rounds)
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


def test_play_stats_streaks():
    stats = PlayStats()
    for won in (True, True, False, True):
        stats.record("chosen", won)
    d = stats.data["chosen"]
    assert d["wins"] == 3 and d["best_streak"] == 2 and d["streak"] == 1
