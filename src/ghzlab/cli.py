"""Command-line front end: seeded experiments, proofs, sweeps, and play mode.

Subcommands: game, sweep, prove, teleport, elements, play.  Exit codes are
0 on success, 1 on invalid input, and 2 on internal errors.  Identical
flags and seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import math
import os
import sys
from typing import Callable, Iterator, Sequence, TextIO

import numpy as np

from . import game, lhv, parity, prepost, teleport
from .game import PATTERNS, EfficiencyModel, TrialStreams, draw_pattern, wins

DEFAULT_TRIALS = 10_000
DEFAULT_SEED = 0


class CliError(Exception):
    """Invalid input; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures through exit code 1
        raise CliError(message)


def _binomial_sigma(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _parse_sign(text: str) -> int:
    if text in ("+1", "1"):
        return 1
    if text == "-1":
        return -1
    raise CliError(f"expected +1 or -1, got {text!r}")


@contextlib.contextmanager
def _output(out_path: str | None) -> Iterator[TextIO]:
    """The handle a command writes into: stdout, or a file that replaces ``out_path`` whole.

    A file is written beside the target and moved over it only when the
    command succeeds, so no reader sees half a file.  Commands build a whole
    document before they open the output, which keeps the file's buffers out
    of their peak memory; jsonl and csv rows are written as they are made.
    """
    if out_path is None:
        yield sys.stdout
        return
    target = os.path.realpath(out_path)  # through symlinks, as open() writes
    try:
        if os.path.exists(target) and not os.path.isfile(target):
            # a device or pipe such as /dev/null: replacing it would remove it
            with open(target, "w") as fh:
                yield fh
            return
        tmp = f"{target}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as fh:
                yield fh
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
            raise
    except OSError as exc:
        raise CliError(f"cannot write {out_path}: {exc.strerror or exc}") from exc


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _write_records(play: Callable, out_path: str | None) -> int:
    """Run ``play``, writing each trial record as one JSON line when it is produced."""
    with _output(out_path) as fh:
        play(record_sink=lambda rec: fh.write(json.dumps(rec.to_json_dict()) + "\n"))
    return 0


# ---------------------------------------------------------------------------
# game


def _make_strategy(args) -> game.Strategy:
    name = args.strategy
    if name == "quantum":
        return game.quantum_strategy()
    if name == "classical-best":
        best = game.scan_deterministic().best_tables[0]
        return game.TableStrategy(best, name="classical-best")
    if name == "classical-table":
        if len(args.table) != 6:
            raise CliError("classical-table needs 6 signs: X_A Y_A X_B Y_B X_C Y_C")
        signs = [_parse_sign(t) for t in args.table]
        return game.TableStrategy(game.DeterministicTable(*signs))
    if name == "random":
        return game.RandomStrategy()
    raise CliError(f"unknown strategy {name!r}")


def _theory_for(args, strategy: game.Strategy) -> float:
    if args.strategy == "quantum":
        return game.theoretical_win_rate(args.eta)
    if args.strategy == "random":
        return 0.5
    return strategy.table.expected_win_rate()  # type: ignore[attr-defined]


def _report_lines(report) -> list[str]:
    """The header every game report's text opens with."""
    return [
        f"strategy: {report.strategy}",
        f"trials: {report.trials}",
        f"master_seed: {report.master_seed}",
        f"wins: {report.wins}",
        f"win_rate: {report.win_rate:.6f}",
    ]


def _theory_check(what: str, observed: float, theory: float, n: int) -> str:
    bound = 4.0 * _binomial_sigma(theory, n)
    diff = abs(observed - theory)
    return (
        f"theory check: {what}expected {theory:.6f}, |diff| = {diff:.6f} "
        f"vs 4-sigma bound {bound:.6f} over n={n}: " + ("ok" if diff <= bound else "OUTSIDE")
    )


def _report_text(report, theory: float) -> str:
    lines = _report_lines(report) + ["per-pattern win rates:"]
    for p in PATTERNS:
        rate = report.per_pattern_win_rates[p.value]
        count = report.per_pattern_trials[p.value]
        shown = "n/a" if rate is None else f"{rate:.6f}"
        lines.append(f"  {p.value}: {shown}  ({count} trials)")
    lines.append(f"triple_detection_rate: {report.triple_detection_rate:.6f}")
    lines.append(_theory_check("", report.win_rate, theory, report.trials))
    return "\n".join(lines) + "\n"


def _lhv_text(report) -> str:
    lines = _report_lines(report) + [
        f"triple_detection_rate: {report.triple_detection_rate:.6f}",
        f"conditional_win_rate: "
        + ("n/a" if report.conditional_win_rate is None else f"{report.conditional_win_rate:.6f}"),
        f"single_detections: {report.single_detections}",
        f"null_detections: {report.null_detections}",
        _theory_check("triple detection ", report.triple_detection_rate, 0.5, report.trials),
    ]
    return "\n".join(lines) + "\n"


def cmd_game(args) -> int:
    if args.strategy == "lhv":
        if args.eta != 1.0:
            raise CliError("the lhv strategy has its own detection model; --eta does not apply")
        play = functools.partial(lhv.lhv_statistics, args.trials, args.seed)
        as_text = _lhv_text
    else:
        strategy = _make_strategy(args)
        theory = _theory_for(args, strategy)
        if args.eta != 1.0:
            strategy = game.apply_detection(strategy, EfficiencyModel(args.eta))
        play = functools.partial(game.run_experiment, strategy, args.trials, args.seed)
        as_text = functools.partial(_report_text, theory=theory)
    if args.format == "jsonl":
        return _write_records(play, args.out)
    report = play()
    text = as_text(report) if args.format == "text" else _json_dumps(report.to_json_dict())
    with _output(args.out) as fh:
        fh.write(text)
    return 0


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args) -> int:
    grid = args.grid
    if any(not 0.0 <= g <= 1.0 for g in grid):
        raise CliError("grid values must lie in [0, 1]")
    rows = []
    for k, eta in enumerate(grid):
        strategy = game.apply_detection(game.quantum_strategy(), EfficiencyModel(eta))
        point_seed = int(np.random.SeedSequence(entropy=(args.seed, k)).generate_state(1)[0])
        report = game.run_experiment(strategy, args.trials, point_seed)
        rows.append((eta, report.win_rate, game.theoretical_win_rate(eta)))
    if args.format == "csv":
        with _output(args.out) as fh:
            writer = csv.writer(fh)
            writer.writerow(["eta", "empirical", "theoretical"])
            for eta, emp, theo in rows:
                writer.writerow([f"{eta:g}", f"{emp:.6f}", f"{theo:.6f}"])
        return 0
    if args.format == "json":
        text = _json_dumps(
            {
                "trials_per_point": args.trials,
                "master_seed": args.seed,
                "rows": [
                    {"eta": eta, "empirical": emp, "theoretical": theo}
                    for eta, emp, theo in rows
                ],
            }
        )
    else:
        lines = [f"detection sweep: {args.trials} trials per point, master_seed {args.seed}"]
        lines.append(f"{'eta':>8}  {'empirical':>10}  {'theoretical':>11}  {'|diff|':>8}  {'4-sigma':>8}")
        for eta, emp, theo in rows:
            bound = 4.0 * _binomial_sigma(theo, args.trials)
            lines.append(
                f"{eta:8.4f}  {emp:10.6f}  {theo:11.6f}  {abs(emp - theo):8.6f}  {bound:8.6f}"
            )
        text = "\n".join(lines) + "\n"
    with _output(args.out) as fh:
        fh.write(text)
    return 0


# ---------------------------------------------------------------------------
# prove


def cmd_prove(args) -> int:
    if args.which == "classical":
        if args.signs:
            raise CliError("the classical system takes no signs")
        system = parity.build_classical_game_system()
    else:
        if len(args.signs) != 3:
            raise CliError("stapp needs 3 signs for the actual x outcomes")
        signs = [_parse_sign(s) for s in args.signs]
        try:
            system = parity.build_stapp_system(signs)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    result = parity.solve_gf2(system)
    enum_result = parity.solve_enumerate(system)
    if result.satisfiable != enum_result.satisfiable:  # pragma: no cover
        raise RuntimeError("solver disagreement between GF(2) and enumeration")
    drops = parity.drop_one_analysis(system)
    if args.format == "json":
        text = _json_dumps(
            {
                "system": dataclasses.asdict(system),
                "result": parity.result_to_json_dict(result),
                "drop_one": {str(k): parity.result_to_json_dict(v) for k, v in drops.items()},
            }
        )
    else:
        text = parity.format_proof(system, result, drops)
    with _output(args.out) as fh:
        fh.write(text)
    return 0


# ---------------------------------------------------------------------------
# teleport


def cmd_teleport(args) -> int:
    rule = teleport.derive_correction_rule()
    play = functools.partial(teleport.run_trials, args.trials, args.seed)
    if args.format == "jsonl":
        return _write_records(play, args.out)
    summary = play()
    if args.format == "csv":
        with _output(args.out) as fh:
            writer = csv.writer(fh)
            writer.writerow(["pattern", "trials", "corrected_success_rate", "raw_success_rate"])
            for name, rates in summary.per_pattern.items():
                writer.writerow(
                    [
                        name,
                        rates.trials,
                        f"{rates.corrected_success_rate:.6f}",
                        f"{rates.raw_success_rate:.6f}",
                    ]
                )
        return 0
    if args.format == "json":
        text = _json_dumps(summary.to_json_dict())
    else:
        lines = [
            f"teleported game: {summary.trials} trials, master_seed {args.seed}",
            "correction rule (derived from the single-particle identity):",
        ]
        lines.extend("  " + line for line in rule.describe().splitlines())
        lines.append("per-pattern success rates (corrected / raw):")
        for name, rates in summary.per_pattern.items():
            lines.append(
                f"  {name}: {rates.corrected_success_rate:.6f} / {rates.raw_success_rate:.6f}"
                f"  ({rates.trials} trials)"
            )
        lines.append(f"overall corrected success: {summary.corrected_success_rate:.6f}")
        lines.append(f"overall raw success: {summary.raw_success_rate:.6f}")
        expected = summary.trials / 64
        sigma = math.sqrt(summary.trials * (1 / 64) * (63 / 64))
        worst = max(abs(c - expected) for c in summary.bell_histogram.values())
        lines.append(
            f"Bell-outcome histogram: {len(summary.bell_histogram)} of 64 cells hit, "
            f"worst |count - {expected:.1f}| = {worst:.1f} vs 4-sigma {4 * sigma:.1f} "
            f"over n={summary.trials}"
        )
        text = "\n".join(lines) + "\n"
    with _output(args.out) as fh:
        fh.write(text)
    return 0


# ---------------------------------------------------------------------------
# elements


def cmd_elements(args) -> int:
    signs = [_parse_sign(s) for s in args.signs]
    if signs[0] * signs[1] * signs[2] != -1:
        raise CliError(
            "the three x outcomes must multiply to -1; "
            "other triples have zero probability from the GHZ preparation"
        )
    ens = prepost.ghz_x_ensemble(signs)
    conditionals = prepost.conditionals_check(ens.pre)
    report = prepost.product_rule_report(ens)
    if args.format == "json":
        text = _json_dumps(
            {
                "post_outcomes": signs,
                "conditionals": [prepost.labeled_json(e) for e in conditionals.entries],
                "all_pairs_commute": conditionals.all_pairs_commute,
                "product_rule": report.to_json_dict(),
            }
        )
    else:
        text = prepost.format_elements_proof(ens, conditionals, report)
    with _output(args.out) as fh:
        fh.write(text)
    return 0


# ---------------------------------------------------------------------------
# play


class PlayStats:
    def __init__(self):
        self.rounds = 0
        self.data = {
            "measured": {"rounds": 0, "wins": 0, "streak": 0, "best_streak": 0},
            "chosen": {"rounds": 0, "wins": 0, "streak": 0, "best_streak": 0},
        }

    def record(self, mode: str, won: bool) -> None:
        self.rounds += 1
        d = self.data[mode]
        d["rounds"] += 1
        if won:
            d["wins"] += 1
            d["streak"] += 1
            d["best_streak"] = max(d["best_streak"], d["streak"])
        else:
            d["streak"] = 0

    def summary_lines(self) -> list[str]:
        lines = [f"session over after {self.rounds} round(s)."]
        for mode, label in (("measured", "measured answers"), ("chosen", "freely chosen answers")):
            d = self.data[mode]
            if d["rounds"] == 0:
                lines.append(f"  {label}: no rounds")
                continue
            lines.append(
                f"  {label}: {d['wins']}/{d['rounds']} wins "
                f"(rate {d['wins'] / d['rounds']:.3f}, best streak {d['best_streak']})"
            )
        return lines


def play_session(
    master_seed: int,
    input_fn: Callable[[str], str],
    print_fn: Callable[[str], None],
    max_rounds: int | None = None,
) -> PlayStats:
    """Interactive loop: the caller is player A on a quantum team.

    Each round shows only player A's question.  The human may answer +1 or
    -1 outright, or measure her simulated particle and answer with the
    outcome.  Teammates B and C always measure theirs; every measuring seat
    asks the answer rule of :class:`QuantumStrategy` on its ``game`` stream.
    """
    team = game.quantum_strategy()
    streams = TrialStreams(master_seed, 5)
    stats = PlayStats()
    print_fn("you are player A; teammates B and C each hold one particle of a")
    print_fn("shared GHZ triple and will measure whatever they are asked.")
    print_fn("win condition: answer product -1 for pattern XXX, +1 otherwise.")
    i = 0
    while max_rounds is None or i < max_rounds:
        _, gens = streams.trial(i)
        i += 1
        referee, setup_rnd, rnd_a, rnd_b, rnd_c = gens
        shared = team.setup(setup_rnd)
        pattern = draw_pattern(referee)
        axes = pattern.axes
        print_fn(f"round {i}: your question is {axes[0].value.upper()}")
        while True:
            try:
                raw = input_fn("[m]easure your particle, answer +1 / -1, or [q]uit: ")
            except EOFError:
                raw = "q"
            token = raw.strip().lower()
            if token in ("m", "measure"):
                answer_a, shared = team.answer(shared, 0, axes[0], rnd_a)
                mode = "measured"
                print_fn(f"your particle reads {answer_a:+d}")
                break
            if token in ("+1", "1", "-1"):
                answer_a = 1 if token in ("+1", "1") else -1
                mode = "chosen"
                break
            if token in ("q", "quit"):
                for line in stats.summary_lines():
                    print_fn(line)
                return stats
            print_fn("please type m, +1, -1, or q")
        answer_b, shared = team.answer(shared, 1, axes[1], rnd_b)
        answer_c, shared = team.answer(shared, 2, axes[2], rnd_c)
        answers = (answer_a, answer_b, answer_c)
        won = wins(pattern, answers)
        stats.record(mode, won)
        print_fn(
            f"pattern was {pattern.value}; answers {answer_a:+d} {answer_b:+d} {answer_c:+d} "
            f"multiply to {answer_a * answer_b * answer_c:+d} -> {'WIN' if won else 'LOSS'}"
        )
    for line in stats.summary_lines():
        print_fn(line)
    return stats


def cmd_play(args) -> int:
    if not sys.stdin.isatty():
        raise CliError("play mode needs an interactive terminal; stdin is not a tty")
    play_session(args.seed, input_fn=input, print_fn=print)
    return 0


# ---------------------------------------------------------------------------
# parser wiring


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once; parsing leaves no state in it."""
    parser = _Parser(prog="ghzlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats, default_fmt="text"):
        p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--format", choices=formats, default=default_fmt)
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p_game = sub.add_parser("game", help="run a strategy against the referee")
    p_game.add_argument(
        "--strategy",
        default="quantum",
        choices=("quantum", "classical-best", "classical-table", "lhv", "random"),
    )
    p_game.add_argument(
        "--table",
        nargs=6,
        default=(),
        metavar="S",
        help="six signs X_A Y_A X_B Y_B X_C Y_C for classical-table",
    )
    p_game.add_argument("--eta", type=float, default=1.0)
    add_common(p_game, ("text", "json", "jsonl"))
    p_game.set_defaults(func=cmd_game)

    p_sweep = sub.add_parser("sweep", help="win rate across a detection-efficiency grid")
    p_sweep.add_argument(
        "--grid",
        nargs="+",
        type=float,
        default=(0.0, 0.25, 0.5, 0.7937, 0.9, 1.0),
        metavar="ETA",
    )
    add_common(p_sweep, ("csv", "text", "json"), default_fmt="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_prove = sub.add_parser("prove", help="print an impossibility proof")
    p_prove.add_argument("which", choices=("classical", "stapp"))
    p_prove.add_argument("signs", nargs="*", metavar="SIGN")
    p_prove.add_argument("--format", choices=("text", "json"), default="text")
    p_prove.add_argument("--out", default=None)
    p_prove.set_defaults(func=cmd_prove)

    p_tel = sub.add_parser("teleport", help="run the no-common-origin variant")
    add_common(p_tel, ("text", "json", "jsonl", "csv"))
    p_tel.set_defaults(func=cmd_teleport)

    p_el = sub.add_parser("elements", help="pre/post-selected inference report")
    p_el.add_argument("signs", nargs=3, metavar="SIGN", help="three x outcomes, product -1")
    p_el.add_argument("--format", choices=("text", "json"), default="text")
    p_el.add_argument("--out", default=None)
    p_el.set_defaults(func=cmd_elements)

    p_play = sub.add_parser("play", help="join the quantum team at the terminal")
    p_play.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_play.set_defaults(func=cmd_play)

    return parser


def _validate_common(args) -> None:
    if getattr(args, "trials", 1) < 1:
        raise CliError("--trials must be at least 1")
    if getattr(args, "seed", 0) < 0:
        raise CliError("--seed must be non-negative")
    eta = getattr(args, "eta", None)
    if eta is not None and not 0.0 <= eta <= 1.0:
        raise CliError("--eta must lie in [0, 1]")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _validate_common(args)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        code = exc.code if isinstance(exc.code, int) else 0
        return code
    except BrokenPipeError:
        return 0
    except Exception as exc:  # internal error contract
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
