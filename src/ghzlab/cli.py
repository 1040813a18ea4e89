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
from enum import Enum
from typing import Callable, Iterator, Sequence, TextIO

from . import parity
from .rules import PATTERNS

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
    """Where ``main`` writes a command's document: stdout, or a file that replaces ``out_path`` whole.

    A file is written beside the target and moved over it only when the
    command succeeds, so no reader sees half a file.  Commands build their
    text and rows before the output opens, which keeps the file's buffers
    out of their peak memory; jsonl records are written as they are made.
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


def _plain(obj):
    """An ``Enum`` as its value and a dataclass as its fields, in declaration order, for JSON."""
    if isinstance(obj, Enum):
        return obj.value
    if dataclasses.is_dataclass(obj):
        return vars(obj)
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


# Built once: ``json.dumps`` with any option builds a new encoder per call.
_LINE = json.JSONEncoder(default=_plain).encode
_STRING = json.encoder.encode_basestring_ascii
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(x: float) -> str:
    text = float.__repr__(x)
    return _FLOAT_WORDS.get(text, text)


def _key(key) -> str:
    """A dict key, turned into a string as ``json`` turns it, and quoted."""
    if isinstance(key, str):
        return _STRING(key)
    if isinstance(key, float):
        return f'"{_float(key)}"'
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return f'"{int.__repr__(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _document(obj, indent: str, head: str = "") -> str:
    """``head``, then ``obj`` as ``json.dumps(obj, indent=2, default=_plain)`` writes it.

    ``indent`` is a line break and the indentation of ``obj``'s level; its
    items go two spaces deeper.  CPython encodes in pure Python whenever
    ``indent`` is set, yielding every chunk from a generator into one list.
    This checks types in the same order, but writes each value once, after
    the separator and key before it, and joins each container once.  Unlike
    ``json`` it looks for no reference cycles; no command's document has one.
    """
    if isinstance(obj, str):
        return head + _STRING(obj)
    if obj is None:
        return head + "null"
    if obj is True:
        return head + "true"
    if obj is False:
        return head + "false"
    if isinstance(obj, int):
        return head + int.__repr__(obj)
    if isinstance(obj, float):
        return head + _float(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return head + "[]"
        inner = indent + "  "
        sep = "," + inner
        items = iter(obj)
        first = _document(next(items), inner, f"{head}[{inner}")
        return "".join([first, *[_document(v, inner, sep) for v in items], indent, "]"])
    if isinstance(obj, dict):
        if not obj:
            return head + "{}"
        inner = indent + "  "
        sep = "," + inner
        items = iter(obj.items())
        k, v = next(items)
        first = _document(v, inner, f"{head}{{{inner}{_key(k)}: ")
        rest = [_document(v, inner, f"{sep}{_key(k)}: ") for k, v in items]
        return "".join([first, *rest, indent, "}"])
    return _document(_plain(obj), indent, head)


def _json_dumps(obj) -> str:
    return _document(obj, "\n") + "\n"


# What a command returns for ``main`` to write: the whole text, or a writer
# that takes the output handle; ``play`` talks to the terminal and returns None.
Document = str | Callable[[TextIO], None] | None


# '"name": value' for each (field name, value) a jsonl record has held, encoded
# once by ``_LINE``: about 100 for the built-in records.  Only built-in teams
# reach ``_jsonl``, and their replies are exact ints, so no key equals a value
# that encodes differently, as a True inside a tuple equals 1.
_FRAGMENTS: dict[tuple[str, object], str] = {}


def _record_line(rec) -> str:
    """``_LINE(rec)`` and a newline, joined from cached field fragments; an exact int is written as is."""
    parts = []
    for name in rec.__dataclass_fields__:
        value = getattr(rec, name)
        part = f'"{name}": {value}' if type(value) is int else _FRAGMENTS.get((name, value))
        if part is None:
            part = _FRAGMENTS[name, value] = _LINE({name: value})[1:-1]
        parts.append(part)
    return "{" + ", ".join(parts) + "}\n"


def _jsonl(play: Callable) -> Callable[[TextIO], None]:
    """A writer that runs ``play``, writing each trial record as one JSON line when it is produced."""
    return lambda fh: play(record_sink=lambda rec: fh.write(_record_line(rec)))


def _csv(header: Sequence[str], rows: list[Sequence]) -> Callable[[TextIO], None]:
    """A writer of ``header`` and ``rows`` as csv lines."""

    def write(fh: TextIO) -> None:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

    return write


# ---------------------------------------------------------------------------
# game


def _make_strategy(args):
    from . import game

    name = args.strategy
    if name == "quantum":
        return game.quantum_strategy(args.eta)
    if name == "classical-best":
        best = game.scan_deterministic().best_tables[0]
        return game.TableStrategy(best, name="classical-best")
    if name == "classical-table":
        if len(args.table) != 6:
            raise CliError("classical-table needs 6 signs: X_A Y_A X_B Y_B X_C Y_C")
        signs = [_parse_sign(t) for t in args.table]
        return game.TableStrategy(game.DeterministicTable(*signs))
    return game.RandomStrategy()


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


def cmd_game(args) -> Document:
    from . import game, lhv

    if args.table and args.strategy != "classical-table":
        raise CliError("--table applies only to --strategy classical-table")
    if args.eta != 1.0 and args.strategy != "quantum":
        raise CliError(f"--eta applies only to --strategy quantum, not {args.strategy}")
    if args.strategy == "lhv":
        play = functools.partial(lhv.lhv_statistics, args.trials, args.seed)
        as_text = _lhv_text
    else:
        strategy = _make_strategy(args)
        play = functools.partial(game.run_experiment, strategy, args.trials, args.seed)
        as_text = functools.partial(_report_text, theory=strategy.expected_win_rate())
    if args.format == "jsonl":
        return _jsonl(play)
    report = play()
    return as_text(report) if args.format == "text" else _json_dumps(report)


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args) -> Document:
    import numpy as np

    from . import game

    grid = args.grid
    if any(not 0.0 <= g <= 1.0 for g in grid):
        raise CliError("grid values must lie in [0, 1]")
    rows = []
    for k, eta in enumerate(grid):
        strategy = game.quantum_strategy(eta)
        point_seed = int(np.random.SeedSequence(entropy=(args.seed, k)).generate_state(1)[0])
        report = game.run_experiment(strategy, args.trials, point_seed)
        rows.append((eta, report.win_rate, strategy.expected_win_rate()))
    if args.format == "csv":
        return _csv(
            ["eta", "empirical", "theoretical"],
            [[f"{eta:g}", f"{emp:.6f}", f"{theo:.6f}"] for eta, emp, theo in rows],
        )
    if args.format == "json":
        return _json_dumps(
            {
                "trials_per_point": args.trials,
                "master_seed": args.seed,
                "rows": [
                    {"eta": eta, "empirical": emp, "theoretical": theo}
                    for eta, emp, theo in rows
                ],
            }
        )
    lines = [f"detection sweep: {args.trials} trials per point, master_seed {args.seed}"]
    lines.append(f"{'eta':>8}  {'empirical':>10}  {'theoretical':>11}  {'|diff|':>8}  {'4-sigma':>8}")
    for eta, emp, theo in rows:
        bound = 4.0 * _binomial_sigma(theo, args.trials)
        lines.append(f"{eta:8.4f}  {emp:10.6f}  {theo:11.6f}  {abs(emp - theo):8.6f}  {bound:8.6f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# prove


def _check_answer(system: parity.ParitySystem, result: parity.Sat | parity.Unsat) -> None:
    """Raise unless ``result``'s assignment satisfies ``system`` or its certificate refutes it."""
    if result.satisfiable:
        ok = all(c.satisfied_by(result.assignment) for c in system.constraints)
    else:
        ok = parity.verify_certificate(system, result.certificate)
    if not ok:
        raise RuntimeError(f"the solver's answer does not check: {result}")


def cmd_prove(args) -> Document:
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
    result = parity.solve_enumerate(system)
    drops = parity.drop_one_analysis(system)
    _check_answer(system, result)
    for k, dropped in drops.items():
        _check_answer(system.drop(k), dropped)
    if args.format == "json":
        return _json_dumps(
            {
                "system": system,
                "result": parity.result_to_json_dict(result),
                "drop_one": {str(k): parity.result_to_json_dict(v) for k, v in drops.items()},
            }
        )
    return parity.format_proof(system, result, drops)


# ---------------------------------------------------------------------------
# teleport


def cmd_teleport(args) -> Document:
    from . import teleport

    rule = teleport.derive_correction_rule()
    play = functools.partial(teleport.run_trials, args.trials, args.seed)
    if args.format == "jsonl":
        return _jsonl(play)
    summary = play()
    if args.format == "csv":
        rows = [[name, r.trials, f"{r.corrected_success_rate:.6f}", f"{r.raw_success_rate:.6f}"]
                for name, r in summary.per_pattern.items()]
        return _csv(["pattern", "trials", "corrected_success_rate", "raw_success_rate"], rows)
    if args.format == "json":
        return _json_dumps(summary.to_json_dict())
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
    hits = list(summary.bell_histogram.values())
    # an unhit cell counts 0, so it lies ``expected`` away
    worst = max(abs(c - expected) for c in hits + [0] * (64 - len(hits)))
    lines.append(
        f"Bell-outcome histogram: {len(hits)} of 64 cells hit, "
        f"worst |count - {expected:.1f}| = {worst:.1f} vs 4-sigma {4 * sigma:.1f} "
        f"over n={summary.trials}"
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# elements


def cmd_elements(args) -> Document:
    from . import prepost

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
        return _json_dumps(
            {
                "post_outcomes": signs,
                "conditionals": [prepost.labeled_json(e) for e in conditionals.entries],
                "all_pairs_commute": conditionals.all_pairs_commute,
                "product_rule": report.to_json_dict(),
            }
        )
    return prepost.format_elements_proof(ens, conditionals, report)


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
    master_seed: int, input_fn: Callable[[str], str], print_fn: Callable[[str], None]
) -> PlayStats:
    """Interactive run: the caller is player A on a quantum team.

    Each round shows only player A's question, which the caller answers +1
    or -1 outright or by measuring the simulated particle; teammates B and
    C always measure theirs.  Rounds are ``game.run_experiment`` trials.
    """
    from . import game

    stats = PlayStats()

    class TerminalSeat(game.QuantumStrategy):
        """A quantum team whose seat 0 asks the terminal to measure or to answer +1 / -1.

        ``mode`` says which that seat did last.  Quitting raises ``EOFError``,
        as end of input does, and so ends the run.
        """

        mode = "measured"

        def answer(self, shared, site, question, rnd):
            if site:
                return super().answer(shared, site, question, rnd)
            print_fn(f"round {stats.rounds + 1}: your question is {question.value.upper()}")
            while True:
                token = input_fn("[m]easure your particle, answer +1 / -1, or [q]uit: ").strip().lower()
                if token in ("m", "measure"):
                    self.mode = "measured"
                    reply, shared = super().answer(shared, site, question, rnd)
                    print_fn(f"your particle reads {reply:+d}")
                    return reply, shared
                if token in ("+1", "1", "-1"):
                    self.mode = "chosen"
                    return (-1 if token == "-1" else 1), shared
                if token in ("q", "quit"):
                    raise EOFError
                print_fn("please type m, +1, -1, or q")

    team = TerminalSeat()

    def show(rec: game.TrialRecord) -> None:
        stats.record(team.mode, rec.win)
        a, b, c = rec.answers
        print_fn(
            f"pattern was {rec.pattern.value}; answers {a:+d} {b:+d} {c:+d} "
            f"multiply to {a * b * c:+d} -> {'WIN' if rec.win else 'LOSS'}"
        )

    print_fn("you are player A; teammates B and C each hold one particle of a")
    print_fn("shared GHZ triple and will measure whatever they are asked.")
    print_fn("win condition: answer product -1 for pattern XXX, +1 otherwise.")
    with contextlib.suppress(EOFError):
        game.run_experiment(team, sys.maxsize, master_seed, record_sink=show)
    for line in stats.summary_lines():
        print_fn(line)
    return stats


def cmd_play(args) -> Document:
    if not sys.stdin.isatty():
        raise CliError("play mode needs an interactive terminal; stdin is not a tty")
    play_session(args.seed, input_fn=input, print_fn=print)
    return None


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
    if getattr(args, "out", None) == "":  # realpath('') is the working directory
        raise CliError("--out needs a file path, got an empty one")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _validate_common(args)
        document = args.func(args)
        if document is not None:
            with _output(args.out) as fh:
                if isinstance(document, str):
                    fh.write(document)
                else:
                    document(fh)
        return 0
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
