"""Every command-line run whose output the test suite pins, and its digest.

This is the suite's one table of pinned outputs.  ``COMMANDS`` is, in
order: every subcommand in every format at three seeds, ``classical-table``
teams, ``OUT_FILES``, the seeded runs off that grid in ``OFF_GRID`` (other
trial counts, seeds and η, written with ``--out``), and the rejected
flags, signs and paths in ``ERRORS``.

Each entry of ``COMMANDS`` is an argv that ``cli.main`` runs in process.
Its digest is the sha256 of the exit code, stdout, stderr and, for a run
with ``--out``, the bytes of the file it wrote.  ``test_command_matrix.py``
checks every digest against ``command_matrix.tsv``; the test never writes
that table.

Run ``python tests/command_matrix.py`` from the repository root to print
``argv<TAB>digest`` lines in the table's format, so that two checkouts
can be compared with ``diff``.

Runs take place in a scratch working directory, so a relative ``--out``
path names the same file, and the same error text, on every run; stdin is
never a terminal, which is the path ``play`` takes without one.
argparse writes some of the error texts, so these digests are those of
the Python version the table was taken with (3.11).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

TABLE = Path(__file__).with_name("command_matrix.tsv")
OUT = "report.out"  # the --out target, relative to the scratch directory
SEEDS = ("0", "7", "12345")
TRIPLES = (("1", "1", "-1"), ("1", "-1", "1"), ("-1", "1", "1"), ("-1", "-1", "-1"), ("1", "1", "1"))
TEAMS = (
    ("--strategy", "quantum"),
    ("--strategy", "classical-best"),
    ("--strategy", "random"),
    ("--strategy", "lhv"),
    ("--strategy", "quantum", "--eta", "0.8"),
    ("--strategy", "quantum", "--eta", "0.9"),
)
ANSWER_TABLES = (("1", "1", "1", "1", "-1", "1"), ("-1", "+1", "1", "-1", "-1", "-1"))


def _seeded() -> list[tuple[str, ...]]:
    argvs = []
    for seed in SEEDS:
        for trials in ("1", "256", "1024", "10000"):
            for fmt in ("text", "json", "jsonl", "csv"):
                argvs.append(("teleport", "--trials", trials, "--seed", seed, "--format", fmt))
        for team in TEAMS:
            for fmt in ("text", "json", "jsonl"):
                argvs.append(("game", *team, "--trials", "2000", "--seed", seed, "--format", fmt))
        for fmt in ("csv", "text", "json"):
            argvs.append(("sweep", "--trials", "200", "--seed", seed, "--format", fmt))
    for fmt in ("text", "json"):
        for triple in TRIPLES:
            argvs.append(("elements", *triple, "--format", fmt))
            argvs.append(("prove", "stapp", *triple, "--format", fmt))
        argvs.append(("prove", "classical", "--format", fmt))
    return argvs


def _tables() -> list[tuple[str, ...]]:
    return [
        ("game", "--strategy", "classical-table", "--table", *table, "--trials", "500",
         "--seed", "7", "--format", fmt)
        for table in ANSWER_TABLES
        for fmt in ("text", "json", "jsonl")
    ]


OUT_FILES = [
    ("game", "--trials", "300", "--seed", "7", "--format", "json", "--out", OUT),
    ("game", "--strategy", "lhv", "--trials", "300", "--seed", "7", "--format", "jsonl", "--out", OUT),
    ("sweep", "--grid", "0.5", "1", "--trials", "100", "--seed", "7", "--format", "text", "--out", OUT),
    ("teleport", "--trials", "256", "--seed", "7", "--format", "csv", "--out", OUT),
    ("teleport", "--trials", "256", "--seed", "7", "--format", "jsonl", "--out", OUT),
    ("elements", "1", "-1", "1", "--format", "json", "--out", OUT),
    ("prove", "classical", "--out", OUT),
    ("prove", "stapp", "-1", "-1", "-1", "--format", "json", "--out", OUT),
]

# Seeded runs off the grid above, each written to a file: other trial
# counts, seeds and η (0.7937 sits at the efficiency threshold), a
# classical-table jsonl, the 2389-branch teleport tree at 4096 trials, and
# 5000 teleport trials, which take 1019 of its 1024 branch paths.
OFF_GRID = [
    ("game", "--strategy", "quantum", "--eta", "0.9", "--trials", "300", "--seed", "7",
     "--format", "jsonl", "--out", OUT),
    ("game", "--strategy", "lhv", "--trials", "1000", "--seed", "7", "--format", "json", "--out", OUT),
    ("game", "--strategy", "classical-table", "--table", "1", "-1", "1", "1", "-1", "1",
     "--trials", "300", "--seed", "7", "--format", "jsonl", "--out", OUT),
    ("game", "--strategy", "classical-best", "--trials", "300", "--seed", "7", "--format", "json",
     "--out", OUT),
    ("game", "--strategy", "quantum", "--eta", "0.9", "--trials", "300", "--seed", "7",
     "--format", "json", "--out", OUT),
    ("game", "--strategy", "quantum", "--eta", "0.7937", "--trials", "300", "--seed", "7",
     "--out", OUT),
    ("game", "--strategy", "random", "--trials", "300", "--seed", "7", "--out", OUT),
    ("teleport", "--trials", "128", "--seed", "7", "--format", "json", "--out", OUT),
    ("teleport", "--trials", "128", "--seed", "7", "--format", "jsonl", "--out", OUT),
    ("teleport", "--trials", "128", "--seed", "7", "--format", "csv", "--out", OUT),
    ("teleport", "--trials", "4096", "--seed", "11", "--format", "json", "--out", OUT),
    ("teleport", "--trials", "1024", "--seed", "3", "--format", "jsonl", "--out", OUT),
    ("teleport", "--trials", "128", "--seed", "12345", "--out", OUT),
    ("teleport", "--trials", "5000", "--seed", "12345", "--format", "json", "--out", OUT),
    ("elements", "1", "1", "-1", "--out", OUT),
    ("game", "--strategy", "lhv", "--trials", "300", "--seed", "7", "--format", "text", "--out", OUT),
    ("game", "--strategy", "quantum", "--eta", "0.8", "--trials", "5000", "--seed", "12345",
     "--format", "jsonl", "--out", OUT),
]

ERRORS = [
    (),
    ("nonsense",),
    ("game", "--trials", "0"),
    ("game", "--trials", "-1"),
    ("game", "--trials", "x"),
    ("game", "--seed", "-1"),
    ("game", "--eta", "2"),
    ("game", "--eta", "-0.1"),
    ("game", "--eta", "nan"),
    ("game", "--strategy", "nope"),
    ("game", "--format", "csv"),
    ("game", "--bogus"),
    ("game", "--strategy", "quantum", "--table", "1", "1", "1", "1", "1", "1", "--trials", "5"),
    ("game", "--strategy", "classical-table", "--trials", "5"),
    ("game", "--strategy", "classical-table", "--table", "1", "1", "1", "1", "1", "2"),
    ("game", "--strategy", "classical-table", "--table", "1", "1", "1", "1", "1", "+2"),
    ("game", "--strategy", "classical-table", "--table", "1", "1", "1"),
    ("game", "--strategy", "random", "--eta", "0.5", "--trials", "5"),
    ("game", "--strategy", "classical-best", "--eta", "0.5", "--trials", "5"),
    ("game", "--strategy", "lhv", "--eta", "0.9", "--trials", "5"),
    ("game", "--trials", "10", "--out", "missing/report.json"),
    ("game", "--trials", "10", "--out", "."),
    ("sweep", "--grid", "1.5"),
    ("sweep", "--grid", "-0.1", "--trials", "5"),
    ("sweep", "--trials", "2", "--grid", "x"),
    ("sweep", "--trials", "0"),
    ("sweep", "--format", "jsonl"),
    ("teleport", "--trials", "0"),
    ("teleport", "--seed", "-3"),
    ("teleport", "--format", "xml"),
    ("teleport", "--trials", "5", "--out", "missing/report.csv"),
    ("prove",),
    ("prove", "nonsense"),
    ("prove", "classical", "1"),
    ("prove", "stapp"),
    ("prove", "stapp", "1", "1"),
    ("prove", "stapp", "1", "1", "2"),
    ("prove", "stapp", "1", "-1", "x"),
    ("elements", "1", "1"),
    ("elements", "1", "1", "0"),
    ("elements", "+1", "+1", "x"),
    ("elements", "1", "1", "1", "1"),
    ("elements", "1", "1", "-1", "--out", "missing/report.json"),
    ("play",),
    ("play", "--seed", "3"),
    ("play", "--seed", "-1"),
]

COMMANDS = _seeded() + _tables() + OUT_FILES + OFF_GRID + ERRORS


def run(argv: tuple[str, ...]) -> tuple[int, str, str, bytes | None]:
    """Run ``argv`` through ``cli.main`` in the current directory: (code, stdout, stderr, file)."""
    from ghzlab.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        stdin, sys.stdin = sys.stdin, io.StringIO()
        try:
            code = main(list(argv))
        finally:
            sys.stdin = stdin
    written = None
    if OUT in argv:
        with contextlib.suppress(FileNotFoundError):
            written = Path(OUT).read_bytes()
            os.remove(OUT)
    return code, out.getvalue(), err.getvalue(), written


def digest(code: int, out: str, err: str, written: bytes | None) -> str:
    h = hashlib.sha256()
    for part in (str(code).encode(), out.encode(), err.encode(), written):
        if part is None:
            h.update(b"-")
        else:
            h.update(b"%d:" % len(part))
            h.update(part)
    return h.hexdigest()


@contextlib.contextmanager
def scratch_directory():
    """Run in a fresh, empty working directory, and go back after."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)


def key(argv: tuple[str, ...]) -> str:
    """The table's first column: the argv as a shell would type it."""
    return shlex.join(argv)


def load_table() -> dict[str, str]:
    lines = TABLE.read_text().splitlines()
    return dict(line.split("\t") for line in lines)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    with scratch_directory():
        for argv in COMMANDS:
            print(f"{key(argv)}\t{digest(*run(argv))}")
