"""Every pinned command-line run gives the exit code, stdout, stderr and file it gave when pinned.

The commands and their digests are listed in ``command_matrix.py`` and
``command_matrix.tsv``: every subcommand in every format at three seeds,
``classical-table`` teams, ``--out`` files, seeded runs off that grid
(``OFF_GRID``), and rejected flags, signs and paths.  This is the one
table of pinned outputs; any byte that moves in any of them fails here.
Where a pin holds stdout, the same run with ``--out`` must write those
bytes to its file, which is checked once for every format of every
subcommand.
"""

import argparse

import pytest

import command_matrix
from ghzlab import cli

TABLE = command_matrix.load_table()


def test_table_lists_exactly_the_commands():
    assert list(TABLE) == [command_matrix.key(argv) for argv in command_matrix.COMMANDS]


def test_every_format_of_every_subcommand_is_pinned():
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    wanted = set()
    for name, sub in subparsers.choices.items():
        if name != "play":
            fmt = sub._option_string_actions.get("--format")
            wanted.update((name, f) for f in (fmt.choices if fmt else (None,)))
    pinned = set()
    for argv in command_matrix.COMMANDS:
        if argv not in command_matrix.ERRORS:
            args = parser.parse_args(argv)  # an argv without --format counts as the default
            pinned.add((args.command, getattr(args, "format", None)))
    assert len(wanted) >= 14  # the 14 pairs of subcommand and format the parser offers today
    assert wanted - pinned == set()


def _first_argv_of_each_format():
    """The first seeded argv on the grid for each pair of subcommand and format, keyed by the pair."""
    parser = cli.build_parser()
    firsts = {}
    for argv in command_matrix._seeded():
        args = parser.parse_args(argv)
        firsts.setdefault(f"{args.command}-{args.format}", argv)
    return firsts


FIRSTS = _first_argv_of_each_format()


@pytest.fixture(scope="module")
def scratch():
    with command_matrix.scratch_directory():
        yield


@pytest.mark.parametrize("argv", command_matrix.COMMANDS, ids=command_matrix.key)
def test_command_output_is_pinned(scratch, argv):
    code, out, err, written = command_matrix.run(argv)
    assert command_matrix.digest(code, out, err, written) == TABLE[command_matrix.key(argv)], (
        code, out[:400], err, written and written[:400],
    )


# Many pins hold stdout where an older pin held the --out file; this keeps
# the two the same bytes, in every format of every subcommand.
@pytest.mark.parametrize("argv", FIRSTS.values(), ids=FIRSTS.keys())
def test_out_file_holds_the_bytes_stdout_prints(scratch, argv):
    code, out, err, _ = command_matrix.run(argv)
    assert (code, err) == (0, "")
    assert command_matrix.run((*argv, "--out", command_matrix.OUT)) == (0, "", "", out.encode())
