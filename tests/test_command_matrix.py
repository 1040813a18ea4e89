"""Every pinned command-line run gives the exit code, stdout, stderr and file it gave when pinned.

The commands and their digests are listed in ``command_matrix.py`` and
``command_matrix.tsv``: every subcommand in every format at three seeds,
``classical-table`` teams, ``--out`` files, and rejected flags, signs and
paths.  Any byte that moves in any of them fails here.
"""

import pytest

import command_matrix

TABLE = command_matrix.load_table()


def test_table_lists_exactly_the_commands():
    assert list(TABLE) == [command_matrix.key(argv) for argv in command_matrix.COMMANDS]


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
