"""Arbitrary text through the three readers and through `cosov`.

The readers may raise ParseError and nothing else.  As a matrix file for
`iso` or a presentation file for `check file`, the same text makes `cosov`
exit 0, 1 or 2, with an `error:` line on exit 2, and never a traceback.
"""

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, seed, settings, strategies as st

from cosovereign import (ParseError, parse_matrix, parse_presentation,
                         parse_scalar)
from cosovereign.cli import main

# any text, and text over the characters the readers act on, optionally
# after a valid matrix header or presentation head so the deeper readers run
_READER_CHARS = "0123456789 \n\t#+-*/^().,:>abeqruvx"
_HEADS = ("", "1 1\n", "2 2\n", "generators:\na\nb\nrules:\n")
texts = st.one_of(
    st.text(max_size=80),
    st.builds(str.__add__, st.sampled_from(_HEADS),
              st.text(alphabet=_READER_CHARS, max_size=80)))

_FUZZ = dict(max_examples=300, deadline=None, database=None)


@seed(2002)
@settings(**_FUZZ)
@given(texts)
@pytest.mark.parametrize("reader", [parse_scalar, parse_matrix,
                                    parse_presentation])
def test_readers_raise_only_parse_errors(reader, text):
    try:
        reader(text)
    except ParseError:
        pass


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@seed(2002)
@settings(**_FUZZ)
@given(texts)
def test_cli_on_arbitrary_files_exits_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.txt")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        for argv in (["iso", "--E", path, "--F", path],
                     ["check", "file", "--file", path]):
            code, err = _run(argv)
            assert code in (0, 1, 2)
            if code == 2:
                assert err.startswith("error: ")
            assert "Traceback" not in err
