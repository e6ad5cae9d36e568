"""Random and malformed word text through the command line: every run ends
with exit code 0, 1 or 2 and never with a traceback."""

import contextlib
import io
from unittest import mock

from hypothesis import given, settings, strategies as st

from tangleweb.cli import main

from conftest import random_word, seeded

TOKENS = ["", "tangle", "0", "2", "-1", "99", "->", "/", "\n", ",", "#", " ",
          "id", "m", "cap", "cup", "x", "tangle 2 -> 2"]

# well-formed word text, at most four slices and four strands wide
words = st.integers(0, 2 ** 32).map(
    lambda seed: random_word(seeded(seed), max_slices=4, max_strands=4,
                             p_cross=0.2).format())


def splice(text, at, token):
    at %= len(text) + 1
    return text[:at] + token + text[at + 1:]


word_text = st.one_of(
    words,
    st.builds(splice, words, st.integers(0, 99), st.sampled_from(TOKENS)),
    st.text(max_size=30),
)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(text=word_text, cmd=st.sampled_from(["normalize", "eval"]),
       case=st.sampled_from(["dim3", "kap"]))
def test_cli_survives_any_word_text(text, cmd, case):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--json", cmd, "--case", case, "-"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
