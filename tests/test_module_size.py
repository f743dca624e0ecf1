"""Every crossloc module stays under the parser's 8192-token step.

CPython's parser grows its token array by doubling, at 4096 and 8192
tokens.  Every process that compiles ``crossloc`` from source (as under
``PYTHONDONTWRITEBYTECODE=1``) peaks with its largest module, so a module
past 8192 tokens raises every command's memory peak: compiling
``gradcheck.py`` peaked at 2.72 MB at 8047 tokens and at 3.32 MB at 8472
(``tracemalloc``).
"""

import io
import pathlib
import tokenize

import pytest

import crossloc

TOKEN_STEP = 8192
SOURCES = sorted(pathlib.Path(crossloc.__file__).parent.glob("*.py"))


def parser_tokens(source: str) -> int:
    """The tokens the parser keeps: every ``tokenize`` token but comments
    and non-logical newlines."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return sum(tok.type not in (tokenize.COMMENT, tokenize.NL) for tok in tokens)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_module_stays_under_the_parsers_token_step(path):
    assert parser_tokens(path.read_text()) < TOKEN_STEP

