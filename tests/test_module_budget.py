"""No module of the package is too large to compile cheaply.

Without a bytecode cache every import compiles each module from source, and
CPython 3.11 holds about 0.40-0.46 KB of tokenizer, parser and AST memory per
significant token while it compiles one, on top of the modules already
loaded.  The largest compiles therefore set the import's memory high-water
mark: 2,800 tokens is about 1.1-1.2 MB.  A
module that outgrows the budget is split along a seam it already has, as
``dual`` was split from ``diagram`` and ``hull`` from ``charges``.
"""

import glob
import io
import os
import tokenize

import pytest

BUDGET = 2800  # significant tokens per module, about 0.42 KB of compile peak each
SRC = os.path.join(os.path.dirname(__file__), "..", "src", "tropmirror")
LAYOUT = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
MODULES = sorted(glob.glob(os.path.join(SRC, "*.py")))


def significant_tokens(source: str) -> int:
    """Tokens other than comments, line breaks and indentation."""
    return sum(1 for tok in tokenize.generate_tokens(io.StringIO(source).readline) if tok.type not in LAYOUT)


def test_the_glob_finds_the_package():
    assert os.path.join(SRC, "__init__.py") in MODULES


def test_layout_tokens_are_not_counted():
    assert significant_tokens("x = 1\n") == significant_tokens("# note\n\nx = 1  # one\n")
    assert significant_tokens("if x:\n    y = 2\n") == 7  # if x : y = 2 and the end marker


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_module_is_within_the_token_budget(path):
    with open(path, encoding="utf-8") as fh:
        count = significant_tokens(fh.read())
    assert count <= BUDGET, f"{os.path.basename(path)} has {count} significant tokens, over the budget of {BUDGET}"
