"""Print the size of the package source: total lines, code-only lines and
the number of public names.

    PYTHONPATH=src python tests/src_size.py

Total lines are the lines of every ``src/segembed/*.py`` file. Code-only
lines are counted with ``tokenize``: a line counts when a token other than a
comment starts on it or runs through it, and a statement that is only a
string (a docstring) counts for none of its lines, nor do blank lines. The
public names are ``segembed.__all__``. pytest does not collect this file.
"""

import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import segembed  # noqa: E402

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """Lines of ``text`` that hold code, by the rule in the module docstring."""
    lines, statement = set(), []
    for token in tokenize.tokenize(io.BytesIO(text.encode("utf-8")).readline):
        if token.type in _LAYOUT:
            if token.type == tokenize.NEWLINE:
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            continue
        statement.append(token)
    return len(lines)


def main() -> None:
    files = sorted((SRC / "segembed").glob("*.py"))
    texts = [path.read_text(encoding="utf-8") for path in files]
    print(f"src lines: {sum(len(text.splitlines()) for text in texts)}")
    print(f"code-only lines: {sum(code_lines(text) for text in texts)}")
    print(f"segembed.__all__: {len(segembed.__all__)}")


if __name__ == "__main__":
    main()
