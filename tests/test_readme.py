"""README's examples run as written and print what their comments say."""

import ast
import shlex
from pathlib import Path

from qchar.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(heading, lang=""):
    """The first fenced block after ``heading``."""
    text = README.read_text(encoding="utf-8")
    rest = text[text.index(f"\n{heading}\n"):]
    fence = f"```{lang}\n"
    start = rest.index(fence) + len(fence)
    return rest[start:rest.index("```", start)]


def test_readme_commands_print_their_comments(capsys):
    # each "# ->" comment lists output lines, separated by ", "
    examples = [line.split("# ->") for line in _block("## Command line").splitlines()
                if "# ->" in line]
    assert len(examples) == 5
    for command, expected in examples:
        argv = shlex.split(command)
        assert argv[0] == "qchar"
        code = main(argv[1:])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0, command
        for part in expected.strip().split(", "):
            assert part in lines, (command, part)


def test_readme_library_example_values():
    # a commented expression must equal the literal that opens its comment
    source = _block("## Library example", "python")
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        if isinstance(stmt, ast.Expr) and comment:
            want = ast.literal_eval(comment.split("  ")[0])
            assert eval(code, namespace) == want, code
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 4
