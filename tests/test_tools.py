import runpy
import textwrap
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_code_lines_skips_comments_docstrings_and_blank_lines(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(textwrap.dedent('''\
        """Module docstring,
        over two lines."""

        # a comment
        import math  # a trailing comment


        class C:
            """Class docstring."""

            def f(self, x):
                """Function docstring."""
                s = """a string that is not a docstring,
                over two lines"""
                return (x +
                        math.pi)
        '''))
    code_lines = runpy.run_path(str(TOOLS / "code_lines.py"))["code_lines"]
    # import, class, def, the two lines of s, the two lines of the return
    assert code_lines(module) == 7
