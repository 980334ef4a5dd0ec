"""``code_lines`` on a synthetic module whose code lines are marked."""

from __future__ import annotations

import textwrap

from code_lines import code_lines

SOURCE = textwrap.dedent('''\
    """Module docstring,
    over two lines."""

    import math  # code with a trailing comment

    # a comment line


    class Thing:
        """Class docstring."""

        def method(self):
            """Method docstring,

            with a blank line inside."""
            return math.pi

    async def waiter():
        \'\'\'Async docstring.\'\'\'
        TEXT = """a string that is not
    a docstring"""
        return TEXT

    def bare():
        return (1 +
                2)
    ''')

#: import, class, def method, return, async def, TEXT's two lines, return,
#: def bare, and the two lines of its return
EXPECTED = 11


def test_counts_code_and_leaves_out_docstrings_comments_and_blank_lines():
    assert code_lines(SOURCE) == EXPECTED


def test_an_empty_module_has_no_code_lines():
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n# and a comment\n') == 0
