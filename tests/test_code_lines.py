import importlib.util
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "code_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_alone():
    # the import, the class and def lines, the two lines of the string and the return
    source = '''"""Module docstring,
over two lines."""

import os  # a comment
# a comment line


class A:
    """Class docstring."""


def f(x):
    """Docstring."""
    text = """a string
    over two lines"""
    return x
'''
    assert load_tool().code_lines(source) == 6
