import importlib.util
import os
from unittest import mock

import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # ab_stages pins the BLAS thread variables
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def compare_artifacts():
    return load_script("compare_artifacts")


@pytest.fixture(scope="module")
def ab_stages():
    return load_script("ab_stages")


def test_code_lines_leave_out_blanks_comments_and_docstrings(compare_artifacts):
    source = b'''"""Module
docstring."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        # another comment
        x = """a string that is
not a docstring"""
        return x
'''
    # import, class, def, the two lines of x's string and return
    assert compare_artifacts.code_lines(source) == 6


def test_describe_names_differing_leaf_keys(compare_artifacts):
    parent = b'{"id":"q","m":{"map":0.1,"ndcg@1":0.2},"ids":[1,2]}\n{"id":"r"}\n'
    change = b'{"id":"q","m":{"map":0.1,"ndcg@1":0.3},"ids":[1,3]}\n{"id":"r","x":1}\n'
    assert compare_artifacts.describe(parent, change) == ["line 1: ids, ndcg@1", "line 2: x"]
    assert compare_artifacts.describe(b"a\nb\nc\n", b"a\nB\nc\nd\n") == ["lines 2, 4"]


def test_ab_summary_quartiles_ratio_and_wins(ab_stages):
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 2.5, 5.0, 4.0]  # faster in rounds 1, 3 and 5; round 2 ties
    s = ab_stages.summary(parent, change)
    assert s["parent"] == (2.0, 3.0, 4.0)
    assert s["change"] == (2.0, 2.5, 4.0)
    assert s["ratio"] == 2.5 / 3.0
    assert s["wins"] == 3
