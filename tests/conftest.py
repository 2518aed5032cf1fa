"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def int_str_limit():
    """Python's default limit on the digits of an int converted to text."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python converts ints of any size to text")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)
