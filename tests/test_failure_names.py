"""Every failure name that morphism_failure returns has a message in each
table that reads it, so no caller meets a name it does not know."""

import ast
import inspect
import textwrap

from hopfcheck.constructions import _ACTION_FAILURE
from hopfcheck.hopf import morphism_failure
from hopfcheck.subgroup import _IDEAL_CONDITION


def returned_strings(func):
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    return {
        node.value.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Return)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    }


def test_every_morphism_failure_has_a_message():
    names = returned_strings(morphism_failure)
    assert names == {"unit", "product", "star", "coproduct", "counit", "antipode"}
    assert names <= set(_ACTION_FAILURE)
    # a projection maps the unit to the unit of the structure it induces,
    # so a quotient has no ideal condition named "unit"
    assert names - {"unit"} <= set(_IDEAL_CONDITION)
