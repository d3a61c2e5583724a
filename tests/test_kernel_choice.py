"""The stack-or-torus choice is made once, in ``layout.orbit_point``.

The flow and the solver name no torus kernel, no ``torus_plan``, and neither
the trial-stack kernel nor the eigensolve it reads; within the package only
``orbit_point`` tests ``torus_plan``.  So a change to the step is written once
for both kernels.
"""

import ast
from pathlib import Path

import pytest

from quivermoment import layout

PACKAGE = Path(layout.__file__).parent
KERNEL_NAMES = frozenset(
    {"torus_plan", "trial_stacks", "eigh_i_stacks"} | {name for name in dir(layout) if name.startswith("torus_")}
)


def _tree(module):
    return ast.parse((PACKAGE / module).read_text())


def _names(tree):
    """Every identifier a module names: variables, attributes, imported names
    and definitions."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update({node.name, node.asname} - {None})
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


@pytest.mark.parametrize("module", ["flow.py", "kempf_ness.py"])
def test_loops_leave_the_kernel_choice_to_the_layout(module):
    assert "torus_act" in KERNEL_NAMES
    assert not _names(_tree(module)) & KERNEL_NAMES


def test_only_orbit_point_tests_torus_plan():
    testers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for function in ast.walk(_tree(path.name)):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Compare) and "torus_plan" in _names(node):
                    testers.add((path.name, function.name))
    assert testers == {("layout.py", "orbit_point")}
