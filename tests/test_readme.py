"""The README's Python session runs as written and shows what it says."""

import importlib
import math
import re
from fractions import Fraction
from pathlib import Path

from expsamp import OperatorConfig, apply

README = Path(__file__).resolve().parents[1] / "README.md"


def _run_session() -> tuple[dict, list]:
    """Execute the ``>>>`` lines of the README's python block in order.
    Returns the namespace and the values of the expression lines."""
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace: dict = {}
    values = []
    for line in block.splitlines():
        assert line.startswith(">>> "), line
        source = line[4:]
        try:
            code = compile(source, "README.md", "eval")
        except SyntaxError:
            exec(compile(source, "README.md", "exec"), namespace)
        else:
            values.append(eval(code, namespace))
    return namespace, values


def test_python_session():
    ns, (single, combo) = _run_session()
    assert ns["scheme"].coeffs == (Fraction(-1), Fraction(2))
    f, kernel = ns["f"], ns["kernel"]
    assert single == apply(f, kernel, OperatorConfig(w=30.0), 2.6)
    i_60 = apply(f, kernel, OperatorConfig(w=60.0), 2.6)
    assert combo == math.fsum([-single, 2 * i_60])


def test_limits_table_names_live_constants():
    """Each row of the README's limits table names a constant, ``module.NAME``,
    that its ``expsamp`` module still defines: a retired limit cannot keep
    its row."""
    table = re.search(r"\| limit \| value \| message \|\n\| -+ \| -+ \| -+ \|\n((?:\|.*\n)+)",
                      README.read_text()).group(1)
    names = [re.match(r"\| `(\w+)\.(\w+)` \|", row).groups() for row in table.splitlines()]
    assert len(names) >= 6
    for module, name in names:
        assert hasattr(importlib.import_module(f"expsamp.{module}"), name), f"{module}.{name}"
