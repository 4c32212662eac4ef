import math
import pathlib

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# expression in the quick-start block -> the value its comment states
QUICK_START_VALUES = {
    "lb.p_variation(f, 2.0)": math.sqrt(2.0),
    "lb.lambda_variation(f, lam)": 1.5,
    "lb.modulus_p_continuity(f, 2.0, [0.5, 0.25], 1)": [math.sqrt(2.0), 1.0],
    "lb.lp_modulus(f, 1.0, [0.1])": [0.18],
    "rep.symbolic_verdict": "converges",
}


def quick_start_block() -> str:
    section = README.read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_runs_and_its_comments_hold():
    block = quick_start_block()
    namespace = {}
    exec(compile(block, "README quick start", "exec"), namespace)
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    for expression, want in QUICK_START_VALUES.items():
        assert expression in lines, expression
        got = eval(expression, namespace)
        if isinstance(want, str):
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-12), expression
