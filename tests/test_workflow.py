"""The CI workflow's test selections name tests that exist."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def test_every_k_term_names_a_test_in_its_files():
    # pytest -k selects the tests whose names contain a term, and a term
    # that matches none selects nothing without an error: a renamed test
    # would silently drop out of the job that lists it
    checked = 0
    for step in WORKFLOW.read_text(encoding="utf-8").split("- name:"):
        for expr in re.findall(r'-k "([^"]*)"', step):
            names = set()
            for path in re.findall(r"tests/\w+\.py", step):
                names |= set(re.findall(r"^\s*(?:def|class) (\w+)",
                                        (ROOT / path).read_text(encoding="utf-8"), re.M))
            for term in " ".join(expr.split()).split(" or "):
                assert any(term in name for name in names), (
                    f"-k term {term!r} names no test in its files")
                checked += 1
    assert checked
