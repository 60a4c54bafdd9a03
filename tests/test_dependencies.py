"""The installed dependencies meet the floors pyproject.toml declares."""

import re
from pathlib import Path

import numpy as np

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _release(version: str) -> tuple[int, ...]:
    return tuple(int(part) for part in re.match(r"\d+(\.\d+)*", version).group().split("."))


def test_installed_numpy_meets_the_declared_floor():
    floor = re.search(r'"numpy>=([\d.]+)"', PYPROJECT.read_text(encoding="utf-8")).group(1)
    # generate_world's row norms call np.vecdot, which numpy 2.0 added
    assert _release(floor) >= (2, 0), f"declared numpy floor {floor} lacks np.vecdot"
    assert _release(np.__version__) >= _release(floor), (
        f"numpy {np.__version__} is below the declared floor {floor}")
