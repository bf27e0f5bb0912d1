"""Guards on the package source itself."""

from __future__ import annotations

import pathlib
import re

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "levelcert"

# Random input generation lives in sampling.py; every other module answers
# exactly, so a random number generator anywhere else is a seeded search
# creeping back in.
_RANDOMNESS = re.compile(r"np\.random|default_rng|import random")


def test_randomness_only_in_sampling():
    offenders = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "sampling.py"
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if _RANDOMNESS.search(line)
    ]
    assert offenders == []
