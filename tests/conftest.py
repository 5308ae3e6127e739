from pathlib import Path

import pytest

from memotrs import parse_grsr, parse_program

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


@pytest.fixture(scope="session")
def programs():
    return {p.stem: parse_program(p.read_text()) for p in sorted(PROGRAMS.glob("*.trs"))}


@pytest.fixture(scope="session")
def functions():
    return {p.stem: parse_grsr(p.read_text()) for p in sorted(PROGRAMS.glob("*.grsr"))}
