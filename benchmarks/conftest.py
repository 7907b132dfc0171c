"""Shared benchmark fixtures.

Every benchmark module regenerates one table or figure of the paper's
§9.  Datasets are built once per session through the shared registry;
each module prints the rows/series the paper reports and writes them to
``benchmarks/results/``.
"""

from __future__ import annotations

import pathlib

import pytest

from _support.datasets import DatasetRegistry

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def registry() -> DatasetRegistry:
    return DatasetRegistry()


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def report(results_dir):
    """``report(name, text)``: print a result table and persist it."""

    def write(name: str, text: str) -> None:
        print()
        print(text)
        (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")

    return write
