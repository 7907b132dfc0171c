import pathlib

from setuptools import find_packages, setup

README = pathlib.Path(__file__).parent / "README.md"

setup(
    name="queryer-repro",
    version="1.1.0",
    description=(
        "QueryER reproduction: analysis-aware deduplication over dirty data "
        "with SELECT DEDUP queries and incremental INSERT INTO ingestion"
    ),
    long_description=README.read_text(encoding="utf-8") if README.exists() else "",
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
    extras_require={"test": ["pytest", "hypothesis", "pytest-benchmark"]},
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Database",
        "Topic :: Scientific/Engineering :: Information Analysis",
    ],
)
