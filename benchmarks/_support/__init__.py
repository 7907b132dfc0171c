"""What the paper-figure modules share: datasets, workload Q1–Q13, harness.

Each ``benchmarks/test_*.py`` module stays a thin driver over these;
tables render through :func:`repro.cli.format_table`.
"""
