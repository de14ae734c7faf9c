"""Benchmark for coxsaito; run it with `python3 perfbench/run.py --help`."""
