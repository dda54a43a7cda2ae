"""Benchmark for latticecft; run `python3 perfbench/run.py --help`."""
