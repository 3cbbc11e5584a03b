"""Unit tests of the benchmark package (run: python -m pytest bench/tests -q)."""
