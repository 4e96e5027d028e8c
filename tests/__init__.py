"""Tier-1 tests: a package, so that ``tests.oracle`` and the benchmark's own
``oracle`` module (``bench/oracle.py``) can be imported by one pytest run."""
