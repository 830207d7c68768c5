"""Exact symbolic engine for quaternionic noncommutative spheres."""

__version__ = "0.1.0"
