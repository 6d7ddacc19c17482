"""Setup shim for environments without the `wheel` package (offline).

All metadata lives in pyproject.toml.
"""

from setuptools import setup

setup()
