"""Setuptools shim.

Kept alongside pyproject.toml for offline machines without the
``wheel`` package: there ``pip install -e .`` fails (``invalid command
'bdist_wheel'``, with or without this file, and ``--no-use-pep517``
refuses to run without ``wheel``), while ``python setup.py develop``
works and needs this file.  All metadata lives in pyproject.toml.
"""

from setuptools import setup

setup()
