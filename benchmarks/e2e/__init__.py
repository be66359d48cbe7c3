"""The repo benchmark: five named workloads over the sim and real TCP.

See ``README.md`` in this directory; ``BENCHMARK.json`` at the repo root
is the contract the numbers are judged by.
"""
