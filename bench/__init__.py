"""GRAM operation ledger: a wall-clock benchmark of the authorization stack.

Run ``python -m bench.run --help`` from the repository root; see
``bench/README.md`` for the workloads and the metrics.
"""
