"""SeGShare benchmark: end-to-end metrics on two clocks and a per-layer ledger.

Entry point: ``python3 segbench/run.py``; see :mod:`segbench.run`.
"""
