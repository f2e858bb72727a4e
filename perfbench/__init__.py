"""Time-to-verdict ledger: the repository's end-to-end benchmark.

Run ``python3 perfbench/run.py --help``; ``perfbench/README.md`` says
why each workload exists and what each layer metric should move.
"""
