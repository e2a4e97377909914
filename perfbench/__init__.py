"""Goal-stream benchmark for the Transaction Datalog engines.

Each workload runs a seeded stream of TD goals through the public API
(``parse_*``, ``select_engine``, ``Engine.solve``/``simulate``,
``WorkflowSimulator``, ``SqliteStore``) in a closed loop with one
client, checks every answer against an oracle written here, and reports
end-to-end metrics; a traced run reports per-layer metrics.  See
``perfbench/README.md`` and ``python3 perfbench/run.py --help``.
"""
