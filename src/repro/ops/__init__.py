"""Planned day-2 operations against a live chain (maintenance director).

Where :mod:`repro.chaos` asks "does the chain survive what we did *to*
it?", this package asks "does the chain survive what we do *with* it":
rolling NF upgrades, store-node replacement, topology edits and config
hot-reloads, each executed under traffic with drain/quiesce gates between
steps and abort-with-rollback on timeout — all while the chaos invariant
battery (plus the operations-specific convergence and no-downtime
checkers) must hold.
"""
