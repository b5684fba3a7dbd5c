"""Measured end-to-end and per-layer benchmark on the real-time path.

One harness drives the production objects (``AsyncNameService``,
``ReplicaServer``, ``PragmaticClient``, 1024-bit keys) from a single
process on one event loop.  See ``README.md`` in this directory for the
workloads, the metric glossary and the commands.
"""
