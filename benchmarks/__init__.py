"""Benchmark suite: one module per reproduced experiment (see ``repro.experiments.registry``)."""
