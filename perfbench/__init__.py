"""Benchmark of spikeflow: four workloads, end-to-end and per-layer metrics."""
