"""Benchmark for ccspnet: workloads, span tracer and runner (see README.md)."""
