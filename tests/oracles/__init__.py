"""Scalar reference implementations of the production batch stages.

``src/`` has one implementation per pipeline stage, and it works on
stacked batches (a single query is a batch of one).  The plain
one-object-at-a-time versions here are the references those stages are
held to bit for bit, by the tests and by the benchmarks' ``bit_exact`` /
``bit_identical`` flags.  Nothing in ``src/`` imports this package.
"""
