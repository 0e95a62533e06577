"""Scalar reference implementations of the production batch stages.

``src/`` has one implementation per pipeline stage, and it works on
stacked batches (a single query is a batch of one).  The plain
one-object-at-a-time versions here are the references those stages are
held to bit for bit, by the tests and by the benchmarks' ``bit_exact`` /
``bit_identical`` flags.  The general tableau simplex
(:mod:`.simplex`, :mod:`.linprog`) is here too: ``src/`` no longer needs
a general LP solver, and it is the independent reference the two-row
dual of Eq. 19 is fuzzed against.  Nothing in ``src/`` imports this
package.
"""
