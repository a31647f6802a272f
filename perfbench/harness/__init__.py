"""Benchmark harness for the grossone package.

The harness imports the program only through ``program.load`` so that set-up
(including the import) can be repeated and timed.  ``checks`` holds answer
checkers that share no code with the program; ``tracing`` wraps the
program's public functions from outside to measure each layer.
"""
