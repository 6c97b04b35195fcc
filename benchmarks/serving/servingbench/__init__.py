"""Serving benchmark v1: closed-loop, pass-median measurement of the real
``ServingFrontend`` from outside.  See ``benchmarks/serving/README.md``."""
