"""The dsie benchmark: workloads, tracing and the harness behind ``run.py``."""
