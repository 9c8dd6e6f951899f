"""Installs the benchmark's span wrappers in every Python process Ray starts
for a traced session (this directory is on their PYTHONPATH only then)."""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    from perfbench.spans import install_worker

    install_worker()
