"""DeepMapping benchmark: workloads, reference checks and layer tracing."""
