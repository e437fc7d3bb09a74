"""Outside-in benchmark of the qkcolor pipeline; see perfbench/README.md."""
