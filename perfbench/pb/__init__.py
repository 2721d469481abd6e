"""The benchmark's own modules (see perfbench/README.md)."""
