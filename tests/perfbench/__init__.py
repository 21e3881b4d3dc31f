"""Self-tests of the perfbench harness (arithmetic, scripts, smoke runs)."""
