"""convprune: salience-based edge pruning, pooled global descriptors, and
triplet fine-tuning for small instance-retrieval CNNs.

The package exposes its modules only: import a name from the module that
defines it (`from convprune.pruner import apply_pruning`)."""
