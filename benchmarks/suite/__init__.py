"""The repository's benchmark suite; ``run.py`` is its command line."""
