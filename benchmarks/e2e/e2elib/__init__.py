"""Library half of the end-to-end benchmark (see ``benchmarks/e2e/README.md``).

``bench.py`` is the entry point; the modules here are what it and the
child interpreters it spawns share.  Nothing in this package is imported
by ``src/``.
"""
