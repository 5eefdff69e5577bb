"""Log-log exponent fits and plain-text tables for the paper's scaling claims.

``benchmarks/paper_tables.py``, the CLI's k-sweep (``run --k 4,8,16``) and
the examples fit measured rounds against ``k`` (or ``n``) and print the
result as tables.
"""

from repro.experiments.fits import fit_power_law, PowerLawFit
from repro.experiments.tables import format_table

__all__ = ["fit_power_law", "PowerLawFit", "format_table"]
