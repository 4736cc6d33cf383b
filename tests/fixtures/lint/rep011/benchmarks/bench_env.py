"""REP011 scope: code outside the repro package may read the shell."""

import os

BUDGET = float(os.environ.get("BUDGET_S", "1.0"))
