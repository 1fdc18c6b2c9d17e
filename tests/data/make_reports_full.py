"""Write ``reports_full.json``: every field of the reports of the runs that
``tests/test_reports_full.py`` defines, each float as ``float.hex``.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_reports_full.py

Regenerate only on purpose, when a change is meant to move results, and say
why where the change is recorded.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from test_reports_full import CORPUS, corpus_plans, encode  # noqa: E402

from poolshrink.risksim import simulate_many  # noqa: E402

if __name__ == "__main__":
    plans = corpus_plans()
    reports = simulate_many(list(plans.values()))
    corpus = {label: encode(report) for label, report in zip(plans, reports)}
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
    print(f"wrote {len(corpus)} reports to {CORPUS}")
