"""Every reproduced result, one test each.

Each case computes one entry of :data:`repro.analysis.figures.FIGURES` (a
figure or table of the evaluation, an ablation study or the Section VI
storage tables), prints its tables and its check table, and fails with the
check table when any of its shape checks fails.  The entries hold the
paper's values, the checks and the known fidelity limits.
"""

import pytest
from conftest import run_once

from repro.analysis.figures import FIGURES
from repro.analysis.reporting import print_report


@pytest.mark.parametrize("figure", list(FIGURES))
def test_paper_figure(benchmark, workloads, figure):
    entry = FIGURES[figure]
    result = run_once(benchmark, entry.run, workloads)
    suite = entry.validate(result)
    print_report(entry.render(result))
    print_report(suite.render())
    if not suite.passed:
        pytest.fail(suite.render(), pytrace=False)
