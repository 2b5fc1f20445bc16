"""Benchmark harness: regenerate every table and figure of the paper.

:mod:`repro.bench.experiments` defines one function per paper artifact
(Fig. 1/4/8/9/10/11/12/13/14/15/16/17/18, Tables 1/2/3, ablations
D1/D3/D4), each returning a plain data structure;
:mod:`repro.bench.render` turns each into the text table committed as
``benchmarks/results/<id>.txt`` (``python -m repro figures <id>``), with
the helpers of :mod:`repro.bench.harness`.  ``tests/test_paper_claims.py``
asserts the paper's claims on the same data.
"""

from repro.bench.harness import dims_create, format_series, format_table
from repro.bench import experiments

__all__ = ["dims_create", "experiments", "format_series", "format_table"]
