"""Layout-search quality beyond the packaged dimensions.

The paper only needs 3-D, where ``surface3d`` attains Eq. 1's 42 exactly.
This check stresses the annealing search in 4-D (80 regions, bound 209)
and reports how close it gets -- documenting how far layout optimization
generalizes, per Section 3.3's "most effective when dimension is less
than 5".  It takes ~7 s, so it runs as its own CI step, outside tier-1:

    python -m pytest benchmarks/test_layout_search_quality.py

and rewrites ``benchmarks/results/layout_search_4d.txt``.
"""

from pathlib import Path

from repro.bench import format_table
from repro.layout.analysis import (
    basic_message_count,
    neighbor_count,
    optimal_message_count,
)
from repro.layout.messages import messages_for_order
from repro.layout.order import lexicographic_order
from repro.layout.search import anneal_order

RESULT = Path(__file__).parent / "results" / "layout_search_4d.txt"


def test_search_quality_4d():
    bound = optimal_message_count(4)  # 209
    _, count = anneal_order(4, seed=0, restarts=3, iters=4000, target=bound)
    lex = messages_for_order(lexicographic_order(4), 4)
    rows = [
        ["neighbors (Eq. 2)", neighbor_count(4)],
        ["Eq. 1 lower bound", bound],
        ["annealed order", count],
        ["lexicographic order", lex],
        ["Basic (Eq. 3)", basic_message_count(4)],
    ]
    RESULT.write_text(
        format_table(
            "Layout search quality, D=4 (80 regions)",
            ["configuration", "messages"],
            rows,
        )
    )
    # The search must respect the analytic bounds and clearly beat both
    # the naive order and Basic.
    assert bound <= count <= basic_message_count(4)
    assert count < lex
    assert count < 1.35 * bound  # gets within ~1/3 of optimal
