"""Bench harness: dims_create, table rendering, artifact registry, advisor."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bench.advisor import AdviceRow, advise, render_advice
from repro.bench.harness import dims_create, format_series, format_table
from repro.bench.render import render


class TestDimsCreate:
    @pytest.mark.parametrize(
        "n,d,expected",
        [
            (8, 3, (2, 2, 2)),
            (16, 3, (4, 2, 2)),
            (48, 3, (4, 4, 3)),
            (1024, 3, (16, 8, 8)),
            (6144, 3, (24, 16, 16)),
            (7, 2, (7, 1)),
        ],
    )
    def test_known_factorizations(self, n, d, expected):
        assert dims_create(n, d) == expected

    def test_invalid(self):
        with pytest.raises(ValueError):
            dims_create(0, 3)

    @given(st.integers(1, 5000), st.integers(1, 4))
    def test_product_and_order(self, n, d):
        dims = dims_create(n, d)
        assert math.prod(dims) == n
        assert list(dims) == sorted(dims, reverse=True)


class TestFormatting:
    def test_table_alignment(self):
        text = format_table("T", ["a", "bb"], [[1, 2.5], [10, 0.25]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        widths = {len(l) for l in lines[2:]}
        assert len(widths) == 1  # all rows same width

    def test_table_strings_pass_through(self):
        text = format_table("T", ["x"], [["hello"]])
        assert "hello" in text

    def test_series(self):
        text = format_series("S", "n", [1, 2], {"a": [3, 4], "b": [5, 6]})
        assert "n" in text and "a" in text and "b" in text
        assert "5" in text


class TestRenderRegistry:
    # Every artifact's text is pinned by tests/test_paper_claims.py.
    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            render("fig99")


class TestAdvisor:
    def test_basic_sweep(self):
        rows = advise(512, "theta", "7pt", max_nodes=64)
        assert [r.nodes for r in rows] == [8, 16, 32, 64]
        assert rows[0].efficiency == pytest.approx(1.0)
        for r in rows:
            assert r.best in r.timestep_s
            assert math.prod(r.subdomain) * r.nodes == 512**3

    def test_efficiency_declines(self):
        rows = advise(512, "theta", "7pt", max_nodes=512)
        effs = [r.efficiency for r in rows]
        assert effs == sorted(effs, reverse=True)

    def test_memmap_always_wins_on_theta(self):
        for r in advise(1024, "theta", max_nodes=256):
            assert r.best == "memmap"

    def test_summit_prefers_cuda_aware(self):
        rows = advise(2048, "summit", max_nodes=64)
        assert all(r.best == "layout_ca" for r in rows)

    def test_stops_at_min_subdomain(self):
        rows = advise(256, "theta", max_nodes=4096)
        assert min(min(r.subdomain) for r in rows) >= 16

    def test_render(self):
        rows = advise(512, "theta", max_nodes=32)
        text = render_advice(rows, 512, "theta", "7pt")
        assert "memmap" in text and "eff%" in text

    def test_render_empty(self):
        assert "no feasible" in render_advice([], 8, "theta", "7pt")

    def test_unknown_machine(self):
        with pytest.raises(ValueError):
            advise(512, "cray-1")
