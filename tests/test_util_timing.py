"""TimeBreakdown."""

import pytest

from repro.util.timing import PHASES, TimeBreakdown


class TestTimeBreakdown:
    def test_comm_excludes_calc(self):
        bd = TimeBreakdown(calc=1.0, pack=0.2, call=0.3, wait=0.4, move=0.1)
        assert bd.comm == pytest.approx(1.0)
        assert bd.total == pytest.approx(2.0)

    def test_add(self):
        a = TimeBreakdown(calc=1.0, pack=2.0)
        b = TimeBreakdown(calc=0.5, wait=1.0)
        c = a.add(b)
        assert c.calc == 1.5
        assert c.pack == 2.0
        assert c.wait == 1.0
        # originals untouched
        assert a.calc == 1.0

    def test_scaled(self):
        bd = TimeBreakdown(calc=2.0, wait=4.0).scaled(0.5)
        assert bd.calc == 1.0
        assert bd.wait == 2.0

    def test_charge(self):
        bd = TimeBreakdown()
        bd.charge("pack", 0.5)
        bd.charge("pack", 0.25)
        assert bd.pack == 0.75

    def test_charge_unknown_phase(self):
        with pytest.raises(ValueError):
            TimeBreakdown().charge("fnord", 1.0)

    def test_charge_negative(self):
        with pytest.raises(ValueError):
            TimeBreakdown().charge("pack", -1.0)

    def test_as_dict_covers_all_phases(self):
        d = TimeBreakdown().as_dict()
        assert set(d) == set(PHASES)
