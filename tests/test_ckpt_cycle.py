"""What a checkpoint commit costs: on the ``strong16`` geometry a rank's
Layout save at an exchange step is one run, one write call and two
fsyncs.  That a snapshot holds what a restore at its step reads, and a
resume from every cycle position is bit-identical, is the property in
``tests/test_composition.py``.
"""

import os

from repro.ckpt import CheckpointStore
from repro.core.driver import run_executed
from repro.core.problem import StencilProblem
from repro.stencil.spec import SEVEN_POINT


class TestTheCommitCounted:
    def test_strong16_layout_exchange_step_save_is_one_owned_run(
        self, tmp_path, monkeypatch
    ):
        """On the ``strong16`` geometry a Layout save at an exchange step
        is one run of 32 768 B (the 8 owned bricks): one write call, two
        fsyncs, one rename."""
        problem = StencilProblem((32, 32, 32), (2, 2, 2), SEVEN_POINT, (8, 8, 8), 8)
        calls = {"fsync": 0, "replace": 0, "writev": 0}
        for name in calls:
            real = getattr(os, name)

            def counted(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(os, name, counted)
        run = run_executed(
            problem, "layout", timesteps=2, seed=0,
            checkpoint_dir=tmp_path, checkpoint_period=1,
        )
        assert run.checkpoint_saves == 1
        assert calls == {"fsync": 2 * 8, "replace": 8, "writev": 8}
        store = CheckpointStore(tmp_path)
        for rank in range(8):
            man = store.manifest(rank, 1)
            assert [(r["nbytes"], len(r["sections"])) for r in man["runs"]] == [
                (32768, 8)
            ]
            assert man["data_bytes"] == 32768
