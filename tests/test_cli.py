"""CLI (`python -m repro`) behaviour."""

import subprocess
import sys

import pytest

from repro.bench.render import render
from repro.cli import main


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestFigures:
    def test_list(self, capsys):
        assert main(["figures", "--list"]) == 0
        out = capsys.readouterr().out.split()
        assert len(out) == 19
        assert "fig9" in out and "d3" in out

    def test_single_artifact(self, capsys):
        assert main(["figures", "tab1"]) == 0
        out = capsys.readouterr().out
        assert "TAB1" in out
        assert "1042" in out  # Eq. 1 at D=5
        assert out == render("tab1")  # byte for byte benchmarks/results/tab1.txt

    def test_unknown_artifact(self):
        with pytest.raises(ValueError):
            main(["figures", "fig99"])


class TestRun:
    def test_memmap_run_validates(self, capsys):
        assert main(["run", "--method", "memmap", "--steps", "1"]) == 0
        out = capsys.readouterr().out
        assert "bit-exact vs serial reference: True" in out
        assert "perf" in out

    def test_open_boundaries_skip_validation(self, capsys):
        assert main(
            ["run", "--method", "layout", "--steps", "1",
             "--open-boundaries"]
        ) == 0
        out = capsys.readouterr().out
        assert "bit-exact" not in out

    def test_exchange_period_and_json(self, capsys, tmp_path):
        import json

        path = tmp_path / "run.json"
        assert main(
            ["run", "--method", "yask", "--steps", "4",
             "--exchange-period", "auto", "--json", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "exchange period: 8" in out
        data = json.loads(path.read_text())
        assert data["bit_exact"] is True
        assert data["exchange_period"] == 8
        assert data["phases_s"]["pack"]["avg"] > 0
        assert data["messages_per_rank"] == 26


class TestAdvise:
    def test_advise_runs(self, capsys):
        assert main(["advise", "--domain", "512", "--max-nodes", "64"]) == 0
        out = capsys.readouterr().out
        assert "memmap" in out
        assert "eff%" in out


class TestSearchLayout:
    def test_2d_reaches_optimum(self, capsys):
        assert main(["search-layout", "2", "--restarts", "4",
                     "--iters", "1500"]) == 0
        out = capsys.readouterr().out
        assert "9 messages" in out

    def test_1d_exhaustive(self, capsys):
        assert main(["search-layout", "1", "--exhaustive"]) == 0


class TestChaos:
    def test_quick_soak_passes(self, capsys):
        # One trial per preset, no determinism recheck: the fast gate.
        assert main(
            ["chaos", "--trials", "7", "--quick", "--no-recheck"]
        ) == 0
        out = capsys.readouterr().out
        assert "chaos soak: 7 trials" in out
        assert "PASS" in out
        assert "silent" not in out.split("PASS")[1]

    def test_json_report(self, capsys, tmp_path):
        import json

        path = tmp_path / "chaos.json"
        assert main(
            ["chaos", "--trials", "2", "--quick", "--no-recheck",
             "--json", str(path)]
        ) == 0
        data = json.loads(path.read_text())
        assert data["trials"] == 2
        assert data["passed"] is True
        assert len(data["per_trial"]) == 2
        assert data["per_trial"][0]["preset"] == "corrupt"

    def test_seed_changes_fault_events(self, capsys):
        def events_for(seed):
            assert main(
                ["chaos", "--trials", "1", "--quick", "--no-recheck",
                 "--seed", str(seed)]
            ) == 0
            return capsys.readouterr().out.splitlines()[2]

        # Same preset/method row, different injected schedule per seed.
        assert events_for(1) != events_for(2)

    def test_preset_subset(self, capsys):
        assert main(
            ["chaos", "--trials", "2", "--quick", "--no-recheck",
             "--presets", "crash_restart"]
        ) == 0
        out = capsys.readouterr().out
        assert "resumed_exact: 2" in out
        assert "PASS" in out

    def test_unknown_preset_rejected(self, capsys):
        assert main(
            ["chaos", "--trials", "1", "--quick", "--presets", "bogus"]
        ) == 2
        err = capsys.readouterr().err
        assert "unknown preset" in err and "crash_restart" in err


class TestCheckpointCli:
    def _run_with_store(self, tmp_path, steps="2", extra=()):
        return main(
            ["run", "--method", "layout", "--steps", steps,
             "--checkpoint-dir", str(tmp_path), "--checkpoint-period", "1",
             *extra]
        )

    def test_run_writes_store_and_resumes(self, capsys, tmp_path):
        assert self._run_with_store(tmp_path) == 0
        out = capsys.readouterr().out
        assert "checkpoints: 1 epoch(s)" in out
        assert str(tmp_path) in out
        assert self._run_with_store(tmp_path, steps="4",
                                    extra=("--resume",)) == 0
        out = capsys.readouterr().out
        assert "(resumed from epoch 1)" in out
        assert "bit-exact vs serial reference: True" in out

    def test_ls_verify_prune(self, capsys, tmp_path):
        assert self._run_with_store(tmp_path, steps="3") == 0
        capsys.readouterr()

        assert main(["ckpt", "ls", str(tmp_path), "--nranks", "8"]) == 0
        out = capsys.readouterr().out
        assert "latest consistent epoch: 2" in out
        assert "yes" in out

        assert main(["ckpt", "verify", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "16/16 snapshot(s) verified clean" in out
        assert "CORRUPT" not in out

        assert main(["ckpt", "prune", str(tmp_path), "--keep", "1"]) == 0
        out = capsys.readouterr().out
        assert "pruned" in out
        assert main(["ckpt", "verify", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_verify_detects_flipped_byte(self, capsys, tmp_path):
        assert self._run_with_store(tmp_path) == 0
        capsys.readouterr()
        snaps = sorted(tmp_path.rglob("*.snap"))
        blob = bytearray(snaps[0].read_bytes())
        blob[-100] ^= 0x01  # inside the payload run
        snaps[0].write_bytes(bytes(blob))
        assert main(["ckpt", "verify", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out and "CRC32" in out

    def test_empty_store_ls(self, capsys, tmp_path):
        assert main(["ckpt", "ls", str(tmp_path)]) == 0
        assert "no checkpoints" in capsys.readouterr().out


class TestValidate:
    @pytest.mark.slow
    def test_all_methods_ok(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "all exchange methods bit-exact" in out
        assert "FAILED" not in out


@pytest.mark.slow
def test_module_entrypoint():
    res = run_cli("figures", "tab1")
    assert res.returncode == 0
    assert "TAB1" in res.stdout
