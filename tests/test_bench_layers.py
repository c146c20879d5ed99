"""``bench/layers.py`` at tiny sizes: it runs, its record has every key, and
``--compare`` refuses records from another numpy and flags a machine phase."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = str(ROOT / "bench" / "layers.py")
TILE_LAYERS = {"draw", "row_means", "row_means_bounded", "geometric_0", "geometric_i", "mobius_i"}


def _run(*args):
    return subprocess.run([sys.executable, SCRIPT, *args], capture_output=True, text=True,
                          timeout=120)


def test_a_tiny_record_has_every_key_and_compares_with_itself(tmp_path):
    out = tmp_path / "BENCH_layers.json"
    run = _run("--out", str(out), "--k", "1", "--requests", "1")
    assert run.returncode == 0, run.stderr
    record = json.loads(out.read_text())
    assert set(record) == {"provenance", "settings", "tiles", "requests", "request_calls"}
    assert set(record["provenance"]) == {"git_commit", "git_dirty", "nproc", "cpu_model",
                                         "python", "numpy", "simd", "source_sha256"}
    assert set(record["provenance"]["simd"]) == {"baseline", "found", "not_found"}
    assert set(record["tiles"]) == {"1024x2", "1024x3", "1024x7", "163x100", "163x200",
                                    "3x10000"}
    for tile, layers in record["tiles"].items():
        two_step = {"two_step"} if int(tile.split("x")[1]) >= 6 else set()
        assert set(layers) == TILE_LAYERS | two_step
        assert all(seconds > 0 for seconds in layers.values())
    assert {key.split("/")[0] for key in record["requests"]} == {"mc-small-n", "mc-large-n"}
    assert len(record["requests"]) == 8
    # one call a round after the warm-up round, the min of them kept beside them
    assert set(record["request_calls"]) == set(record["requests"])
    for key, calls in record["request_calls"].items():
        assert len(calls) == 1 and record["requests"][key] == min(calls) > 0

    run = _run("--compare", str(out), str(out))
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 6 * 6 + 4 + 8
    assert all(line.endswith(" 1.000x") for line in lines)
    assert sum("median" in line for line in lines) == 8

    other = tmp_path / "other.json"
    record["provenance"]["numpy"] = "0.0.0"
    other.write_text(json.dumps(record))
    run = _run("--compare", str(out), str(other))
    assert run.returncode == 2
    assert run.stdout == "" and "records differ in numpy" in run.stderr


def _record(draw_seconds):
    """A record of two tiles, each with ``draw`` and one kernel layer, and no requests."""
    provenance = {"cpu_model": "cpu", "numpy": "2.0", "simd": {}}
    tiles = {tile: {"draw": seconds, "mobius_i": 1e-3}
             for tile, seconds in zip(("1024x2", "163x200"), draw_seconds)}
    return {"provenance": provenance, "tiles": tiles, "requests": {}}


def test_compare_flags_a_pair_whose_unchanged_draw_layer_moved(tmp_path):
    old = tmp_path / "old.json"
    old.write_text(json.dumps(_record([1e-4, 2e-4])))
    for draws, flagged in (([1.05e-4, 1.82e-4], False), ([1.12e-4, 2e-4], True),
                           ([1e-4, 1.6e-4], True)):
        new = tmp_path / "new.json"
        new.write_text(json.dumps(_record(draws)))
        run = _run("--compare", str(old), str(new))
        assert run.returncode == 0, run.stderr
        lines = run.stdout.splitlines()
        assert len(lines) == 4 + flagged
        if flagged:
            ratios = [draws[0] / 1e-4, draws[1] / 2e-4]
            assert lines[-1] == ("machine phase, not a result: the unchanged draw layer reads "
                                 f"1024x2 {ratios[0]:.3f}x, 163x200 {ratios[1]:.3f}x")
