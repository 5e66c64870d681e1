"""Unit tests for Figure8Result post-processing (no simulation)."""

from repro.experiments.figure8 import Figure8Result


def make_result():
    r = Figure8Result(ports=4, preset="unit")
    r.series = {
        "down-up/M1": [(0.02, 50.0), (0.05, 60.0), (0.08, 900.0)],
        "l-turn/M1": [(0.02, 52.0), (0.04, 70.0), (0.06, float("nan"))],
    }
    r.raw = [
        ("down-up", "M1", 0, 0.02, 0.02, 50.0),
        ("l-turn", "M1", 0, 0.02, 0.02, 52.0),
    ]
    return r


def test_saturation_throughput_per_series():
    r = make_result()
    assert r.saturation_throughput("down-up/M1") == 0.08
    assert r.saturation_throughput("l-turn/M1") == 0.06


def test_ascii_clips_post_saturation_blowup():
    r = make_result()
    art = r.to_ascii(max_latency_factor=5.0)
    # the 900-clock point exceeds 5x the 50-clock floor and is clipped
    assert "900" not in art
    assert "Figure 8" in art


def test_ascii_drops_nan_points():
    r = make_result()
    art = r.to_ascii()
    assert "nan" not in art.lower().split("l-turn")[0]


def test_csv_has_header_and_rows():
    r = make_result()
    lines = r.to_csv().splitlines()
    assert lines[0] == "algorithm,method,sample,offered,accepted,latency"
    assert len(lines) == 3


def test_empty_series_renders():
    r = Figure8Result(ports=8, preset="unit")
    r.series = {"a/M1": []}
    assert "(no data)" in r.to_ascii()
