"""Summary-metric oracles and CSV schema checks."""

import csv

import numpy as np
import pytest

from stdsh.metrics import (CompletedTrip, MetricsLog, anp, aql, awt,
                           write_heatmap_csv, write_metrics_csv)
from stdsh.sim import load_scenario


def make_log(delayed_rows, queued_rows):
    n = len(delayed_rows[0])
    log = MetricsLog(n=n)
    for t, (d, q) in enumerate(zip(delayed_rows, queued_rows)):
        log.append(t, d, q)
    return log


def test_anp_simple():
    log = make_log([[1, 2], [2, 3]], [[0, 0], [0, 0]])
    assert anp(log, 2) == 4.0
    assert anp(log, 4) == 2.0      # horizon is the divisor, not the row count


def test_anp_zeros_and_rejections():
    log = make_log([[0], [0], [0]], [[0], [0], [0]])
    assert anp(log, 3) == 0.0
    with pytest.raises(ValueError):
        anp(MetricsLog(n=1), 10)
    with pytest.raises(ValueError):
        anp(log, 0)


def test_aql_average():
    log = make_log([[0], [0]], [[2], [4]])
    assert aql(log) == 3.0
    with pytest.raises(ValueError):
        aql(MetricsLog(n=1))


def test_awt_by_mode():
    log = MetricsLog(n=1)
    log.complete("bus", 30, 0, 100)
    assert awt(log, "bus") == 30.0
    assert awt(log, "tram") is None
    log.complete("car", 10, 0, 50)
    log.complete("car", 20, 0, 60)
    assert awt(log, "car") == 15.0
    assert awt(log, "bus") == 30.0


def test_queued_tram_is_delayed_but_never_queued():
    # tram arm is W, served by P3; under P1 it just sits at the stop line
    text = ("[network]\nintersections = 1\ntram_stop_intersections =\n"
            "[demand]\ncar_rate_veh_h = 0\nbus_headway_s = 0\ntram_headway_s = 0\n"
            "[signal]\ninitial_phase = P1\ninitial_green_s = 45\n")
    world = load_scenario(text, seed=0)
    link = world.net.approach(0, "W", "tram")
    tram = world._spawn_vehicle("tram", 150, [(link, "through")])
    world._join_queue(tram)
    world.step()
    assert world.log.net_delayed.tolist() == [150]
    assert world.log.net_queued.tolist() == [0]
    assert aql(world.log) == 0.0


def test_window_slices_seconds():
    log = make_log([[1], [2], [3], [4]], [[0], [1], [2], [3]])
    win = log.window(1, 3)
    assert win.seconds.tolist() == [1, 2]
    assert win.net_delayed.tolist() == [2, 3]
    assert win.net_queued.tolist() == [1, 2]
    assert len(win) == 2
    assert len(log.window(10, 20)) == 0


def test_window_is_a_view_and_copies_before_it_grows():
    log = make_log([[1], [2], [3], [4]], [[0], [1], [2], [3]])
    win = log.window(1, 3)
    assert np.shares_memory(win.table, log.table)
    win.append(9, [7], [5])
    assert win.seconds.tolist() == [1, 2, 9]
    assert win.net_delayed.tolist() == [2, 3, 7]
    assert log.seconds.tolist() == [0, 1, 2, 3]
    assert log.net_delayed.tolist() == [1, 2, 3, 4]
    assert len(log.window(3, 1)) == 0
    with pytest.raises(ValueError, match="increase"):
        log.append(3, [0], [0])


def test_oracle_recount_from_sim():
    world = load_scenario(1, seed=2)
    world.run(300)
    log = world.log
    assert anp(log, 300) == pytest.approx(sum(log.net_delayed.tolist()) / 300.0)
    per_second = [sum(row) for row in log.int_delayed.tolist()]
    assert per_second == log.net_delayed.tolist()
    per_second_q = [sum(row) for row in log.int_queued.tolist()]
    assert per_second_q == log.net_queued.tolist()


def test_metrics_csv_schema(tmp_path):
    log = make_log([[1, 0], [0, 2]], [[1, 1], [0, 0]])
    log.complete("bus", 5, 0, 9)
    path = tmp_path / "m.csv"
    write_metrics_csv(log, path)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["t", "delayed_passengers", "queue_veh",
                       "delayed_i1", "delayed_i2", "queue_i1", "queue_i2"]
    assert rows[1] == ["0", "1", "2", "1", "0", "1", "1"]
    assert rows[2] == ["1", "2", "0", "0", "2", "0", "0"]
    assert len(rows) == 3


def test_heatmap_csv_schema(tmp_path):
    log = make_log([[1, 0], [0, 2]], [[1, 1], [0, 0]])
    path = tmp_path / "h.csv"
    write_heatmap_csv(log, path)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["t", "metric", "i1", "i2", "network"]
    assert rows[1] == ["0", "delayed_passengers", "1", "0", "1"]
    assert rows[2] == ["0", "queue_veh", "1", "1", "2"]
    assert len(rows) == 1 + 2 * len(log)


def test_completed_trip_fields():
    trip = CompletedTrip("car", 12, 3, 40)
    assert (trip.mode, trip.waiting_s, trip.spawn_t, trip.exit_t) == ("car", 12, 3, 40)
