"""Summary-metric oracles and CSV schema checks."""

import csv

import numpy as np
import pytest

from stdsh.env import drive
from stdsh.experiment import run_experiment
from stdsh.metrics import (FLUSH_ROWS, CompletedTrip, MetricsLog, anp, aql, awt,
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


def test_buffered_rows_read_like_an_eager_table():
    # appends interleaved at random with every read that writes the
    # buffered rows out: table and len see what a table filled row by row
    # holds, and no more than FLUSH_ROWS - 1 rows ever wait in the buffer
    rng = np.random.default_rng(4)
    n, log, rows, t, longest = 3, MetricsLog(n=3), [], 0, 0
    for _ in range(600):
        t += int(rng.integers(1, 4))
        d, q = rng.integers(0, 50, n).tolist(), rng.integers(0, 9, n).tolist()
        log.append(t, d, q)
        rows.append([t, sum(d), sum(q), *d, *q])
        longest = max(longest, len(log._pending))
        read = rng.integers(0, 80)
        if read == 0:
            assert log.table.tolist() == rows
        elif read == 1:
            assert len(log) == len(rows)
    assert longest == FLUSH_ROWS - 1        # some runs of appends hit the flush
    assert log.table.tolist() == rows and len(log) == len(rows)
    assert log.int_queued.tolist() == [r[3 + n:] for r in rows]
    with pytest.raises(ValueError, match="increase"):       # after a written row
        log.append(t, [0] * n, [0] * n)
    log.append(t + 1, [0] * n, [0] * n)
    with pytest.raises(ValueError, match="increase"):       # after a buffered one
        log.append(t + 1, [0] * n, [0] * n)


def test_oracle_recount_from_sim():
    world = load_scenario(1, seed=2)
    drive(world, 300)
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


def oracle_metrics_csv(log, path):
    """The row-by-row csv.writer version the writers must match byte for byte."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "delayed_passengers", "queue_veh"]
                   + [f"delayed_i{k + 1}" for k in range(log.n)]
                   + [f"queue_i{k + 1}" for k in range(log.n)])
        w.writerows(log.table.tolist())


def oracle_heatmap_csv(log, path):
    n = log.n
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "metric"] + [f"i{k + 1}" for k in range(n)] + ["network"])
        for t, delayed, queued, *per in log.table.tolist():
            w.writerow([t, "delayed_passengers"] + per[:n] + [delayed])
            w.writerow([t, "queue_veh"] + per[n:] + [queued])


def scenario_3_random_log():
    return run_experiment(3, "random", seed=4, horizon_s=1800)[1]


@pytest.mark.parametrize("make", [
    lambda: MetricsLog(n=3),
    lambda: make_log([[4], [0], [7]], [[1], [0], [2]]),
    lambda: make_log([[0, 0, 2**31 + 1], [2**40, 0, 0]], [[2**33, 0, 0], [0, 0, 2**31]]),
    scenario_3_random_log,
], ids=["empty", "one_intersection", "zeros_and_above_2_31", "scenario_3_random"])
def test_writers_match_the_csv_writer_oracle(tmp_path, make):
    log = make()
    for write, oracle in ((write_metrics_csv, oracle_metrics_csv),
                          (write_heatmap_csv, oracle_heatmap_csv)):
        write(log, tmp_path / "ours.csv")
        oracle(log, tmp_path / "oracle.csv")
        assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_completed_trip_fields():
    trip = CompletedTrip("car", 12, 3, 40)
    assert (trip.mode, trip.waiting_s, trip.spawn_t, trip.exit_t) == ("car", 12, 3, 40)
