"""Pooled metrics closed forms and the CSV log rendering."""
import numpy as np
import pytest

from growrbm.log import (CSV_COLUMNS, LogRow, TrainLog,
                         format_annihilation_event, format_generation_event,
                         format_layer_event, join_events)
from growrbm.metrics import (PooledMetrics, cross_entropy_per_bit,
                             fraction_correct)


class TestCrossEntropy:
    def test_half_prediction_is_ln2(self):
        v = np.array([0.0, 1.0, 1.0, 0.0])
        assert cross_entropy_per_bit(np.full(4, 0.5), v) == \
            pytest.approx(np.log(2))

    def test_confident_correct_is_small(self):
        v = np.array([1.0, 0.0])
        p = np.array([0.999, 0.001])
        assert cross_entropy_per_bit(p, v) == pytest.approx(-np.log(0.999))

    def test_manual_mixed_case(self):
        p = np.array([0.8, 0.3])
        v = np.array([1.0, 1.0])
        expected = -(np.log(0.8) + np.log(0.3)) / 2
        assert cross_entropy_per_bit(p, v) == pytest.approx(expected)

    def test_fractional_targets(self):
        p = np.array([0.6])
        v = np.array([0.25])
        expected = -(0.25 * np.log(0.6) + 0.75 * np.log(0.4))
        assert cross_entropy_per_bit(p, v) == pytest.approx(expected)

    @pytest.mark.parametrize("shape", [(), (5,), (3, 4), (2, 3, 2)])
    def test_in_place_equals_the_expression_bit_for_bit(self, shape):
        # kept scratch, reused dirty, and fresh scratch all give the bits
        # of the one-expression form; the inputs are left as they were
        rng = np.random.default_rng(len(shape))
        scratch = np.full((2,) + shape, np.nan)
        for _ in range(3):
            p = rng.uniform(1e-9, 1 - 1e-9, size=shape)
            v = rng.uniform(size=shape)
            v[v < 0.3] = 0.0
            p0, v0 = p.copy(), v.copy()
            want = float(np.mean(-(v * np.log(p)
                                   + (1.0 - v) * np.log1p(-p))))
            assert cross_entropy_per_bit(p, v) == want
            assert cross_entropy_per_bit(p, v, scratch) == want
            assert p.tobytes() == p0.tobytes()
            assert v.tobytes() == v0.tobytes()

    def test_shape_mismatch_and_empty(self):
        with pytest.raises(ValueError):
            cross_entropy_per_bit(np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError):
            cross_entropy_per_bit(np.zeros(0), np.zeros(0))


class TestFractionCorrect:
    def test_threshold_rule(self):
        p = np.array([0.6, 0.4, 0.5, 0.5])
        v = np.array([1.0, 0.0, 0.0, 1.0])
        # exactly 1/2 rounds to 0: third entry correct, fourth wrong
        assert fraction_correct(p, v) == pytest.approx(3 / 4)

    def test_all_correct(self):
        p = np.array([0.9, 0.1])
        v = np.array([1.0, 0.0])
        assert fraction_correct(p, v) == 1.0


class TestPooledMetrics:
    def test_pooling_weights_by_bit_count(self):
        pool = PooledMetrics()
        pool.add(np.full((3, 2), 0.5), np.ones((3, 2)))   # 6 bits at ln 2
        pool.add(np.full((1, 2), 0.9), np.ones((1, 2)))   # 2 bits at -ln 0.9
        expected = (6 * np.log(2) + 2 * -np.log(0.9)) / 8
        assert pool.cross_entropy() == pytest.approx(expected)

    def test_empty_blocks_ignored(self):
        pool = PooledMetrics()
        pool.add(np.zeros((0, 3)), np.zeros((0, 3)))
        assert pool.empty
        pool.add(np.array([0.9]), np.array([1.0]))
        assert not pool.empty
        assert pool.correct_ratio() == 1.0

    def test_add_shape_mismatch(self):
        with pytest.raises(ValueError):
            PooledMetrics().add(np.zeros((2, 2)), np.zeros((2, 3)))


class TestTrainLog:
    def row(self, **kw):
        base = dict(epoch=1, layer=1, energy=-1.5, error=0.25,
                    wd_c=0.001, wd_w=0.002, n_hidden=4, n_layers=1, event="")
        base.update(kw)
        return LogRow(**base)

    def test_header_and_row_layout(self):
        log = TrainLog()
        log.append(self.row(event="gen(j=0;score=0.01)"))
        lines = log.csv_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        cells = lines[1].split(",")
        assert len(cells) == len(CSV_COLUMNS)
        assert cells[0] == "1"
        assert cells[-1] == "gen(j=0;score=0.01)"

    def test_floats_round_trip(self):
        log = TrainLog()
        log.append(self.row(energy=-1 / 3, error=0.1))
        cells = log.csv_text().splitlines()[1].split(",")
        assert float(cells[2]) == -1 / 3
        assert float(cells[3]) == 0.1

    def test_identical_logs_identical_text(self):
        a, b = TrainLog(), TrainLog()
        for log in (a, b):
            log.append(self.row())
            log.append(self.row(epoch=2, error=0.2))
        assert a.csv_text() == b.csv_text()

    def test_to_csv_writes_text(self, tmp_path):
        log = TrainLog()
        log.append(self.row())
        p = tmp_path / "log.csv"
        log.to_csv(p)
        assert p.read_text() == log.csv_text()


class TestEventStrings:
    def test_formats_contain_no_commas(self):
        events = [format_generation_event(3, 0.00123456789),
                  format_annihilation_event(7, 0.05),
                  format_layer_event(2)]
        joined = join_events(events)
        assert "," not in joined
        assert joined.count("|") == 2
        assert "gen(j=3" in joined
        assert "ann(j=7" in joined
        assert "layer(l=2)" in joined

    def test_empty_event_list(self):
        assert join_events([]) == ""
