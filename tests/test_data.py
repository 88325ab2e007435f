"""JSONL round trips, eager validation, synthetic generators."""
import json

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from growrbm import data
from growrbm.data import (SequenceDataset, load_jsonl, random_patterns,
                          synth_cycle, write_jsonl)
from growrbm.errors import DataFormatError
from growrbm.numerics import RngStream
from references import (augment_parity, reference_parse_sequence,
                        reference_write_jsonl)


class TestLoadJsonl:
    def write(self, tmp_path, lines):
        p = tmp_path / "seqs.jsonl"
        p.write_text("\n".join(lines) + "\n")
        return p

    def test_basic_load(self, tmp_path):
        p = self.write(tmp_path, [
            '{"id":"a","seq":[[0,1],[1,0]]}',
            '{"seq":[[1,1]]}',
        ])
        ds = load_jsonl(p)
        assert ds.dim == 2
        assert len(ds.train) == 2 and ds.test == []
        npt.assert_array_equal(ds.train[0], [[0.0, 1.0], [1.0, 0.0]])
        npt.assert_array_equal(ds.train[1], [[1.0, 1.0]])

    def test_documented_forms_load_alike(self, tmp_path):
        p = self.write(tmp_path, [
            '[[0,1],[1,0]]',
            '{"id":"b","frames":[[1,1]]}',
            '{"frames":[[0,0],[0,1]]}',
            '{"id":"d","seq":[[1,0]]}',
        ])
        ds = load_jsonl(p)
        assert ds.dim == 2
        npt.assert_array_equal(ds.train[0], [[0.0, 1.0], [1.0, 0.0]])
        npt.assert_array_equal(ds.train[1], [[1.0, 1.0]])
        npt.assert_array_equal(ds.train[2], [[0.0, 0.0], [0.0, 1.0]])
        npt.assert_array_equal(ds.train[3], [[1.0, 0.0]])

    def test_bare_list_errors_name_line(self, tmp_path):
        p = self.write(tmp_path, ['[[0,1]]', '[[0,1],[1]]'])
        with pytest.raises(DataFormatError, match=r"seqs\.jsonl:2.*width 1"):
            load_jsonl(p)
        p = self.write(tmp_path, ['[[0,1]]', '[]'])
        with pytest.raises(DataFormatError, match=r":2.*non-empty list"):
            load_jsonl(p)
        p = self.write(tmp_path, ['[[0,1]]', '[[0,1]]', '[[0,3]]'])
        with pytest.raises(DataFormatError, match=r":3.*0 or 1"):
            load_jsonl(p)

    def test_frames_field_errors_name_line(self, tmp_path):
        p = self.write(tmp_path, ['{"frames":[[1]]}', '{"id":"x","frames":[]}'])
        with pytest.raises(DataFormatError, match=r":2.*non-empty list"):
            load_jsonl(p)
        p = self.write(tmp_path, ['{"frames":[[1]]}', '{"frames":[3]}'])
        with pytest.raises(DataFormatError, match=r":2.*frames must be lists"):
            load_jsonl(p)
        p = self.write(tmp_path, ['{"frames":[[1]]}', '[[1,0]]'])
        with pytest.raises(DataFormatError, match=r":2.*dataset width 1"):
            load_jsonl(p)

    def test_seq_and_frames_together_rejected(self, tmp_path):
        p = self.write(tmp_path, ['{"seq":[[1]],"frames":[[1]]}'])
        with pytest.raises(DataFormatError, match=r":1.*not both"):
            load_jsonl(p)

    def test_scalar_line_rejected(self, tmp_path):
        p = self.write(tmp_path, ['{"seq":[[1]]}', '7'])
        with pytest.raises(DataFormatError, match=r":2.*'frames'"):
            load_jsonl(p)

    def test_blank_lines_skipped(self, tmp_path):
        p = self.write(tmp_path, ['{"seq":[[1]]}', '', '   ', '{"seq":[[0]]}'])
        assert len(load_jsonl(p).train) == 2

    def test_invalid_json_names_line(self, tmp_path):
        p = self.write(tmp_path, ['{"seq":[[1]]}', '{oops'])
        with pytest.raises(DataFormatError, match=r"seqs\.jsonl:2"):
            load_jsonl(p)

    def test_non_object_line(self, tmp_path):
        p = self.write(tmp_path, ['[1,2,3]'])
        with pytest.raises(DataFormatError, match=r":1.*'seq'"):
            load_jsonl(p)

    def test_missing_seq_field(self, tmp_path):
        p = self.write(tmp_path, ['{"id":"x"}'])
        with pytest.raises(DataFormatError, match="non-empty list"):
            load_jsonl(p)

    def test_empty_seq(self, tmp_path):
        p = self.write(tmp_path, ['{"seq":[]}'])
        with pytest.raises(DataFormatError, match="non-empty list"):
            load_jsonl(p)

    def test_non_list_frame(self, tmp_path):
        p = self.write(tmp_path, ['{"seq":[3]}'])
        with pytest.raises(DataFormatError, match="frames must be lists"):
            load_jsonl(p)

    def test_empty_frame(self, tmp_path):
        p = self.write(tmp_path, ['{"seq":[[]]}'])
        with pytest.raises(DataFormatError, match="non-empty"):
            load_jsonl(p)

    def test_non_binary_value(self, tmp_path):
        p = self.write(tmp_path, ['{"seq":[[0,2]]}'])
        with pytest.raises(DataFormatError, match="0 or 1"):
            load_jsonl(p)

    @pytest.mark.parametrize("frame", ["[true,false]", "[0,true]",
                                       "[false,1]"])
    def test_boolean_values_rejected(self, tmp_path, capsys, frame):
        # JSON booleans compare equal to 1 and 0 once parsed
        from growrbm.checkpoint import save_checkpoint
        from growrbm.cli import main
        from growrbm.rnn_rbm import RnnRbm
        p = self.write(tmp_path, ['[[0,1],[1,0]]', f'[{frame},[0,1]]'])
        with pytest.raises(DataFormatError, match=r"seqs\.jsonl:2.*0 or 1"):
            load_jsonl(p)
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, RnnRbm.random(2, 2, RngStream(1)))
        assert main(["eval", "--checkpoint", str(ckpt),
                     "--dataset", str(p)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "seqs.jsonl:2" in err[0]

    def test_float_value_rejected(self, tmp_path):
        p = self.write(tmp_path, ['{"seq":[[0,0.5]]}'])
        with pytest.raises(DataFormatError, match="0 or 1"):
            load_jsonl(p)

    def test_ragged_frames_within_sequence(self, tmp_path):
        p = self.write(tmp_path, ['{"seq":[[0,1],[1]]}'])
        with pytest.raises(DataFormatError, match="width 1.*width 2"):
            load_jsonl(p)

    def test_width_mismatch_across_lines_names_line(self, tmp_path):
        p = self.write(tmp_path, ['{"seq":[[0,1]]}', '{"seq":[[0,1,1]]}'])
        with pytest.raises(DataFormatError, match=r":2.*dataset width 2"):
            load_jsonl(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        with pytest.raises(DataFormatError, match="no sequences"):
            load_jsonl(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="cannot read"):
            load_jsonl(tmp_path / "nope.jsonl")


# values a frame may hold in a line: the 0/1 of a valid line, and what
# the per-value checks refuse (JSON booleans, NaN and Infinity literals,
# integers past int64, strings, nulls and nested lists among them)
ODD_VALUES = [0.0, 1.0, -0.0, True, False, 2, 0.5, -1, 1e-300, 2 ** 63,
              2 ** 70, float("nan"), float("inf"), -float("inf"), "1", None,
              [0], [], {}]


@st.composite
def jsonl_lines(draw):
    """One line of a sequence file in any of the three forms, valid or
    not in the ways a line can be."""
    value = draw(st.sampled_from([
        st.sampled_from([0, 1]), st.sampled_from([0, 1, 0.0, 1.0, -0.0]),
        st.sampled_from([0, 1, True, False]),
        st.one_of(st.sampled_from([0, 1]), st.sampled_from(ODD_VALUES))]))
    width = draw(st.integers(0, 3))
    frame = st.one_of(
        st.lists(value, min_size=width, max_size=width),
        st.lists(value, max_size=3),  # ragged
        st.lists(st.lists(value, min_size=1, max_size=2), min_size=width,
                 max_size=width),  # 3-deep
        value)
    if draw(st.integers(0, 3)):
        frame = st.lists(value, min_size=width, max_size=width)
    frames = draw(st.lists(frame, max_size=4))
    form = draw(st.sampled_from(["bare", "seq", "frames"]))
    if form == "bare":
        return json.dumps(frames)
    ident = draw(st.sampled_from([None, "a", "true", "not false", 1]))
    obj = {form: frames} if ident is None else {"id": ident, form: frames}
    return json.dumps(obj)


class TestParseDifferential:
    @settings(max_examples=400, deadline=None)
    @given(lines=st.lists(jsonl_lines(), min_size=1, max_size=4))
    def test_equals_per_value_reference(self, tmp_path_factory, lines):
        """The same arrays, bit for bit (``-0.0`` included), or the same
        error on the same line, as the per-value checks alone."""
        path = tmp_path_factory.mktemp("lines") / "seqs.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        def outcome():
            try:
                ds = load_jsonl(path)
            except DataFormatError as exc:
                return str(exc)
            return ds.dim, [(a.dtype, a.shape, a.tobytes()) for a in ds.train]

        got = outcome()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data, "_parse_sequence",
                          lambda seq, where, text:
                          reference_parse_sequence(seq, where))
            assert got == outcome()


class TestWriteJsonl:
    def test_round_trip(self, tmp_path):
        seqs = [np.array([[0.0, 1.0], [1.0, 1.0]]), np.array([[1.0, 0.0]])]
        p = tmp_path / "out.jsonl"
        write_jsonl(p, seqs, ids=["a", "b"])
        ds = load_jsonl(p)
        assert len(ds.train) == 2
        for orig, loaded in zip(seqs, ds.train):
            npt.assert_array_equal(orig, loaded)
        first = json.loads(p.read_text().splitlines()[0])
        assert first["id"] == "a"

    def test_empty_write_is_empty_file(self, tmp_path):
        p = tmp_path / "out.jsonl"
        write_jsonl(p, [])
        assert p.read_text() == ""

    def test_values_are_integers_in_json(self, tmp_path):
        p = tmp_path / "out.jsonl"
        write_jsonl(p, [np.array([[1.0, 0.0]])])
        assert p.read_text().strip() == '{"seq":[[1,0]]}'

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           shapes=st.lists(st.tuples(st.integers(1, 12), st.integers(1, 9)),
                           max_size=5),
           dtype=st.sampled_from([np.float64, np.int64]),
           with_ids=st.booleans())
    def test_binary_bytes_equal_reference(self, tmp_path_factory, seed,
                                          shapes, dtype, with_ids):
        rng = np.random.default_rng(seed)
        seqs = [(rng.random(shape) < 0.5).astype(dtype) for shape in shapes]
        ids = [f"s{n}" for n in range(len(seqs))] if with_ids else None
        d = tmp_path_factory.mktemp("write")
        write_jsonl(d / "new.jsonl", seqs, ids=ids)
        reference_write_jsonl(d / "old.jsonl", seqs, ids=ids)
        assert (d / "new.jsonl").read_bytes() == (d / "old.jsonl").read_bytes()

    @pytest.mark.parametrize("bad", [0.7, 2.0, -1.0, 0.5, 1e-300, np.nan,
                                     np.inf, -np.inf])
    def test_rejects_values_other_than_0_or_1(self, tmp_path, bad):
        good = np.array([[0.0, 1.0], [1.0, 1.0]])
        worse = good.copy()
        worse[1, 0] = bad
        p = tmp_path / "out.jsonl"
        with pytest.raises(ValueError, match="^sequence 1: "):
            write_jsonl(p, [good, worse, good])
        assert not p.exists()

    @pytest.mark.parametrize("bad", [np.array([0.0, 1.0]),
                                     np.zeros((2, 2, 2)), np.float64(1.0)])
    def test_rejects_sequences_that_are_not_frame_lists(self, tmp_path, bad):
        p = tmp_path / "out.jsonl"
        with pytest.raises(ValueError, match="^sequence 0: "):
            write_jsonl(p, [bad])
        assert not p.exists()


    @pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
    def test_rejects_empty_sequences(self, tmp_path, shape):
        # load_jsonl rejects the {"seq":[]} or {"seq":[[],[]]} line
        p = tmp_path / "out.jsonl"
        with pytest.raises(ValueError, match=r"^sequence 1: empty, shape"):
            write_jsonl(p, [np.ones((2, 3)), np.zeros(shape)])
        assert not p.exists()


class TestRandomPatterns:
    def test_distinct_and_binary(self):
        pats = random_patterns(8, 3, RngStream(1))
        assert len(pats) == 8
        keys = {tuple(p) for p in pats}
        assert len(keys) == 8
        for p in pats:
            assert set(np.unique(p)) <= {0.0, 1.0}

    def test_impossible_count_rejected(self):
        with pytest.raises(ValueError):
            random_patterns(9, 3, RngStream(1))

    def test_deterministic(self):
        a = random_patterns(4, 5, RngStream(7))
        b = random_patterns(4, 5, RngStream(7))
        for x, y in zip(a, b):
            npt.assert_array_equal(x, y)


class TestSynthCycle:
    def test_shapes_and_split(self):
        ds = synth_cycle(4, 6, 10, 20, 0.0, RngStream(3))
        assert ds.dim == 6
        assert len(ds.train) == 16
        assert len(ds.test) == 4
        for s in ds.train + ds.test:
            assert s.shape == (10, 6)

    def test_tiny_dataset_keeps_one_train_sequence(self):
        ds = synth_cycle(2, 3, 4, 1, 0.0, RngStream(3))
        assert len(ds.train) == 1
        assert len(ds.test) == 0

    def test_noiseless_frames_follow_pinned_cycle(self):
        pats = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        ds = synth_cycle(2, 2, 6, 5, 0.0, RngStream(9), patterns=pats)
        for s in ds.train + ds.test:
            first = 0 if np.array_equal(s[0], pats[0]) else 1
            for t in range(6):
                npt.assert_array_equal(s[t], pats[(first + t) % 2])

    def test_noise_flips_roughly_at_rate(self):
        pats = [np.zeros(8)]
        ds = synth_cycle(1, 8, 50, 40, 0.2, RngStream(11), patterns=pats)
        frames = np.vstack(ds.train + ds.test)
        # every 1 is a flip of the all-zero pattern
        assert abs(frames.mean() - 0.2) < 0.02

    def test_deterministic(self):
        a = synth_cycle(3, 4, 5, 6, 0.1, RngStream(13))
        b = synth_cycle(3, 4, 5, 6, 0.1, RngStream(13))
        for x, y in zip(a.train + a.test, b.train + b.test):
            npt.assert_array_equal(x, y)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            synth_cycle(0, 2, 3, 4, 0.0, RngStream(1))
        with pytest.raises(ValueError):
            synth_cycle(2, 2, 3, 4, 0.5, RngStream(1))
        with pytest.raises(ValueError):
            synth_cycle(2, 2, 3, 4, -0.1, RngStream(1))
        with pytest.raises(ValueError):
            synth_cycle(2, 2, 3, 4, 0.0, RngStream(1),
                        patterns=[np.zeros(2)])
        with pytest.raises(ValueError):
            synth_cycle(1, 2, 3, 4, 0.0, RngStream(1),
                        patterns=[np.zeros(3)])


class TestAugmentParity:
    def test_appends_xor_bit(self):
        ds = SequenceDataset(dim=3, train=[
            np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])])
        out = augment_parity(ds)
        assert out.dim == 4
        npt.assert_array_equal(out.train[0][:, 3], [0.0, 1.0, 0.0])
        npt.assert_array_equal(out.train[0][:, :3], ds.train[0])

    def test_test_split_also_augmented(self):
        ds = SequenceDataset(dim=2, train=[np.array([[1.0, 0.0]])],
                             test=[np.array([[1.0, 1.0]])])
        out = augment_parity(ds)
        npt.assert_array_equal(out.test[0], [[1.0, 1.0, 0.0]])
