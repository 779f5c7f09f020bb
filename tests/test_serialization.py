import numpy as np
import numpy.testing as npt
import pytest

from sfinet.serialization import (SerializationError, format_tensor, load_checkpoint,
                                  load_tensor, save_checkpoint, save_tensor, write_pgm)


class TestTensorRoundTrip:
    @pytest.mark.parametrize("shape", [(), (5,), (3, 4), (2, 3, 4)])
    def test_bitwise_round_trip(self, tmp_path, rng, shape):
        arr = rng.standard_normal(shape) * 1e3
        path = tmp_path / "t.csv"
        save_tensor(path, arr)
        back = load_tensor(path)
        assert back.shape == arr.shape
        npt.assert_array_equal(back, arr)  # repr floats round-trip exactly

    def test_header_format(self):
        text = format_tensor(np.zeros((2, 3)))
        assert text.splitlines()[0] == "shape: 2,3"
        assert len(text.splitlines()) == 3

    def test_value_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("shape: 2,2\n1.0,2.0,3.0\n")
        with pytest.raises(SerializationError):
            load_tensor(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n")
        with pytest.raises(SerializationError):
            load_tensor(path)


class TestCheckpoint:
    def test_round_trip_preserves_names_order_values(self, tmp_path, rng):
        params = {
            "backbone.stage0.weight": rng.standard_normal((4, 3)),
            "sir.classifier": rng.standard_normal((3, 2)),
            "sir.sr.w_self": rng.standard_normal(3),
        }
        path = tmp_path / "ckpt.csv"
        save_checkpoint(path, params)
        back = load_checkpoint(path)
        assert list(back) == list(params)
        for name in params:
            npt.assert_array_equal(back[name], params[name])

    def test_malformed_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "ckpt.csv"
        path.write_text("shape: 2\n1.0,2.0\n")
        with pytest.raises(SerializationError):
            load_checkpoint(path)

    @pytest.mark.parametrize("block", ["shape: 2\n1.0,abc\n", "shape: 2,x\n1.0,2.0\n",
                                       "shape: 0,-1\n"])
    def test_unparsable_block_names_file_and_block(self, tmp_path, block):
        path = tmp_path / "ckpt.csv"
        path.write_text("tensor: ok\nshape: 1\n0.5\ntensor: sir.classifier\n" + block)
        with pytest.raises(SerializationError, match=f"{path}:sir.classifier"):
            load_checkpoint(path)


class TestPgm:
    def test_binary_mask_maps_to_0_and_255(self, tmp_path):
        mask = np.array([[0.0, 1.0], [1.0, 0.0]])
        path = tmp_path / "mask.pgm"
        write_pgm(path, mask)
        lines = path.read_text().splitlines()
        assert lines[0] == "P2"
        pixels = {int(v) for row in lines[3:] for v in row.split()}
        assert pixels == {0, 255}

    def test_constant_map_is_all_zero(self, tmp_path):
        path = tmp_path / "flat.pgm"
        write_pgm(path, np.full((3, 3), 4.2))
        pixels = [int(v) for row in path.read_text().splitlines()[3:] for v in row.split()]
        assert set(pixels) == {0}

    def test_normalization_range(self, tmp_path, rng):
        path = tmp_path / "map.pgm"
        write_pgm(path, rng.standard_normal((5, 7)))
        lines = path.read_text().splitlines()
        assert lines[1] == "7 5"
        pixels = [int(v) for row in lines[3:] for v in row.split()]
        assert min(pixels) == 0 and max(pixels) == 255

    def test_non_2d_rejected(self):
        with pytest.raises(SerializationError):
            write_pgm("/tmp/never-written.pgm", np.zeros((2, 2, 2)))
