import os

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sfinet.serialization import (SerializationError, atomic_open, format_tensor,
                                  load_checkpoint, load_tensor, save_checkpoint, save_tensor,
                                  write_pgm)

# fixed example sequence and no example database: the same cases on every run
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=80)

FLOAT_MAX = np.finfo(np.float64).max
SUBNORMAL = 5e-324
float_arrays = hnp.arrays(np.float64,
                          hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
                          elements=st.floats(allow_nan=False))
names = st.from_regex(r"[a-z][a-z0-9_.]{0,12}", fullmatch=True)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype == np.float64 and a.shape == b.shape and a.tobytes() == b.tobytes()


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

    @pytest.mark.parametrize("dims, message", [
        ("4294967296,4294967296", "needs 18446744073709551616 values, found 0"),
        ("4294967296,4294967296,0", "cannot reshape"),
    ], ids=["count-2**64", "count-0"])
    def test_header_beyond_int64_names_the_file(self, tmp_path, dims, message):
        # the product of the dims wraps to 0 in int64
        path = tmp_path / "big.csv"
        path.write_text(f"shape: {dims}\n")
        with pytest.raises(SerializationError, match=f"{path}: .*{message}"):
            load_tensor(path)
        path.write_text(f"tensor: a\nshape: {dims}\n")
        with pytest.raises(SerializationError, match=f"{path}:a: .*{message}"):
            load_checkpoint(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n")
        with pytest.raises(SerializationError):
            load_tensor(path)


class TestRoundTripProperties:
    @PROPERTY
    @given(float_arrays)
    @example(np.array(-0.0))
    @example(np.zeros((0,)))
    @example(np.zeros((3, 0)))
    @example(np.zeros((2, 0, 3)))
    @example(np.array([-0.0, SUBNORMAL, -SUBNORMAL, FLOAT_MAX, -FLOAT_MAX]))
    def test_tensor_bit_exact(self, tmp_path_factory, arr):
        path = tmp_path_factory.getbasetemp() / "prop_tensor.csv"
        save_tensor(path, arr)
        assert same_bits(load_tensor(path), arr)

    @PROPERTY
    @given(st.dictionaries(names, float_arrays, min_size=1, max_size=4))
    @example({"a": np.array(-0.0), "b": np.zeros((3, 0)),
              "c": np.array([[SUBNORMAL, FLOAT_MAX], [-FLOAT_MAX, -0.0]])})
    def test_checkpoint_bit_exact(self, tmp_path_factory, params):
        path = tmp_path_factory.getbasetemp() / "prop_ckpt.csv"
        save_checkpoint(path, params)
        back = load_checkpoint(path)
        assert list(back) == list(params)
        assert all(same_bits(back[k], params[k]) for k in params)


class TestCorruptCheckpoint:
    PARAMS = {"backbone.stage0.weight": np.array([[0.25, -1.5e-7], [3.0, -0.0]]),
              "sir.gcn.adjacency": np.array(1.0 / 3.0),
              "sir.classifier": np.array([SUBNORMAL, FLOAT_MAX, -2.0])}

    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("corrupt") / "ckpt.csv"
        save_checkpoint(path, self.PARAMS)
        return path.read_bytes()

    @PROPERTY
    @given(st.data())
    def test_one_byte_mutation_loads_or_raises_serialization_error(self, tmp_path_factory,
                                                                   clean, data):
        pos = data.draw(st.integers(0, len(clean) - 1), label="pos")
        byte = data.draw(st.integers(0, 255), label="byte")
        path = tmp_path_factory.getbasetemp() / "mutated.csv"
        path.write_bytes(clean[:pos] + bytes([byte]) + clean[pos + 1:])
        try:
            out = load_checkpoint(path)
        except SerializationError:
            return
        assert all(isinstance(v, np.ndarray) and v.dtype == np.float64 for v in out.values())

    @pytest.mark.parametrize("load, text, message", [
        (load_tensor, "\n  \n", "empty tensor file"),
        (load_checkpoint, "tensor: a\nshape: 1\n1.0\ntensor: b\n",
         "block 'b' missing shape header"),
    ], ids=["blank-tensor", "last-block-headerless"])
    def test_truncated_file_names_the_file(self, tmp_path, load, text, message):
        path = tmp_path / "ckpt.csv"
        path.write_text(text)
        with pytest.raises(SerializationError, match=f"{path}: {message}"):
            load(path)

    @pytest.mark.parametrize("load", [load_checkpoint, load_tensor])
    def test_non_utf8_byte_names_the_file(self, tmp_path, clean, load):
        path = tmp_path / "ckpt.csv"
        path.write_bytes(clean[:12] + b"\xff" + clean[13:])
        with pytest.raises(SerializationError, match=f"{path}: not UTF-8"):
            load(path)


class TestAtomicWrites:
    def test_failure_inside_the_block_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("previous\n")
        with pytest.raises(RuntimeError, match="injected"):
            with atomic_open(path) as fh:
                fh.write("half of the new")
                raise RuntimeError("injected")
        assert path.read_text() == "previous\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_checkpoint_failing_mid_write_keeps_the_previous_checkpoint(self, tmp_path):
        path = tmp_path / "ckpt.csv"
        save_checkpoint(path, {"a": np.ones(2)})
        before = path.read_bytes()
        # the first block is written before the second fails to convert
        with pytest.raises(ValueError):
            save_checkpoint(path, {"a": np.zeros(2), "b": np.array(["not a number"])})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["ckpt.csv"]

    def test_completed_write_replaces_the_file(self, tmp_path):
        path = tmp_path / "t.csv"
        save_tensor(path, np.ones(2))
        save_tensor(path, np.zeros(3))
        npt.assert_array_equal(load_tensor(path), np.zeros(3))
        assert os.listdir(tmp_path) == ["t.csv"]

    def test_temporary_file_that_cannot_be_made_names_the_target(self, tmp_path):
        path = tmp_path / ("x" * 250 + ".csv")  # its temporary file's name is too long
        with pytest.raises(SerializationError, match=f"^{path}: cannot write \\(File name too long\\)$"):
            save_tensor(path, np.ones(2))
        assert os.listdir(tmp_path) == []

    def test_target_that_cannot_be_replaced_names_it(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.mkdir()
        with pytest.raises(SerializationError, match=f"^{path}: cannot write \\(Is a directory\\)$"):
            save_tensor(path, np.ones(2))
        assert os.listdir(tmp_path) == ["metrics.csv"] and os.listdir(path) == []


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

    def test_repeated_block_names_file_and_block(self, tmp_path):
        path = tmp_path / "ckpt.csv"
        path.write_text("tensor: a\nshape: 1\n1.0\ntensor: a\nshape: 1\n2.0\n")
        with pytest.raises(SerializationError, match=f"{path}: block 'a' appears more than once"):
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
