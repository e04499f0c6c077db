"""Fuzz the checkpoint reader through the CLI.

Small valid checkpoints (full precision, and 2-bit qlora with adapters)
are mutated in their bytes, their directory fields, their header values
and their entries. Whatever the mutation, `apiq eval` must end with an
exit code of the contract (0, 2, 3 or 4) and never raise, and a file that
`load_model` accepts must be one that `save_model` writes for the loaded
model: the same names, kinds, shapes and value bits.
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from apiq import model_io
from apiq.calib import CalibPlan, quantize_model, sample_calib
from apiq.checkpoint import load_tensors, save_tensors
from apiq.cli import main
from apiq.errors import FormatError
from apiq.model import ModelConfig, TinyTransformer
from apiq.quant import PackedCodes, QuantSpec, pack

CFG = ModelConfig(vocab=32, d_model=16, n_heads=2, d_ff=24, n_blocks=1, max_seq=16)
FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

# field widths of a directory record, after its name (see apiq.checkpoint)
_U8, _U32, _U64 = "<B", "<I", "<Q"
_EDGES = (0, 1, 2, 3, 4, 5, 7, 8, 16, 255, 2 ** 31, 2 ** 32 - 1, 2 ** 62, 2 ** 63,
          2 ** 64 - 1)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    tokens = (np.arange(48) * 7 % CFG.vocab).astype(np.uint8)
    (root / "corpus.txt").write_bytes(tokens.tobytes())
    (root / "eval.cfg").write_text("eval.chunk_len = 16\n")
    full = TinyTransformer.init(CFG, seed=1)
    calib = sample_calib(tokens.astype(np.int64), 2, 16, seed=0)
    qlora, _ = quantize_model(full, calib, CalibPlan(method="qlora"),
                              QuantSpec(bits=2, group=8), rank=2)
    for name, model in (("full", full), ("qlora", qlora)):
        model_io.save_model(model, root / f"{name}.ckpt")
    return root


def _directory(blob: bytes) -> list[list[tuple[int, str]]]:
    """(byte position, struct format) of each field of each record."""
    (count,) = struct.unpack_from(_U32, blob, 12)
    pos, records = 16, []
    for _ in range(count):
        (name_len,) = struct.unpack_from(_U32, blob, pos)
        fields = [(pos, _U32)]
        pos += 4 + name_len
        (rank,) = struct.unpack_from(_U32, blob, pos + 2)
        fields += [(pos, _U8), (pos + 1, _U8), (pos + 2, _U32)]
        pos += 6
        fields += [(pos + 8 * k, _U64) for k in range(rank + 2)]  # dims, offset, length
        pos += 8 * (rank + 2)
        records.append(fields)
    return records


def _check(root, blob: bytes) -> None:
    path = root / "mutant.ckpt"
    path.write_bytes(blob)
    code = main(["eval", "--config", str(root / "eval.cfg"), "--in", str(path),
                 "--corpus", str(root / "corpus.txt")])
    assert code in (0, 2, 3, 4)
    try:
        model = model_io.load_model(path)
    except FormatError:
        return
    assert _contents(model_io.model_entries(model)) == _contents(load_tensors(path))


def _contents(entries) -> list:
    """Name, kind, shape and value bits of each entry."""
    out = []
    for name, t in entries:
        if isinstance(t, PackedCodes):
            out.append((name, ("codes", t.bits), tuple(t.shape), t.data))
        else:
            out.append((name, t.dtype.str, t.shape, t.tobytes()))
    return out


def _resaved(root, which: str, edit) -> bytes:
    """The checkpoint saved again with `edit` applied to its entry list."""
    path = root / "resaved.ckpt"
    save_tensors(path, edit(load_tensors(root / f"{which}.ckpt")))
    return path.read_bytes()


CHECKPOINTS = pytest.mark.parametrize("which", ["full", "qlora"])
# a tensor that numpy warns about (overflow, NaN) fails, as exit 4, the
# computation that reads it; the CLI prints such warnings, it does not raise them
QUIET = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@CHECKPOINTS
@QUIET
@FUZZ
@given(data=st.data())
def test_byte_mutations(files, which, data):
    blob = bytearray((files / f"{which}.ckpt").read_bytes())
    for _ in range(data.draw(st.integers(1, 4))):
        # mostly the directory and the first data, where a byte means most
        at = data.draw(st.integers(0, len(blob) - 1) | st.integers(0, 400))
        blob[min(at, len(blob) - 1)] = data.draw(st.integers(0, 255))
    cut = data.draw(st.none() | st.integers(0, len(blob)))
    _check(files, bytes(blob[:cut]))


@CHECKPOINTS
@QUIET
@FUZZ
@given(data=st.data())
def test_directory_field_mutations(files, which, data):
    blob = bytearray((files / f"{which}.ckpt").read_bytes())
    records = _directory(bytes(blob))
    for _ in range(data.draw(st.integers(1, 2))):
        pos, fmt = data.draw(st.sampled_from(data.draw(st.sampled_from(records))))
        (old,) = struct.unpack_from(fmt, blob, pos)
        top = 256 ** struct.calcsize(fmt) - 1
        new = data.draw(st.sampled_from(_EDGES) | st.integers(-8, 8).map(lambda d: old + d)
                        | st.integers(0, top))
        struct.pack_into(fmt, blob, pos, min(max(new, 0), top))
    _check(files, bytes(blob))


_VALUES = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 16.0, 24.0, 32.0,
                           -1.0, 0.5, 2.5, 2.0 ** 40, 1e300, np.nan, np.inf]) | st.floats()


@CHECKPOINTS
@QUIET
@FUZZ
@given(data=st.data())
def test_header_value_mutations(files, which, data):
    headers = ["config"] + (["quant.meta"] if which == "qlora" else [])
    name = data.draw(st.sampled_from(headers))
    dtype = data.draw(st.sampled_from([np.float64, np.float64, np.float32]))
    changes = data.draw(st.lists(st.tuples(st.integers(0, 6), _VALUES), max_size=3))
    extra = data.draw(st.lists(_VALUES, max_size=1))

    def edit(entries):
        out = []
        for n, t in entries:
            if n == name:
                t = np.array(t, dtype=np.float64)
                for i, v in changes:
                    t[i % t.size] = v
                t = np.array([*t, *extra]).astype(dtype)
            out.append((n, t))
        return out

    _check(files, _resaved(files, which, edit))


@CHECKPOINTS
@QUIET
@FUZZ
@given(data=st.data())
def test_entry_mutations(files, which, data):
    n_entries = len(load_tensors(files / f"{which}.ckpt"))
    i = data.draw(st.integers(0, n_entries - 1))
    op = data.draw(st.sampled_from(["drop", "duplicate", "swap", "retype", "flatten",
                                    "as_codes", "narrow"]))

    def edit(entries):
        name, t = entries[i]
        if op == "drop":
            return entries[:i] + entries[i + 1:]
        if op == "duplicate":
            return entries[:i + 1] + entries[i:]
        if op == "swap":
            j = (i + 1) % len(entries)
            entries[i], entries[j] = entries[j], entries[i]
            return entries
        if isinstance(t, PackedCodes):
            t = np.zeros(t.shape, np.float32)
        elif op == "retype":
            t = t.astype(np.float32 if t.dtype == np.float64 else np.float64)
        elif op == "flatten":
            t = t.reshape(-1)
        elif op == "as_codes":
            t = pack(np.zeros(t.reshape(len(t), -1).shape if t.ndim else (1, 1)),
                     QuantSpec(bits=2))
        else:
            t = t[..., :-1] if t.ndim else t.reshape(1)
        entries[i] = (name, t)
        return entries

    _check(files, _resaved(files, which, edit))
