import dataclasses

import numpy as np
import pytest

from apiq import model_io
from apiq.checkpoint import atomic_write, load_tensors, save_tensors
from apiq.errors import FormatError
from apiq.linalg import group_minmax
from apiq.model import ModelConfig, QuantState, TinyTransformer
from apiq.quant import (ClipParams, PackedCodes, QuantSpec, clip_to_params, pack,
                        quantize, unpack)
from apiq.rng import RngState

CFG = ModelConfig(vocab=32, d_model=16, n_heads=2, d_ff=24, n_blocks=1, max_seq=16)


def _quantized_model(bits=2):
    m = TinyTransformer.init(CFG, seed=3)
    spec = QuantSpec(bits=bits, group=8, rank=2)
    rng = RngState(5)
    m.quant = spec
    for lay in m.iter_layers():
        mins, maxs = group_minmax(lay.weight, spec.group)
        clip = ClipParams.init(spec, lay.d1, lay.d2)
        params = clip_to_params(mins, maxs, clip, spec)
        codes = quantize(lay.weight, params, spec)
        lay.qstate = QuantState(codes=pack(codes, spec), params=params, clip=clip)
        lay.weight = None
        from apiq.model import LoraPair
        a = (rng.randn((lay.d1, 2)) * 0.02).astype(np.float32)
        b = (rng.randn((lay.d2, 2)) * 0.02).astype(np.float32)
        lay.lora = LoraPair(a=a, b=b)
    return m


class TestRawFormat:
    def test_roundtrip_mixed_dtypes(self, tmp_path):
        r = RngState(1)
        entries = [
            ("alpha", r.randn((3, 4)).astype(np.float32)),
            ("beta", r.randn((2,)).astype(np.float64)),
            ("scalar", np.asarray(4.0, dtype=np.float32)),
            ("codes", pack(r.randint(0, 4, (5, 7)).astype(np.uint8),
                           QuantSpec(bits=2, group=1))),
        ]
        path = tmp_path / "t.ckpt"
        save_tensors(path, entries)
        loaded = load_tensors(path)
        assert [n for n, _ in loaded] == [n for n, _ in entries]
        assert np.array_equal(loaded[0][1], entries[0][1])
        assert loaded[0][1].dtype == np.float32
        assert loaded[1][1].dtype == np.float64
        assert loaded[2][1].shape == ()
        assert loaded[3][1].data == entries[3][1].data
        assert loaded[3][1].shape == (5, 7)
        assert loaded[3][1].bits == 2

    def test_save_load_save_byte_identical(self, tmp_path):
        m = _quantized_model()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        model_io.save_model(m, p1)
        model_io.save_model(model_io.load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_tampered_magic(self, tmp_path):
        p = tmp_path / "t.ckpt"
        save_tensors(p, [("x", np.zeros((2,), dtype=np.float32))])
        blob = bytearray(p.read_bytes())
        blob[0] ^= 0xFF
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as exc:
            load_tensors(p)
        assert exc.value.offset == 0

    def test_non_utf8_name_reports_offset(self, tmp_path):
        p = tmp_path / "t.ckpt"
        save_tensors(p, [("x", np.zeros((2,), dtype=np.float32))])
        blob = bytearray(p.read_bytes())
        blob[20] = 0xFF  # the name's first byte, after magic, version, count, length
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="not UTF-8") as exc:
            load_tensors(p)
        assert exc.value.offset == 20

    def test_truncation_reports_offset(self, tmp_path):
        p = tmp_path / "t.ckpt"
        save_tensors(p, [("x", np.zeros((64,), dtype=np.float32))])
        p.write_bytes(p.read_bytes()[:20])
        with pytest.raises(FormatError):
            load_tensors(p)

    def test_bad_version(self, tmp_path):
        p = tmp_path / "t.ckpt"
        save_tensors(p, [("x", np.zeros((2,), dtype=np.float32))])
        blob = bytearray(p.read_bytes())
        blob[8] = 99
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_tensors(p)

    def test_alignment_of_data_section(self, tmp_path):
        p = tmp_path / "t.ckpt"
        save_tensors(p, [("a", np.ones((3,), dtype=np.float32)),
                         ("b", np.ones((5,), dtype=np.float32))])
        for _, off, _ in _directory_offsets(p):
            assert off % 64 == 0

    # an empty tensor whose dims multiply past 2**64, or name an extent
    # numpy cannot hold: the size check wrapped in int64, then reshape raised
    @pytest.mark.parametrize("dims", [(2 ** 32, 2 ** 32), (2 ** 62, 4), (2 ** 64 - 1, 0)])
    def test_overflowing_dims_report_offset(self, tmp_path, dims):
        import struct
        p = tmp_path / "t.ckpt"
        save_tensors(p, [("e", np.zeros((0, 0), dtype=np.float32))])
        blob = bytearray(p.read_bytes())
        at = 16 + 4 + 1 + 2 + 4  # header; name length, name, dtype and aux, rank
        blob[at:at + 16] = struct.pack("<QQ", *dims)
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="'e'") as exc:
            load_tensors(p)
        assert exc.value.offset == _directory_offsets(p)[0][1]

    # packed codes of a bit width `pack` never writes, or whose payload is
    # not the rows of their shape
    @pytest.mark.parametrize("codes", [
        PackedCodes(data=bytes(8), shape=(8, 8), bits=1),
        PackedCodes(data=bytes(8), shape=(8, 8), bits=0),
        PackedCodes(data=bytes(11), shape=(5, 7), bits=2),
        PackedCodes(data=bytes(0), shape=(1, 2 ** 40), bits=0)])
    def test_packed_codes_must_fill_their_shape(self, tmp_path, codes):
        p = tmp_path / "t.ckpt"
        save_tensors(p, [("c", codes)])
        with pytest.raises(FormatError, match="'c'"):
            load_tensors(p)

    def test_dims_roundtrip_empty(self, tmp_path):
        p = tmp_path / "t.ckpt"
        save_tensors(p, [("e", np.zeros((0, 3), dtype=np.float32))])
        (name, arr), = load_tensors(p)
        assert arr.shape == (0, 3)


    # `data` is not bytes, so the write fails after the directory is written
    UNWRITABLE = ("bad", PackedCodes(data=[1, 2, 3], shape=(1, 3), bits=8))

    def test_failed_save_leaves_no_target(self, tmp_path):
        p = tmp_path / "t.ckpt"
        with pytest.raises(TypeError):
            save_tensors(p, [("ok", np.ones(4, dtype=np.float32)), self.UNWRITABLE])
        assert list(tmp_path.iterdir()) == []

    def test_existing_temp_file_is_not_touched(self, tmp_path):
        p = tmp_path / "t.ckpt"
        tmp = tmp_path / "t.ckpt.tmp"
        tmp.write_bytes(b"precious")
        with pytest.raises(FileExistsError):
            save_tensors(p, [("ok", np.ones(4, dtype=np.float32))])
        assert tmp.read_bytes() == b"precious"
        assert list(tmp_path.iterdir()) == [tmp]

    def test_failed_write_removes_only_its_own_temp_files(self, tmp_path):
        paths = [tmp_path / "a", tmp_path / "b"]
        theirs = tmp_path / "b.tmp"
        theirs.write_bytes(b"precious")
        with pytest.raises(FileExistsError), atomic_write(paths):
            pass
        assert theirs.read_bytes() == b"precious"
        assert list(tmp_path.iterdir()) == [theirs]

    def test_failed_save_keeps_old_bytes(self, tmp_path):
        p = tmp_path / "t.ckpt"
        save_tensors(p, [("ok", np.ones(4, dtype=np.float32))])
        old = p.read_bytes()
        with pytest.raises(TypeError):
            save_tensors(p, [("ok", np.zeros(4, dtype=np.float32)), self.UNWRITABLE])
        assert p.read_bytes() == old
        assert list(tmp_path.iterdir()) == [p]

def _directory_offsets(path):
    import struct
    blob = path.read_bytes()
    count = struct.unpack("<I", blob[12:16])[0]
    pos = 16
    out = []
    for _ in range(count):
        (nlen,) = struct.unpack("<I", blob[pos:pos + 4])
        pos += 4
        name = blob[pos:pos + nlen].decode()
        pos += nlen + 2  # dtype + aux
        (rank,) = struct.unpack("<I", blob[pos:pos + 4])
        pos += 4 + 8 * rank
        off, length = struct.unpack("<QQ", blob[pos:pos + 16])
        pos += 16
        out.append((name, off, length))
    return out


class TestModelCheckpoints:
    def test_full_precision_roundtrip_bitwise_forward(self, tmp_path):
        m = TinyTransformer.init(CFG, seed=9)
        p = tmp_path / "m.ckpt"
        model_io.save_model(m, p)
        m2 = model_io.load_model(p)
        toks = RngState(2).randint(0, 32, (2, 8))
        assert m.forward(toks).value.tobytes() == m2.forward(toks).value.tobytes()

    def test_quantized_2bit_reloads_identical_dequantized_weights(self, tmp_path):
        m = _quantized_model(bits=2)
        p = tmp_path / "q.ckpt"
        model_io.save_model(m, p)
        m2 = model_io.load_model(p)
        for lay, lay2 in zip(m.iter_layers(), m2.iter_layers()):
            assert lay.qstate.dequantized().tobytes() == \
                lay2.qstate.dequantized().tobytes()
            assert lay.effective_weight().tobytes() == \
                lay2.effective_weight().tobytes()

    def test_reserved_tensor_names_present(self, tmp_path):
        m = _quantized_model()
        p = tmp_path / "q.ckpt"
        model_io.save_model(m, p)
        names = {n for n, _ in load_tensors(p)}
        base = "blocks.0.attn.q"
        for suffix in (".qcodes", ".scale", ".zero", ".gamma", ".beta",
                       ".lora_a", ".lora_b"):
            assert f"{base}{suffix}" in names

    def test_codes_identical_after_roundtrip(self, tmp_path):
        m = _quantized_model(bits=4)
        p = tmp_path / "q.ckpt"
        model_io.save_model(m, p)
        m2 = model_io.load_model(p)
        for lay, lay2 in zip(m.iter_layers(), m2.iter_layers()):
            assert np.array_equal(unpack(lay.qstate.codes), unpack(lay2.qstate.codes))


class TestSaveChecks:
    """`model_entries` refuses a model whose adapters are not those its
    `quant` gives (the rank on each quantized layer, none elsewhere), so
    `save_model` writes no file that `load_model` refuses."""

    def _drop_last_adapter(m):
        m.blocks[-1].layers["down"].lora = None

    def _full_precision_adapter(m):
        full = TinyTransformer.init(CFG, seed=3)
        full.blocks[0].layers["q"].lora = m.blocks[0].layers["q"].lora
        return full

    @pytest.mark.parametrize("edit,named", [
        (lambda m: setattr(m, "quant", dataclasses.replace(m.quant, rank=4)),
         "blocks.0.attn.q has adapter rank 2, where the model's quant gives it 4"),
        (_drop_last_adapter, "blocks.0.mlp.down has adapter rank None"),
        (_full_precision_adapter, "blocks.0.attn.q has adapter rank 2, where the "
                                  "model's quant gives it None"),
    ], ids=["rank-2-under-4", "last-adapter-dropped", "full-precision-adapter"])
    def test_save_refuses_and_writes_nothing(self, tmp_path, edit, named):
        m = _quantized_model()
        m = edit(m) or m
        p = tmp_path / "q.ckpt"
        with pytest.raises(ValueError, match=named):
            model_io.save_model(m, p)
        assert not p.exists()


def _resave(src, dst, edits):
    """Copy checkpoint `src` to `dst`, replacing tensors named in `edits`."""
    save_tensors(dst, [(n, edits.get(n, t)) for n, t in load_tensors(src)])
    return dst


class TestLoadChecks:
    @pytest.fixture
    def qckpt(self, tmp_path):
        p = tmp_path / "q.ckpt"
        model_io.save_model(_quantized_model(), p)
        return p

    @pytest.mark.parametrize("name, bad", [
        ("embed.weight", np.zeros((31, 16), dtype=np.float32)),
        ("blocks.0.norm1.weight", np.ones(15, dtype=np.float32)),
        ("blocks.0.attn.q.scale", np.ones((1, 16), dtype=np.float32)),
        ("blocks.0.attn.q.gamma", np.ones((2, 16), dtype=np.float32)),
        ("blocks.0.attn.q.lora_a", np.zeros((8, 2), dtype=np.float32)),
        ("blocks.0.attn.q.lora_b", np.zeros((16, 3), dtype=np.float32)),
        ("blocks.0.attn.q.qcodes", pack(np.zeros((16, 8)), QuantSpec(bits=2))),
        ("blocks.0.attn.q.qcodes", pack(np.zeros((16, 16)), QuantSpec(bits=4))),
        ("blocks.0.attn.q.zero", pack(np.zeros((2, 16)), QuantSpec(bits=2))),
        # a lora_a other than the (16, 2) float one of the quant.meta rank
        ("blocks.0.attn.q.lora_a", pack(np.zeros((16, 2)), QuantSpec(bits=2))),
        ("blocks.0.attn.q.lora_a", np.zeros(32, dtype=np.float32)),
        ("blocks.0.attn.q.lora_a", np.zeros((0, 2 ** 40), dtype=np.float32)),
    ])
    def test_mismatch_raises_format_error(self, qckpt, tmp_path, name, bad):
        bad_path = _resave(qckpt, tmp_path / "bad.ckpt", {name: bad})
        with pytest.raises(FormatError, match=name.rsplit(".", 1)[0]):
            model_io.load_model(bad_path)

    @pytest.mark.parametrize("config", [
        np.zeros(3), np.full(7, np.nan), np.array([32, 16, 0, 24, 1, 16, 1e4]),
        np.array([32, 16, 2, 24, 1, 16, np.inf]), np.zeros((7, 1)),
    ])
    def test_bad_config_raises_format_error(self, qckpt, tmp_path, config):
        bad_path = _resave(qckpt, tmp_path / "bad.ckpt", {"config": config})
        with pytest.raises(FormatError):
            model_io.load_model(bad_path)

    def test_huge_rank_fails_before_any_adapter_is_allocated(self, qckpt, tmp_path,
                                                            monkeypatch):
        meta = dict(load_tensors(qckpt))["quant.meta"].copy()
        meta[3] = 2.0 ** 40
        bad_path = _resave(qckpt, tmp_path / "bad.ckpt", {"quant.meta": meta})

        def no_adapter(**_):
            raise AssertionError("an adapter was allocated")

        monkeypatch.setattr(model_io, "LoraPair", no_adapter)
        with pytest.raises(FormatError, match="rank 1099511627776 exceeds min dim 16"):
            model_io.load_model(bad_path)

    def test_short_quant_meta_raises_format_error(self, qckpt, tmp_path):
        bad_path = _resave(qckpt, tmp_path / "bad.ckpt", {"quant.meta": np.array([2.0])})
        with pytest.raises(FormatError, match="quant.meta"):
            model_io.load_model(bad_path)
