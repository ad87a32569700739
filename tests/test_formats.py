"""PQL1 code lists, PQZ1 quantizers and IVF1 indexes: byte layout and
rejection of malformed headers before any array is read."""

import dataclasses
import io
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pqscan import (
    CodeList,
    DerivedPQ,
    FormatError,
    IvfIndex,
    ProductQuantizer,
    load_codes,
    load_ivf,
    load_quantizer,
    save_codes,
    save_ivf,
    save_quantizer,
)
from pqscan.cli import main
from pqscan.scan import read_codes_body, write_codes_body

from conftest import pack

# Files written before codes were kept nibble-packed in memory:
# (b, m, components, ids, file bytes).
OLD_FILES = [
    (4, 4, [[11, 15, 14, 8], [15, 15, 15, 1], [7, 9, 4, 6]], [9, 8, 7],
     "50514c3103000000040000000400000001000000fb8eff1f9764090000000000000008"
     "000000000000000700000000000000"),
    (3, 5, [[6, 0, 1, 1, 1], [6, 6, 4, 0, 0]], [0, 1],
     "50514c310200000005000000030000000100000006110166040000000000000000000100"
     "000000000000"),
    (1, 3, [[0, 1, 1], [1, 0, 0]], [8, 7],
     "50514c31020000000300000001000000010000001001010008000000000000000700000000"
     "000000"),
]


def reference_pql1(components, ids, b):
    """PQL1 bytes of a code list given by its (n, m) components."""
    n, m = components.shape
    if b <= 4:
        body = pack(components).tobytes()
    else:
        body = components.astype("<u2" if b > 8 else "u1").tobytes()
    header = b"PQL1" + struct.pack("<4i", n, m, b, 1)
    return header + body + np.asarray(ids, dtype="<i8").tobytes()


def stored(components, b):
    return pack(components) if b <= 4 else components.astype(
        np.uint16 if b > 8 else np.uint8
    )


@pytest.mark.parametrize("b, m, comps, ids, hexbytes", OLD_FILES)
def test_old_code_files_load_and_rewrite_identically(tmp_path, b, m, comps, ids, hexbytes):
    raw = bytes.fromhex(hexbytes)
    path = tmp_path / "old.pql"
    path.write_bytes(raw)
    codelist, b_back = load_codes(path)
    assert b_back == b and codelist.m == m
    np.testing.assert_array_equal(codelist.codes, pack(np.array(comps)))
    np.testing.assert_array_equal(codelist.ids, ids)
    out = io.BytesIO()
    write_codes_body(out, codelist, b)
    assert out.getvalue() == raw


@given(st.integers(1, 16), st.integers(1, 9), st.integers(0, 20), st.integers(0, 2**32 - 1),
       st.sampled_from([2**31, 2**40]))
@settings(max_examples=100, deadline=None)
def test_code_list_bytes_match_reference_and_round_trip(b, m, n, seed, id_bound):
    # ids below 2^31 are held as int32, larger ones as int64; both write <i8
    rng = np.random.default_rng(seed)
    comps = rng.integers(0, 1 << b, (n, m))
    ids = rng.integers(-id_bound, id_bound, n)
    out = io.BytesIO()
    write_codes_body(out, CodeList(stored(comps, b), ids, m), b)
    assert out.getvalue() == reference_pql1(comps, ids, b)
    back, b_back = read_codes_body(io.BytesIO(out.getvalue()))
    assert (b_back, back.m) == (b, m)
    np.testing.assert_array_equal(back.codes, stored(comps, b))
    np.testing.assert_array_equal(back.ids, ids)


def pql1(n, m, b, has_ids, body=b""):
    return b"PQL1" + struct.pack("<4i", n, m, b, has_ids) + body


@pytest.mark.parametrize(
    "raw",
    [
        pql1(1, 2, 0, 1, b"\x00" * 9),  # b below range
        pql1(1, 2, 20, 1, b"\x00" * 12),  # b above range
        pql1(1, 0, 4, 1, b"\x00" * 9),  # no components
        pql1(-1, 2, 4, 1),  # negative count
        pql1(1, 2, 4, 2, b"\x00" * 9),  # ids flag not 0/1
        pql1(2, 2, 4, 1, b"\x00" * 9),  # body shorter than the header says
        pql1(2**31 - 1, 2**30, 16, 1),  # would need terabytes
        pql1(2, 2, 3, 0, b"\xff\xff"),  # components 15 >= 2^3
        pql1(1, 3, 4, 0, b"\x21\x13"),  # padding nibble of odd m set
        pql1(1, 2, 7, 0, b"\x80\x01"),  # byte component 128 >= 2^7
    ],
)
def test_code_list_reader_rejects_bad_headers(raw):
    with pytest.raises(FormatError):
        read_codes_body(io.BytesIO(raw))


def test_code_list_reader_checks_size_before_reading():
    # the header's size is refused before a read that large is attempted
    with pytest.raises(FormatError, match="truncated code list"):
        read_codes_body(io.BytesIO(pql1(2**31 - 1, 2**30, 16, 1)))


def test_code_list_writer_rejects_other_layouts(tmp_path):
    comps = np.array([[1, 2, 3]], dtype=np.uint8)
    with pytest.raises(ValueError, match="shape"):
        save_codes(tmp_path / "c.pql", CodeList(comps), 4)  # unpacked
    with pytest.raises(ValueError, match="padding"):
        save_codes(tmp_path / "c.pql", CodeList(np.array([[0x21, 0x13]], np.uint8), m=3), 4)
    with pytest.raises(ValueError, match="range"):
        save_codes(tmp_path / "c.pql", CodeList(comps * 20), 5)  # 60 >= 2^5


def pqz1(m, b, d, rot, body=b""):
    return b"PQZ1" + struct.pack("<4i", m, b, d, rot) + body


@pytest.mark.parametrize(
    "raw",
    [
        pqz1(0, 4, 8, 0),  # m=0 used to divide by zero
        pqz1(2, -1, 8, 0),  # negative shift
        pqz1(2, 0, 8, 0),
        pqz1(2, 17, 8, 0),
        pqz1(2, 4, 0, 0),
        pqz1(3, 4, 8, 0),  # d not divisible by m
        pqz1(2, 4, 8, 2),  # rotation flag not 0/1
        pqz1(2, 4, 8, 0, b"\x00" * 16),  # codebooks truncated
    ],
)
def test_quantizer_reader_rejects_bad_headers(tmp_path, raw, capsys):
    path = tmp_path / "q.pqz"
    path.write_bytes(raw)
    with pytest.raises(FormatError):
        load_quantizer(path)
    codes = tmp_path / "c.pql"
    save_codes(codes, CodeList(np.zeros((1, 1), np.uint8)), 4)
    (tmp_path / "q.fvecs").write_bytes(struct.pack("<i", 8) + b"\x00" * 32)
    rc = main(["query", "--queries", str(tmp_path / "q.fvecs"), "--codes", str(codes),
               "--quantizer", str(path)])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error:") and "Traceback" not in err


def test_query_rejects_codes_of_another_shape(tmp_path, capsys):
    # m=3 and m=4 codes of b=4 both take two bytes; the file's m decides
    quant = tmp_path / "q.pqz"
    save_quantizer(quant, ProductQuantizer(m=4, b=4, d=8, codebooks=np.zeros((4, 16, 2))))
    codes = tmp_path / "c.pql"
    save_codes(codes, CodeList(np.zeros((2, 2), np.uint8), m=3), 4)
    (tmp_path / "q.fvecs").write_bytes(struct.pack("<i", 8) + b"\x00" * 32)
    rc = main(["query", "--queries", str(tmp_path / "q.fvecs"), "--codes", str(codes),
               "--quantizer", str(quant)])
    assert rc == 1 and "codes are 3x4" in capsys.readouterr().err


# A 2x2 quantizer (d=2, codebooks 0..7) and its derived form (bbar=1,
# derived codebooks 0.5, 2.5, 4.5, 6.5), written before the derived extension
# was validated; such files must keep loading.
OLD_PLAIN = bytes.fromhex(
    "50515a3102000000020000000200000000000000000000000000803f0000004000004040"
    "000080400000a0400000c0400000e040"
)
OLD_DERIVED = OLD_PLAIN + bytes.fromhex("010000000000003f00002040000090400000d040")


def test_old_quantizer_files_load(tmp_path):
    (tmp_path / "p.pqz").write_bytes(OLD_PLAIN)
    (tmp_path / "d.pqz").write_bytes(OLD_DERIVED)
    plain = load_quantizer(tmp_path / "p.pqz")
    derived = load_quantizer(tmp_path / "d.pqz")
    assert_same_fields(plain, PLAIN)
    assert_same_fields(derived, DERIVED)


@pytest.mark.parametrize(
    "raw",
    [
        OLD_PLAIN + b"\x01",  # 1-3 stray bytes used to load as a plain PQ
        OLD_PLAIN + b"\x01\x02",
        OLD_PLAIN + b"\x01\x02\x03",
        OLD_PLAIN + b"\xff\xff\xff\x7f",  # bbar 2^31-1 used to size an array
        OLD_PLAIN + struct.pack("<i", 0) + b"\x00" * 8,  # bbar below range
        OLD_PLAIN + struct.pack("<i", 2) + b"\x00" * 32,  # bbar equal to b=2
        OLD_PLAIN + struct.pack("<i", 3) + b"\x00" * 64,  # bbar above b=2
        OLD_PLAIN + struct.pack("<i", 1) + b"\x00" * 8,  # derived codebooks truncated
        OLD_DERIVED + b"\x00",  # bytes after the derived codebooks
    ],
    ids=["1-stray", "2-stray", "3-stray", "huge-bbar", "bbar-0", "bbar-2", "bbar-3",
         "truncated", "trailing"],
)
def test_derived_quantizer_reader_rejects_bad_extensions(tmp_path, raw):
    path = tmp_path / "q.pqz"
    path.write_bytes(raw)
    with pytest.raises(FormatError):
        load_quantizer(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_derived_codebooks_are_refused(tmp_path, bad):
    # Such a file used to load, and every derived query on it then failed
    # with a misleading "lookup table entries overflow float32".
    derived = [[bad, 2.5], [4.5, 6.5]]
    with pytest.raises(ValueError, match="^derived codebooks contain non-finite values$"):
        DerivedPQ(m=2, b=2, d=2, codebooks=np.arange(8).reshape(2, 4, 1), bbar=1,
                  derived=np.reshape(derived, (2, 2, 1)))
    path = tmp_path / "q.pqz"
    path.write_bytes(OLD_PLAIN + struct.pack("<i", 1) + np.array(derived, "<f4").tobytes())
    with pytest.raises(FormatError, match="derived codebooks contain non-finite values"):
        load_quantizer(path)


def patched(raw, offset, value):
    return raw[:offset] + value + raw[offset + len(value) :]


def ivf_bytes(tmp_path):
    """IVF1 bytes of a one-cell index over the 2x2 quantizer above."""
    (tmp_path / "p.pqz").write_bytes(OLD_PLAIN)
    pq = load_quantizer(tmp_path / "p.pqz")
    lists = [CodeList(np.array([[0x21], [0x03]], np.uint8), m=2)]
    save_ivf(tmp_path / "i.ivf", IvfIndex(np.zeros((1, 2)), pq, lists))
    return (tmp_path / "i.ivf").read_bytes()


# IVF1: magic, K at byte 4, derived flag at byte 8, then the quantizer body.
@pytest.mark.parametrize(
    "mutate",
    [
        lambda raw: patched(raw, 8, struct.pack("<i", 2)),  # derived flag not 0/1
        lambda raw: patched(raw, 4, struct.pack("<i", 0)),  # no cells
        lambda raw: patched(raw, 4, struct.pack("<i", -1)),
        lambda raw: raw + b"\x00",  # bytes after the last list
    ],
    ids=["derived-2", "K=0", "K<0", "trailing"],
)
def test_index_reader_rejects_bad_headers(tmp_path, mutate):
    raw = ivf_bytes(tmp_path)
    assert load_ivf(tmp_path / "i.ivf").n == 2
    path = tmp_path / "bad.ivf"
    path.write_bytes(mutate(raw))
    with pytest.raises(FormatError):
        load_ivf(path)


# Written by the commit before ids were held as int32 in memory: IVF1 of
# two cells over the 2x2 quantizer above with ids 4, 9 and 3.
OLD_IVF = bytes.fromhex(
    "49564631020000000000000050515a3102000000020000000200000000000000000000000000"
    "803f0000004000004040000080400000a0400000c0400000e0400000003f0000c03f00002040"
    "0000604050514c310200000002000000020000000100000021030400000000000000090000000"
    "000000050514c3101000000020000000200000001000000120300000000000000"
)


# A derived index: OLD_IVF's header with the derived flag set, OLD_DERIVED
# as its quantizer, the same coarse centroids, lists of ids [9, 4] and [3].
OLD_DERIVED_IVF = bytes.fromhex(
    "49564631020000000100000050515a3102000000020000000200000000000000000000000000"
    "803f0000004000004040000080400000a0400000c0400000e040010000000000003f00002040"
    "000090400000d0400000003f0000c03f000020400000604050514c3102000000020000000200"
    "00000100000021030900000000000000040000000000000050514c3101000000020000000200"
    "000001000000120300000000000000"
)


def test_old_derived_index_file_loads_its_derived_quantizer(tmp_path):
    (tmp_path / "old.ivf").write_bytes(OLD_DERIVED_IVF)
    index = load_ivf(tmp_path / "old.ivf")
    assert_same_fields(index.pq, DERIVED)
    assert [lst.ids.tolist() for lst in index.lists] == [[9, 4], [3]]
    save_ivf(tmp_path / "new.ivf", index)
    assert (tmp_path / "new.ivf").read_bytes() == OLD_DERIVED_IVF


def test_old_index_files_load_and_rewrite_identically(tmp_path):
    (tmp_path / "old.ivf").write_bytes(OLD_IVF)
    index = load_ivf(tmp_path / "old.ivf")
    assert [lst.ids.tolist() for lst in index.lists] == [[4, 9], [3]]
    assert {lst.ids.dtype for lst in index.lists} == {np.dtype(np.int32)}
    save_ivf(tmp_path / "new.ivf", index)
    assert (tmp_path / "new.ivf").read_bytes() == OLD_IVF


@pytest.mark.parametrize(
    "raw, load",
    [
        # a byte after a plain PQZ1 body starts a derived tail (see
        # test_derived_quantizer_reader_rejects_bad_extensions)
        (OLD_DERIVED, load_quantizer),
        (OLD_IVF, load_ivf),
        (bytes.fromhex(OLD_FILES[0][4]), load_codes),
    ],
    ids=["quantizer", "index", "codes"],
)
def test_loaders_reject_a_stray_byte(tmp_path, raw, load):
    path = tmp_path / "f.bin"
    path.write_bytes(raw)
    load(path)
    path.write_bytes(raw + b"\x00")
    with pytest.raises(FormatError, match="bytes after"):
        load(path)


# Header mutation. Each format's header fields are found from its magic;
# a mutated file must either raise FormatError or load into an object that
# writes back to exactly the mutated bytes (no other exception, and no
# silent misread).


def _fields_pqz1(raw, p):
    m, b, d, rot = struct.unpack_from("<4i", raw, p + 4)
    fields = [(p + 4 * i, 4) for i in range(1, 5)]
    if m >= 1 and d % m == 0 and 1 <= b <= 16:
        # bbar of a derived extension, or whatever follows a plain body
        fields.append((p + 20 + 4 * (rot * d * d + m * (1 << b) * (d // m)), 4))
    return fields


def _fields_pql1(raw, p):
    return [(p + 4 * i, 4) for i in range(1, 5)]


def _fields_ivf1(raw, p):
    return [(p + 4, 4), (p + 8, 4)]


HEADERS = {b"PQZ1": _fields_pqz1, b"PQL1": _fields_pql1, b"IVF1": _fields_ivf1}


def header_fields(raw):
    """(offset, width) of every header field, found from each magic."""
    fields = []
    for magic, layout in HEADERS.items():
        p = raw.find(magic)
        while p >= 0:
            fields += [(o, w) for o, w in layout(raw, p) if o + w <= len(raw)]
            p = raw.find(magic, p + 1)
    return fields


@st.composite
def mutations(draw, raw):
    kind = draw(st.sampled_from(["overwrite", "truncate", "append"]))
    if kind == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if kind == "append":
        return raw + draw(st.binary(min_size=1, max_size=64))
    off, width = draw(st.sampled_from(header_fields(raw)))
    top = 2 ** (8 * width - 1)
    value = draw(st.one_of(st.integers(-2, 40), st.integers(-top, top - 1)))
    new = value.to_bytes(width, "little", signed=True)
    if new == raw[off : off + width]:
        new = bytes([raw[off] ^ 1]) + new[1:]
    return raw[:off] + new + raw[off + width :]


def written(save, obj, tmp):
    """The bytes save(path, obj) writes."""
    path = tmp / "written.bin"
    save(path, obj)
    return path.read_bytes()


def save_code_file(path, loaded):
    save_codes(path, *loaded)


ROTATED = ProductQuantizer(m=2, b=2, d=4, codebooks=np.arange(16).reshape(2, 4, 2),
                           rotation=np.eye(4)[::-1])
PLAIN = ProductQuantizer(m=2, b=2, d=2, codebooks=np.arange(8).reshape(2, 4, 1))
DERIVED = DerivedPQ(**vars(PLAIN), bbar=1, derived=np.array([[[0.5], [2.5]], [[4.5], [6.5]]]))


def sample_files(tmp):
    """name -> (bytes, load, save) of small files the library wrote; some
    ids do not fit int32. Every list is non-empty: an empty PQL1 list holds
    no ids either way, so its ids flag may read 0, and it writes back as 1."""
    lists = [CodeList(np.array([[0x21], [0x03]], np.uint8), [2**40, 9], m=2),
             CodeList(np.array([[0x12]], np.uint8), [3], m=2)]
    derived_index = IvfIndex(np.array([[0.5, 1.5], [2.5, 3.5]]), DERIVED, lists)
    big_ids = (CodeList(pack(np.array([[1, 2, 3], [4, 5, 6]])), [2**31 + 5, 3], m=3), 4)
    b10 = (CodeList(np.array([[1000, 7], [3, 1023]], np.uint16), [0, 1]), 10)
    return {
        "pqz1-rotation": (written(save_quantizer, ROTATED, tmp), load_quantizer,
                          save_quantizer),
        "pqz1-derived": (written(save_quantizer, DERIVED, tmp), load_quantizer,
                         save_quantizer),
        "pql1-big-ids": (written(save_code_file, big_ids, tmp), load_codes, save_code_file),
        "pql1-b10": (written(save_code_file, b10, tmp), load_codes, save_code_file),
        "ivf1": (OLD_IVF, load_ivf, save_ivf),
        "ivf1-derived-big-ids": (written(save_ivf, derived_index, tmp), load_ivf, save_ivf),
    }


SAMPLES = ["pqz1-rotation", "pqz1-derived", "pql1-big-ids", "pql1-b10", "ivf1",
           "ivf1-derived-big-ids"]


@pytest.mark.parametrize("name", SAMPLES)
@given(data=st.data())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_headers_raise_format_error_or_round_trip(tmp_path, name, data):
    raw, load, save = sample_files(tmp_path)[name]
    path = tmp_path / "f.bin"
    path.write_bytes(raw)
    save(tmp_path / "back.bin", load(path))
    assert (tmp_path / "back.bin").read_bytes() == raw
    bad = data.draw(mutations(raw), label="mutated")
    path.write_bytes(bad)
    try:
        loaded = load(path)
    except FormatError:
        return
    save(tmp_path / "back.bin", loaded)
    assert (tmp_path / "back.bin").read_bytes() == bad


def assert_same_fields(got, want):
    """got and want are the same dataclass with equal fields, arrays of the
    same dtype included."""
    assert type(got) is type(want)
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        else:
            assert a == b


@pytest.mark.parametrize("quant", [PLAIN, ROTATED, DERIVED],
                         ids=["plain", "rotated", "derived"])
def test_quantizer_file_round_trips_either_kind(tmp_path, quant):
    save_quantizer(tmp_path / "q.pqz", quant)
    assert_same_fields(load_quantizer(tmp_path / "q.pqz"), quant)


# Input each saver refuses after it has produced part of the file: 4-bit
# codes one component per column, such codes as the second list of an
# index, and a derived quantizer whose bbar no longer fits its int32 field.
UNPACKED = CodeList(np.zeros((50, 4), np.uint8), m=4)
WIDE_BBAR = dataclasses.replace(DERIVED)
WIDE_BBAR.bbar = 2**31


@pytest.mark.parametrize("save, args, error", [
    (save_codes, (UNPACKED, 4), ValueError),
    (save_ivf, (IvfIndex(np.zeros((2, 8)), ProductQuantizer(4, 4, 8, np.zeros((4, 16, 2))),
                         [CodeList(np.zeros((3, 2), np.uint8), m=4), UNPACKED]),), ValueError),
    (save_quantizer, (WIDE_BBAR,), struct.error),
], ids=["codes", "index", "quantizer"])
@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_a_refused_save_leaves_no_file_and_an_old_file_as_it_was(
    tmp_path, save, args, error, existing
):
    path = tmp_path / "out.bin"
    if existing:
        path.write_bytes(OLD_IVF)
    with pytest.raises(error):
        save(path, *args)
    if existing:
        assert path.read_bytes() == OLD_IVF
    else:
        assert not path.exists()
