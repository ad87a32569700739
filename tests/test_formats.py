"""PQL1 code lists and PQZ1 quantizer headers: byte layout and rejection of
malformed headers before any array is read."""

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqscan import (
    CodeList,
    FormatError,
    ProductQuantizer,
    load_codes,
    load_quantizer,
    save_codes,
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


@given(st.integers(1, 16), st.integers(1, 9), st.integers(0, 20), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_code_list_bytes_match_reference_and_round_trip(b, m, n, seed):
    rng = np.random.default_rng(seed)
    comps = rng.integers(0, 1 << b, (n, m))
    ids = rng.integers(-(2**40), 2**40, n)
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
