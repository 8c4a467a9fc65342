import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoikit import csvcodec
from aoikit import trace as trace_module
from aoikit.errors import RangeError, TraceFormatError
from aoikit.csvcodec import WRITE_CHUNK
from aoikit.trace import AgeTrace, _read_plain, _read_rows, read_csv

from helpers import closed_loop_trace, random_reordered_trace, reference_delivered


def test_csv_round_trip_with_losses():
    trace = AgeTrace.from_arrays(
        ids=[1, 2, 3, 4],
        gen_ns=[10, 20, 30, 40],
        recv_ns=[15, None, 35, 50],
        sizes=[100, 100, 100, 100],
    )
    buf = io.StringIO()
    trace.write_csv(buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "id,gen_ns,recv_ns,size_bytes"
    assert text.splitlines()[2] == "2,20,,100"

    back = read_csv(io.StringIO(text))
    assert list(back.ids) == [1, 2, 3, 4]
    assert list(back.gen_ns) == [10, 20, 30, 40]
    assert back.loss_count == 1
    assert list(back.recv_ns) == [15, trace_module._LOST, 35, 50]
    assert list(back.sizes) == [100, 100, 100, 100]


def test_csv_round_trip_through_pathlib_path(tmp_path):
    trace = random_reordered_trace(np.random.default_rng(3), 50, loss_p=0.2)
    path = tmp_path / "t.csv"
    trace.write_csv(path)
    back = read_csv(path)
    assert np.array_equal(back.ids, trace.ids)
    assert np.array_equal(back.gen_ns, trace.gen_ns)
    assert np.array_equal(back.recv_ns, trace.recv_ns)
    assert np.array_equal(back.sizes, trace.sizes)


def test_csv_bad_header_reports_line_one():
    with pytest.raises(TraceFormatError) as exc:
        read_csv(io.StringIO("id,gen,recv\n"))
    assert exc.value.line_no == 1


@pytest.mark.parametrize(
    "row,line",
    [
        ("1,100,90,0,extra", 2),
        ("1,abc,110,0", 2),
        ("1,100,110,0\n2,-5,120,0", 3),
    ],
)
def test_csv_malformed_rows_report_line(row, line):
    text = "id,gen_ns,recv_ns,size_bytes\n" + row + "\n"
    with pytest.raises(TraceFormatError) as exc:
        read_csv(io.StringIO(text))
    assert exc.value.line_no == line


def test_ids_must_strictly_increase():
    with pytest.raises(ValueError):
        AgeTrace.from_arrays([1, 1], [0, 10], [5, 15])


def test_recv_before_gen_rejected_without_declared_bias():
    with pytest.raises(ValueError):
        AgeTrace.from_arrays([1], [100], [90])
    # declared bias disables the check
    AgeTrace.from_arrays([1], [100], [90], bias_declared=True)


def test_negative_timestamps_rejected():
    with pytest.raises(RangeError):
        AgeTrace.from_arrays([1], [-5], [10])


@pytest.mark.parametrize("columns,error", [
    (([-3, 0], [0, 1], [2, 3]), RangeError),                # negative id
    (([0, 1], [0, 1], [2, 3], [0, -5]), RangeError),        # negative size
    (([0, 1, 2], [0, 1], [2, 3]), ValueError),              # more ids than stamps
    (([0, 1], [0, 1, 2], [2, 3, 4]), ValueError),           # fewer ids
    (([0, 1], [0, 1], [2, 3], [1, 2, 3]), ValueError),      # more sizes
], ids=["negative-id", "negative-size", "long-ids", "short-ids", "long-sizes"])
def test_trace_refuses_what_its_csv_cannot_carry(columns, error):
    # such a trace would write a file its own reader refuses, or rows
    # that pair the wrong fields
    with pytest.raises(error):
        AgeTrace.from_arrays(*columns)


def test_obsolete_filtering_keeps_strictly_increasing_gens():
    # packet 2 overtakes packet 1 in the network: packet 1's delivery
    # carries an older generation stamp and cannot reduce age
    trace = AgeTrace.from_arrays(
        ids=[1, 2, 3],
        gen_ns=[100, 200, 300],
        recv_ns=[260, 250, 400],
    )
    gen, recv = trace.delivered()
    assert list(gen) == [200, 300]
    assert list(recv) == [250, 400]
    assert trace.obsolete_count == 1


def test_obsolete_filtering_random_traces_monotone():
    rng = np.random.default_rng(7)
    for _ in range(20):
        trace = random_reordered_trace(rng, 300, loss_p=0.1)
        gen, recv = trace.delivered()
        assert np.all(np.diff(gen) > 0)
        assert np.all(np.diff(recv) >= 0)
        assert len(trace) == len(gen) + trace.loss_count + trace.obsolete_count


def test_window_invariant_enforced():
    with pytest.raises(RangeError):
        AgeTrace.from_arrays([1], [0], [100], t_start_ns=0, t_end_ns=50)


def test_csv_rejects_timestamps_beyond_signed_64_bit():
    big = 2**63  # valid u64, too large for the internal representation
    text = f"id,gen_ns,recv_ns,size_bytes\n0,{big},{big},0\n"
    with pytest.raises(TraceFormatError) as exc:
        read_csv(io.StringIO(text))
    assert exc.value.line_no == 2


@settings(max_examples=50, deadline=None)
@given(
    stamps=st.lists(
        st.tuples(st.integers(0, 10**12), st.integers(0, 10**9),
                  st.booleans()),
        min_size=1, max_size=60,
    )
)
def test_obsolete_filtering_property(stamps):
    # arbitrary delays and losses: the surviving deliveries must have
    # strictly increasing generations in delivery order and the counts
    # must balance
    gen = np.cumsum([g + 1 for g, _, _ in stamps]).astype(np.int64)
    recv = [None if lost else int(g + d) for g, (_, d, lost) in zip(gen, stamps)]
    trace = AgeTrace.from_arrays(np.arange(len(gen)), gen, recv)
    kept_gen, kept_recv = trace.delivered()
    assert np.all(np.diff(kept_gen) > 0)
    assert np.all(np.diff(kept_recv) >= 0)
    assert len(kept_gen) + trace.loss_count + trace.obsolete_count \
        == len(trace)


@settings(max_examples=50, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, 10**6),
                  st.one_of(st.none(), st.integers(0, 10**6)),
                  st.integers(0, 4096)),
        min_size=0, max_size=40,
    )
)
def test_csv_round_trip_property(rows):
    ids = np.cumsum([r[0] + 1 for r in rows])
    gen = [r[1] for r in rows]
    recv = [None if r[2] is None else r[1] + r[2] for r in rows]
    sizes = [r[3] for r in rows]
    trace = AgeTrace.from_arrays(ids, gen, recv, sizes)
    buf = io.StringIO()
    trace.write_csv(buf)
    back = read_csv(io.StringIO(buf.getvalue()))
    assert np.array_equal(back.ids, trace.ids)
    assert np.array_equal(back.gen_ns, trace.gen_ns)
    assert np.array_equal(back.recv_ns, trace.recv_ns)
    assert np.array_equal(back.sizes, trace.sizes)


def test_csv_semantic_violations_report_their_line():
    header = "id,gen_ns,recv_ns,size_bytes\n"
    with pytest.raises(TraceFormatError) as exc:
        read_csv(io.StringIO(header + "2,0,10,0\n1,20,30,0\n"))
    assert exc.value.line_no == 3  # ids went backwards
    with pytest.raises(TraceFormatError) as exc:
        read_csv(io.StringIO(header + "0,100,90,0\n"))
    assert exc.value.line_no == 2  # reception before generation
    # the same row parses when a clock bias is declared
    trace = read_csv(io.StringIO(header + "0,100,90,0\n"), bias_declared=True)
    assert len(trace) == 1


# -- bulk read path against the row parser ---------------------------

HEADER = "id,gen_ns,recv_ns,size_bytes\n"
I64_MAX = 2**63 - 1


def read_through_path_and_buffer(directory, text, bias_declared=False):
    """`read_csv` of `text` once from a file and once from a StringIO."""
    path = directory / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    return [read_csv(path, bias_declared=bias_declared),
            read_csv(io.StringIO(text), bias_declared=bias_declared)]


def assert_same_trace(a, b):
    for column in ("ids", "gen_ns", "recv_ns", "sizes"):
        assert np.array_equal(getattr(a, column), getattr(b, column)), column
        assert getattr(a, column).dtype == np.int64
    assert (a.t_start_ns, a.t_end_ns) == (b.t_start_ns, b.t_end_ns)
    assert a.loss_count == b.loss_count
    assert a.obsolete_count == b.obsolete_count


@st.composite
def valid_traces(draw):
    bias = draw(st.booleans())
    ids = sorted(draw(st.lists(st.integers(0, I64_MAX), unique=True, max_size=30)))
    gen, recv, sizes = [], [], []
    for _ in ids:
        g = draw(st.integers(0, I64_MAX))
        gen.append(g)
        recv.append(draw(st.one_of(
            st.none(), st.integers(0 if bias else g, I64_MAX))))
        sizes.append(draw(st.one_of(st.just(0), st.integers(0, I64_MAX))))
    return AgeTrace.from_arrays(ids, gen, recv, sizes, bias_declared=bias)


@settings(max_examples=100, deadline=None)
@given(trace=valid_traces(), block=st.integers(1, 120))
def test_read_csv_matches_row_parser_on_valid_traces(trace, block, tmp_path_factory):
    buf = io.StringIO()
    trace.write_csv(buf)
    text = buf.getvalue()
    bias = trace.bias_declared
    if len(trace):  # the row parser reads a bare header
        assert _read_plain(text.encode("ascii"), bias) is not None
    assert text == write_rows_reference(trace)
    expected = _read_rows(io.StringIO(text), bias)
    for back in read_through_path_and_buffer(tmp_path_factory.mktemp("t"), text, bias):
        assert_same_trace(back, expected)
        assert_same_trace(back, trace)
    # a read block ends at its last newline, or after a row longer than
    # the block: blocks of one row up to blocks of a few
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(csvcodec, "READ_BLOCK", block)
        columns = csvcodec.read_columns(text.encode("ascii"))
    for got, column in zip(columns, (trace.ids, trace.gen_ns, trace.recv_ns, trace.sizes)):
        assert got.dtype == np.int64 and np.array_equal(got, column)


PLAIN = "0,5,7,1\n2,6,,3\n9,8,20,0\n"


def test_plain_input_does_not_reach_the_row_parser(tmp_path, monkeypatch):
    def refuse(f, bias_declared):
        raise AssertionError("row parser called on plain input")

    monkeypatch.setattr(trace_module, "_read_rows", refuse)
    for back in read_through_path_and_buffer(tmp_path, HEADER + PLAIN):
        assert back.recv_ns.tolist() == [7, -1, 20]


@pytest.mark.parametrize("text", [
    HEADER.replace("\n", "\r\n") + PLAIN.replace("\n", "\r\n"),
    "id, gen_ns, recv_ns, size_bytes\n" + PLAIN,
    HEADER + "0, 5,7 ,1\n2,6, ,3\n9,8,20,0\n",
    HEADER + "+0,+5,+7,+1\n2,6,,3\n9,8,20,0\n",
    HEADER + PLAIN.rstrip("\n"),
    HEADER + "\n" + PLAIN,
    HEADER + "0,5,7,1\n\n2,6,,3\n9,8,20,0\n\n",
])
def test_inputs_refused_by_the_bulk_path_still_parse(text, tmp_path):
    assert _read_plain(text.encode("ascii"), False) is None
    canonical = _read_rows(io.StringIO(HEADER + PLAIN), False)
    assert_same_trace(_read_rows(io.StringIO(text, newline=""), False), canonical)
    for back in read_through_path_and_buffer(tmp_path, text):
        assert_same_trace(back, canonical)


def test_long_leading_zero_values_parse_as_before(tmp_path):
    text = HEADER + "0,000000000000000000000005,7,1\n2,6,,3\n9,8,0000000000000000000020,0\n"
    canonical = _read_rows(io.StringIO(HEADER + PLAIN), False)
    assert_same_trace(_read_rows(io.StringIO(text), False), canonical)
    for back in read_through_path_and_buffer(tmp_path, text):
        assert_same_trace(back, canonical)


@pytest.mark.parametrize("width", [19, 20])
def test_bulk_path_reads_fields_of_at_most_19_digits(width, tmp_path):
    text = HEADER + f"0,{5:0{width}d},7,1\n2,6,,3\n9,8,{20:0{width}d},{0:0{width}d}\n"
    assert (_read_plain(text.encode("ascii"), False) is None) == (width > 19)
    canonical = _read_rows(io.StringIO(HEADER + PLAIN), False)
    for back in read_through_path_and_buffer(tmp_path, text):
        assert_same_trace(back, canonical)


@pytest.mark.parametrize("rows", [
    f"{I64_MAX},{I64_MAX},{I64_MAX},{I64_MAX}",
    f"0,1,,{I64_MAX}\n{I64_MAX},0,{I64_MAX},0",
    f"0,{10**18},{10**18 + 1},{10**18 - 1}\n{I64_MAX - 1},{I64_MAX - 1},,0",
    ",".join(["1", "9999999999999999", "10000000000000000", "99999999"]),
], ids=["max-row", "max-last-row", "near-max", "word-boundaries"])
def test_bulk_path_reads_values_up_to_int64_exactly(rows, tmp_path):
    text = HEADER + rows + "\n"
    bulk = _read_plain(text.encode("ascii"), True)
    assert bulk is not None
    expected = _read_rows(io.StringIO(text), True)
    assert_same_trace(bulk, expected)
    for back in read_through_path_and_buffer(tmp_path, text, bias_declared=True):
        assert_same_trace(back, expected)


@pytest.mark.parametrize("column", range(4))
@pytest.mark.parametrize("value", [2**63, 10**19 - 1, 2**64, 10**20])
def test_bulk_converter_refuses_values_beyond_int64(column, value):
    # a 19-digit field is summed in uint64, where it cannot wrap; above
    # 2**63 - 1 it, and any longer field, goes to the row parser
    fields = ["1", "2", "3", "4"]
    fields[column] = str(value)
    text = HEADER + "0,0,1,0\n" + ",".join(fields) + "\n"
    assert _read_plain(text.encode("ascii"), True) is None
    with pytest.raises(TraceFormatError) as exc:
        read_csv(io.StringIO(text), bias_declared=True)
    assert str(exc.value) == "line 3: value exceeds signed 64-bit range"


@pytest.mark.parametrize("rows", [
    "0,5,,1\n2,6,8,3\n9,8,20,0",
    "0,5,7,1\n2,6,8,3\n9,8,,0",
    "0,5,,1",
    "0,5,,1\n2,6,,3\n9,8,,0",
])
def test_empty_recv_in_first_and_last_rows_reads_as_lost(rows, tmp_path):
    text = HEADER + rows + "\n"
    assert _read_plain(text.encode("ascii"), False) is not None
    expected = _read_rows(io.StringIO(text), False)
    assert expected.loss_count == rows.count(",,")
    for back in read_through_path_and_buffer(tmp_path, text):
        assert_same_trace(back, expected)


@pytest.mark.parametrize("rows,line_no", [
    ("0,0,1,0\n,5,7,1", 3),                # empty id
    ("0,0,1,0\n1,,7,1", 3),                # empty gen_ns
    ("0,0,1,0\n1,5,7,", 3),                # empty size_bytes
    ("0,0,1,0\n1,5,7", 3),                 # 3 fields
    ("0,0,1,0\n1,5,7,1,0", 3),             # 5 fields
    ("0,0,1,0\n1,5,7\n2,6,8,9,0", 3),      # 3 then 5 fields: 4 a row on average
    (f"0,0,1,0\n1,{2**63},{2**63},1", 3),  # stamps just beyond int64
    (f"0,0,1,0\n1,5,{2**64},1", 3),        # stamp beyond uint64
    (f"0,0,1,0\n{2**63},5,7,1", 3),        # id beyond int64
    (f"0,0,1,0\n{2**64},5,7,1", 3),
    (f"0,0,1,0\n1,5,7,{2**63}", 3),        # size beyond int64
    (f"0,0,1,0\n1,5,7,{2**64}", 3),
    (f"{2**63},0,1,0\n{2**64},5,7,1", 2),  # first-row id beyond int64
    ("0,0,1,0\n0,5,7,1", 3),               # ids do not increase
    ("0,0,1,0\n1,5,4,1", 3),               # recv before gen without bias
    ("0,0,1,0\n1,5,7,1\n2,6,7,1\n1,9,9,9", 5),  # ids decrease further down
])
def test_malformed_rows_keep_their_line_number_and_message(rows, line_no, tmp_path,
                                                           monkeypatch):
    text = HEADER + rows + "\n"
    with pytest.raises(TraceFormatError) as expected:
        _read_rows(io.StringIO(text), False)
    assert expected.value.line_no == line_no
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("ascii"))
    for source in (path, io.StringIO(text)):
        with pytest.raises(TraceFormatError) as exc:
            read_csv(source)
        assert exc.value.line_no == line_no
        assert str(exc.value) == str(expected.value)
    # read blocks end at newlines: every size puts a block edge before,
    # after or inside the malformed row's block
    for block in range(1, len(text) + 1):
        monkeypatch.setattr(csvcodec, "READ_BLOCK", block)
        with pytest.raises(TraceFormatError) as exc:
            read_csv(io.StringIO(text))
        assert str(exc.value) == str(expected.value), block


@pytest.mark.parametrize("rows", [f"0,0,1,{2**63}", f"{2**63},0,1,0"])
def test_int64_overflow_refused_when_loadtxt_casts_through_float(rows, monkeypatch):
    # numpy versions that retry a failed integer parse as a float warn
    # and return a wrapped int64 instead of raising
    real_loadtxt = np.loadtxt

    def float_fallback(fname, *args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        body = fname.read().replace(str(2**63).encode(), str(-(2**63)).encode())
        return real_loadtxt(io.BytesIO(body), *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", float_fallback)
    with pytest.raises(TraceFormatError) as exc:
        read_csv(io.StringIO(HEADER + rows + "\n"))
    assert (exc.value.line_no, str(exc.value)) == (
        2, "line 2: value exceeds signed 64-bit range")


# -- chunked writer ----------------------------------------------------

def write_rows_reference(trace):
    """The trace as text, one row formatted at a time."""
    out = [HEADER]
    for pid, g, r, size in zip(trace.ids, trace.gen_ns, trace.recv_ns, trace.sizes):
        stamp = "" if r == -1 else str(int(r))
        out.append(f"{int(pid)},{int(g)},{stamp},{int(size)}\n")
    return "".join(out)


def written(trace, directory):
    """What `write_csv` writes, to a file and to a StringIO; both must agree."""
    path = directory / "w.csv"
    trace.write_csv(path)
    buf = io.StringIO()
    trace.write_csv(buf)
    assert path.read_bytes() == buf.getvalue().encode("ascii")
    return buf.getvalue()


def test_writer_matches_per_row_reference_across_a_chunk_boundary(tmp_path):
    n = WRITE_CHUNK + 1
    gen = np.arange(n, dtype=np.int64) * 1000
    recv = [int(g) + 500 for g in gen]
    for i in (0, WRITE_CHUNK - 2, WRITE_CHUNK - 1, WRITE_CHUNK):
        recv[i] = None  # lost rows on both sides of the boundary
    recv[1] = I64_MAX
    sizes = np.arange(n, dtype=np.int64) % 7
    trace = AgeTrace.from_arrays(np.arange(n) * 3, gen, recv, sizes)
    text = written(trace, tmp_path)
    assert text == write_rows_reference(trace)
    lines = text.splitlines()
    last, first = WRITE_CHUNK - 1, WRITE_CHUNK  # around the boundary
    assert lines[1 + last] == f"{3 * last},{1000 * last},,{last % 7}"
    assert lines[1 + first] == f"{3 * first},{1000 * first},,{first % 7}"
    assert_same_trace(read_csv(io.StringIO(text)), trace)


EDGE_VALUES = sorted({0, 9, 10, 99, 100, 999, 1000, 9999, 10000, I64_MAX}
                     | {10**k + d for k in range(1, 19) for d in (-1, 0, 1)})


def test_writer_matches_per_row_reference_on_digit_count_edges(tmp_path):
    # every value whose digit count or base-10**4 chunk count changes,
    # in every column
    n = len(EDGE_VALUES)
    trace = AgeTrace.from_arrays(
        EDGE_VALUES, EDGE_VALUES, EDGE_VALUES[::-1],
        EDGE_VALUES[n // 2:] + EDGE_VALUES[:n // 2], bias_declared=True)
    text = written(trace, tmp_path)
    assert text == write_rows_reference(trace)
    assert_same_trace(read_csv(io.StringIO(text), bias_declared=True), trace)


def test_writer_matches_per_row_reference_with_lost_rows_at_every_boundary(tmp_path):
    # each block is spelt at the width of its own largest values, so the
    # blocks here differ in width; lost rows sit at both ends of the
    # trace and on both sides of each block boundary
    n = 2 * WRITE_CHUNK + 1
    gen = np.arange(n, dtype=np.int64) * 7
    gen[WRITE_CHUNK:2 * WRITE_CHUNK] += 10**15
    gen[-1] = I64_MAX - 10
    recv = [int(g) + 3 for g in gen]
    for i in (0, WRITE_CHUNK - 1, WRITE_CHUNK, 2 * WRITE_CHUNK - 1, n - 1):
        recv[i] = None
    sizes = np.zeros(n, dtype=np.int64)
    sizes[WRITE_CHUNK] = 10**4
    trace = AgeTrace.from_arrays(np.arange(n) + 10**9, gen, recv, sizes)
    text = written(trace, tmp_path)
    assert text == write_rows_reference(trace)
    assert_same_trace(read_csv(io.StringIO(text)), trace)


def test_empty_trace_writes_only_the_header(tmp_path):
    trace = AgeTrace.from_arrays([], [], [])
    assert written(trace, tmp_path) == HEADER
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns on input with no row
        for text in (HEADER, HEADER + "\n", HEADER + "\n\n"):
            for back in read_through_path_and_buffer(tmp_path, text):
                assert_same_trace(back, trace)


@pytest.mark.parametrize("recv, shared", [
    # in order and nothing lost: the trace's own columns
    ([10, 20, 30, 40], True),
    ([10, 20, 20, 40], True),
    ([10, None, 30, 40], False),
    # only a tail undelivered: views of the leading rows
    ([10, 20, None, None], True),
    ([None, 20, 30, 40], False),
    ([25, 20, 30, 40], False),  # reordered: packet 0 turns obsolete
    ([None, None, None, None], False),
    ([], False),
])
def test_delivered_copies_only_what_it_filters(recv, shared):
    gen = [0, 5, 10, 15][:len(recv)]
    trace = AgeTrace.from_arrays(range(len(recv)), gen, recv, t_start_ns=0, t_end_ns=50)
    got = trace.delivered()
    want = reference_delivered(trace)
    for a, b in zip(got, want):
        assert a.dtype == np.int64 and a.tolist() == b.tolist()
        assert not a.flags.writeable
    assert np.shares_memory(got[0], trace.gen_ns) == shared
    assert trace.gen_ns.flags.writeable  # only the returned views are read-only


def test_write_csv_holds_one_block_at_a_time(tmp_path):
    import tracemalloc

    trace = closed_loop_trace(200_000)
    trace.write_csv(tmp_path / "first.csv")  # loads the codec, builds its table
    tracemalloc.start()
    try:
        trace.write_csv(tmp_path / "t.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "first.csv").read_bytes()
    # rows of 11 four-byte words: one block's index, words and bytes;
    # two blocks' worth, or a copy of the index, took about 2 MB
    assert peak < 1_200_000


def test_from_seconds_rounds_each_stamp_as_seconds_to_ns():
    from array import array

    gen = array("d", [0.0, 0.5e-9, 1.5e-9, 2.5e-9, 0.1, 1e3 + 1e-7])
    recv = array("d", [1.0, math.nan, 2.0, 2.5, math.nan, 1e3 + 1e-6])
    trace = AgeTrace.from_seconds(gen, recv, size_bytes=7)
    assert trace.gen_ns.tolist() == [trace_module.seconds_to_ns(t) for t in gen]
    assert trace.recv_ns.tolist() == [
        trace_module._LOST if math.isnan(t) else trace_module.seconds_to_ns(t) for t in recv]
    assert trace.loss_count == 2 and trace.sizes.tolist() == [7] * 6
    assert (trace.t_start_ns, trace.t_end_ns) == (0, trace.recv_ns[-1])
