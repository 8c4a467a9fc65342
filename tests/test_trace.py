import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoikit.errors import RangeError, TraceFormatError
from aoikit.trace import AgeTrace, PacketRecord, read_csv, trace_from_csv_text

from helpers import random_reordered_trace


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
    recs = list(back.records)
    assert recs[1] == PacketRecord(2, 20, None, 100)


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
        assert trace.arrivals == len(gen) + trace.loss_count + trace.obsolete_count


def test_window_invariant_enforced():
    with pytest.raises(RangeError):
        AgeTrace.from_arrays([1], [0], [100], t_start_ns=0, t_end_ns=50)


def test_csv_rejects_timestamps_beyond_signed_64_bit():
    big = 2**63  # valid u64, too large for the internal representation
    text = f"id,gen_ns,recv_ns,size_bytes\n0,{big},{big},0\n"
    with pytest.raises(TraceFormatError) as exc:
        read_csv(io.StringIO(text))
    assert exc.value.line_no == 2


def test_records_materialize_in_order():
    trace = AgeTrace.from_arrays([3, 5], [10, 20], [15, None])
    recs = trace.records
    assert isinstance(recs, list)
    assert [r.id for r in recs] == [3, 5]
    assert recs[1].recv_ns is None


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
        == trace.arrivals


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
    back = trace_from_csv_text(buf.getvalue())
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
    assert trace.arrivals == 1
