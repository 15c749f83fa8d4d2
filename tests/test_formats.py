"""File formats: PTG1 binary tags, CSV tables, JSON reports."""

import json
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homsim as hs
from homsim import formats


def _stream(times, channels):
    return hs.TimeTagStream(
        times_ps=np.asarray(times, dtype=np.int64),
        channels=np.asarray(channels, dtype=np.uint8),
    )


def _raw_file(tmp_path, *, magic=b"PTG1", version=1, resolution=1, records=()):
    """Hand-craft a tag file, bypassing the writer's validation."""
    payload = struct.pack("<4sHQQ", magic, version, resolution, len(records))
    for t, ch in records:
        payload += struct.pack("<QB7x", t, ch)
    p = tmp_path / "crafted.ptg1"
    p.write_bytes(payload)
    return p


class TestPtg1RoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        s = _stream([5, 17, 17, 940, 1200], [0, 1, 0, 1, 1])
        p = tmp_path / "tags.ptg1"
        formats.write_ptg1(p, s)
        back = formats.read_ptg1(p)
        assert np.array_equal(back.times_ps, s.times_ps)
        assert np.array_equal(back.channels, s.channels)
        assert struct.unpack_from("<Q", p.read_bytes(), 6)[0] == 1  # resolution_ps

    def test_write_is_deterministic_bytes(self, tmp_path):
        s = _stream([1, 2, 3], [0, 1, 0])
        p1, p2 = tmp_path / "a.ptg1", tmp_path / "b.ptg1"
        formats.write_ptg1(p1, s)
        formats.write_ptg1(p2, formats.read_ptg1(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_size_is_header_plus_fixed_records(self, tmp_path):
        n = 7
        s = _stream(np.arange(n), np.zeros(n))
        p = tmp_path / "t.ptg1"
        formats.write_ptg1(p, s)
        assert p.stat().st_size == 22 + 16 * n

    def test_empty_stream_round_trips(self, tmp_path):
        p = tmp_path / "empty.ptg1"
        formats.write_ptg1(p, _stream([], []))
        back = formats.read_ptg1(p)
        assert back.n_records == 0
        assert p.stat().st_size == 22

    def test_writer_rejects_unsorted_times(self, tmp_path):
        with pytest.raises(hs.ValidationError):
            formats.write_ptg1(tmp_path / "x.ptg1", _stream([10, 5], [0, 0]))

    def test_writer_rejects_negative_times(self, tmp_path):
        with pytest.raises(hs.ValidationError):
            formats.write_ptg1(tmp_path / "x.ptg1", _stream([-3, 5], [0, 0]))

    def test_files_of_several_slices_match_the_record_layout(self, tmp_path):
        # records are written and read a slice at a time; across the slice
        # boundaries the bytes are those of one whole-file record array
        n = 2 * formats._SLICE_RECORDS + 3
        rng = np.random.default_rng(5)
        s = _stream(np.sort(rng.integers(0, 2**62, n)), rng.integers(0, 2, n))
        p = tmp_path / "big.ptg1"
        formats.write_ptg1(p, s)
        records = np.zeros(n, dtype=[("time", "<u8"), ("channel", "u1"), ("pad", "u1", 7)])
        records["time"], records["channel"] = s.times_ps, s.channels
        assert p.read_bytes() == struct.pack("<4sHQQ", b"PTG1", 1, 1, n) + records.tobytes()
        back = formats.read_ptg1(p)
        assert back.times_ps.dtype == np.int64 and back.channels.dtype == np.uint8
        assert np.array_equal(back.times_ps, s.times_ps)
        assert np.array_equal(back.channels, s.channels)


class TestPtg1Malformed:
    def test_bad_magic_reports_offset_zero(self, tmp_path):
        p = _raw_file(tmp_path, magic=b"JUNK")
        with pytest.raises(hs.ValidationError, match="byte offset 0"):
            formats.read_ptg1(p)

    def test_bad_version_reports_offset_four(self, tmp_path):
        p = _raw_file(tmp_path, version=9)
        with pytest.raises(hs.ValidationError, match="byte offset 4"):
            formats.read_ptg1(p)

    def test_resolution_other_than_1_ps_reports_offset_six(self, tmp_path):
        # ticks of 4 ps would be misread as picoseconds: span 20 for ticks 10..30
        p = _raw_file(tmp_path, resolution=4, records=[(10, 0), (30, 1)])
        with pytest.raises(hs.ValidationError, match="byte offset 6"):
            formats.read_ptg1(p)

    def test_unsorted_record_reports_its_offset(self, tmp_path):
        # record 2 (0-based) goes backwards -> offset 22 + 2*16 = 54
        p = _raw_file(tmp_path, records=[(100, 0), (200, 1), (150, 0)])
        with pytest.raises(hs.ValidationError, match="byte offset 54"):
            formats.read_ptg1(p)

    def test_unsorted_record_past_the_first_slice_reports_its_offset(self, tmp_path):
        n = formats._SLICE_RECORDS + 5
        records = [(i, 0) for i in range(n)]
        records[n - 2] = (0, 0)
        p = _raw_file(tmp_path, records=records)
        with pytest.raises(hs.ValidationError, match="byte offset %d" % (22 + 16 * (n - 2))):
            formats.read_ptg1(p)

    def test_time_beyond_the_int64_clock_reports_offset(self, tmp_path):
        # u64 times of 2^63 and more read as sorted negative int64 times
        p = _raw_file(tmp_path, records=[(2**63 + 7, 0), (2**63 + 9, 1)])
        msg = "time 9223372036854775815 of record 0 at byte offset 22 exceeds the int64"
        with pytest.raises(hs.ValidationError, match=msg):
            formats.read_ptg1(p)

    def test_time_beyond_the_int64_clock_after_good_records_reports_its_offset(self, tmp_path):
        # record 1 reads as a negative int64 time: offset 22 + 1*16 = 38
        p = _raw_file(tmp_path, records=[(100, 0), (2**63 + 5, 1)])
        msg = "time 9223372036854775813 of record 1 at byte offset 38 exceeds the int64"
        with pytest.raises(hs.ValidationError, match=msg):
            formats.read_ptg1(p)

    def test_bad_channel_before_a_time_beyond_the_int64_clock_is_reported_first(self, tmp_path):
        # record 1's channel byte (offset 46) is bad before record 2's time is
        p = _raw_file(tmp_path, records=[(100, 0), (200, 7), (2**63 + 5, 1)])
        msg = "invalid channel 7 in record 1 at byte offset 46"
        with pytest.raises(hs.ValidationError, match=msg):
            formats.read_ptg1(p)

    def test_time_past_the_tag_clock_reports_its_offset(self, tmp_path):
        # record 2 is the first at 2^62 ps or later: offset 22 + 2*16 = 54
        p = _raw_file(tmp_path, records=[(100, 0), (2**62 - 1, 1), (2**62, 0), (2**62 + 3, 1)])
        msg = "time 4611686018427387904 of record 2 at byte offset 54 is past the"
        with pytest.raises(hs.ValidationError, match=msg):
            formats.read_ptg1(p)

    def test_invalid_channel_reports_field_offset(self, tmp_path):
        # record 1's channel byte sits at 22 + 1*16 + 8 = 46
        p = _raw_file(tmp_path, records=[(100, 0), (200, 5)])
        with pytest.raises(hs.ValidationError, match="byte offset 46"):
            formats.read_ptg1(p)

    def test_truncated_header_rejected(self, tmp_path):
        p = tmp_path / "short.ptg1"
        p.write_bytes(b"PTG1\x01\x00")
        with pytest.raises(hs.ValidationError, match="truncated header"):
            formats.read_ptg1(p)

    def test_truncated_records_report_break_point(self, tmp_path):
        good = _raw_file(tmp_path, records=[(100, 0), (200, 1)])
        clipped = good.read_bytes()[:-10]
        bad = tmp_path / "clipped.ptg1"
        bad.write_bytes(clipped)
        with pytest.raises(hs.ValidationError, match="byte offset %d" % len(clipped)):
            formats.read_ptg1(bad)

    def test_equal_adjacent_times_are_legal(self, tmp_path):
        p = _raw_file(tmp_path, records=[(100, 0), (100, 1), (100, 0)])
        back = formats.read_ptg1(p)
        assert back.n_records == 3


@st.composite
def _one_bad_record(draw):
    """A valid stream's times and channels with one corruption, the index of
    the first bad record and the field that makes it bad."""
    n = draw(st.integers(1, 40))
    times = 1 + np.cumsum(draw(st.lists(st.integers(0, 10**9), min_size=n, max_size=n)))
    channels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), np.uint8)
    kind = draw(st.sampled_from(("clock", "channel") + (("unsorted",) if n > 1 else ())))
    k = draw(st.integers(1 if kind == "unsorted" else 0, n - 1))
    if kind == "unsorted":  # record k moved below record k - 1, and still >= 0
        times[k] = times[k - 1] - draw(st.integers(1, int(times[k - 1])))
    elif kind == "clock":  # records k on moved to 2^62 ps or later, in order
        rest = times[k:] - times[k]
        times[k:] = rest + draw(st.integers(2**62, 2**63 - 1 - int(rest[-1])))
    else:
        channels[k] = draw(st.integers(2, 255))
    return times.astype(np.int64), channels, k, "channel" if kind == "channel" else "time"


class TestFirstBadRecord:
    """The tag file reader and TimeTagStream name the same first bad record:
    the reader by its byte offset (+8 for the channel byte), the stream by
    its index."""

    @given(_one_bad_record())
    @settings(max_examples=150, deadline=None)
    def test_reader_names_the_byte_offset_of_the_first_bad_record(self, case):
        times, channels, k, field = case
        with tempfile.TemporaryDirectory() as tmp:
            p = _raw_file(Path(tmp), records=list(zip(times.tolist(), channels.tolist())))
            with pytest.raises(hs.ValidationError) as exc:
                formats.read_ptg1(p)
        offset = 22 + 16 * k + (8 if field == "channel" else 0)
        assert "record %d at byte offset %d" % (k, offset) in str(exc.value)

    @given(_one_bad_record())
    @settings(max_examples=150, deadline=None)
    def test_stream_names_the_index_of_the_first_bad_record(self, case):
        times, channels, k, _ = case
        with pytest.raises(hs.ValidationError) as exc:
            hs.TimeTagStream(times_ps=times, channels=channels)
        assert [int(i) for i in re.findall(r"record (\d+)", str(exc.value))] == [k]


class TestHistogramCsv:
    def _hist(self):
        s = _stream([0, 40, 95, 260, 700, 710], [0, 1, 0, 1, 0, 1])
        return hs.cross_correlate(s, bin_width_ps=50.0, window_ps=500.0)

    def test_round_trip(self, tmp_path):
        h = self._hist()
        p = tmp_path / "hist.csv"
        formats.write_histogram_csv(p, h)
        meta = formats.read_csv_header(p)
        delays, counts = np.loadtxt(p, delimiter=",", unpack=True)
        assert float(meta["bin_width_ps"]) == h.bin_width_ps
        assert float(meta["window_ps"]) == h.window_ps
        assert np.array_equal(delays, h.bin_edges_ps[:-1])
        assert np.array_equal(counts, h.counts)

    def test_metadata_is_comment_prefixed(self, tmp_path):
        p = tmp_path / "hist.csv"
        formats.write_histogram_csv(p, self._hist())
        lines = p.read_text().splitlines()
        assert lines[0].startswith("# bin_width_ps=")
        assert lines[1].startswith("# window_ps=")
        assert all("," in ln for ln in lines[2:])


class TestTimetraceCsv:
    def test_round_trip_with_channel(self, tmp_path):
        tr = hs.Timetrace(
            bin_width_ps=100.0,
            period_ps=1000.0,
            counts=np.array([3, 0, 0, 7, 1, 0, 0, 0, 2, 5], dtype=np.int64),
            channel=1,
        )
        p = tmp_path / "trace.csv"
        formats.write_timetrace_csv(p, tr)
        meta = formats.read_csv_header(p)
        assert float(meta["bin_width_ps"]) == tr.bin_width_ps
        assert float(meta["period_ps"]) == tr.period_ps
        assert float(meta["channel"]) == 1
        assert np.array_equal(np.loadtxt(p, delimiter=",", usecols=1), tr.counts)

    def test_round_trip_without_channel(self, tmp_path):
        tr = hs.Timetrace(
            bin_width_ps=50.0,
            period_ps=200.0,
            counts=np.array([1, 2, 3, 4], dtype=np.int64),
        )
        p = tmp_path / "trace.csv"
        formats.write_timetrace_csv(p, tr)
        assert "channel" not in formats.read_csv_header(p)
        assert np.array_equal(np.loadtxt(p, delimiter=",", usecols=1), tr.counts)

    def test_header_moves_x_to_the_bin_centres(self, tmp_path):
        tr = hs.Timetrace(
            bin_width_ps=20.0,
            period_ps=hs.PulseTrainSpec(rep_rate_mhz=76.0, n_pulses=1).period_ps,
            counts=np.arange(658, dtype=np.int64),
        )
        p = tmp_path / "trace.csv"
        formats.write_timetrace_csv(p, tr)
        x, y = formats.read_timetrace_xy(p)
        edges = np.arange(tr.n_bins) * tr.bin_width_ps
        assert np.array_equal(x, edges + tr.bin_width_ps / 2.0)
        assert np.array_equal(y, tr.counts)

    def test_file_without_header_keeps_its_x(self, tmp_path):
        p = tmp_path / "plain.csv"
        p.write_text("# a comment\n0.25,3\n20.5,7\n1e+06,0\n")
        x, y = formats.read_timetrace_xy(p)
        assert x.tolist() == [0.25, 20.5, 1e6]
        assert y.tolist() == [3.0, 7.0, 0.0]


class TestCsvNumbers:
    """Every number reads back exactly: a column is written %g where that
    is exact for all of its values, and as repr otherwise."""

    def test_exact_columns_keep_their_g_form(self, tmp_path):
        p = tmp_path / "hist.csv"
        formats.write_histogram_csv(p, hs.CorrelationHistogram(50.0, 500.0, np.arange(20)))
        assert p.read_text().splitlines()[:4] == [
            "# bin_width_ps=50", "# window_ps=500", "-500,0", "-450,1"
        ]

    def test_period_of_a_76_mhz_train_round_trips(self, tmp_path):
        train = hs.PulseTrainSpec(rep_rate_mhz=76.0, n_pulses=1)
        tr = hs.Timetrace(
            bin_width_ps=20.0,
            period_ps=train.period_ps,
            counts=np.arange(658, dtype=np.int64),
            channel=0,
        )
        p = tmp_path / "trace.csv"
        formats.write_timetrace_csv(p, tr)
        meta = formats.read_csv_header(p)
        assert float(meta["period_ps"]) == tr.period_ps == 13157.894736842105
        assert float(meta["bin_width_ps"]) == 20.0 and float(meta["channel"]) == 0
        assert np.array_equal(np.loadtxt(p, delimiter=",", usecols=1), tr.counts)
        assert p.read_text().splitlines()[3] == "0,0"

    def test_peak_areas_and_errors_round_trip(self, tmp_path):
        period = hs.PulseTrainSpec(rep_rate_mhz=76.0, n_pulses=1).period_ps
        hist = hs.CorrelationHistogram(10.0, 80000.0, np.full(16000, 4001, dtype=np.int64))
        raw = hs.integrate_peaks(hist, period, n_side=10)
        corrected = hs.integrate_peaks(hist, period, n_side=10, floor=0.3, corrected=True)
        assert np.all(raw.areas >= 1e6)
        p = tmp_path / "peaks.csv"
        formats.write_peaks_csv(p, raw, corrected)
        assert float(formats.read_csv_header(p)["period_ps"]) == period
        k, area_raw, area_corr, err = np.loadtxt(p, delimiter=",", unpack=True)
        assert np.array_equal(k, raw.k_values)
        assert np.array_equal(area_raw, raw.areas)
        assert np.array_equal(area_corr, corrected.areas)
        assert np.array_equal(err, raw.area_errors)

    def test_every_delay_of_a_fine_wide_histogram_is_distinct(self, tmp_path):
        hist = hs.CorrelationHistogram(2.5, 2e6, np.zeros(1_600_000, dtype=np.int64))
        p = tmp_path / "hist.csv"
        formats.write_histogram_csv(p, hist)
        delays = np.loadtxt(p, delimiter=",", usecols=0)
        assert np.array_equal(delays, hist.bin_edges_ps[:-1])
        assert np.unique(delays).size == 1_600_000


class TestXyCsv:
    def test_reads_two_columns_with_comments(self, tmp_path):
        p = tmp_path / "xy.csv"
        p.write_text("# angles and counts\n0,10\n45,6.5\n90,3\n")
        x, y = formats.read_xy_csv(p)
        assert np.array_equal(x, [0.0, 45.0, 90.0])
        assert np.array_equal(y, [10.0, 6.5, 3.0])

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(hs.ValidationError):
            formats.read_xy_csv(p)

    def test_single_column_rejected(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("1\n2\n3\n")
        with pytest.raises(hs.ValidationError):
            formats.read_xy_csv(p)

    def test_whitespace_only_lines_skipped_as_empty_ones(self, tmp_path):
        p = tmp_path / "gaps.csv"
        p.write_text("1,2\n  \n\n\t\n3,4\n")
        x, y = formats.read_xy_csv(p)
        assert np.array_equal(x, [1.0, 3.0])
        assert np.array_equal(y, [2.0, 4.0])

    def test_only_whitespace_lines_have_no_data_rows(self, tmp_path):
        p = tmp_path / "blank.csv"
        p.write_text("  \n\t\n\n")
        with pytest.raises(hs.ValidationError, match="has no data rows"):
            formats.read_xy_csv(p)


class TestReport:
    def test_numpy_values_serialize_to_plain_json(self, tmp_path):
        p = tmp_path / "report.json"
        formats.write_report(
            p,
            {
                "g2": np.float64(0.149),
                "n": np.int64(12),
                "areas": np.array([1.5, 2.5]),
                "nested": {"flag": True, "values": (np.int32(1), 2)},
            },
        )
        data = json.loads(p.read_text())
        assert data["g2"] == 0.149
        assert data["n"] == 12
        assert data["areas"] == [1.5, 2.5]
        assert data["nested"]["values"] == [1, 2]

    def test_other_numpy_values_are_written_as_equal_python_values(self, tmp_path):
        p = tmp_path / "report.json"
        formats.write_report(
            p,
            {
                "f32": np.float32(0.25),
                "i64": np.int64(-7),
                "zero_d": np.array(3.5),
                "pair": (np.array([1, 2]), np.array([0.5])),
            },
        )
        data = json.loads(p.read_text())
        assert data == {"f32": 0.25, "i64": -7, "zero_d": 3.5, "pair": [[1, 2], [0.5]]}
        assert type(data["i64"]) is int and type(data["zero_d"]) is float

    def test_object_json_cannot_write_raises_type_error(self, tmp_path):
        with pytest.raises(TypeError, match="not JSON serializable"):
            formats.write_report(tmp_path / "report.json", {"x": object()})

    def test_output_is_stable_and_sorted(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        formats.write_report(p1, {"b": 1, "a": 2})
        formats.write_report(p2, {"a": 2, "b": 1})
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().endswith("\n")
