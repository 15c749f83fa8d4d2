"""The tag stream, its rules and its files: TimeTagStream and _check_tags,
PTG1 binary time tags, CSV tables, JSON reports.

PTG1 layout (all little-endian): magic "PTG1" (4 bytes), version u16 = 1,
resolution_ps u64, record_count u64 — a 22-byte header — followed by
record_count fixed 16-byte records: time u64, channel u8, 7 reserved zero
bytes. Tag times are integer picoseconds on TimeTagStream's clock: the writer
sets resolution_ps to 1, and the reader rejects any other value rather than
take its ticks for picoseconds. Fixed-stride records allow chunked or
memory-mapped reads; the reader reports malformed input with exact byte
offsets.
"""

from __future__ import annotations

import json
import os
import struct
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import ValidationError

if TYPE_CHECKING:
    from .correlate import CorrelationHistogram, PeakAnalysis, Timetrace

# Tag times lie in [0, TAG_CLOCK_PS) ps, so that a tag plus a dead time or a
# stream span, and the merge key 2 * tag + 1, fit int64.
TAG_CLOCK_PS = 1 << 62


def _check_tags(times, channels, where=lambda i, field: "") -> None:
    """Raises a ValidationError naming the index and value of the first tag
    that breaks a stream rule: times sorted and in [0, TAG_CLOCK_PS) ps,
    channels 0 or 1. where(i, field) says where tag i's "time" or "channel" is."""
    if times.size != channels.size:
        raise ValidationError("times and channels must have equal length")
    unsorted, bad = times[1:] < times[:-1], (channels != 0) & (channels != 1)
    on_clock = not times.size or (times[0] >= 0 and times[-1] < TAG_CLOCK_PS)
    if on_clock and not unsorted.any() and not bad.any():
        return
    bad |= (times < 0) | (times >= TAG_CLOCK_PS)
    bad[1:] |= unsorted
    i = int(np.argmax(bad))
    t, at = int(times[i]), where(i, "time")
    if i and t < times[i - 1]:
        raise ValidationError("unsorted record %d%s: time %d follows %d" % (i, at, t, times[i - 1]))
    if not 0 <= t < TAG_CLOCK_PS:
        msg = "time %d of record %d%s is past the bounds: tag times must lie in [0, 2^62) ps"
        raise ValidationError(msg % (t, i, at))
    msg = "invalid channel %d in record %d%s: channels must be 0 or 1"
    raise ValidationError(msg % (channels[i], i, where(i, "channel")))


@dataclass(frozen=True)
class TimeTagStream:
    """Detector output: channel/time records sorted by time.

    times_ps are integer picoseconds in [0, TAG_CLOCK_PS); channels are
    0/1: rules that live in _check_tags, whose error names the first bad
    tag. run_simulation sets seed; config_digest stays None until the tag
    file carries provenance (ROADMAP item 7).
    """

    times_ps: np.ndarray
    channels: np.ndarray
    seed: int | None = None
    config_digest: str | None = None

    def __post_init__(self) -> None:
        _check_tags(self.times_ps, self.channels)

    @property
    def n_records(self) -> int:
        return int(self.times_ps.size)

    @property
    def span_ps(self) -> int:
        return int(self.times_ps[-1] - self.times_ps[0]) if self.n_records else 0


PTG1_MAGIC = b"PTG1"
PTG1_VERSION = 1
_HEADER = struct.Struct("<4sHQQ")
_RECORD_DTYPE = np.dtype([("time", "<u8"), ("channel", "u1"), ("reserved", "u1", (7,))])
assert _RECORD_DTYPE.itemsize == 16
_SLICE_RECORDS = 1 << 16  # records or CSV rows written or read per slice


def write_ptg1(path, stream: TimeTagStream) -> None:
    """Write a tag stream, one record slice at a time."""
    times, channels = stream.times_ps, stream.channels
    # the reserved bytes stay zero: only time and channel are refilled
    records = np.zeros(min(times.size, _SLICE_RECORDS), dtype=_RECORD_DTYPE)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(PTG1_MAGIC, PTG1_VERSION, 1, times.size))
        for i in range(0, times.size, _SLICE_RECORDS):
            part = records[: min(_SLICE_RECORDS, times.size - i)]
            part["time"] = times[i : i + part.size]
            part["channel"] = channels[i : i + part.size]
            fh.write(part)


def read_ptg1(path) -> TimeTagStream:
    """Read a tag file one record slice at a time, rejecting malformed
    content with byte offsets. The records obey TimeTagStream's rules; an
    error names the first record that breaks one."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size:
            raise ValidationError(
                "truncated header: file is %d bytes, need %d (at byte offset %d)"
                % (size, _HEADER.size, size)
            )
        magic, version, resolution, count = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != PTG1_MAGIC:
            raise ValidationError(
                "bad magic %r at byte offset 0 (expected %r)" % (magic, PTG1_MAGIC)
            )
        if version != PTG1_VERSION:
            raise ValidationError("unsupported version %d at byte offset 4" % version)
        if resolution != 1:
            raise ValidationError(
                "unsupported resolution %d ps at byte offset 6 (tags are 1 ps)" % resolution
            )
        if size - _HEADER.size != count * _RECORD_DTYPE.itemsize:
            raise ValidationError(
                "truncated records: header promises %d records (%d bytes) but %d "
                "bytes follow; file breaks at byte offset %d"
                % (count, count * _RECORD_DTYPE.itemsize, size - _HEADER.size, size)
            )
        times = np.empty(count, dtype=np.int64)
        channels = np.empty(count, dtype=np.uint8)
        records = np.empty(min(count, _SLICE_RECORDS), dtype=_RECORD_DTYPE)
        for i in range(0, count, _SLICE_RECORDS):
            part = records[: min(_SLICE_RECORDS, count - i)]
            if fh.readinto(part) != part.nbytes:
                raise ValidationError("file shrank while read, at byte offset %d" % fh.tell())
            times[i : i + part.size] = part["time"]
            channels[i : i + part.size] = part["channel"]
    try:
        return TimeTagStream(times_ps=times, channels=channels)
    except ValidationError:
        pass  # checked again below, naming the first bad record's byte offset

    def at(i, field):
        offset = _HEADER.size + i * _RECORD_DTYPE.itemsize + _RECORD_DTYPE.fields[field][1]
        return " at byte offset %d" % offset

    # u64 times of 2^63 and more read as negative int64 times
    i = int(np.argmax(times < 0)) if times.min() < 0 else count
    _check_tags(times[:i], channels[:i], at)
    msg = "time %d of record %d%s exceeds the int64 tag clock"
    raise ValidationError(msg % (int(times[i]) + 2**64, i, at(i, "time")))


def _number_format(values) -> str:
    """%g where it reads back as each of values exactly, else %r (repr): one
    format for a column, so that every row costs one format call."""
    values = np.asarray(values, dtype=float).ravel()
    for i in range(0, values.size, _SLICE_RECORDS):
        part = values[i : i + _SLICE_RECORDS]
        if not np.array_equal(np.array(["%g" % v for v in part.tolist()], dtype=float), part):
            return "%r"
    return "%g"


def _write_csv(path, header: dict, columns, names=None) -> None:
    """Header lines "# key=value", then "# names" if given, then one row per entry
    of the columns: integer columns as %d, each float column and header
    value in its _number_format, so that every number reads back exactly."""
    row = ",".join("%d" if c.dtype.kind in "iu" else _number_format(c) for c in columns) + "\n"
    with open(path, "w") as fh:
        for key, value in header.items():
            fh.write("# %s=%s\n" % (key, _number_format(value) % float(value)))
        if names:
            fh.write("# %s\n" % ",".join(names))
        for i in range(0, len(columns[0]), _SLICE_RECORDS):
            rows = zip(*(c[i : i + _SLICE_RECORDS].tolist() for c in columns))
            fh.writelines(row % values for values in rows)


def write_histogram_csv(path, hist: CorrelationHistogram) -> None:
    header = {"bin_width_ps": hist.bin_width_ps, "window_ps": hist.window_ps}
    _write_csv(path, header, (hist.bin_edges_ps[:-1], hist.counts))


def write_timetrace_csv(path, trace: Timetrace) -> None:
    header = {"bin_width_ps": trace.bin_width_ps, "period_ps": trace.period_ps}
    if trace.channel is not None:
        header["channel"] = trace.channel
    _write_csv(path, header, (np.arange(trace.n_bins) * trace.bin_width_ps, trace.counts))


def read_timetrace_xy(path) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) of a timetrace CSV: x is each bin's left edge, moved to its centre
    by a "# bin_width_ps=" header; a file without that header is read as it stands."""
    x, y = read_xy_csv(path)
    bw = read_csv_header(path).get("bin_width_ps")
    if bw is not None:
        try:
            if not 0.0 < float(bw) < np.inf:
                raise ValueError
        except ValueError:
            raise ValidationError("%s: bin_width_ps=%s is not positive and finite" % (path, bw))
        x = x + float(bw) / 2.0
    return x, y


def write_peaks_csv(path, raw: PeakAnalysis, corrected: PeakAnalysis) -> None:
    """The comb's peak areas, raw and floor-corrected, with the Poisson
    errors of the raw areas."""
    header = {"period_ps": raw.period_ps, "delta_t_ps": raw.delta_t_ps}
    columns = (raw.k_values, raw.areas, corrected.areas, raw.area_errors)
    _write_csv(path, header, columns, names=("k", "area_raw", "area_corrected", "poisson_error"))


def read_csv_header(path) -> dict:
    """The "# key=value" lines at the top of a CSV, as strings by key."""
    meta = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
    return meta


def read_xy_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Two-column numeric CSV ('#' comments and blank lines allowed) -> (x, y) arrays."""
    try:
        with open(path) as fh, warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt((ln for ln in fh if ln.strip()), delimiter=",", comments="#", ndmin=2)
    except ValueError as exc:
        raise ValidationError("could not parse %s as numeric CSV: %s" % (path, exc))
    if not data.size:
        raise ValidationError("%s has no data rows" % path)
    if data.shape[1] != 2:
        raise ValidationError("%s must have two numeric columns, not %d" % (path, data.shape[1]))
    return data[:, 0], data[:, 1]


def write_report(path, payload: dict) -> None:
    """Write payload as indented JSON with sorted keys.

    numpy arrays and scalars are written as the equal Python lists and
    numbers; any other object json cannot write raises TypeError.
    """
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_numpy_to_python)
        fh.write("\n")


def _numpy_to_python(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)
