"""Bit-exact file formats: PTG1 binary time tags, CSV tables, JSON reports.

PTG1 layout (all little-endian): magic "PTG1" (4 bytes), version u16 = 1,
resolution_ps u64, record_count u64 — a 22-byte header — followed by
record_count fixed 16-byte records: time u64, channel u8, 7 reserved zero
bytes. Tag times are integer picoseconds below TAG_CLOCK_PS: the writer
sets resolution_ps to 1, and the reader rejects any other value rather than
take its ticks for picoseconds. Fixed-stride records allow chunked or
memory-mapped reads; the reader reports malformed input with exact byte
offsets.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .correlate import CorrelationHistogram, Timetrace
from .model import ValidationError
from .simulate import TAG_CLOCK_PS, TimeTagStream

PTG1_MAGIC = b"PTG1"
PTG1_VERSION = 1
_HEADER = struct.Struct("<4sHQQ")
_RECORD_DTYPE = np.dtype([("time", "<u8"), ("channel", "u1"), ("reserved", "u1", (7,))])
assert _RECORD_DTYPE.itemsize == 16
_SLICE_RECORDS = 1 << 16  # records written or read per slice


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
    content with byte offsets."""
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
            raise ValidationError(
                "unsupported version %d at byte offset 4" % version
            )
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
    bad = np.flatnonzero(times[1:] < times[:-1])
    if bad.size:
        i = int(bad[0]) + 1
        raise ValidationError(
            "unsorted record %d at byte offset %d: time %d follows %d"
            % (i, _HEADER.size + i * _RECORD_DTYPE.itemsize, times[i], times[i - 1])
        )
    if count and times[0] < 0:  # sorted, so any time of 2^63 or more is first
        raise ValidationError(
            "time %d of record 0 at byte offset %d exceeds the int64 tag clock"
            % (int(times[0]) + 2**64, _HEADER.size)
        )
    i = int(np.searchsorted(times, TAG_CLOCK_PS))
    if i < count:
        raise ValidationError(
            "time %d of record %d at byte offset %d is past the %d ps tag clock"
            % (times[i], i, _HEADER.size + i * _RECORD_DTYPE.itemsize, TAG_CLOCK_PS)
        )
    bad_ch = np.flatnonzero(channels > 1)
    if bad_ch.size:
        i = int(bad_ch[0])
        raise ValidationError(
            "invalid channel %d in record %d at byte offset %d"
            % (channels[i], i, _HEADER.size + i * _RECORD_DTYPE.itemsize + 8)
        )
    return TimeTagStream(times_ps=times, channels=channels)


def write_histogram_csv(path, hist: CorrelationHistogram) -> None:
    edges = hist.bin_edges_ps[:-1]
    with open(path, "w") as fh:
        fh.write("# bin_width_ps=%g\n" % hist.bin_width_ps)
        fh.write("# window_ps=%g\n" % hist.window_ps)
        for start, c in zip(edges, hist.counts):
            fh.write("%g,%d\n" % (start, c))


def read_histogram_csv(path) -> CorrelationHistogram:
    meta = read_csv_header(path)
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    if "bin_width_ps" not in meta or "window_ps" not in meta:
        raise ValidationError(
            "histogram CSV must carry '# bin_width_ps=' and '# window_ps=' headers"
        )
    return CorrelationHistogram(
        bin_width_ps=float(meta["bin_width_ps"]),
        window_ps=float(meta["window_ps"]),
        counts=data[:, 1].astype(np.int64),
    )


def write_timetrace_csv(path, trace: Timetrace) -> None:
    with open(path, "w") as fh:
        fh.write("# bin_width_ps=%g\n" % trace.bin_width_ps)
        fh.write("# period_ps=%g\n" % trace.period_ps)
        if trace.channel is not None:
            fh.write("# channel=%d\n" % trace.channel)
        for i, c in enumerate(trace.counts):
            fh.write("%g,%d\n" % (i * trace.bin_width_ps, c))


def read_timetrace_csv(path) -> Timetrace:
    meta = read_csv_header(path)
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    if "bin_width_ps" not in meta or "period_ps" not in meta:
        raise ValidationError(
            "timetrace CSV must carry '# bin_width_ps=' and '# period_ps=' headers"
        )
    channel = int(meta["channel"]) if "channel" in meta else None
    return Timetrace(
        bin_width_ps=float(meta["bin_width_ps"]),
        period_ps=float(meta["period_ps"]),
        counts=data[:, 1].astype(np.int64),
        channel=channel,
    )


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
    """Two-column numeric CSV ('#' comments allowed) -> (x, y) arrays."""
    try:
        data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    except ValueError as exc:
        raise ValidationError("could not parse %s as numeric CSV: %s" % (path, exc))
    if data.shape[1] < 2:
        raise ValidationError("%s must have two numeric columns" % (path,))
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
