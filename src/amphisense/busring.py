"""Masterless token-ring sensor bus: codec, CRC-8, and a ring simulator.

Ten sensing modules share one half-duplex line.  A passive host opens
the round with a short start broadcast; module 0 transmits first and
each module arms on the completion of its predecessor's frame, waiting
one inter-frame gap before keying the line.  Every observed frame end
also rearms a staggered watchdog in each module (k timeouts for the
module k hops past the last transmitter), so a dead module costs the
ring exactly one timeout and the survivors chain on without any master
arbitration.

Data frames are 11 bytes on the wire: sync 0xAA, module id, three
little-endian int16 flux words, one int16 temperature word, and a
CRC-8 (poly 0x07, init 0x00) over id + payload.  The host's 3-byte
start broadcast (sync 0x55, opcode, CRC-8 over the opcode) is modelled
by its line time only.

Timing fidelity is at byte granularity (10-bit UART bytes); listeners
arm off physical frame boundaries, so corrupted payloads perturb the
host's data ledger but never the ring cadence.

The simulator schedules the ring as one running sum: while the set of
live modules is fixed, every frame starts one gap plus one timeout per
dead module skipped after the previous frame's end, so a block of start
times is one np.add.accumulate.  At a kill the sum marks the module dead
and resumes from the last frame end.  ring_starts is the fault-free
schedule in closed form, which the plant samples.
"""

from __future__ import annotations

import json
import numbers
import struct
from dataclasses import dataclass, field

import numpy as np

SYNC_DATA = 0xAA
FRAME_LEN = 11
CTRL_LEN = 3

FLUX_LSB_MT = 0.001    # mT per count
TEMP_LSB_C = 0.01      # degC per count
# the LSB of each int16 word of a frame: three flux axes, then temperature
_WORD_LSB = np.array([FLUX_LSB_MT, FLUX_LSB_MT, FLUX_LSB_MT, TEMP_LSB_C])


class BusError(ValueError):
    """Base class for codec and configuration failures."""


class BadSyncError(BusError):
    pass


class BadCrcError(BusError):
    pass


class ShortFrameError(BusError):
    pass


class EncodingRangeError(BusError):
    """Scaled field exceeds the int16 wire range."""


def _crc8_table():
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = ((crc << 1) ^ 0x07) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
        table.append(crc)
    return bytes(table)


_CRC8_TABLE = _crc8_table()
_CRC8_GATHER = np.frombuffer(_CRC8_TABLE, dtype=np.uint8)


def crc8(data) -> int:
    """CRC-8 with polynomial 0x07 and init 0x00, MSB first (table driven)."""
    crc = 0
    for byte in bytes(data):
        crc = _CRC8_TABLE[crc ^ byte]
    return crc


@dataclass
class FluxSample:
    module_id: int
    flux_mt: np.ndarray          # 3-axis flux, mT
    temp_c: float = 25.0

    def __post_init__(self):
        self.flux_mt = np.asarray(self.flux_mt, dtype=float).reshape(3)


def quantize(values, lsb: float) -> np.ndarray:
    """Round values (any shape) to int16 wire counts of `lsb`, half to even;
    raises EncodingRangeError for a value not finite or beyond int16."""
    counts = np.rint(np.asarray(values, dtype=float) / lsb)
    # int16 is [-32768, 32767], i.e. |counts + 1/2| <= 32767.5; NaN fails too
    ok = np.abs(counts + 0.5) <= 32767.5
    if not ok.all():
        raise EncodingRangeError(f"value {np.asarray(values)[~ok].flat[0]!r} is not "
                                 f"finite or exceeds int16 range at lsb={lsb}")
    return counts.astype(np.int16)


def encode_frames(module_ids, flux_mt, temp_c) -> np.ndarray:
    """Serialize n samples, given as module ids (n,), flux (n, 3) in mT and
    temperatures (n,) in degC, to an (n, 11) uint8 array of wire frames."""
    ids = np.asarray(module_ids)
    if ids.size and (ids.dtype.kind not in "iu" or ids.min() < 0 or ids.max() > 0xFF):
        raise EncodingRangeError("module id must be an integer that fits one byte")
    words = quantize(np.column_stack([np.reshape(flux_mt, (-1, 3)), temp_c]),
                     _WORD_LSB)
    frames = np.empty((len(words), FRAME_LEN), dtype=np.uint8)
    frames[:, 0] = SYNC_DATA
    frames[:, 1] = ids
    frames[:, 2:10] = words.astype("<i2").view(np.uint8)
    frames[:, 10] = _crc8_columns(frames[:, 1:10])
    return frames


def _crc8_columns(rows) -> np.ndarray:
    """crc8 of each row of a 2-D uint8 array: one table gather per column."""
    crc = np.zeros(len(rows), dtype=np.uint8)
    for col in rows.T:
        crc = _CRC8_GATHER[crc ^ col]
    return crc


def check_frames(frames) -> np.ndarray:
    """The host's check of an (n, 11) frame array: True where a row has the
    data sync byte and its CRC-8 matches, as decode_frame would accept it."""
    return (frames[:, 0] == SYNC_DATA) & (_crc8_columns(frames[:, 1:10]) == frames[:, 10])


def encode_frame(sample: FluxSample) -> bytes:
    """Serialize a sample to the 11-byte wire frame."""
    return encode_frames([sample.module_id], sample.flux_mt, [sample.temp_c]).tobytes()


def decode_frame(buf) -> FluxSample:
    """Parse and validate one wire frame back into a FluxSample."""
    buf = bytes(buf)
    if len(buf) < FRAME_LEN:
        raise ShortFrameError(f"need {FRAME_LEN} bytes, got {len(buf)}")
    if buf[0] != SYNC_DATA:
        raise BadSyncError(f"bad sync byte 0x{buf[0]:02X}")
    body, crc = buf[1:10], buf[10]
    if crc8(body) != crc:
        raise BadCrcError("frame check failed")
    words = struct.unpack("<4h", body[1:])
    return FluxSample(
        module_id=body[0],
        flux_mt=np.array(words[:3], dtype=float) * FLUX_LSB_MT,
        temp_c=words[3] * TEMP_LSB_C,
    )


@dataclass(frozen=True)
class LineConfig:
    baud: int = 1_000_000
    bits_per_byte: int = 10        # 8N1
    inter_frame_gap: float = 20e-6
    timeout: float = None

    def __post_init__(self):
        if self.baud <= 0:
            raise BusError("baud must be positive")
        if (isinstance(self.bits_per_byte, bool)
                or not isinstance(self.bits_per_byte, numbers.Integral)
                or self.bits_per_byte <= 0):
            raise BusError(f"bits_per_byte must be a positive integer, got "
                           f"{self.bits_per_byte!r}")
        if not self.inter_frame_gap >= 0:      # NaN fails too
            raise BusError("gap must be non-negative")
        if self.timeout is None:
            object.__setattr__(
                self, "timeout", 2.0 * (self.frame_time + self.inter_frame_gap)
            )
        if not self.timeout > self.frame_time:
            raise BusError("timeout must exceed one frame duration")

    @property
    def byte_time(self) -> float:
        return self.bits_per_byte / self.baud

    @property
    def frame_time(self) -> float:
        return FRAME_LEN * self.byte_time

    @property
    def ctrl_time(self) -> float:
        return CTRL_LEN * self.byte_time


def ring_round_period(n_modules: int, config: LineConfig) -> float:
    """Fault-free round period: n slots of one frame plus one gap."""
    return n_modules * (config.frame_time + config.inter_frame_gap)


def ring_rate(n_modules: int, config: LineConfig) -> float:
    """Fault-free per-module sample rate in Hz."""
    return 1.0 / ring_round_period(n_modules, config)


def ring_starts(n_modules: int, config: LineConfig, t_stop: float) -> np.ndarray:
    """(n_modules, rounds) frame starts of the fault-free ring: module i at
    t0 + i * slot + c * round_p in rounds c = 0 to int(t_stop / round_p) + 1."""
    slot = config.frame_time + config.inter_frame_gap
    round_p = ring_round_period(n_modules, config)
    c = np.arange(int(t_stop / round_p) + 2)
    return (config.ctrl_time + config.inter_frame_gap + np.arange(n_modules)[:, None] * slot
            + c * round_p)


def motor_bus_budget(n_motors: int, t_write: float, t_read: float) -> float:
    """Max motor-loop rate when every cycle writes and reads each motor."""
    if n_motors <= 0 or t_write <= 0 or t_read <= 0:
        raise BusError("motor budget inputs must be positive")
    return 1.0 / (n_motors * (t_write + t_read))


@dataclass(frozen=True)
class FaultPlan:
    """Scheduled failures: permanent kills and random flips.

    kills: (time_s, module_id) pairs; from time_s on, the module never
        starts a frame again.
    flip_rate: probability that a transmitted frame has one random bit
        of its id/payload/crc region flipped as seen by the host.
    """

    kills: tuple = ()
    flip_rate: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.flip_rate <= 1.0:
            raise BusError("flip_rate must be in [0, 1]")
        # a NaN kill would never take effect and hold back every later one
        if not all(abs(t) < float("inf") for t, _ in self.kills):
            raise BusError("kill times must be finite")


@dataclass
class RingStats:
    """What the host saw of one ring run: per-module frame counts, fault
    counters and round periods.  corrupt_injected counts the flipped
    frames that started.  collisions is always 0, as no two frames share
    the line; it stays in the stats and their JSON for their readers."""

    n_modules: int
    duration: float
    frames_sent: np.ndarray
    frames_ok: np.ndarray
    corrupt_injected: int = 0
    corrupt_detected: int = 0
    timeout_recoveries: int = 0
    collisions: int = 0
    round_periods: dict = field(default_factory=dict)
    # (t, module id, 11 frame bytes, ok) per ended frame; opt-in, for tests
    # and golden digests
    frame_log: list = None
    # the end time (float64) and module id (int32) of each frame that ended,
    # in end order: the frame log's first two columns
    frame_ends: np.ndarray = None
    frame_modules: np.ndarray = None

    @property
    def rates_hz(self) -> np.ndarray:
        return self.frames_sent / self.duration

    def to_json(self, path=None):
        doc = {
            "n_modules": self.n_modules,
            "duration_s": self.duration,
            "frames_sent": self.frames_sent.tolist(),
            "frames_ok": self.frames_ok.tolist(),
            "rates_hz": self.rates_hz.tolist(),
            "corrupt_injected": self.corrupt_injected,
            "corrupt_detected": self.corrupt_detected,
            "timeout_recoveries": self.timeout_recoveries,
            "collisions": self.collisions,
            "round_periods": self.round_periods,
        }
        if path is not None:
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=1)
        return doc


# frames per block of the running sum between kills
_BLOCK = 2048
# the most fault-free frames a ring may hold: 18 min of bus time on the default
# line.  The schedule and the array pass peak at 31 B a frame (tracemalloc, 1M
# frames, clean or with a kill and flips), so under 270 MB; with its frame log
# a ring peaks at 174 B a frame, and may hold as many as fit that budget
_MAX_FRAMES = 2 ** 23
_MAX_LOGGED_FRAMES = _MAX_FRAMES * 31 // 174


def _schedule_ring(n_modules, config, duration, faults, rng):
    """The ring's timing alone: which module starts a frame when.

    Returns (start, module, flipped, timeout_recoveries).  Frames are
    numbered in start order, which is time order; start and module hold
    each one's start time (array 'd') and module id ('i').  flipped lists
    the (frame, bit) pairs of the bit flips, the bit counted over the
    id/payload/crc region.

    While the set of live modules is fixed, each frame's start is the
    previous frame's end plus the gap plus one timeout per dead module
    skipped: a block of frames is one running sum over [end, gap,
    waits*timeout, frame_time, gap, ...], which adds the module's rearm
    time t_end + gap + k*timeout as the watchdogs do.  The sum stops at
    the first frame whose module has a kill due by its start, marks dead
    every module whose kill is due by then, and resumes from the frame end
    before.  The bit flips are drawn afterwards, frame by frame in start
    order.
    """
    # imported here, so that runs which never simulate the ring do not map
    # the extension module
    from array import array

    gap, timeout, frame_time = config.inter_frame_gap, config.timeout, config.frame_time
    alive = [True] * n_modules
    kills = sorted(faults.kills)
    start, module = array("d"), array("i")
    recoveries = 0
    # the host start broadcast acts as a frame from module n-1
    t_end, last = config.ctrl_time, n_modules - 1
    while True:
        live = np.flatnonzero(alive)
        if not live.size:
            break
        # each module's earliest kill
        due = np.full(n_modules, np.inf)
        for tk, m in reversed(kills):
            due[m] = tk
        # the live modules in ring order from the one after `last`, repeated
        # for a whole number of rounds per block, and the timeouts each
        # frame waits: one per dead module it skips (n - 1 for a lone
        # survivor, which rearms itself)
        order = np.roll(live, -int(np.searchsorted(live, last, side="right")))
        tx = np.resize(order, len(order) * max(1, _BLOCK // len(order))).astype(np.intc)
        waits = (np.diff(tx, prepend=last) - 1) % n_modules
        # the addends [t_end, gap, waits*timeout, frame_time, gap, ...]: the
        # running sum holds frame k's start at 3k + 2 and its end at 3k + 3
        vals = np.empty(3 * len(tx) + 1)
        vals[1::3] = gap
        vals[2::3] = waits * timeout
        vals[3::3] = frame_time
        sums = np.empty_like(vals)
        starts = sums[2::3]
        while True:
            vals[0] = t_end
            np.add.accumulate(vals, out=sums)
            n = len(tx)
            if starts[-1] > duration:
                n = int(np.searchsorted(starts, duration, side="right"))
            hit = np.flatnonzero(starts[:n] >= due[tx[:n]])
            f = int(hit[0]) if hit.size else n
            start.frombytes(starts[:f].tobytes())
            module.frombytes(tx[:f].tobytes())
            recoveries += int(np.count_nonzero(waits[:f]))
            if f:
                t_end, last = float(sums[3 * f]), int(tx[f - 1])
            if f < len(tx):
                break
            # the next block starts a round on, from the round's last module
            waits[0] = (order[0] - order[-1] - 1) % n_modules
            vals[2] = waits[0] * timeout
        if f == n:
            break
        # frame f's module is dead by its turn: so is every module whose
        # kill is due by then, and the sum resumes from t_end
        while kills and kills[0][0] <= starts[f]:
            alive[kills.pop(0)[1]] = False
    return start, module, _draw_flips(len(start), faults.flip_rate, rng), recoveries


def _draw_flips(n_frames, flip_rate, rng):
    """(frame, bit) pairs of the bit flips: frame f draws one rng.random(),
    and a draw below flip_rate takes one rng.integers() for its bit, in
    start order.  The uniforms are drawn a block at a time; at a hit the
    generator's state is restored and the block redrawn up to the hit, so
    the bit's draw follows it, as frame-by-frame draws would.  An rng of
    None is np.random.default_rng(0), made only when flips are drawn, so
    a flip-free ring never loads numpy.random."""
    flipped = []
    bit = 8 * (FRAME_LEN - 1)
    if not flip_rate > 0.0:
        return flipped
    rng = np.random.default_rng(0) if rng is None else rng
    # about two hits' worth of frames per block
    block = int(min(_BLOCK, 2.0 / flip_rate))
    bit_generator = rng.bit_generator
    f = 0
    while f < n_frames:
        state = bit_generator.state
        hits = np.flatnonzero(rng.random(min(block, n_frames - f)) < flip_rate)
        if not hits.size:
            f += block
            continue
        bit_generator.state = state
        rng.random(int(hits[0]) + 1)
        f += int(hits[0])
        flipped.append((f, int(rng.integers(0, bit))))
        f += 1
    return flipped


def simulate_ring(n_modules: int, config: LineConfig, duration: float,
                  faults: FaultPlan = None, rng=None,
                  record_frames: bool = False) -> RingStats:
    """Run the ring for `duration` seconds of bus time.

    At frame granularity.  Every frame completion rearms the ring: the
    module k + 1 hops downstream of the transmitter fires after the gap
    plus k timeouts, unless a newer frame rearms the ring first.  Hop 1 is
    the normal token handoff; a later one skips dead modules at the cost
    of one timeout each (self-healing).  The host start broadcast acts as
    a virtual frame from module n-1, so module 0 opens every run.

    The schedule is a running sum that restarts at each kill; it keeps
    timing only.  One frame is on the line at a time, since a module keys
    the line only after the frame before it has ended.  A ring of over
    _MAX_FRAMES fault-free frames (_MAX_LOGGED_FRAMES with record_frames)
    is refused up front.  Every module sends zero flux at 25 degC, so the
    host checks each module's frame once: an ended frame is ok when its
    module's frame, or its own bytes if flipped, pass sync and CRC-8.
    `rng` draws the bit flips (None: np.random.default_rng(0)).

    Returns accumulated RingStats; protocol anomalies are counted, not
    raised.  Its frame_ends and frame_modules hold each ended frame's end
    time and module in end order; record_frames adds the frame_log of
    Python tuples with each frame's bytes and check, which costs far more
    than the ring and is meant for tests and golden digests.
    """
    if not 1 <= n_modules <= 256:
        raise BusError(f"n_modules must be 1-256, since a frame carries its module id "
                       f"in one byte; got {n_modules!r}")
    if not 0 < duration < float("inf"):     # NaN fails too
        raise BusError(f"duration must be positive and finite, got {duration!r}")
    limit = _MAX_LOGGED_FRAMES if record_frames else _MAX_FRAMES
    if duration / (config.frame_time + config.inter_frame_gap) > limit:
        raise BusError(f"duration {duration!r} s is over {limit} frames on this line")
    faults = faults or FaultPlan()
    for _, mid in faults.kills:
        if not 0 <= mid < n_modules:
            raise BusError("fault targets unknown module")
    start, module, flipped, recoveries = _schedule_ring(n_modules, config, duration,
                                                        faults, rng)

    zero = encode_frames(np.arange(n_modules), np.zeros((n_modules, 3)),
                         np.full(n_modules, 25.0))
    module = np.asarray(module)
    rows, bits = np.array(flipped, dtype=np.intp).reshape(-1, 2).T
    flips = zero[module[rows]]
    flips[np.arange(len(rows)), 1 + bits // 8] ^= np.left_shift(1, bits % 8).astype(np.uint8)
    ok = check_frames(zero)[module]
    ok[rows] = check_frames(flips)

    # the start times become end times in place: the schedule is spent
    t_end = np.asarray(start)
    t_end += config.frame_time
    n_ended = int(np.searchsorted(t_end, duration, side="right"))
    t_end, ended, ok = t_end[:n_ended], module[:n_ended], ok[:n_ended]
    return RingStats(
        n_modules=n_modules,
        duration=duration,
        frames_sent=np.bincount(ended, minlength=n_modules),
        frames_ok=np.bincount(ended[ok], minlength=n_modules),
        corrupt_injected=len(rows),
        corrupt_detected=n_ended - int(ok.sum()),
        timeout_recoveries=recoveries,
        round_periods=_round_periods(ended, t_end),
        frame_log=_frame_log(t_end, ended, ok, zero, rows, flips) if record_frames else None,
        frame_ends=t_end,
        frame_modules=ended,
    )


def _round_periods(module, t_end):
    """min/mean/max/count of each frame's period since its module's
    previous frame, taken in end order; {} when no module sent twice."""
    periods = np.full(len(module), np.nan)
    for m in np.flatnonzero(np.bincount(module) > 1):
        idx = np.flatnonzero(module == m)
        periods[idx[1:]] = np.diff(t_end[idx])
    periods = periods[~np.isnan(periods)]
    if not periods.size:
        return {}
    return {
        "min": float(periods.min()),
        "mean": float(periods.mean()),
        "max": float(periods.max()),
        "count": int(periods.size),
    }


# frames per chunk of the frame log
_LOG_CHUNK = 4096


def _frame_log(t_end, module, ok, zero, rows, flips):
    """frame_log entries (t, module id, 11 frame bytes, ok) of the ended
    frames, each its module's zero frame or its row of flips, made a chunk
    at a time: the log is the run's peak memory, and whole-run Python lists
    next to it would raise that peak."""
    frames = zero[module]
    ended = rows < len(module)
    frames[rows[ended]] = flips[ended]
    log = []
    for lo in range(0, len(frames), _LOG_CHUNK):
        hi = lo + _LOG_CHUNK
        blob = frames[lo:hi].tobytes()
        log.extend(zip(t_end[lo:hi].tolist(), module[lo:hi].tolist(),
                       [blob[k:k + FRAME_LEN] for k in range(0, len(blob), FRAME_LEN)],
                       ok[lo:hi].tolist()))
    return log
