"""Masterless token-ring sensor bus: codec, CRC-8, and an event-driven sim.

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
"""

from __future__ import annotations

import heapq
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


def encode_frames(module_ids, flux_mt, temp_c, flux_lsb: float = FLUX_LSB_MT,
                  temp_lsb: float = TEMP_LSB_C) -> np.ndarray:
    """Serialize n samples, given as module ids (n,), flux (n, 3) in mT and
    temperatures (n,) in degC, to an (n, 11) uint8 array of wire frames."""
    ids = np.asarray(module_ids)
    if ids.size and (ids.dtype.kind not in "iu" or ids.min() < 0 or ids.max() > 0xFF):
        raise EncodingRangeError("module id must be an integer that fits one byte")
    words = quantize(np.column_stack([np.reshape(flux_mt, (-1, 3)), temp_c]),
                     np.array([flux_lsb, flux_lsb, flux_lsb, temp_lsb]))
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


def encode_frame(sample: FluxSample, flux_lsb: float = FLUX_LSB_MT,
                 temp_lsb: float = TEMP_LSB_C) -> bytes:
    """Serialize a sample to the 11-byte wire frame."""
    return encode_frames([sample.module_id], sample.flux_mt, [sample.temp_c],
                         flux_lsb, temp_lsb).tobytes()


def decode_frame(buf, flux_lsb: float = FLUX_LSB_MT,
                 temp_lsb: float = TEMP_LSB_C) -> FluxSample:
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
        flux_mt=np.array(words[:3], dtype=float) * flux_lsb,
        temp_c=words[3] * temp_lsb,
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


def motor_bus_budget(n_motors: int, t_write: float, t_read: float) -> float:
    """Max motor-loop rate when every cycle writes and reads each motor."""
    if n_motors <= 0 or t_write <= 0 or t_read <= 0:
        raise BusError("motor budget inputs must be positive")
    return 1.0 / (n_motors * (t_write + t_read))


@dataclass(frozen=True)
class FaultPlan:
    """Scheduled failures: permanent kills, one-shot delays, random flips.

    kills: (time_s, module_id) pairs; the module never transmits again.
    delays: (time_s, module_id, extra_s) — the module's next transmission
        after time_s starts late by extra_s.
    flip_rate: probability that a transmitted frame has one random bit
        of its id/payload/crc region flipped as seen by the host.
    """

    kills: tuple = ()
    delays: tuple = ()
    flip_rate: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.flip_rate <= 1.0:
            raise BusError("flip_rate must be in [0, 1]")


@dataclass
class RingStats:
    n_modules: int
    duration: float
    frames_sent: np.ndarray
    frames_ok: np.ndarray
    corrupt_injected: int = 0
    corrupt_detected: int = 0
    timeout_recoveries: int = 0
    collisions: int = 0
    round_periods: dict = field(default_factory=dict)
    frame_log: list = None

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


# event kinds of the ring's queue
_ARM, _FIRE, _END = 0, 1, 2


def _schedule_ring(n_modules, config, duration, faults, rng):
    """The ring's timing alone: which module starts a frame when.

    Returns (start, module, collided, flipped, n_ended, timeout_recoveries,
    collisions).  Frames are numbered in start order; start and module
    hold each one's start time (array 'd') and module id ('i').  The rare
    faults are listed by frame number: collided holds the frames a
    collision corrupted, flipped (frame, bit) pairs, the bit counted over
    the id/payload/crc region.  Every frame ends frame_time after it
    starts, so the frames that ended within `duration` are the first
    n_ended.
    """
    # imported here, so that runs which never simulate the ring do not map
    # the extension module
    from array import array

    gap, timeout, frame_time = config.inter_frame_gap, config.timeout, config.frame_time
    flip_rate = faults.flip_rate
    draw, integers = rng.random, rng.integers
    alive = [True] * n_modules
    kills = sorted(faults.kills)
    delays = sorted([list(d) + [False] for d in faults.delays])
    start, module = array("d"), array("i")
    collided, flipped = [], []
    n_ended = recoveries = collisions = 0
    busy_until = 0.0
    push, pop = heapq.heappush, heapq.heappop

    # entries: (time, seq, kind, module, step, t_end, gen).  A rearm by the
    # frame that ended at t_end reserves n sequence numbers from `gen` and
    # module i's step sorts at gen + i, so ties pop in module order.  The
    # ring generation is the latest rearm's `gen`; an `arm` or delayed
    # `fire` entry of an older generation is stale.  The host start
    # broadcast acts as a frame from module n-1.
    events = [(config.ctrl_time + gap, 0, _ARM, 0, 0, config.ctrl_time, 0)]
    seq = n_modules
    gen = 0
    while events:
        t, _, kind, i, k, t_end, g = pop(events)
        if t > duration:
            break
        while kills and kills[0][0] <= t:
            alive[kills.pop(0)[1]] = False
        if kind == _END:
            n_ended += 1
            gen = seq
            i = (i + 1) % n_modules
            push(events, (t + gap, gen + i, _ARM, i, 0, t, gen))
            seq += n_modules
            continue
        if kind == _ARM:
            if g != gen:
                continue
            if k + 1 < n_modules:
                nxt = (i + 1) % n_modules
                push(events, (t_end + gap + (k + 1) * timeout, g + nxt,
                              _ARM, nxt, k + 1, t_end, g))
            if not alive[i]:
                continue
            recoveries += k > 0
        elif g != gen or not alive[i]:
            continue
        for d in delays:
            if d[1] == i and d[0] <= t and not d[3]:
                d[3] = True
                push(events, (t + d[2], seq, _FIRE, i, 0, 0.0, gen))
                seq += 1
                break
        else:
            hit = t < busy_until
            if hit:
                # half-duplex collision: both frames are lost deterministically
                collisions += 1
                collided += (len(start) - 1, len(start))
            if flip_rate > 0.0 and draw() < flip_rate:
                flipped.append((len(start), int(integers(0, 8 * (FRAME_LEN - 1)))))
            start.append(t)
            module.append(i)
            t_end = t + frame_time
            if t_end > busy_until:
                busy_until = t_end
            push(events, (t_end, seq, _END, i, 0, 0.0, 0))
            seq += 1
    return start, module, collided, flipped, n_ended, recoveries, collisions


def simulate_ring(n_modules: int, config: LineConfig, duration: float,
                  faults: FaultPlan = None, sample_source=None,
                  rng=None, record_frames: bool = False) -> RingStats:
    """Run the ring for `duration` seconds of bus time.

    Event-driven at frame granularity.  Every frame completion rearms the
    ring with one `arm` entry that walks downstream from the transmitter:
    its k-th step fires the module k + 1 hops on after the gap plus k
    timeouts, unless a newer frame rearms the ring first.  Step 0 is the
    normal token handoff; a later step skips dead modules at the cost of
    one timeout each (self-healing).  The host start broadcast acts as a
    virtual frame from module n-1, so module 0 opens every run.

    The event loop keeps timing only.  The frames are encoded, flipped and
    checked afterwards in one array pass: `sample_source(module_id, t)` is
    called once per started frame, in start order, for its FluxSample;
    None sends zero flux at 25 degC.

    Returns accumulated RingStats; protocol anomalies are counted, not
    raised.
    """
    if n_modules < 1:
        raise BusError("need at least one module")
    if not 0 < duration < float("inf"):     # NaN fails too
        raise BusError(f"duration must be positive and finite, got {duration!r}")
    faults = faults or FaultPlan()
    for _, mid in faults.kills:
        if not 0 <= mid < n_modules:
            raise BusError("fault targets unknown module")
    start, module, collided, flipped, n_ended, recoveries, collisions = _schedule_ring(
        n_modules, config, duration, faults, rng or np.random.default_rng(0))

    # one array pass over the frames
    if sample_source is None:
        top = max(module, default=-1) + 1
        frames = encode_frames(np.arange(top), np.zeros((top, 3)), np.full(top, 25.0))
        frames = frames[np.asarray(module)]
    else:
        samples = [sample_source(i, t) for i, t in zip(module, start)]
        frames = encode_frames([s.module_id for s in samples],
                               np.array([s.flux_mt for s in samples]),
                               [s.temp_c for s in samples])
        del samples
    rows, bits = np.array(flipped, dtype=np.intp).reshape(-1, 2).T
    frames[rows, 1 + bits // 8] ^= np.left_shift(1, bits % 8).astype(np.uint8)
    corrupted = np.zeros(len(frames), dtype=bool)
    corrupted[collided] = True
    corrupted[rows] = True

    frames = frames[:n_ended]
    ended = np.asarray(module)[:n_ended]
    # a collided frame is garbled on the line, though its bytes here are not
    ok = check_frames(frames) & ~corrupted[:n_ended]
    # the start times become end times in place: the schedule is spent
    t_end = np.asarray(start)[:n_ended]
    t_end += config.frame_time
    return RingStats(
        n_modules=n_modules,
        duration=duration,
        frames_sent=np.bincount(ended, minlength=n_modules),
        frames_ok=np.bincount(ended[ok], minlength=n_modules),
        corrupt_injected=int(corrupted.sum()),
        corrupt_detected=n_ended - int(ok.sum()),
        timeout_recoveries=recoveries,
        collisions=collisions,
        round_periods=_round_periods(ended, t_end),
        frame_log=_frame_log(t_end, ended, frames, ok) if record_frames else None,
    )


def _round_periods(module, t_end):
    """min/mean/max/count of each frame's period since its module's
    previous frame, taken in end order; {} when no module sent twice."""
    periods = np.empty(len(module))
    has_prev = np.zeros(len(module), dtype=bool)
    for m in np.flatnonzero(np.bincount(module) > 1):
        idx = np.flatnonzero(module == m)
        periods[idx[1:]] = np.diff(t_end[idx])
        has_prev[idx[1:]] = True
    periods = periods[has_prev]
    if not periods.size:
        return {}
    return {
        "min": float(periods.min()),
        "mean": float(periods.mean()),
        "max": float(periods.max()),
        "count": int(periods.size),
    }


def _frame_log(t_end, module, frames, ok, chunk=4096):
    """frame_log entries (t, module id, 11 frame bytes, ok) as Python
    objects, made a chunk at a time: the log is the run's peak memory, and
    whole-run Python lists next to it would raise that peak."""
    log = []
    for lo in range(0, len(frames), chunk):
        blob = frames[lo:lo + chunk].tobytes()
        log.extend(zip(t_end[lo:lo + chunk].tolist(), module[lo:lo + chunk].tolist(),
                       [blob[k:k + FRAME_LEN] for k in range(0, len(blob), FRAME_LEN)],
                       ok[lo:lo + chunk].tolist()))
    return log
