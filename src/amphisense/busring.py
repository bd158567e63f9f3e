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
CRC-8 (poly 0x07, init 0x00) over id + payload.  The host's control
frame is sync 0x55, opcode, CRC-8 over the opcode.

Timing fidelity is at byte granularity (10-bit UART bytes); listeners
arm off physical frame boundaries, so corrupted payloads perturb the
host's data ledger but never the ring cadence.
"""

from __future__ import annotations

import heapq
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

SYNC_DATA = 0xAA
SYNC_CTRL = 0x55
FRAME_LEN = 11
CTRL_LEN = 3

OP_START = 0x01
OP_RESET = 0x02

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


def encode_frame(sample: FluxSample, flux_lsb: float = FLUX_LSB_MT,
                 temp_lsb: float = TEMP_LSB_C) -> bytes:
    """Serialize a sample to the 11-byte wire frame."""
    if not 0 <= sample.module_id <= 0xFF:
        raise EncodingRangeError("module id must fit one byte")
    words = quantize(np.array([*sample.flux_mt, sample.temp_c]),
                     np.array([flux_lsb, flux_lsb, flux_lsb, temp_lsb]))
    body = bytes([sample.module_id]) + words.astype("<i2").tobytes()
    return bytes([SYNC_DATA]) + body + bytes([crc8(body)])


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


def encode_control(opcode: int) -> bytes:
    if opcode not in (OP_START, OP_RESET):
        raise BusError(f"unknown opcode 0x{opcode:02X}")
    return bytes([SYNC_CTRL, opcode, crc8(bytes([opcode]))])


def decode_control(buf) -> int:
    buf = bytes(buf)
    if len(buf) < CTRL_LEN:
        raise ShortFrameError(f"need {CTRL_LEN} bytes, got {len(buf)}")
    if buf[0] != SYNC_CTRL:
        raise BadSyncError(f"bad sync byte 0x{buf[0]:02X}")
    if crc8(buf[1:2]) != buf[2]:
        raise BadCrcError("control frame check failed")
    return buf[1]


@dataclass(frozen=True)
class LineConfig:
    baud: int = 1_000_000
    bits_per_byte: int = 10        # 8N1
    inter_frame_gap: float = 20e-6
    timeout: float = None

    def __post_init__(self):
        if self.baud <= 0:
            raise BusError("baud must be positive")
        if self.inter_frame_gap < 0:
            raise BusError("gap must be non-negative")
        if self.timeout is None:
            object.__setattr__(
                self, "timeout", 2.0 * (self.frame_time + self.inter_frame_gap)
            )
        if self.timeout <= self.frame_time:
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


def _zero_source(module_id: int, t: float) -> FluxSample:
    return FluxSample(module_id=module_id, flux_mt=np.zeros(3))


def simulate_ring(n_modules: int, config: LineConfig, duration: float,
                  faults: FaultPlan = None, sample_source=_zero_source,
                  rng=None, record_frames: bool = False) -> RingStats:
    """Run the ring for `duration` seconds of bus time.

    Event-driven at frame granularity.  Every frame completion rearms the
    ring with one `arm` entry that walks downstream from the transmitter:
    its k-th step fires the module k + 1 hops on after the gap plus k
    timeouts, unless a newer frame rearms the ring first.  Step 0 is the
    normal token handoff; a later step skips dead modules at the cost of
    one timeout each (self-healing).  The host start broadcast acts as a
    virtual frame from module n-1, so module 0 opens every run.

    Returns accumulated RingStats; protocol anomalies are counted, not
    raised.
    """
    if n_modules < 1:
        raise BusError("need at least one module")
    if not duration > 0:
        raise BusError("duration must be positive")
    faults = faults or FaultPlan()
    rng = rng or np.random.default_rng(0)
    gap, timeout, frame_time = config.inter_frame_gap, config.timeout, config.frame_time

    alive = np.ones(n_modules, dtype=bool)
    kills = sorted(faults.kills)
    delays = sorted([list(d) + [False] for d in faults.delays])
    for _, mid in kills:
        if not 0 <= mid < n_modules:
            raise BusError("fault targets unknown module")

    stats = RingStats(
        n_modules=n_modules,
        duration=duration,
        frames_sent=np.zeros(n_modules, dtype=np.int64),
        frames_ok=np.zeros(n_modules, dtype=np.int64),
        frame_log=[] if record_frames else None,
    )
    last_end = np.full(n_modules, np.nan)
    periods = []

    # event queue entries: (time, seq, kind, payload).  The ring generation
    # is the first sequence number of the latest rearm; an `arm` or delayed
    # `fire` entry of an older generation is stale.
    events = []
    seq = 0
    gen = -1

    line_busy_until = 0.0
    inflight = None   # mutable [module_id, frame bytes, corrupted]

    def apply_kills(now):
        while kills and kills[0][0] <= now:
            _, mid = kills.pop(0)
            alive[mid] = False

    def rearm(j, t_end):
        # j: id of the frame (or virtual frame) that just completed.  The
        # rearm reserves n sequence numbers and module i's step sorts at
        # gen + i, so ties pop in module order, as n entries would.
        nonlocal seq, gen
        gen = seq
        i = (j + 1) % n_modules
        heapq.heappush(events, (t_end + gap, gen + i, "arm", (i, 0, t_end, gen)))
        seq += n_modules

    def start_tx(i, now):
        nonlocal line_busy_until, inflight, seq
        for d in delays:
            if d[1] == i and d[0] <= now and not d[3]:
                d[3] = True
                heapq.heappush(events, (now + d[2], seq, "fire", (i, gen)))
                seq += 1
                return
        sample = sample_source(i, now)
        frame = bytearray(encode_frame(sample))
        record = [i, None, False]
        if now < line_busy_until:
            # half-duplex collision: both frames are lost deterministically
            stats.collisions += 1
            if inflight is not None and not inflight[2]:
                inflight[2] = True
                stats.corrupt_injected += 1
            record[2] = True
            stats.corrupt_injected += 1
        if faults.flip_rate > 0.0 and rng.random() < faults.flip_rate:
            bit = int(rng.integers(0, 8 * (FRAME_LEN - 1)))
            frame[1 + bit // 8] ^= 1 << (bit % 8)
            if not record[2]:
                record[2] = True
                stats.corrupt_injected += 1
        record[1] = bytes(frame)
        inflight = record
        line_busy_until = max(line_busy_until, now + frame_time)
        heapq.heappush(events, (now + frame_time, seq, "end", record))
        seq += 1

    # host opens the round; modules treat it as a frame from id n-1
    rearm(n_modules - 1, config.ctrl_time)

    while events:
        t, _, kind, payload = heapq.heappop(events)
        if t > duration:
            break
        apply_kills(t)
        if kind == "arm":
            i, k, t_end, g = payload
            if g != gen:
                continue
            if k + 1 < n_modules:
                nxt = (i + 1) % n_modules
                heapq.heappush(events, (t_end + gap + (k + 1) * timeout, g + nxt,
                                        "arm", (nxt, k + 1, t_end, g)))
            if alive[i]:
                if k > 0:
                    stats.timeout_recoveries += 1
                start_tx(i, t)
        elif kind == "fire":
            i, g = payload
            if g == gen and alive[i]:
                start_tx(i, t)
        else:
            i, frame, collided = payload
            stats.frames_sent[i] += 1
            ok = False
            if collided:
                stats.corrupt_detected += 1
            else:
                try:
                    decode_frame(frame)
                    ok = True
                except BusError:
                    stats.corrupt_detected += 1
            if ok:
                stats.frames_ok[i] += 1
            if stats.frame_log is not None:
                stats.frame_log.append((t, i, bytes(frame), ok))
            if not math.isnan(last_end[i]):
                periods.append(t - last_end[i])
            last_end[i] = t
            rearm(i, t)

    if periods:
        arr = np.array(periods)
        stats.round_periods = {
            "min": float(arr.min()),
            "mean": float(arr.mean()),
            "max": float(arr.max()),
            "count": int(arr.size),
        }
    return stats


def write_frame_csv(stats: RingStats, path):
    """Human-readable frame trace (requires record_frames=True)."""
    if stats.frame_log is None:
        raise BusError("simulation was run without record_frames")
    with open(path, "w") as fh:
        fh.write("t,module_id,ok,frame_hex\n")
        for t, i, frame, ok in stats.frame_log:
            fh.write(f"{t:.9f},{i},{int(ok)},{frame.hex()}\n")


def write_frame_log(stats: RingStats, path):
    """Binary frame trace: 8-byte little-endian time + 11 frame bytes."""
    if stats.frame_log is None:
        raise BusError("simulation was run without record_frames")
    with open(path, "wb") as fh:
        for t, _, frame, _ in stats.frame_log:
            fh.write(struct.pack("<d", t) + frame)
