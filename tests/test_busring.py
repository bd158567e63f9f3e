"""Frame codec, CRC-8, ring timing, self-healing, and the motor budget."""

import heapq
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from amphisense import busring as bus

# flux within the int16 wire range at the default LSB, and at least one
# count beyond it
in_range = st.floats(-32768 * bus.FLUX_LSB_MT, 32767 * bus.FLUX_LSB_MT)
beyond = st.one_of(st.floats(32768 * bus.FLUX_LSB_MT, 1e6),
                   st.floats(-1e6, -32769 * bus.FLUX_LSB_MT),
                   st.just(float("nan")), st.just(float("inf")))
# a sample the codec accepts: module id, flux and temperature on the wire
samples = st.builds(bus.FluxSample, st.integers(0, 255),
                    st.tuples(in_range, in_range, in_range).map(np.array),
                    st.floats(-32768 * bus.TEMP_LSB_C, 32767 * bus.TEMP_LSB_C))


class TestCrc8:
    def test_empty_is_init(self):
        assert bus.crc8(b"") == 0x00

    def test_zero_byte(self):
        assert bus.crc8(b"\x00") == 0x00

    def test_check_value(self):
        # standard check string for this polynomial/init
        assert bus.crc8(b"123456789") == 0xF4

    def test_single_byte_table_consistency(self):
        # crc of a two-byte message chains through the intermediate state
        for a in (0x01, 0x55, 0xAA, 0xFF):
            inner = bus.crc8(bytes([a]))
            assert bus.crc8(bytes([a, 0x00])) == bus.crc8(bytes([inner]))


class TestCodec:
    def test_zero_sample_layout(self):
        frame = bus.encode_frame(bus.FluxSample(0, np.zeros(3), temp_c=0.0))
        assert frame == bytes([bus.SYNC_DATA]) + bytes(9) + bytes([0x00])
        assert len(frame) == bus.FRAME_LEN

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            counts = rng.integers(-32768, 32768, size=4)
            s = bus.FluxSample(
                module_id=int(rng.integers(0, 256)),
                flux_mt=counts[:3] * bus.FLUX_LSB_MT,
                temp_c=counts[3] * bus.TEMP_LSB_C,
            )
            back = bus.decode_frame(bus.encode_frame(s))
            assert back.module_id == s.module_id
            np.testing.assert_allclose(back.flux_mt, s.flux_mt, atol=1e-12)
            assert back.temp_c == pytest.approx(s.temp_c, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(in_range, in_range, in_range), min_size=1, max_size=20))
    def test_quantize_matches_codec(self, rows):
        # the vectorized quantizer is the codec's own rounding: the wire
        # round trip of every row, within half an LSB of the input
        flux = np.array(rows)
        got = bus.quantize(flux, bus.FLUX_LSB_MT) * bus.FLUX_LSB_MT
        want = np.array([bus.decode_frame(bus.encode_frame(bus.FluxSample(0, f))).flux_mt
                         for f in flux])
        np.testing.assert_array_equal(got, want)
        assert np.all(np.abs(got - flux) <= bus.FLUX_LSB_MT / 2 * (1 + 1e-9))

    @settings(max_examples=100, deadline=None)
    @given(in_range, beyond, st.integers(0, 2))
    def test_quantize_rejects_outside_int16(self, ok, bad, axis):
        flux = np.full(3, ok)
        flux[axis] = bad
        with pytest.raises(bus.EncodingRangeError):
            bus.quantize(flux, bus.FLUX_LSB_MT)
        with pytest.raises(bus.EncodingRangeError):
            bus.encode_frame(bus.FluxSample(0, flux))

    def test_flux_overflow(self):
        with pytest.raises(bus.EncodingRangeError):
            bus.encode_frame(bus.FluxSample(0, np.array([40.0, 0, 0])))
        with pytest.raises(bus.EncodingRangeError):
            bus.encode_frame(bus.FluxSample(0, np.array([np.nan, 0, 0])))
        with pytest.raises(bus.EncodingRangeError):
            bus.encode_frame(bus.FluxSample(300, np.zeros(3)))

    def test_short_frame(self):
        frame = bus.encode_frame(bus.FluxSample(1, np.zeros(3)))
        with pytest.raises(bus.ShortFrameError):
            bus.decode_frame(frame[:10])

    def test_bad_sync(self):
        frame = bytearray(bus.encode_frame(bus.FluxSample(1, np.zeros(3))))
        frame[0] = 0x55
        with pytest.raises(bus.BadSyncError):
            bus.decode_frame(frame)

    @settings(max_examples=50, deadline=None)
    @given(samples)
    def test_every_single_bit_flip_detected(self, s):
        frame = bus.encode_frame(s)
        for bit in range(8 * bus.FRAME_LEN):
            bad = bytearray(frame)
            bad[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(bus.BusError):
                bus.decode_frame(bad)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(samples, max_size=20))
    def test_array_encoder_rows_are_encode_frame(self, batch):
        # each row of the array encoder is the one-frame codec's frame, and
        # the wire layout packed field by field with half-to-even rounding
        frames = bus.encode_frames([s.module_id for s in batch],
                                   np.array([s.flux_mt for s in batch]),
                                   [s.temp_c for s in batch])
        assert frames.shape == (len(batch), bus.FRAME_LEN) and frames.dtype == np.uint8
        for row, s in zip(frames, batch):
            words = [round(x / bus.FLUX_LSB_MT) for x in s.flux_mt]
            body = bytes([s.module_id]) + struct.pack(
                "<4h", *words, round(s.temp_c / bus.TEMP_LSB_C))
            want = bytes([bus.SYNC_DATA]) + body + bytes([bus.crc8(body)])
            assert row.tobytes() == bus.encode_frame(s) == want
        assert bus.check_frames(frames).all()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(samples, min_size=1, max_size=5))
    def test_every_single_bit_flip_fails_array_check(self, batch):
        frames = bus.encode_frames([s.module_id for s in batch],
                                   np.array([s.flux_mt for s in batch]),
                                   [s.temp_c for s in batch])
        # one copy of the rows per bit of the frame, that bit flipped
        bits = np.arange(8 * bus.FRAME_LEN)
        bad = np.repeat(frames[None], len(bits), axis=0)
        bad[bits, :, bits // 8] ^= (1 << (bits % 8)).astype(np.uint8)[:, None]
        assert not bus.check_frames(bad.reshape(-1, bus.FRAME_LEN)).any()

    def test_array_encoder_rejects_out_of_range(self):
        with pytest.raises(bus.EncodingRangeError):
            bus.encode_frames([0, 256], np.zeros((2, 3)), [25.0, 25.0])
        with pytest.raises(bus.EncodingRangeError):
            bus.encode_frame(bus.FluxSample(1.5, np.zeros(3)))
        with pytest.raises(bus.EncodingRangeError):
            bus.encode_frames([0, 1], [[0.0, 0.0, 0.0], [0.0, 40.0, 0.0]], [25.0, 25.0])
        assert bus.encode_frames([], np.zeros((0, 3)), []).shape == (0, bus.FRAME_LEN)

    @settings(max_examples=10, deadline=None)
    @given(samples)
    def test_every_in_byte_burst_detected(self, s):
        frame = bus.encode_frame(s)
        # all non-trivial error patterns confined to one non-sync byte
        for pos in range(1, bus.FRAME_LEN):
            for mask in range(1, 256):
                bad = bytearray(frame)
                bad[pos] ^= mask
                with pytest.raises(bus.BusError):
                    bus.decode_frame(bad)


class TestLineConfig:
    def test_default_timing(self):
        cfg = bus.LineConfig()
        assert cfg.byte_time == pytest.approx(10e-6)
        assert cfg.frame_time == pytest.approx(110e-6)
        assert cfg.timeout == pytest.approx(260e-6)

    def test_validation(self):
        with pytest.raises(bus.BusError):
            bus.LineConfig(baud=0)
        with pytest.raises(bus.BusError):
            bus.LineConfig(timeout=50e-6)
        for gap in (-1e-6, float("nan")):
            with pytest.raises(bus.BusError):
                bus.LineConfig(inter_frame_gap=gap)
        with pytest.raises(bus.BusError):
            bus.LineConfig(timeout=float("nan"))
        for bits in (0, -1, 2.5, "10", True):
            with pytest.raises(bus.BusError):
                bus.LineConfig(bits_per_byte=bits)
        # past the float range, bits_per_byte / baud underflows to 0
        for baud in (10 ** 400, float("inf")):
            with pytest.raises(bus.BusError, match="baud must leave a positive byte time"):
                bus.LineConfig(baud=baud)

    def test_closed_form_rate(self):
        cfg = bus.LineConfig()
        assert bus.ring_round_period(10, cfg) == pytest.approx(1.3e-3)
        assert bus.ring_rate(10, cfg) == pytest.approx(769.2307692, abs=1e-4)


class TestRingSimulation:
    @pytest.mark.parametrize("duration", [0.0, -1.0, float("nan"), float("inf")])
    def test_duration_must_be_positive_and_finite(self, duration):
        # an infinite or NaN duration would never end the schedule
        with pytest.raises(bus.BusError):
            bus.simulate_ring(3, bus.LineConfig(), duration)

    def test_fault_free_rate_matches_closed_form(self):
        cfg = bus.LineConfig()
        duration = 2.0
        stats = bus.simulate_ring(10, cfg, duration)
        expect = bus.ring_rate(10, cfg)
        for rate in stats.frames_sent / duration:
            assert abs(rate - expect) / expect < 1e-3
        assert stats.timeout_recoveries == 0
        assert stats.corrupt_detected == 0
        assert np.array_equal(stats.frames_ok, stats.frames_sent)

    def test_liveness_id_order(self):
        cfg = bus.LineConfig()
        stats = bus.simulate_ring(5, cfg, duration=0.1, record_frames=True)
        ids = [i for (_, i, _, _) in stats.frame_log]
        assert ids[:5] == [0, 1, 2, 3, 4]
        for k, i in enumerate(ids):
            assert i == k % 5
        counts = stats.frames_sent
        assert counts.max() - counts.min() <= 1

    def test_round_period_uniform_without_faults(self):
        cfg = bus.LineConfig()
        stats = bus.simulate_ring(10, cfg, duration=1.0)
        periods = np.concatenate([np.diff(stats.frame_ends[stats.frame_modules == m])
                                  for m in range(10)])
        assert periods.max() - periods.min() < 1e-12
        assert periods.mean() == pytest.approx(bus.ring_round_period(10, cfg))

    def test_single_module_free_runs(self):
        cfg = bus.LineConfig()
        duration = 0.5
        stats = bus.simulate_ring(1, cfg, duration)
        expect = 1.0 / (cfg.frame_time + cfg.inter_frame_gap)
        assert abs(stats.frames_sent[0] / duration - expect) / expect < 1e-3

    def test_kill_one_module_heals_with_one_timeout_per_round(self):
        cfg = bus.LineConfig()
        plan = bus.FaultPlan(kills=((1.0, 3),))
        stats = bus.simulate_ring(10, cfg, duration=2.0, faults=plan,
                                  record_frames=True)
        # module 3 stops at the kill, everyone else continues
        t3 = [t for (t, i, _, _) in stats.frame_log if i == 3]
        assert max(t3) <= 1.0 + bus.ring_round_period(10, cfg)
        t4 = [t for (t, i, _, _) in stats.frame_log if i == 4]
        assert max(t4) > 1.9
        # exactly one recovery per post-kill round
        rounds_after = len([t for t in t4 if t > max(t3)])
        assert stats.timeout_recoveries == rounds_after
        # the faulted round is longer by exactly timeout - frame - gap
        t0 = np.array([t for (t, i, _, _) in stats.frame_log if i == 0])
        periods = np.diff(t0)
        nominal = bus.ring_round_period(10, cfg)
        grown = nominal + (cfg.timeout - cfg.frame_time - cfg.inter_frame_gap)
        assert periods[:3] == pytest.approx(nominal, abs=1e-12)
        assert periods[-3:] == pytest.approx(grown, abs=1e-12)

    def test_bit_flip_faults_all_detected(self):
        cfg = bus.LineConfig()
        plan = bus.FaultPlan(flip_rate=0.3)
        stats = bus.simulate_ring(10, cfg, duration=0.5, faults=plan,
                                  rng=np.random.default_rng(42))
        assert stats.corrupt_injected > 50
        assert stats.corrupt_detected == stats.corrupt_injected
        assert stats.frames_ok.sum() == stats.frames_sent.sum() - stats.corrupt_injected

    def test_determinism(self):
        cfg = bus.LineConfig()
        plan = bus.FaultPlan(flip_rate=0.1, kills=((0.7, 5),))
        a = bus.simulate_ring(8, cfg, duration=1.0, faults=plan,
                              rng=np.random.default_rng(7))
        b = bus.simulate_ring(8, cfg, duration=1.0, faults=plan,
                              rng=np.random.default_rng(7))
        assert np.array_equal(a.frames_sent, b.frames_sent)
        assert a.corrupt_injected == b.corrupt_injected
        assert a.frame_ends.tobytes() == b.frame_ends.tobytes()

    def test_config_errors(self):
        with pytest.raises(bus.BusError):
            bus.simulate_ring(0, bus.LineConfig(), 1.0)
        with pytest.raises(bus.BusError):
            bus.simulate_ring(4, bus.LineConfig(), 1.0,
                              faults=bus.FaultPlan(kills=((0.1, 9),)))

    @pytest.mark.parametrize("n", [0, 257, 300, 10**17])
    def test_module_count_bound_comes_before_scheduling(self, n, monkeypatch):
        # a frame carries its module id in one byte; a count past 256 used
        # to schedule the whole ring before the codec refused the ids
        def schedule(*args):
            raise AssertionError("scheduled")

        monkeypatch.setattr(bus, "_schedule_ring", schedule)
        with pytest.raises(bus.BusError, match="n_modules must be 1-256"):
            bus.simulate_ring(n, bus.LineConfig(), 0.01)

    @pytest.mark.parametrize("over", [False, True, "log"])
    def test_frame_count_bound_comes_before_scheduling(self, over, monkeypatch):
        # a ring past the bound would allocate about 22 B a frame (174 B with
        # its frame log, whose bound is lower) until the machine runs out, so
        # it is refused before anything is scheduled; one at the bound
        # reaches the (patched) schedule
        def schedule(*args):
            raise AssertionError("scheduled")

        monkeypatch.setattr(bus, "_schedule_ring", schedule)
        line = bus.LineConfig()
        limit = bus._MAX_LOGGED_FRAMES if over == "log" else bus._MAX_FRAMES
        duration = limit * (line.frame_time + line.inter_frame_gap) * (
            1.001 if over else 0.999)
        if over:
            with pytest.raises(bus.BusError, match=re.escape(f"duration {duration!r} s")):
                bus.simulate_ring(10, line, duration, record_frames=over == "log")
        else:
            with pytest.raises(AssertionError, match="scheduled"):
                bus.simulate_ring(10, line, duration)

    @pytest.mark.parametrize("faulted", [False, True])
    def test_ring_peaks_under_24_bytes_a_frame(self, faulted):
        # the schedule is written once into arrays sized by the fault-free
        # frame count: a ring of 100k frames peaks at 21 B a frame, 22.3 with
        # a kill halfway and flips, where growing the arrays block by block
        # peaked at 25.3 either way
        line = bus.LineConfig()
        duration = 100_000 * (line.frame_time + line.inter_frame_gap)
        plan = bus.FaultPlan(kills=((duration / 2, 3),), flip_rate=1e-3) if faulted else None
        bus.simulate_ring(10, line, 0.01, faults=plan, rng=np.random.default_rng(1))
        tracemalloc.start()
        try:
            ring = bus.simulate_ring(10, line, duration, faults=plan,
                                     rng=np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ring.frames_sent.sum() > 90_000
        assert peak < 24 * ring.frames_sent.sum()

    def test_256_modules_fit_one_byte(self):
        stats = bus.simulate_ring(256, bus.LineConfig(), 0.04)
        assert stats.frames_ok[255] == 1 and stats.corrupt_detected == 0

    def test_flip_free_ring_makes_no_generator(self, monkeypatch):
        # a flip-free ring needs no draws, so it never loads numpy.random
        def default_rng(*args):
            raise AssertionError("generator made")

        monkeypatch.setattr(np.random, "default_rng", default_rng)
        bus.simulate_ring(10, bus.LineConfig(), 0.05)
        bus.simulate_ring(10, bus.LineConfig(), 0.05,
                          faults=bus.FaultPlan(kills=((0.02, 3),)))

    def test_default_generator_draws_as_seed_zero(self):
        plan = bus.FaultPlan(flip_rate=0.05)
        a = bus.simulate_ring(10, bus.LineConfig(), 0.1, faults=plan, record_frames=True)
        b = bus.simulate_ring(10, bus.LineConfig(), 0.1, faults=plan,
                              rng=np.random.default_rng(0), record_frames=True)
        assert a.corrupt_injected > 0 and a.frame_log == b.frame_log

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_frame_arrays_are_the_frame_log_columns(self, data):
        n = data.draw(st.integers(2, 12))
        duration = data.draw(st.floats(0.001, 0.2))
        kills = data.draw(st.lists(st.tuples(st.floats(0.0, duration), st.integers(0, n - 1)),
                                   min_size=1, max_size=2))
        ring = bus.simulate_ring(n, bus.LineConfig(), duration,
                                 faults=bus.FaultPlan(kills=tuple(kills)), record_frames=True)
        t = np.array([e[0] for e in ring.frame_log], dtype=np.float64)
        i = np.array([e[1] for e in ring.frame_log], dtype=np.intc)
        assert ring.frame_ends.dtype == t.dtype and ring.frame_modules.dtype == i.dtype
        assert ring.frame_ends.tobytes() == t.tobytes()
        assert ring.frame_modules.tobytes() == i.tobytes()

    @pytest.mark.parametrize("plan", [
        {"kills": ((float("nan"), 2), (0.001, 3))},
        {"kills": ((float("inf"), 2),)},
    ])
    def test_fault_times_must_be_finite(self, plan):
        # a NaN kill at the head of the kills never took effect and held
        # back every later one
        with pytest.raises(bus.BusError):
            bus.FaultPlan(**plan)

    @pytest.mark.parametrize("mid", [-1, 4, 99])
    def test_kill_targets_known_module(self, mid, monkeypatch):
        # refused before anything is scheduled
        def schedule(*args):
            raise AssertionError("scheduled")

        monkeypatch.setattr(bus, "_schedule_ring", schedule)
        with pytest.raises(bus.BusError, match="unknown module"):
            bus.simulate_ring(4, bus.LineConfig(), 0.01,
                              faults=bus.FaultPlan(kills=((0.005, mid),)))


def reference_ring(n_modules, config, duration, faults, rng):
    """The per-module scheduler that simulate_ring replaced: every frame end
    pushes one fire entry for each live module, stamped with that module's
    generation, and all but the next transmitter's go stale.  Each started
    frame carries zero flux at 25 degC, encoded and checked one frame at a
    time."""
    alive = np.ones(n_modules, dtype=bool)
    gen = np.zeros(n_modules, dtype=np.int64)
    kills = sorted(faults.kills)
    stats = bus.RingStats(np.zeros(n_modules, dtype=np.int64),
                          np.zeros(n_modules, dtype=np.int64), frame_log=[])
    events = []
    seq = 0
    line_busy_until = 0.0
    inflight = None

    def push(t, kind, payload):
        nonlocal seq
        heapq.heappush(events, (t, seq, kind, payload))
        seq += 1

    def rearm_all(j, t_end):
        for i in range(n_modules):
            if alive[i]:
                k = (i - j - 1) % n_modules
                gen[i] += 1
                push(t_end + config.inter_frame_gap + k * config.timeout,
                     "fire", (i, gen[i], k > 0))

    def start_tx(i, now):
        nonlocal line_busy_until, inflight
        frame = bytearray(bus.encode_frame(bus.FluxSample(i, np.zeros(3))))
        record = [i, None, False]
        if now < line_busy_until:
            stats.collisions += 1
            if inflight is not None and not inflight[2]:
                inflight[2] = True
                stats.corrupt_injected += 1
            record[2] = True
            stats.corrupt_injected += 1
        if faults.flip_rate > 0.0 and rng.random() < faults.flip_rate:
            bit = int(rng.integers(0, 8 * (bus.FRAME_LEN - 1)))
            frame[1 + bit // 8] ^= 1 << (bit % 8)
            if not record[2]:
                record[2] = True
                stats.corrupt_injected += 1
        record[1] = bytes(frame)
        inflight = record
        line_busy_until = max(line_busy_until, now + config.frame_time)
        push(now + config.frame_time, "end", record)

    push(config.ctrl_time, "host_start_end", None)
    while events:
        t, _, kind, payload = heapq.heappop(events)
        if t > duration:
            break
        while kills and kills[0][0] <= t:
            alive[kills.pop(0)[1]] = False
        if kind == "host_start_end":
            rearm_all(n_modules - 1, t)
        elif kind == "fire":
            i, g, is_recovery = payload
            if g != gen[i] or not alive[i]:
                continue
            stats.timeout_recoveries += is_recovery
            start_tx(i, t)
        else:
            i, frame, collided = payload
            stats.frames_sent[i] += 1
            ok = False
            if collided:
                stats.corrupt_detected += 1
            else:
                try:
                    bus.decode_frame(frame)
                    ok = True
                except bus.BusError:
                    stats.corrupt_detected += 1
            stats.frames_ok[i] += ok
            stats.frame_log.append((t, i, bytes(frame), ok))
            rearm_all(i, t)
    return stats


@st.composite
def ring_plans(draw):
    """(n_modules, LineConfig, duration, FaultPlan, seed): timeouts from just
    past one frame, gaps up to 20 us, up to 2 kills, and no, rare or heavy
    bit flips."""
    n = draw(st.integers(1, 10))
    config = bus.LineConfig(inter_frame_gap=draw(st.floats(0.0, 20e-6)),
                            timeout=draw(st.floats(111e-6, 1e-3)))
    duration = 0.03
    when = st.floats(0.0, duration)
    module = st.integers(0, n - 1)
    plan = bus.FaultPlan(
        kills=tuple(draw(st.lists(st.tuples(when, module), max_size=2))),
        flip_rate=draw(st.sampled_from([0.0, 1e-3, 0.3])),
    )
    return n, config, duration, plan, draw(st.integers(0, 2**32 - 1))


@st.composite
def delay_free_plans(draw):
    """(n_modules, LineConfig, duration, FaultPlan, seed) over longer runs
    than ring_plans: 1-12 modules, three baud rates, up to 3 kills and
    flip rates from none to every frame."""
    n = draw(st.integers(1, 12))
    baud = draw(st.sampled_from([500_000, 1_000_000, 2_000_000]))
    frame_time = bus.FRAME_LEN * 10 / baud
    config = bus.LineConfig(baud=baud, inter_frame_gap=draw(st.floats(0.0, 20e-6)),
                            timeout=draw(st.one_of(st.none(),
                                                   st.floats(1.01 * frame_time, 1e-3))))
    duration = draw(st.floats(0.001, 0.3))
    plan = bus.FaultPlan(
        kills=tuple(draw(st.lists(st.tuples(st.floats(0.0, duration), st.integers(0, n - 1)),
                                  max_size=3))),
        flip_rate=draw(st.sampled_from([0.0, 1e-3, 0.05, 1.0])),
    )
    return n, config, duration, plan, draw(st.integers(0, 2**32 - 1))


@st.composite
def edge_durations(draw):
    """(n_modules, LineConfig, duration, FaultPlan, seed, starts): duration
    is the start of one frame of the ring, often its last, or one ulp either
    side, and starts counts the frames that start by then."""
    n = draw(st.integers(1, 12))
    config = bus.LineConfig(baud=draw(st.sampled_from([500_000, 1_000_000, 2_000_000])),
                            inter_frame_gap=draw(st.floats(0.0, 20e-6)))
    horizon = 0.02
    plan = bus.FaultPlan(
        kills=tuple(draw(st.lists(st.tuples(st.floats(0.0, horizon), st.integers(0, n - 1)),
                                  max_size=2))),
        flip_rate=draw(st.sampled_from([0.0, 1e-3, 0.3])),
    )
    start = bus._schedule_ring(n, config, horizon, plan, None)[0]
    assume(len(start))
    k = draw(st.one_of(st.just(len(start) - 1), st.integers(0, len(start) - 1)))
    side = draw(st.sampled_from([-1, 0, 1]))
    duration = float(np.nextafter(start[k], side * np.inf) if side else start[k])
    return n, config, duration, plan, draw(st.integers(0, 2**32 - 1)), k + (side >= 0)


class TestReferenceScheduler:
    """simulate_ring's running sum against one fire entry per live module:
    frame log and counters are identical."""

    @staticmethod
    def both(n, config, duration, plan, seed):
        ring = bus.simulate_ring(n, config, duration, faults=plan,
                                 rng=np.random.default_rng(seed), record_frames=True)
        ref = reference_ring(n, config, duration, plan, np.random.default_rng(seed))
        assert ring.frame_log == ref.frame_log
        for name in ("corrupt_injected", "corrupt_detected", "timeout_recoveries",
                     "collisions"):
            assert getattr(ring, name) == getattr(ref, name), name
        assert np.array_equal(ring.frames_sent, ref.frames_sent)
        assert np.array_equal(ring.frames_ok, ref.frames_ok)
        return ring

    @settings(max_examples=100, deadline=None)
    @given(ring_plans())
    def test_matches_per_module_entries(self, case):
        self.both(*case)

    @settings(max_examples=60, deadline=None)
    @given(edge_durations())
    def test_frame_starting_at_duration_fits_the_schedule(self, case):
        # _schedule_ring sizes its arrays by the fault-free frame count; a
        # frame that starts exactly at the duration is still scheduled
        *case, starts = case
        n, config, duration, plan, _ = case
        assert len(bus._schedule_ring(n, config, duration, plan, None)[0]) == starts
        self.both(*case)

    def test_recovery_case(self):
        plan = bus.FaultPlan(kills=((0.005, 3), (0.01, 4)), flip_rate=0.3)
        ring = self.both(10, bus.LineConfig(), 0.02, plan, 3)
        assert ring.timeout_recoveries > 0


    @settings(max_examples=25, deadline=None)
    @given(delay_free_plans())
    def test_matches_on_delay_free_plans(self, case):
        self.both(*case)

    def test_lone_survivor_rearms_itself(self):
        # with modules 1-3 dead, module 0 waits out n - 1 timeouts each round
        cfg = bus.LineConfig()
        plan = bus.FaultPlan(kills=((0.002, 1), (0.002, 2), (0.003, 3)))
        ring = self.both(4, cfg, 0.02, plan, 0)
        t0 = [t for t, i, _, _ in ring.frame_log if i == 0]
        late = [i for t, i, _, _ in ring.frame_log if t > 0.004]
        assert len(late) > 10 and set(late) == {0}
        assert np.diff(t0)[-1] == pytest.approx(
            cfg.frame_time + cfg.inter_frame_gap + 3 * cfg.timeout, abs=1e-12)

    @staticmethod
    def clean_starts(n, config, duration):
        """Each module's frame starts on the fault-free ring."""
        ring = bus.simulate_ring(n, config, duration, record_frames=True)
        return {m: [te - config.frame_time for te, i, _, _ in ring.frame_log if i == m]
                for m in range(n)}

    def test_adjacent_kills_at_one_instant(self):
        # modules 8 and 9 die at 0.1 s, after 8 starts and before 9 does:
        # the ring resumes from the end of dead module 8's frame, so the
        # first hop (to 0) is one module shorter than in later rounds (from
        # 7), and the next block, over 2,048 frames on, takes the rounds' hop
        cfg = bus.LineConfig()
        starts = self.clean_starts(10, cfg, 0.11)
        assert max(t for t in starts[8] if t < 0.1) > max(t for t in starts[9] if t < 0.1)
        plan = bus.FaultPlan(kills=((0.1, 8), (0.1, 9)), flip_rate=0.05)
        ring = self.both(10, cfg, 0.6, plan, 1)
        assert sum(t > 0.1 for t, *_ in ring.frame_log) > bus._BLOCK
        assert ring.timeout_recoveries > 0

    def test_later_kill_takes_effect_first(self):
        # module 8 dies at 5.0 ms but next starts at 6.29 ms; module 2 dies
        # at 5.5 ms and next starts at 5.51 ms
        cfg = bus.LineConfig()
        starts = self.clean_starts(10, cfg, 0.01)
        assert (min(t for t in starts[2] if t >= 0.0055)
                < min(t for t in starts[8] if t >= 0.005))
        self.both(10, cfg, 0.02, bus.FaultPlan(kills=((0.005, 8), (0.0055, 2))), 0)

    @pytest.mark.parametrize("when", [0.0, 1e-5])
    def test_kill_before_first_frame(self, when):
        # module 0 is dead before the host start ends: module 1 opens the
        # ring one timeout late
        ring = self.both(5, bus.LineConfig(), 0.01, bus.FaultPlan(kills=((when, 0),)), 0)
        assert ring.frame_log[0][1] == 1 and ring.frames_sent[0] == 0

    def test_every_module_dies(self):
        # module 3 is dead from t = 0, so it never sends; the others die one
        # by one, two at one instant, until the ring falls silent
        plan = bus.FaultPlan(kills=((0.0, 3), (0.002, 0), (0.004, 5), (0.004, 1),
                                    (0.006, 2), (0.0075, 4)), flip_rate=0.05)
        ring = self.both(6, bus.LineConfig(), 0.02, plan, 5)
        assert ring.frames_sent[3] == 0 and ring.frames_sent.min() == 0
        assert ring.frame_log[-1][0] < 0.0075 + bus.ring_round_period(6, bus.LineConfig())
        assert ring.timeout_recoveries > 0

    def test_kill_at_its_module_start(self):
        # module 0 dies at the very instant its first turn comes (the host
        # start's end plus one gap), so it never sends
        cfg = bus.LineConfig()
        plan = bus.FaultPlan(kills=((cfg.ctrl_time + cfg.inter_frame_gap, 0),))
        ring = self.both(5, cfg, 0.01, plan, 0)
        assert ring.frames_sent[0] == 0 and ring.frame_log[0][1] == 1

    def test_run_spans_several_blocks(self):
        # 7,692 frames: a kill and bit flips across block boundaries
        plan = bus.FaultPlan(kills=((0.4, 3),), flip_rate=1e-3)
        ring = self.both(10, bus.LineConfig(), 1.0, plan, 2)
        assert ring.frames_sent.sum() > 3 * bus._BLOCK
        assert ring.corrupt_injected > 0 and ring.timeout_recoveries > 0


class TestMotorBudget:
    def test_sixteen_motor_anchor(self):
        rate = bus.motor_bus_budget(16, 2e-6, 0.3e-3)
        assert rate == pytest.approx(206.9536, abs=1e-3)
        assert rate >= 99.9

    def test_single_motor(self):
        assert bus.motor_bus_budget(1, 2e-6, 0.3e-3) == pytest.approx(3311.26, abs=0.01)

    def test_validation(self):
        with pytest.raises(bus.BusError):
            bus.motor_bus_budget(0, 1e-6, 1e-6)
        with pytest.raises(bus.BusError):
            bus.motor_bus_budget(4, -1e-6, 1e-6)
