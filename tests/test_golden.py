"""Golden digests: the bytes that fixed seeds produce, pinned on one platform.

Each case writes its outputs to a fresh directory, and the sha256 of every
file there must equal the digest below.  A change that moves one bit of a
trace, a metrics report or a calibration model fails here.

The digests hold for the platform in PLATFORM (numpy, its BLAS build, the
machine and the SIMD extensions numpy found): another BLAS or CPU may round
the least-squares fits and matrix products differently.  On any other
platform the tests skip, naming what differs.
"""

import hashlib
import json
import platform

import numpy as np
import pytest

from amphisense import busring, cpg, harness, plant

PLATFORM = {
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31.188.0",
    "machine": "x86_64",
    "simd": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
}


def _platform():
    """This platform's entries of PLATFORM; only the pinned numpy is asked
    for the rest (older ones cannot report their build as dicts)."""
    if np.__version__ != PLATFORM["numpy"]:
        return {"numpy": np.__version__}
    cfg = np.show_config(mode="dicts")
    blas = cfg["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "machine": platform.machine(),
        "simd": " ".join(cfg["SIMD Extensions"]["found"]),
    }


def _bundled(config, **changes):
    return dict(harness._load_json(harness._resolve_config(config)), **changes)


def _trace(doc, out):
    plant.run_scenario(plant.Scenario(**doc)).write_csv(out / f"{doc['name']}_trace.csv")


def _cli(command, doc, out):
    path = out.parent / "config.json"
    path.write_text(json.dumps(doc))
    assert harness.main(["--out", str(out), command, str(path)]) in (0, 1)


def _bus_bench(doc, out):
    """bus-bench through the CLI, every ring it simulates recording its frame
    log; rings.sha256 digests each ring's counts, counters and frame log,
    in the order the bench ran them."""
    rings = []
    inner = busring.simulate_ring

    def record(*args, **kwargs):
        rings.append(inner(*args, **dict(kwargs, record_frames=True)))
        return rings[-1]

    busring.simulate_ring = record
    try:
        _cli("bus-bench", doc, out)
    finally:
        busring.simulate_ring = inner
    digest = hashlib.sha256()
    for ring in rings:
        digest.update(ring.frames_sent.tobytes() + ring.frames_ok.tobytes())
        digest.update(repr((ring.corrupt_injected, ring.corrupt_detected,
                            ring.timeout_recoveries, ring.collisions)).encode())
        for t, i, frame, ok in ring.frame_log:
            digest.update(repr((t, i, ok)).encode() + frame)
    (out / "rings.sha256").write_text(digest.hexdigest())


# case: (what writes the outputs, its config document); the swim, the
# shoreline and the bus faults have perfbench's shapes at seed 1
CASES = {
    "swim": (_trace, _bundled("swim_pool", name="bench_swim", drive=cpg.D_SWIM,
                              drive_switch_t=None, duration_s=1.2, seed=1)),
    "shoreline": (lambda doc, out: _cli("run", doc, out),
                  _bundled("shoreline_transition", name="bench_shoreline", x_start=0.2,
                           duration_s=1.8, seed=1)),
    "walk_floor": (_trace, _bundled("walk_floor", duration_s=2.0)),
    "calibrate_jig_default": (lambda doc, out: _cli("calibrate", doc, out),
                              _bundled("jig_default")),
    "calibrate_flow": (lambda doc, out: _cli("calibrate", doc, out),
                       {"kind": "flow", "n_units": 3, "n_average": 8, "seed": 3}),
    "bus_faults": (_bus_bench, _bundled("line_default", n_modules=10, flip_rate=1e-3,
                                        duration_s=4.0, kill_at=2.0, seed=1)),
}

# sha256 of each output file, taken on PLATFORM
DIGESTS = {
    'swim': {
        'bench_swim_trace.csv': 'aa2cbf2878bc74ad24c5a37fdd3f6770a01aacf3663de3ed0c5b53bf729ceff8',
    },
    'shoreline': {
        'bench_shoreline_metrics.json': 'd7ef215b6cab46f1f0929c1967d9d772b55dcb67606e22ac76e0b6d3da4573e0',
        'bench_shoreline_trace.csv': '979274272676691bb7a89886d016716e88b315261681ed173ea2634f0f40ee81',
    },
    'walk_floor': {
        'walk_floor_trace.csv': '8ecb9cd2caec6ef6ab5cc4a797c415be9955ea5f99309fecad41ec1ddcfac58d',
    },
    'calibrate_jig_default': {
        'calibration_report.json': 'e7a6070ce14f4dbb7559f3dbdf421385de3a19ab279ebaa6fef50df3b95129f3',
        'foot_00_model.json': '4e0dc9cdd9951a6f1b7c88504b744012bdad2620404c314476a798978a8d034c',
        'foot_01_model.json': '1020cf06bb1096350d4a70114372ec7dd6a2929738e13c47090d9e9c284fb605',
        'foot_02_model.json': '828e063aa509c5e350756a30a7563b815e0f0f90b44038b77123e3194a63cc50',
        'foot_03_model.json': 'ba7a57f99068ea1bb68d8f84917e8c51320ca9e2a2dcd1cbce28ff0eb2eab3fe',
    },
    'calibrate_flow': {
        'calibration_report.json': 'a05ba05a4d8735674fff2e008843dc13443b063a4ade3f30bd75fe0cc191fef2',
        'flow_00_model.json': 'ad7ae1dd6a0ae88fe64537637f2615fddd94a596c126128e7bfbbbcf7191a3f1',
        'flow_01_model.json': 'dfde22df46aa92803917eabea2a888a0c2658653186c73fce61b684887ec702c',
        'flow_02_model.json': 'd8b6522ae15fa82b6bd3e2fe7b3508e5ac7cc9c8bc13235b90a59bdc1cb1132e',
    },
    'bus_faults': {
        'bus_bench.json': 'e653c7e0745a2e3a36cafa742adad7bce7920b82d761de8054d74107b35fefbe',
        'rings.sha256': '38f8624fe127f0f7411694968e173e7adde88230f46bb1e29888909340ad3127',
    },
}


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_their_digests(case, tmp_path):
    mismatch = [f"{k} {v!r} (pinned {PLATFORM[k]!r})"
                for k, v in _platform().items() if v != PLATFORM[k]]
    if mismatch:
        pytest.skip("digests pinned on another platform: " + "; ".join(mismatch))
    write, doc = CASES[case]
    out = tmp_path / "out"
    out.mkdir()
    write(doc, out)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert got == DIGESTS[case]
