"""satbench's layer probes still reach every program name they wrap.

``satbench/probes.py`` attributes time to layers by replacing program entry
points by name (``WavefrontEngine.plan``, ``engine.prepare_input``,
``IncrementalSAT.advance``, the distsat codec and so on).  A renamed or
bypassed target would leave its layer empty without failing anything but
the traced benchmark run.  This test loads the probes from their file (so
nothing under ``satbench/`` is imported as a package or edited), installs
them, drives each layer once and checks the calls they record.
"""

import importlib.util
from pathlib import Path

import numpy as np

from repro import compute_sat
from repro.backend import core as backend_core
from repro.distsat import SyntheticSource, checkpoint, coordinator, \
    distributed_sat, transport
from repro.hostexec import WavefrontEngine, engine, incremental, kernels
from repro.hostexec.incremental import IncrementalSAT

PROBES = Path(__file__).resolve().parent.parent / "satbench" / "probes.py"


def load_probes():
    spec = importlib.util.spec_from_file_location("satbench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def targets() -> dict:
    """Every object the probes replace, keyed by where it lives."""
    found = {
        "Backend.plan": backend_core.Backend.__dict__["plan"],
        "WavefrontEngine.plan": engine.WavefrontEngine.__dict__["plan"],
        "engine.prepare_input": engine.prepare_input,
        "engine.finalize_output": engine.finalize_output,
        "transport.handle_task": transport.handle_task,
    }
    for name in ("advance", "_repair_recompute", "_repair_rect"):
        found[f"IncrementalSAT.{name}"] = \
            incremental.IncrementalSAT.__dict__[name]
    for module in (coordinator, transport):
        for name in ("decode_message", "encode_message"):
            found[f"{module.__name__}.{name}"] = getattr(module, name)
    for name in ("open_run", "record_attempt", "commit_carry",
                 "mark_applied", "load_carry_before"):
        found[f"CheckpointStore.{name}"] = \
            checkpoint.CheckpointStore.__dict__[name]
    for name, spec in kernels.KERNELS.items():
        found[f"KERNELS[{name}]"] = spec
    return found


def test_probes_record_every_layer(tmp_path):
    probes = load_probes()
    before = targets()
    rec = probes.Recorder()
    installed = probes.install(rec)
    try:
        assert all(targets()[k] is not v for k, v in before.items())
        rec.enabled = True
        # A ragged 70 x 45 at W = 32: three tile rows, one padded copy.
        a = np.random.default_rng(1).integers(0, 100, size=(70, 45)) \
            .astype(np.int32)
        with WavefrontEngine(workers=1) as eng:
            compute_sat(a, algorithm="1R1W-SKSS-LB", tile_width=32,
                        engine=eng)
        assert dict(rec.calls) == {"plan": 2, "prepare": 1, "kernel": 3,
                                   "output": 1}
        assert rec.counters["tiles"] == 6

        rec.reset()
        for dtype in (np.int32, np.float32):   # delta and recompute repair
            frame = a.astype(dtype)
            with IncrementalSAT(frame, tile_width=32) as inc:
                moved = frame.copy()
                moved[40:50, 10:20] += 1
                inc.advance(moved)
        distributed_sat(SyntheticSource(64, 48), shards=2, tile_width=16,
                        algorithm="1R1W-SKSS-LB", inner_engine="wavefront",
                        collect=False, checkpoint_dir=tmp_path / "run")
        for layer in ("detect", "repair", "codec", "checkpoint", "stitch"):
            assert rec.calls[layer] >= 1, layer
    finally:
        installed.uninstall()
    after = targets()
    assert all(after[k] is v for k, v in before.items())
