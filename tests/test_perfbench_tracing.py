"""perfbench's ``--trace`` wrappers patch names inside the program.

A method renamed or deleted in ``src/`` breaks a traced benchmark run only
when someone runs it; this test catches it in the tier-1 suite instead.
Every name the tracer patches must be bound while it is installed, wrap the
program's own function, and be restored once it is removed.
"""

import inspect

from perfbench.tracing import Tracer, installed

from repro.api import ArrayTrackService
from repro.api._procpool import ProcessShardPool
from repro.core import batch, music, pipeline, suppression
from repro.core.batch import BatchLocalizer
from repro.core.pipeline import SpectrumComputer
from repro.core.suppression import MultipathSuppressor
from repro.core.symmetry import SymmetryResolver
from repro.server.backend import ArrayTrackServer
from repro.server.tracker import ClientTracker

#: ``(owner, attribute)`` of every name ``perfbench/tracing.py`` patches.
PATCHED = [
    (ArrayTrackService, "ingest_many"),
    (ArrayTrackService, "tick"),
    (ArrayTrackService, "localize_many"),
    (ArrayTrackService, "localize_buffered"),
    (ArrayTrackServer, "collect_buffered"),
    (SpectrumComputer, "compute_many_stacked"),
    (SpectrumComputer, "compute_many_with_symmetry_stacked"),
    (pipeline, "smoothed_covariance_many"),
    (pipeline, "sample_covariance_many"),
    (music, "decompose_many"),
    (pipeline, "music_spectrum_many"),
    (SymmetryResolver, "side_powers_stack"),
    (MultipathSuppressor, "process"),
    (suppression, "group_spectra_by_time"),
    (suppression, "find_peaks"),
    (suppression, "peak_regions"),
    (BatchLocalizer, "estimate_batch"),
    (ClientTracker, "update"),
    (ProcessShardPool, "localize_shards"),
    (ProcessShardPool, "tick_shards"),
    (batch, "refine_many"),
]


def test_every_patched_name_is_bound_then_restored():
    bound = {(owner, name): vars(owner)[name] for owner, name in PATCHED}
    functions = {key: getattr(*key) for key in bound}
    with installed(Tracer()):
        for key, original in bound.items():
            patched = vars(key[0])[key[1]]
            assert patched is not original, key
            assert inspect.unwrap(patched) is functions[key], key
    for key, original in bound.items():
        assert vars(key[0])[key[1]] is original, key
