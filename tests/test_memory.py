"""Memory budget: a run's traced memory grows with its input.

tracemalloc's peak while load_corpus reads the synth-default corpus, and
then while run_pipeline scores it (the corpus it holds included), as a
multiple of the input's bytes. The bounds leave about 25% over the peaks
measured when they were set: 3.5x for the load and 4.1x for the pipeline.
A load that builds one Python object per row, or a join that keeps many
arrays of membership length alive at once, goes over.
"""

from __future__ import annotations

import tracemalloc

from fieldstrength.ingest import CorpusPaths, load_corpus
from fieldstrength.model import AnalysisConfig, CostModel
from fieldstrength.pipeline import run_pipeline

LOAD_BUDGET = 4.4  # peak traced bytes per input byte
PIPELINE_BUDGET = 5.1


def test_load_and_pipeline_stay_within_budget(default_synth_dir):
    paths = CorpusPaths(**{name: default_synth_dir / f"{name}.csv"
                           for name in ("taxonomy", "researchers", "publications", "authorships")})
    input_bytes = sum(path.stat().st_size for path in vars(paths).values())
    load_corpus(paths, AnalysisConfig())  # first-call allocations are not the load's
    tracemalloc.start()
    try:
        corpus = load_corpus(paths, AnalysisConfig())
        load_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        run_pipeline(corpus, CostModel(), top_bottom_k=10)
        pipeline_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert load_peak <= LOAD_BUDGET * input_bytes, load_peak / input_bytes
    assert pipeline_peak <= PIPELINE_BUDGET * input_bytes, pipeline_peak / input_bytes
