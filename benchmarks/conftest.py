"""Benchmark-suite configuration.

Each paper artefact (table/figure) has one benchmark that runs its
experiment in quick mode exactly once per round (the experiments are
end-to-end analyses, not microseconds-scale kernels) and asserts the
qualitative reproduction before timing is reported.
"""

import pytest

from repro.experiments.common import close_shared_sessions

SEED = 20190622


@pytest.fixture
def once(benchmark):
    """Run the benched callable exactly once (end-to-end experiments).

    The harness sessions are closed first, so a replica times its own
    campaigns rather than rounds an earlier replica left in the
    sessions' round caches (Table 5 runs Table 3's campaigns).
    """

    def run(fn, *args, **kwargs):
        close_shared_sessions()
        return benchmark.pedantic(
            fn, args=args, kwargs=kwargs, rounds=1, iterations=1,
            warmup_rounds=0,
        )

    return run
