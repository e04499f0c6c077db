import os

# Fixed thread count before numpy loads: results are bitwise reproducible
# only at a fixed thread count, and desk-scale matrices gain nothing from
# BLAS threading.
os.environ.setdefault("APIQ_THREADS", "1")
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from apiq.calib import AdamW  # noqa: E402
from apiq.runconfig import default_corpus_path, load_corpus  # noqa: E402


@pytest.fixture(scope="session")
def corpus_tokens() -> np.ndarray:
    return load_corpus(default_corpus_path())


@pytest.fixture
def optimized_arrays(monkeypatch) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each array an `AdamW` is built over in the test, beside a copy of it
    taken then."""
    watched = []
    init = AdamW.__init__

    def spy(self, groups):
        init(self, groups)
        watched.extend((p, p.copy()) for params, _, _ in groups for p in params)

    monkeypatch.setattr(AdamW, "__init__", spy)
    return watched
